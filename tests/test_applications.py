import json

import numpy as np
import pytest

from pairprox import applications as apps
from pairprox import operators as ops, resolvents, solvers
from pairprox.errors import AllEigenvaluesZeroError, NonFiniteIterateError, NotSymmetricError
from pairprox.rng import SplitMix64

FULL = solvers.SolverConfig(trace_level=solvers.TraceLevel.FULL)

REMARK_MATRIX = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, -2.0, -3.0]])


def example_qp():
    # stationarity: 2y + lambda*(1,1) = 0 and y1 + y2 = 2 give y = (1,1),
    # lambda = -2
    return apps.QPProblem(
        q=2.0 * np.eye(2), c=np.zeros(2), constraint=np.array([[1.0, 1.0]]), d=np.array([2.0])
    )


class TestBuildKKT:
    def test_hand_checked_example(self):
        kkt = apps.build_kkt(example_qp())
        assert np.array_equal(kkt.matrix, [[2, 0, 1], [0, 2, 1], [1, 1, 0]])
        assert np.array_equal(kkt.rhs, [0.0, 0.0, 2.0])
        assert kkt.split == 2

    def test_unconstrained_reduction(self):
        qp = apps.QPProblem(np.eye(2), np.array([1.0, -1.0]), np.zeros((0, 2)), np.zeros(0))
        kkt = apps.build_kkt(qp)
        assert np.array_equal(kkt.matrix, np.eye(2))
        assert np.array_equal(kkt.rhs, [-1.0, 1.0])

    def test_pure_constraint_block(self):
        n = 3
        d = np.array([1.0, 2.0, 3.0])
        qp = apps.QPProblem(np.zeros((n, n)), np.zeros(n), np.eye(n), d)
        kkt = apps.build_kkt(qp)
        expected = np.block([[np.zeros((n, n)), np.eye(n)], [np.eye(n), np.zeros((n, n))]])
        assert np.array_equal(kkt.matrix, expected)
        # direct block solve: y = d, lambda = 0
        sol = apps.solve_kkt(kkt, kappa=0.2)
        assert np.allclose(sol.primal, d, atol=1e-7)
        assert np.allclose(sol.multipliers, 0.0, atol=1e-7)

    def test_asymmetric_q_rejected(self):
        with pytest.raises(NotSymmetricError):
            apps.QPProblem(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2), np.zeros((0, 2)), np.zeros(0))


class TestNonFiniteData:
    @pytest.mark.parametrize("name", ["Q", "c", "C", "d"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_qp_rejects_non_finite_data(self, name, bad):
        data = {"q": 2.0 * np.eye(2), "c": np.zeros(2), "constraint": np.array([[1.0, 1.0]]), "d": np.array([2.0])}
        field = {"Q": "q", "C": "constraint"}.get(name, name)
        data[field] = data[field].copy()
        data[field].flat[0] = bad
        with pytest.raises(ValueError, match=f"^{name} has non-finite entries"):
            apps.QPProblem(**data)

    @pytest.mark.parametrize("name", ["A", "b"])
    def test_least_squares_rejects_non_finite_data(self, name):
        # a NaN in A used to come back as Converged after 0 iterations
        data = {"A": np.array([[1.0, 1.0], [1.0, 0.0]]), "b": np.array([1.0, 1.0])}
        data[name] = data[name].copy()
        data[name].flat[0] = np.nan
        with pytest.raises(ValueError, match=f"^{name} has non-finite entries"):
            apps.least_squares_iterate(data["A"], data["b"], kappa=0.2)


class TestSelectKappa:
    def test_reference_spectrum(self):
        sel = apps.select_kappa(np.diag([1.0, 0.0, -0.5]))
        assert sel.alpha_abs == pytest.approx(0.5, abs=1e-12)
        assert sel.kappa == pytest.approx(0.2, abs=1e-12)

    def test_identity(self):
        sel = apps.select_kappa(np.eye(4))
        assert sel.alpha_abs == pytest.approx(1.0)
        assert sel.kappa == pytest.approx(0.4)

    def test_zero_matrix_rejected(self):
        with pytest.raises(AllEigenvaluesZeroError):
            apps.select_kappa(np.zeros((3, 3)))

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            apps.select_kappa(np.eye(2), fraction=0.5)

    def test_entries_near_the_float_maximum(self):
        # symmetrizing as 0.5 * (A + A^T) overflowed here, and every
        # eigenvalue then fell below the zero threshold
        sel = apps.select_kappa(np.diag([1e308, -1e308]))
        assert sel.alpha_abs == 1e308
        assert sel.kappa == 0.4 * 1e308


class TestVerifyPairLemma:
    def test_kappa_inside_bound_is_monotone(self):
        # candidates lambda*(lambda+0.4) over {1, 0, -0.5}: {1.4, 0, 0.05}
        report = apps.verify_pair_lemma(np.diag([1.0, 0.0, -0.5]), kappa=0.2)
        assert report.monotone
        assert report.min_value == pytest.approx(0.0, abs=1e-12)
        assert report.kappa_within_bound

    def test_kappa_outside_bound_fails(self):
        # (-0.5) * (-0.5 + 0.6) = -0.05
        report = apps.verify_pair_lemma(np.diag([1.0, 0.0, -0.5]), kappa=0.3)
        assert not report.monotone
        assert report.min_value == pytest.approx(-0.05, abs=1e-12)
        assert not report.kappa_within_bound

    def test_identity_any_kappa(self):
        for kappa in (0.1, 1.0, 10.0):
            assert apps.verify_pair_lemma(np.eye(3), kappa).monotone

    def test_seeded_symmetric_matrices_inside_bound(self):
        for trial in range(100):
            n = 3 + trial % 10
            system = apps.generate_consistent_system(n, 900 + trial)
            sel = apps.select_kappa(system.matrix)
            report = apps.verify_pair_lemma(system.matrix, sel.kappa)
            assert report.monotone
            assert report.kappa_within_bound


class TestEigenParity:
    """select_kappa's |alpha| is the smallest nonzero |eigenvalue| that
    numpy's symmetric eigenvalue routine finds."""

    @staticmethod
    def check_parity(a):
        absvals = np.abs(np.linalg.eigvalsh(a))
        scale = absvals.max()
        alpha = absvals[absvals > apps.DEFAULT_ZERO_EIG_RTOL * scale].min()
        sel = apps.select_kappa(a)
        assert abs(sel.alpha_abs - alpha) <= 1e-12 * scale
        return sel

    @pytest.mark.parametrize("trial", range(20))
    def test_seeded_consistent_systems(self, trial):
        n = 10 * (trial + 1)  # 10 .. 200
        system = apps.generate_consistent_system(n, 5000 + trial)
        sel = self.check_parity(system.matrix)
        planted = np.abs(system.eigenvalues[system.eigenvalues != 0.0])
        assert sel.alpha_abs == pytest.approx(planted.min(), abs=1e-10)

    def test_planted_qp_kkt_matrix(self):
        rng = np.random.default_rng(42)
        n, m = 60, 20
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q = (basis * rng.uniform(0.5, 2.0, n)) @ basis.T
        q = 0.5 * (q + q.T)
        con = rng.standard_normal((m, n)) / np.sqrt(n)
        y_star, lam_star = rng.standard_normal(n), rng.standard_normal(m)
        qp = apps.QPProblem(q, -(q @ y_star + con.T @ lam_star), con, con @ y_star)
        kkt = apps.build_kkt(qp)
        sel = self.check_parity(kkt.matrix)
        # a saddle matrix with full-rank C: indefinite and nonsingular
        assert 0.0 < sel.kappa < sel.alpha_abs / 2.0
        assert sel.eigen.values[0] < 0.0 < sel.eigen.values[-1]
        assert np.allclose(kkt.matrix @ np.concatenate([y_star, lam_star]), kkt.rhs, atol=1e-12)


class TestSolveKKT:
    def test_hand_checked_solution(self):
        kkt = apps.build_kkt(example_qp())
        kappa = apps.select_kappa(kkt.matrix).kappa
        sol = apps.solve_kkt(kkt, kappa)
        assert sol.result.status is solvers.Status.CONVERGED
        assert np.allclose(sol.x, [1.0, 1.0, -2.0], atol=1e-7)
        assert np.allclose(sol.primal, [1.0, 1.0], atol=1e-7)
        assert np.allclose(sol.multipliers, [-2.0], atol=1e-7)
        assert sol.result.trace.residuals[-1] <= 1e-8

    def test_random_consistent_systems_converge(self):
        for seed in (1, 2, 3, 4, 5):
            system = apps.generate_consistent_system(30, seed)
            kkt = apps.KKTSystem(system.matrix, system.rhs, 20)
            sol = apps.solve_kkt(kkt, kappa=0.2)
            assert sol.result.status is solvers.Status.CONVERGED
            assert np.linalg.norm(system.matrix @ sol.x - system.rhs) <= 1e-8

    def test_start_at_solution(self):
        system = apps.generate_consistent_system(12, 77)
        kkt = apps.KKTSystem(system.matrix, system.rhs, 6)
        sol = apps.solve_kkt(kkt, kappa=0.2, x0=system.solution)
        assert sol.result.status is solvers.Status.CONVERGED
        assert sol.result.iterations == 1
        assert np.allclose(sol.x, system.solution, atol=1e-9)

    def test_matches_generic_warped_iteration_bitwise(self):
        system = apps.generate_consistent_system(16, 5)
        kkt = apps.KKTSystem(system.matrix, system.rhs, 8)
        x0 = np.zeros(16)
        sol = apps.solve_kkt(kkt, kappa=0.2, x0=x0, cfg=FULL)
        f, v = apps.kkt_operator_pair(system.matrix, system.rhs, 0.2)
        generic = solvers.gppa(f, v, x0, FULL)
        assert len(sol.result.trace.iterates) == len(generic.trace.iterates)
        for a, b in zip(sol.result.trace.iterates, generic.trace.iterates):
            assert np.array_equal(a, b)

    def test_requires_unit_gamma(self):
        kkt = apps.build_kkt(example_qp())
        with pytest.raises(ValueError, match="defined at constant gamma = 1"):
            apps.solve_kkt(kkt, kappa=0.2, cfg=solvers.SolverConfig(gamma_schedule=2.0))


class TestLeastSquares:
    def test_diag_instance_with_inconsistent_rhs(self):
        # projection of b = (1, 1) onto ran A is (1, 0): data error floors at 1
        sol = apps.least_squares_iterate(
            np.diag([1.0, 0.0]), np.array([1.0, 1.0]), kappa=0.2,
            cfg=solvers.SolverConfig(tol_residual=1e-10, trace_level=solvers.TraceLevel.FULL),
        )
        assert sol.result.status is solvers.Status.CONVERGED
        assert sol.optimality_residuals[-1] <= 1e-10
        assert sol.result.preimage[0] == pytest.approx(1.0, abs=1e-9)
        assert sol.data_errors[-1] == pytest.approx(1.0, abs=1e-9)
        assert all(b <= a + 1e-10 for a, b in zip(sol.data_errors, sol.data_errors[1:]))

    def test_matches_hand_warped_loop_bitwise(self):
        system = apps.generate_inconsistent_system(16, 9)
        a, b = system.matrix, system.rhs
        sol = apps.least_squares_iterate(a, b, kappa=0.2, cfg=FULL)
        f, v = apps.kkt_operator_pair(a, b, 0.2)
        engine = resolvents.build_engine(f, v, 1.0)
        x = np.zeros(16)
        iterates = [x]
        # the residual vector u = F(x) starts the record; each step's u is
        # v(x) - v(x'), the difference of the kernel images
        u = ops.evaluate_point(f, x)
        rs = [float(np.linalg.norm(a @ u))]
        es = [float(np.linalg.norm(u))]
        for _ in range(sol.result.iterations):
            out = resolvents.warped(engine, x)
            u = ops.evaluate_point(v, x) - out.image
            x = out.preimage
            iterates.append(x)
            rs.append(float(np.linalg.norm(a @ u)))
            es.append(float(np.linalg.norm(u)))
        assert sol.result.status is solvers.Status.CONVERGED
        assert sol.result.iterations > 1
        assert len(sol.result.trace.iterates) == len(iterates)
        for got, want in zip(sol.result.trace.iterates, iterates):
            assert np.array_equal(got, want)
        assert sol.optimality_residuals == rs
        assert sol.data_errors == es

    def test_data_errors_are_the_warped_iteration_residuals(self):
        # both drivers run the warped step from x0 = 0 and record ||u|| for
        # u = v(x_k) - v(x_{k+1}); least squares also records ||u|| at x_0
        system = apps.generate_inconsistent_system(16, 9)
        cfg = solvers.SolverConfig(tol_residual=0.0, max_iters=40)
        sol = apps.least_squares_iterate(system.matrix, system.rhs, kappa=0.2, cfg=cfg)
        kkt = apps.solve_kkt(apps.KKTSystem(system.matrix, system.rhs, 16), kappa=0.2, cfg=cfg)
        assert sol.result.iterations == kkt.result.iterations == 40
        assert sol.data_errors[1:] == kkt.result.trace.residuals
        assert sol.result.trace.err_to_ref == sol.data_errors[1:]
        assert sol.result.preimage.tobytes() == kkt.result.preimage.tobytes()
        assert sol.result.image.tobytes() == kkt.result.image.tobytes()

    def test_consistent_rhs_drives_both_errors_to_zero(self):
        system = apps.generate_consistent_system(12, 13)
        sol = apps.least_squares_iterate(
            system.matrix, system.rhs, kappa=0.2,
            cfg=solvers.SolverConfig(tol_residual=1e-9, trace_level=solvers.TraceLevel.FULL),
        )
        assert sol.result.status is solvers.Status.CONVERGED
        assert sol.optimality_residuals[-1] <= 1e-9
        assert sol.data_errors[-1] <= 1e-8

    def test_zero_matrix_converges_immediately(self):
        x0 = np.array([2.0, -1.0])
        sol = apps.least_squares_iterate(np.zeros((2, 2)), np.array([1.0, 1.0]), kappa=0.2, x0=x0)
        assert sol.result.status is solvers.Status.CONVERGED
        assert sol.result.iterations == 0
        assert np.array_equal(sol.result.preimage, x0)
        assert sol.optimality_residuals == [0.0]

    def test_final_step_image_is_small_on_converged_runs(self):
        for seed in (3, 4):
            system = apps.generate_inconsistent_system(14, seed)
            sol = apps.least_squares_iterate(
                system.matrix, system.rhs, kappa=0.2,
                cfg=solvers.SolverConfig(tol_residual=1e-8, trace_level=solvers.TraceLevel.FULL),
            )
            assert sol.result.status is solvers.Status.CONVERGED
            xs = sol.result.trace.iterates
            assert np.linalg.norm(system.matrix @ (xs[-1] - xs[-2])) <= 1e-6


    @pytest.mark.parametrize("gamma", [2.0, (1.0, 4.0)], ids=["constant", "sequence"])
    def test_requires_unit_gamma(self, gamma):
        # the step is built at gamma = 1, so any other schedule is refused
        # rather than ignored, even one that starts at 1
        cfg = solvers.SolverConfig(gamma_schedule=gamma)
        with pytest.raises(ValueError, match="defined at constant gamma = 1"):
            apps.least_squares_iterate(np.diag([1.0, 0.0]), np.ones(2), kappa=0.2, cfg=cfg)


class TestLeastSquaresStopRules:
    # every reachable stop path, pinned before the iteration loop was shared;
    # the zero-iteration start is test_zero_matrix_converges_immediately
    @pytest.mark.parametrize(
        "cfg, expected",
        [
            (solvers.SolverConfig(tol_residual=1e-6, max_iters=5000), ("Converged", None, 25)),
            (solvers.SolverConfig(tol_residual=0.0, max_iters=5), ("MaxIters", None, 5)),
            (
                solvers.SolverConfig(tol_residual=0.0, tol_step=1e-3, max_iters=5000),
                ("Failed", "step-stalled", 12),
            ),
        ],
        ids=["converged", "max-iters", "step-stalled"],
    )
    def test_stop_paths(self, cfg, expected):
        sol = apps.least_squares_iterate(
            np.diag([1.0, 0.0]), np.array([1.0, 0.0]), kappa=0.2, x0=np.array([0.3, -0.7]), cfg=cfg
        )
        res = sol.result
        assert (res.status.value, res.reason, res.iterations) == expected
        assert len(res.trace.residuals) == res.iterations
        assert len(sol.optimality_residuals) == len(sol.data_errors) == res.iterations + 1

    def test_overflowing_first_step_stops_as_diverged(self):
        # from this start the first resolvent evaluation overflows, before
        # the divergence bound exists; the run ends without counting it
        x0 = np.array([1e308, 1e308])
        with np.errstate(over="ignore", invalid="ignore"):
            sol = apps.least_squares_iterate(
                np.diag([1.0, -0.15]), np.array([1.0, 1.0]), kappa=0.2, x0=x0,
                cfg=solvers.SolverConfig(tol_residual=0.0, max_iters=5000),
            )
        res = sol.result
        assert (res.status.value, res.reason, res.iterations) == ("Failed", "Diverged", 0)
        assert np.array_equal(res.preimage, x0)
        assert res.trace.residuals == []
        assert len(sol.optimality_residuals) == len(sol.data_errors) == 1

    def test_growing_residual_stops_as_diverged(self):
        # kappa = 0.2 is outside (0, |alpha|/2) for alpha = -0.15: one mode
        # grows by 2.5 per step, so the residual passes 1e8 * (1 + r_1)
        sol = apps.least_squares_iterate(
            np.diag([1.0, -0.15]), np.array([1.0, 1.0]), kappa=0.2, x0=np.array([0.3, -0.7]),
            cfg=solvers.SolverConfig(tol_residual=0.0, max_iters=5000),
        )
        res = sol.result
        assert (res.status.value, res.reason, res.iterations) == ("Failed", "Diverged", 23)
        assert sol.optimality_residuals[-1] > 1e8 * (1.0 + sol.optimality_residuals[1])
        assert np.all(np.isfinite(res.preimage))

    @pytest.mark.parametrize("x0", [[np.nan, 0.0], [np.inf, 1.0]], ids=["nan", "inf"])
    def test_non_finite_start_raises(self, x0):
        # a NaN start has no residual to compare with the tolerance
        with pytest.raises(NonFiniteIterateError, match="x0 contains NaN/Inf"):
            apps.least_squares_iterate(np.eye(2), np.ones(2), 0.2, x0=x0)


class TestCounterexampleRegression:
    def test_remark_inner_product_is_exactly_minus_half(self):
        x = np.array([0.0, -3.0, 2.0])
        kappa = 0.25
        inner = float((REMARK_MATRIX @ x) @ ((REMARK_MATRIX + 2 * kappa * np.eye(3)) @ x))
        assert inner == pytest.approx(-0.5, abs=1e-12)


class TestGenerators:
    def test_consistent_system_spectrum_and_rhs(self):
        system = apps.generate_consistent_system(40, 11)
        nonzero = system.eigenvalues[system.eigenvalues != 0.0]
        assert np.sum(system.eigenvalues == 0.0) == 4  # 10% of 40
        assert np.all(np.abs(nonzero) >= 0.5) and np.all(np.abs(nonzero) <= 2.0)
        assert np.array_equal(system.rhs, system.matrix @ system.solution)
        assert np.linalg.norm(system.basis.T @ system.basis - np.eye(40)) <= 1e-12
        # realized spectrum matches the requested one
        eig = np.linalg.eigvalsh(system.matrix)
        assert np.allclose(np.sort(eig), np.sort(system.eigenvalues), atol=1e-10)

    def test_determinism(self):
        a = apps.generate_consistent_system(10, 21)
        b = apps.generate_consistent_system(10, 21)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.rhs, b.rhs)

    def test_inconsistent_system_leaves_range(self):
        system = apps.generate_inconsistent_system(20, 9)
        assert system.range_distance > 0.05
        kernel_part = system.rhs - system.matrix @ system.solution
        assert np.linalg.norm(system.matrix @ kernel_part) <= 1e-9
        assert np.linalg.norm(kernel_part) == pytest.approx(system.range_distance, abs=1e-12)

    @pytest.mark.parametrize("n, seed, zero_fraction", [(6, 1, 0.2), (20, 9, 0.2), (33, 5007, 0.3)])
    def test_inconsistent_system_keeps_its_draws(self, n, seed, zero_fraction):
        # the construction as written out before it shared the consistent
        # generator's code: the arrays must stay byte-identical
        rng = SplitMix64(seed)
        lam = apps._spectrum(n, rng, (0.5, 2.0), zero_fraction)
        basis = apps._random_orthogonal(n, rng)
        a = (basis * lam) @ basis.T
        a = 0.5 * (a + a.T)
        z = rng.normal(n)
        w = rng.normal(int(np.sum(lam == 0.0)))
        w[np.abs(w) < 0.1] += 0.5
        kernel_part = basis[:, lam == 0.0] @ w
        system = apps.generate_inconsistent_system(n, seed, zero_fraction=zero_fraction)
        expected = (a, a @ z + kernel_part, z, lam, basis)
        got = (system.matrix, system.rhs, system.solution, system.eigenvalues, system.basis)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in expected]
        assert system.range_distance == float(np.linalg.norm(kernel_part))
        consistent = apps.generate_consistent_system(n, seed, zero_fraction=zero_fraction)
        assert consistent.matrix.tobytes() == system.matrix.tobytes()

    def test_inconsistent_needs_kernel(self):
        with pytest.raises(ValueError):
            apps.generate_inconsistent_system(10, 3, zero_fraction=0.0)


class TestQPFiles:
    def test_round_trip(self, tmp_path):
        qp = example_qp()
        path = tmp_path / "problem.json"
        apps.write_qp(str(path), qp)
        back = apps.read_qp(str(path))
        assert np.array_equal(back.q, qp.q)
        assert np.array_equal(back.c, qp.c)
        assert np.array_equal(back.constraint, qp.constraint)
        assert np.array_equal(back.d, qp.d)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"c": [0, 0]}')
        with pytest.raises(ValueError, match="missing required key"):
            apps.read_qp(str(path))

    def test_constraints_require_d(self, tmp_path):
        # C y = d needs its right-hand side; read_qp does not invent one
        path = tmp_path / "problem.json"
        apps.write_qp(str(path), example_qp())
        doc = json.loads(path.read_text())
        del doc["d"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="missing required key 'd'"):
            apps.read_qp(str(path))

    @pytest.mark.parametrize(
        "key, value",
        [("Q", 5), ("C", 7), ("c", {"x": 1}), ("c", [0, None]), ("d", "2")],
    )
    def test_wrong_json_type_names_the_key(self, tmp_path, key, value):
        path = tmp_path / "problem.json"
        apps.write_qp(str(path), example_qp())
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"QP file key '{key}' must be"):
            apps.read_qp(str(path))

    def test_document_must_be_an_object(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text("[1]")
        with pytest.raises(ValueError, match=f"QP file {path} must hold a JSON object"):
            apps.read_qp(str(path))

    def test_null_constraints_need_no_d(self, tmp_path):
        path = tmp_path / "problem.json"
        apps.write_qp(str(path), example_qp())
        doc = json.loads(path.read_text())
        doc["C"] = None
        del doc["d"]
        path.write_text(json.dumps(doc))
        qp = apps.read_qp(str(path))
        assert qp.n_dual == 0
