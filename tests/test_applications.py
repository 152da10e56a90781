import json
import re
import tracemalloc

import numpy as np
import pytest

from pairprox import applications as apps
from pairprox import linalg, operators as ops, resolvents, solvers
from pairprox.errors import AllEigenvaluesZeroError, NonFiniteIterateError, NotSymmetricError, SingularMatrixError
from pairprox.rng import SplitMix64

FULL = solvers.SolverConfig(trace_level=solvers.TraceLevel.FULL)
EPS = np.finfo(float).eps

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


class TestComplexData:
    # each was cast to its real part with numpy's ComplexWarning, and a run
    # on it returned Converged
    @pytest.mark.parametrize("name", ["c", "C", "d"])
    def test_qp_refuses_complex_data(self, name):
        data = {"q": 2.0 * np.eye(2), "c": np.zeros(2), "constraint": np.array([[1.0, 1.0]]), "d": np.array([2.0])}
        field = {"C": "constraint"}.get(name, name)
        data[field] = data[field] + 1.0j
        with pytest.raises(ValueError, match="^complex values are not accepted, only real ones$"):
            apps.QPProblem(**data)

    def test_least_squares_refuses_a_complex_rhs(self):
        with pytest.raises(ValueError, match="^complex values are not accepted, only real ones$"):
            apps.least_squares_iterate(np.eye(2), np.array([1.0 + 1.0j, 1.0]), 0.2)

    def test_kkt_solve_refuses_a_complex_rhs(self):
        kkt = apps.KKTSystem(np.eye(2), np.array([1.0 + 1.0j, 1.0]), 1)
        with pytest.raises(ValueError, match="^complex values are not accepted, only real ones$"):
            apps.solve_kkt(kkt, 0.2)


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


class TestKappaRule:
    """0 < 2 kappa < inf, checked by each driver before it uses kappa."""

    A = np.diag([1.0, -1.0])
    DRIVERS = {
        "solve_kkt": lambda kappa: apps.solve_kkt(apps.KKTSystem(TestKappaRule.A, np.ones(2), 1), kappa),
        "least_squares_iterate": lambda kappa: apps.least_squares_iterate(TestKappaRule.A, np.ones(2), kappa),
        "verify_pair_lemma": lambda kappa: apps.verify_pair_lemma(TestKappaRule.A, kappa),
    }

    @pytest.mark.parametrize(
        "kappa",
        [float("nan"), float("inf"), float("-inf"), 1e308, np.float64(1e308), -0.1, 0.0],
        ids=["nan", "inf", "-inf", "1e308", "numpy-1e308", "-0.1", "0"],
    )
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_kappa_out_of_range_is_rejected(self, driver, kappa):
        # these used to blame the data ("gamma*F + v overflows the float
        # range"), run a pair outside the lemma to Converged, or return a report
        with pytest.raises(ValueError, match=r"kappa must be positive, with 2\*kappa finite, got " + re.escape(repr(kappa)) + "$"):
            self.DRIVERS[driver](kappa)


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
        values = linalg.jacobi_eigendecomposition(kkt.matrix).values
        assert values[0] < 0.0 < values[-1]
        assert np.allclose(kkt.matrix @ np.concatenate([y_star, lam_star]), kkt.rhs, atol=1e-12)


class TestSolveKKT:
    def test_hand_checked_solution(self):
        kkt = apps.build_kkt(example_qp())
        kappa = apps.select_kappa(kkt.matrix).kappa
        sol = apps.solve_kkt(kkt, kappa)
        assert sol.result.status is solvers.Status.CONVERGED
        assert np.allclose(sol.result.preimage, [1.0, 1.0, -2.0], atol=1e-7)
        assert np.allclose(sol.primal, [1.0, 1.0], atol=1e-7)
        assert np.allclose(sol.multipliers, [-2.0], atol=1e-7)
        assert sol.result.trace.residuals[-1] <= 1e-8

    def test_random_consistent_systems_converge(self):
        for seed in (1, 2, 3, 4, 5):
            system = apps.generate_consistent_system(30, seed)
            kkt = apps.KKTSystem(system.matrix, system.rhs, 20)
            sol = apps.solve_kkt(kkt, kappa=0.2)
            assert sol.result.status is solvers.Status.CONVERGED
            assert np.linalg.norm(system.matrix @ sol.result.preimage - system.rhs) <= 1e-8

    def test_start_at_solution(self):
        system = apps.generate_consistent_system(12, 77)
        kkt = apps.KKTSystem(system.matrix, system.rhs, 6)
        sol = apps.solve_kkt(kkt, kappa=0.2, x0=system.solution)
        assert sol.result.status is solvers.Status.CONVERGED
        assert sol.result.iterations == 1
        assert np.allclose(sol.result.preimage, system.solution, atol=1e-9)

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

    def test_one_entry_unit_schedule_is_accepted(self):
        # (1.0,) is the constant gamma 1; it used to be refused
        kkt = apps.build_kkt(example_qp())
        default = apps.solve_kkt(kkt, kappa=0.2)
        unit = apps.solve_kkt(kkt, kappa=0.2, cfg=solvers.SolverConfig(gamma_schedule=(1.0,)))
        assert unit.result.preimage.tobytes() == default.result.preimage.tobytes()
        assert unit.result.trace.residuals == default.result.trace.residuals


# (n, seed) of the linear-rate check: n from 6 to 35, and one n = 130, where
# the LU of 2A + 2 kappa I spans three panels of 64
RATE_SYSTEMS = [(6 + i, 700 + i) for i in range(30)] + [(130, 7)]


def rate_and_roundoff(system, kappa):
    """(rho, roundoff) of the KKT pair of a generated system. Every map of
    the iterations, (2A + 2 kappa I)^{-1} (A + 2 kappa I) and T's linear
    part, commutes with A, so each contracts ran A by rho = max over nonzero
    lambda of |lambda + 2 kappa| / |2 lambda + 2 kappa| and fixes ker A.
    roundoff(r) bounds one step's rounding from an iterate of norm r: about
    n*eps*(||A|| r + ||b||), and cond(2A + 2 kappa I) times that through the
    solve."""
    a, b, lam = system.matrix, system.rhs, system.eigenvalues
    nonzero = lam[lam != 0.0]
    rho = float(np.max(np.abs(nonzero + 2 * kappa) / np.abs(2 * nonzero + 2 * kappa)))
    shifted = np.abs(2 * lam + 2 * kappa)
    amplify = 1.0 + shifted.max() / shifted.min()
    return rho, lambda r: a.shape[0] * EPS * amplify * (np.abs(lam).max() * r + np.linalg.norm(b))


@pytest.mark.parametrize("n, seed", RATE_SYSTEMS)
def test_gppa_contracts_the_residual_at_the_linear_rate(n, seed):
    # gppa's error map x_k - z -> x_{k+1} - z is (2A + 2 kappa I)^{-1}
    # (A + 2 kappa I), so e_k = ||A x_k - b|| falls by rho per step
    kappa = 0.2
    system = apps.generate_consistent_system(n, seed)
    a, b = system.matrix, system.rhs
    rho, roundoff = rate_and_roundoff(system, kappa)
    f, v = apps.kkt_operator_pair(a, b, kappa)
    cfg = solvers.SolverConfig(tol_residual=0.0, max_iters=200, trace_level=solvers.TraceLevel.FULL)
    iterates = solvers.gppa(f, v, np.zeros(n), cfg).trace.iterates
    errors = [np.linalg.norm(a @ x - b) for x in iterates]
    slack = [roundoff(np.linalg.norm(x)) for x in iterates]
    checked = 0
    for k in range(len(iterates) - 1):
        if errors[k] <= 100 * slack[k]:
            break  # the residual has reached its roundoff
        assert errors[k + 1] <= rho * errors[k] + slack[k + 1], (k, errors[k + 1] / errors[k], rho)
        checked += 1
    assert checked >= 20


# (n, seed) of the limit checks: 30% of the eigenvalues are zero, so the
# fixed points of T = v (F + v)^{-1} form Fix T = v(x*) + ker A, not a point
LIMIT_SYSTEMS = [(6 + i, 900 + i) for i in range(20)]


def planted_draws(n, seed, zero_fraction):
    """The generators' first draws for (n, seed): the stream after them, the
    eigenvalues lam and the eigenbasis V, which a generated system does not
    keep, replayed from SplitMix64(seed) as the generators draw them."""
    rng = SplitMix64(seed)
    lam = apps._spectrum(n, rng, (0.5, 2.0), zero_fraction)
    return rng, lam, apps._random_orthogonal(n, rng)


def kkt_with_kernel(n, seed, kappa):
    """A generated consistent system with a kernel, its KKT pair, and the
    orthogonal projection onto Fix T = v(x*) + ker A, built from the
    planted solution and the kernel's columns of V."""
    system = apps.generate_consistent_system(n, seed, zero_fraction=0.3)
    kernel = planted_draws(n, seed, 0.3)[2][:, system.eigenvalues == 0.0]
    assert kernel.shape[1] > 0
    v_star = (system.matrix + 2 * kappa * np.eye(n)) @ system.solution
    return system, apps.kkt_operator_pair(system.matrix, system.rhs, kappa), lambda y: v_star + kernel @ (kernel.T @ (y - v_star))


@pytest.mark.parametrize("n, seed", LIMIT_SYSTEMS)
def test_gppa1_ends_at_the_projection_of_the_start_onto_the_fixed_points(n, seed):
    # A is symmetric, so T's linear part M is symmetric: x_k - P(x0) =
    # M^k (x0 - P(x0)) lies in ran A and falls by rho per step (the weak
    # limit of the paper, here strong as n is finite). Each step's roundoff
    # stays undamped in ker A and within 1/(1 - rho) of it on ran A
    kappa, steps = 0.2, 100
    system, (f, v), project = kkt_with_kernel(n, seed, kappa)
    rho, roundoff = rate_and_roundoff(system, kappa)
    x0 = 3.0 * SplitMix64(seed).normal(n)
    res = solvers.gppa1(f, v, x0, solvers.SolverConfig(tol_residual=0.0, max_iters=steps))
    limit = project(x0)
    start = np.linalg.norm(x0 - limit)
    # every iterate lies within `start` of the limit
    slack = (steps + 1.0 / (1.0 - rho)) * roundoff(np.linalg.norm(limit) + start)
    assert np.linalg.norm(res.image - limit) <= rho**res.iterations * start + slack


@pytest.mark.parametrize("n, seed", LIMIT_SYSTEMS[::2])
def test_gppa2_approaches_the_projection_of_the_anchor_at_the_halpern_rate(n, seed):
    # x_1 = anchor, as a_0 = 1. Lieder's bound (Optim. Lett. 2021):
    # ||x_k - T(x_k)|| <= 2 ||anchor - p|| / k. With p = P(anchor), e_k =
    # x_k - p satisfies k e_k = (I + M + ... + M^{k-1}) e_1 with e_1 in ran
    # A, so ||e_k|| <= ||e_1|| / ((1 - rho) k): the strong limit is p, at
    # that rate. Rounding by delta per step moves x_k by at most k delta / 2
    kappa, steps = 0.2, 500
    system, (f, v), project = kkt_with_kernel(n, seed, kappa)
    rho, roundoff = rate_and_roundoff(system, kappa)
    anchor = 3.0 * SplitMix64(seed).normal(n)
    p = project(anchor)
    cfg = solvers.SolverConfig(
        tol_residual=0.0, max_iters=steps, trace_level=solvers.TraceLevel.FULL,
        halpern=solvers.HalpernConfig(anchor=tuple(anchor)),
    )
    iterates = solvers.gppa2(f, v, np.zeros(n), cfg).trace.iterates
    assert len(iterates) == steps + 1 and np.array_equal(iterates[1], anchor)
    engine = resolvents.build_engine(f, v, 1.0)
    distance = np.linalg.norm(anchor - p)
    # the iterates stay within `distance` of p
    delta = roundoff(np.linalg.norm(p) + distance)
    for k in range(1, steps + 1):
        x = iterates[k]
        assert k * np.linalg.norm(x - resolvents.transformed(engine, x).image) <= 2 * distance + k * (k + 1) * delta
        assert np.linalg.norm(x - p) <= distance / ((1.0 - rho) * k) + k * delta


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

    def test_trace_levels_record_the_measured_lists(self):
        # the run is gppa's with residual r = ||A u||; the trace's residuals
        # and err_to_ref are the step entries of both lists, at any level
        system = apps.generate_inconsistent_system(16, 9)
        runs = {
            level: apps.least_squares_iterate(
                system.matrix, system.rhs, kappa=0.2, cfg=solvers.SolverConfig(tol_residual=1e-9, trace_level=level)
            )
            for level in solvers.TraceLevel
        }
        norms = runs[solvers.TraceLevel.NORMS]
        for sol in runs.values():
            assert sol.result.iterations == norms.result.iterations > 1
            assert len(sol.optimality_residuals) == len(sol.data_errors) == sol.result.iterations + 1
            assert sol.optimality_residuals == norms.optimality_residuals and sol.data_errors == norms.data_errors
            assert sol.result.preimage.tobytes() == norms.result.preimage.tobytes()
            assert np.array(sol.result.trace.residuals).tobytes() == np.array(sol.optimality_residuals[1:]).tobytes()
            assert np.array(sol.result.trace.err_to_ref).tobytes() == np.array(sol.data_errors[1:]).tobytes()
        assert len(runs[solvers.TraceLevel.FULL].result.trace.iterates) == norms.result.iterations + 1

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
        # no engine is built for a start within tol: at A = diag(1, -0.2)
        # the step's 2A + 2 kappa I = diag(2.4, 0) is singular, which
        # build_engine refuses, yet x0 solves A x = A x0
        a = np.diag([1.0, -0.2])
        f, v = apps.kkt_operator_pair(a, a @ x0, 0.2)
        with pytest.raises(SingularMatrixError):
            resolvents.build_engine(f, v, 1.0)
        sol = apps.least_squares_iterate(a, a @ x0, kappa=0.2, x0=x0, cfg=FULL)
        assert (sol.result.status, sol.result.iterations) == (solvers.Status.CONVERGED, 0)
        assert sol.optimality_residuals == sol.data_errors == [0.0]
        assert np.array_equal(sol.result.image, ops.evaluate_point(v, x0))
        trace = sol.result.trace
        assert trace.residuals == trace.err_to_ref == [] and np.array_equal(trace.iterates, [x0])

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


    def test_one_entry_unit_schedule_is_accepted(self):
        # (1.0,) is the constant gamma 1; it used to be refused
        a, b = np.diag([1.0, 0.0]), np.ones(2)
        default = apps.least_squares_iterate(a, b, kappa=0.2)
        unit = apps.least_squares_iterate(a, b, kappa=0.2, cfg=solvers.SolverConfig(gamma_schedule=(1.0,)))
        assert unit.result.preimage.tobytes() == default.result.preimage.tobytes()
        assert unit.optimality_residuals == default.optimality_residuals

    @pytest.mark.parametrize("gamma", [2.0, (1.0, 4.0)], ids=["constant", "sequence"])
    def test_requires_unit_gamma(self, gamma):
        # the step is built at gamma = 1, so any other schedule is refused
        # rather than ignored, even one that starts at 1
        cfg = solvers.SolverConfig(gamma_schedule=gamma)
        with pytest.raises(ValueError, match="defined at constant gamma = 1"):
            apps.least_squares_iterate(np.diag([1.0, 0.0]), np.ones(2), kappa=0.2, cfg=cfg)


@pytest.mark.parametrize("driver", ["solve_kkt", "least_squares_iterate"])
def test_shifted_kernel_drivers_reject_halpern_config(driver):
    # the shifted-kernel iteration is not anchored; the config used to be
    # ignored
    cfg = solvers.SolverConfig(halpern=solvers.HalpernConfig(anchor=(0.0, 0.0, 0.0)))
    with pytest.raises(ValueError, match="gppa2"):
        if driver == "solve_kkt":
            apps.solve_kkt(apps.build_kkt(example_qp()), kappa=0.2, cfg=cfg)
        else:
            apps.least_squares_iterate(np.diag([1.0, 0.0, 2.0]), np.ones(3), kappa=0.2, cfg=cfg)


class TestLeastSquaresStopRules:
    # every reachable stop path, pinned before the iteration loop was shared;
    # the zero-iteration start is test_zero_matrix_converges_immediately. A
    # step of norm zero repeats v(x_k), so u = 0 and r = 0: such a run has
    # converged, and the step-stalled rule is never reached; at
    # tol_residual = 0 this run reaches its fixed point exactly at step 67
    @pytest.mark.parametrize(
        "cfg, expected",
        [
            (solvers.SolverConfig(tol_residual=1e-6, max_iters=5000), ("Converged", None, 25)),
            (solvers.SolverConfig(tol_residual=0.0, max_iters=5), ("MaxIters", None, 5)),
            (solvers.SolverConfig(tol_residual=0.0, max_iters=5000), ("Converged", None, 67)),
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
        if cfg.tol_residual == 0.0 and res.status is solvers.Status.CONVERGED:
            assert res.trace.steps[-1] == res.trace.residuals[-1] == 0.0
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

    def test_residuals_of_huge_finite_vectors_stay_finite(self):
        # from b = 1e300 the squares of the residual entries overflow; the
        # norms scale first, so every recorded residual is finite until the
        # resolvent itself overflows at step 14
        with np.errstate(over="ignore", invalid="ignore"):
            sol = apps.least_squares_iterate(np.diag([1.0, -1.0]), np.array([1e300, 1e300]), 0.9)
        res = sol.result
        assert (res.status.value, res.reason, res.iterations) == ("Failed", "Diverged", 13)
        assert len(sol.optimality_residuals) == len(sol.data_errors) == 14
        assert np.all(np.isfinite(sol.optimality_residuals)) and np.all(np.isfinite(sol.data_errors))
        assert sol.data_errors[0] == 1e300 * np.sqrt(2.0)

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
        _, lam, basis = planted_draws(40, 11, 0.1)
        assert lam.tobytes() == system.eigenvalues.tobytes()
        assert np.linalg.norm(basis.T @ basis - np.eye(40)) <= 1e-12
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
        rng, lam, basis = planted_draws(n, seed, zero_fraction)
        a = (basis * lam) @ basis.T
        a = 0.5 * (a + a.T)
        z = rng.normal(n)
        w = rng.normal(int(np.sum(lam == 0.0)))
        w[np.abs(w) < 0.1] += 0.5
        kernel_part = basis[:, lam == 0.0] @ w
        system = apps.generate_inconsistent_system(n, seed, zero_fraction=zero_fraction)
        expected = (a, a @ z + kernel_part, z, lam)
        got = (system.matrix, system.rhs, system.solution, system.eigenvalues)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in expected]
        assert system.range_distance == float(np.linalg.norm(kernel_part))
        consistent = apps.generate_consistent_system(n, seed, zero_fraction=zero_fraction)
        assert consistent.matrix.tobytes() == system.matrix.tobytes()

    @pytest.mark.parametrize("generate", [apps.generate_consistent_system, apps.generate_inconsistent_system])
    def test_a_generated_system_holds_one_n_by_n_array(self, generate):
        # A, plus the vectors b, z and lam, about 1.008 n^2 doubles: the
        # eigenbasis V, a second n x n array, is freed on return
        n = 400
        generate(8, 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            system = generate(n, 7)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert system.matrix.shape == (n, n)
        assert held <= 1.05 * 8 * n * n, held / (8 * n * n)

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
        assert qp.constraint.shape[0] == 0
