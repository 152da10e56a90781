import dataclasses
import io

import numpy as np
import pytest

from pairprox import applications as apps
from pairprox import operators as ops
from pairprox import resolvents, solvers
from pairprox.errors import NonFiniteIterateError, TraceDisabledError
from pairprox.rng import SplitMix64

FULL = solvers.SolverConfig(trace_level=solvers.TraceLevel.FULL)


def qp_pair(a=None, b=None, kappa=0.2):
    a = np.diag([1.0, 0.0]) if a is None else a
    b = np.array([1.0, 0.0]) if b is None else b
    return apps.kkt_operator_pair(a, b, kappa)


class TestGppa:
    def test_qp_diag_matches_geometric_series(self):
        # per-coordinate iteration x' = ((lam + 0.4) x + b) / (2 lam + 0.4):
        # coordinate 1 contracts to 1 with ratio 7/12, coordinate 2 is frozen
        f, v = qp_pair()
        res = solvers.gppa(f, v, np.zeros(2), FULL)
        assert res.status is solvers.Status.CONVERGED
        assert np.allclose(res.preimage, [1.0, 0.0], atol=1e-7)
        ratio = 1.4 / 2.4
        for n, x in enumerate(res.trace.iterates):
            closed = 1.0 + ratio**n * (0.0 - 1.0)
            assert x[0] == pytest.approx(closed, abs=1e-10)
            assert x[1] == 0.0

    def test_start_at_solution_converges_in_one_step(self):
        f, v = qp_pair()
        x_star = np.array([1.0, 0.4])
        res = solvers.gppa(f, v, x_star, FULL)
        assert res.status is solvers.Status.CONVERGED
        assert res.iterations == 1
        assert np.allclose(res.preimage, x_star, atol=1e-9)

    def test_sign_instance_reaches_unique_zero(self):
        res = solvers.gppa(ops.sign_swap_operator(), ops.swap_operator(), np.array([5.0, -3.0]), FULL)
        assert res.status is solvers.Status.CONVERGED
        assert np.array_equal(res.preimage, np.zeros(2))

    def test_overflowing_first_step_stops_as_diverged(self):
        # kappa far outside (0, |alpha|/2): the second coordinate amplifies by
        # (lam + 2k) / (2 lam + 2k) = 2.5 each step; from 1e308 the first
        # step overflows, before the divergence bound exists, and the run
        # ends without counting it
        f, v = qp_pair(a=np.diag([1.0, -0.15]), b=np.zeros(2))
        x0 = np.array([1e308, 1e308])
        with np.errstate(over="ignore", invalid="ignore"):
            res = solvers.gppa(f, v, x0, solvers.SolverConfig(max_iters=5000))
        assert (res.status, res.reason, res.iterations) == (solvers.Status.FAILED, "Diverged", 0)
        assert np.array_equal(res.preimage, x0)
        assert res.trace.residuals == []

    @pytest.mark.parametrize("solver", ["gppa", "gppa1"])
    def test_growing_residual_stops_as_diverged(self, solver):
        # the same amplifying pair from (1, 1): the residual grows by 2.5 per
        # step and first exceeds 1e8 * (1 + r_0) long before any overflow
        f, v = qp_pair(a=np.diag([1.0, -0.15]), b=np.zeros(2))
        res = getattr(solvers, solver)(f, v, np.array([1.0, 1.0]), solvers.SolverConfig(max_iters=5000))
        assert (res.status, res.reason) == (solvers.Status.FAILED, "Diverged")
        residuals = res.trace.residuals
        assert len(residuals) == res.iterations
        bound = 1e8 * (1.0 + residuals[0])
        assert residuals[-1] > bound and max(residuals[:-1]) <= bound
        assert np.all(np.isfinite(res.preimage))

    @pytest.mark.parametrize("kind", ["affine", "sign"])
    def test_iterates_match_hand_warped_loop_bitwise(self, kind):
        # gppa inverts at the image its previous step returned; that must be
        # exactly the v(x) a fresh warped evaluation computes
        if kind == "affine":
            system = apps.generate_consistent_system(12, 3)
            f, v = apps.kkt_operator_pair(system.matrix, system.rhs, 0.2)
            x0 = np.zeros(12)
        else:
            f, v = ops.sign_swap_operator(), ops.swap_operator()
            x0 = np.array([5.0, -3.0])
        res = solvers.gppa(f, v, x0, FULL)
        engine = resolvents.build_engine(f, v, 1.0)
        x = x0
        for iterate in res.trace.iterates[1:]:
            x = resolvents.warped(engine, x).preimage
            assert np.array_equal(iterate, x)
        assert res.iterations == len(res.trace.iterates) - 1 > 1
        assert np.array_equal(res.image, ops.evaluate_point(v, x))

    def test_reference_tracks_image_distance(self):
        f, v = qp_pair()
        x_star = np.array([1.0, 0.0])
        res = solvers.gppa(f, v, np.zeros(2), FULL, reference=x_star)
        errs = res.trace.err_to_ref
        v_star = ops.evaluate_point(v, x_star)
        recomputed = [float(np.linalg.norm(ops.evaluate_point(v, x) - v_star)) for x in res.trace.iterates[1:]]
        assert np.allclose(errs, recomputed, atol=1e-12)


class TestGppa1:
    def test_sign_instance_first_step_and_limit(self):
        res = solvers.gppa1(ops.sign_swap_operator(), ops.swap_operator(), np.array([3.0, 1.0]), FULL)
        assert np.allclose(res.trace.iterates[1], [1.0, 1.0])
        assert res.status is solvers.Status.CONVERGED
        assert np.array_equal(res.image, np.zeros(2))
        assert np.array_equal(res.preimage, np.zeros(2))

    def test_start_at_kernel_image_is_fixed(self):
        f, v = ops.sign_swap_operator(), ops.swap_operator()
        res = solvers.gppa1(f, v, np.zeros(2), FULL)
        assert res.status is solvers.Status.CONVERGED
        assert res.iterations == 1
        assert np.array_equal(res.image, np.zeros(2))

    def test_qp_image_linear_factor(self):
        # image iteration fixed point is v(solution) = (1.4, 0); the nonzero
        # eigenvalue contracts with factor (1 + 0.4) / (2 + 0.4) = 7/12
        f, v = qp_pair()
        res = solvers.gppa1(f, v, np.zeros(2), FULL)
        target = np.array([1.4, 0.0])
        errs = [np.linalg.norm(x - target) for x in res.trace.iterates]
        for a, b in zip(errs, errs[1:]):
            if a < 1e-12:
                break
            assert b <= (7.0 / 12.0) * a + 1e-12


class TestGppa2:
    def test_requires_halpern_config(self):
        with pytest.raises(ValueError):
            solvers.gppa2(*qp_pair(), np.zeros(2), solvers.SolverConfig())

    def test_scalar_identity_pair_drifts_to_zero(self):
        # T(x) = x/2; anchored averaging converges to the unique fixed point 0
        # at the usual O(1/k) anchored rate (~8/k here)
        one = ops.Affine(np.eye(1))
        cfg = solvers.SolverConfig(
            tol_residual=0.0,
            max_iters=10_000,
            halpern=solvers.HalpernConfig(anchor=(4.0,)),
            trace_level=solvers.TraceLevel.FULL,
        )
        res = solvers.gppa2(one, one, np.array([10.0]), cfg)
        assert abs(res.trace.iterates[-1][0]) <= 1e-3

    def test_sign_instance_exact_anchor_decay(self):
        # once inside the unit box, T = 0 and x_k = anchor / k exactly
        cfg = solvers.SolverConfig(
            tol_residual=0.0,
            max_iters=2_000,
            halpern=solvers.HalpernConfig(anchor=(1.0, 1.0)),
            trace_level=solvers.TraceLevel.FULL,
        )
        res = solvers.gppa2(
            ops.sign_swap_operator(), ops.swap_operator(), np.array([3.0, 1.0]), cfg,
            reference=np.zeros(2),
        )
        iterates = res.trace.iterates
        assert np.array_equal(iterates[1], [1.0, 1.0])
        for k in (10, 100, 1999):
            assert np.allclose(iterates[k], [1.0 / k, 1.0 / k], atol=1e-15)
        assert res.trace.err_to_ref[-1] <= 1e-3

    def test_anchor_at_fixed_point_is_constant(self):
        f, v = ops.sign_swap_operator(), ops.swap_operator()
        cfg = solvers.SolverConfig(halpern=solvers.HalpernConfig(anchor=(0.0, 0.0)), trace_level=solvers.TraceLevel.FULL)
        res = solvers.gppa2(f, v, np.zeros(2), cfg)
        assert res.status is solvers.Status.CONVERGED
        assert res.iterations == 1
        assert np.array_equal(res.image, np.zeros(2))


class TestDcaBaseline:
    def test_identity_halves_error_each_step(self):
        n = 4
        b = np.ones(n)
        res = solvers.dca_baseline(np.eye(n), b, m=1.0, x0=np.zeros(n), cfg=FULL)
        assert res.status is solvers.Status.CONVERGED
        assert np.allclose(res.preimage, b, atol=1e-7)
        for e0, e1 in zip(res.trace.residuals, res.trace.residuals[1:]):
            if e0 < 1e-12:
                break
            assert e1 == pytest.approx(0.5 * e0, rel=1e-9)

    def test_indefinite_instance_diverges(self):
        # eigen-analysis of m (A + m I)^{-1}: eigenvalue 2 / (-1 + 2) = 2 > 1
        res = solvers.dca_baseline(
            np.diag([1.0, -1.0]), np.zeros(2), m=2.0, x0=np.array([1.0, 1.0]),
            cfg=solvers.SolverConfig(max_iters=10_000),
        )
        assert res.status is solvers.Status.FAILED
        assert res.reason == "Diverged"

    def test_fixed_point_start(self):
        a = np.diag([2.0, 3.0])
        x0 = np.array([1.0, 2.0])
        res = solvers.dca_baseline(a, a @ x0, m=1.0, x0=x0, cfg=FULL)
        assert res.status is solvers.Status.CONVERGED
        assert res.iterations == 1
        assert np.allclose(res.preimage, x0, atol=1e-12)


class TestWarmStart:
    @pytest.mark.parametrize("solver", ["gppa", "gppa1", "gppa2"])
    def test_runs_match_the_fixed_pattern_order_bitwise(self, solver, monkeypatch):
        # the sign-swap engine is certified, so each step may start the
        # pattern search at the previous step's pattern; from five seeded
        # starts the runs must equal runs that always search in (+, -, 0)
        # order, and the anchored run must need about one try per step
        cfg = solvers.SolverConfig(
            tol_residual=0.0, max_iters=1000, trace_level=solvers.TraceLevel.FULL,
            halpern=solvers.HalpernConfig(anchor=(1.0, 1.0)) if solver == "gppa2" else None,
        )
        tries = 0
        solve_pattern = resolvents._solve_pattern

        def counted(*args):
            nonlocal tries
            tries += 1
            return solve_pattern(*args)

        def runs():
            f, v = ops.sign_swap_operator(), ops.swap_operator()
            return [getattr(solvers, solver)(f, v, SplitMix64(seed).uniform(2, -5.0, 5.0), cfg) for seed in range(5)]

        monkeypatch.setattr(resolvents, "_solve_pattern", counted)
        warm = runs()
        steps = sum(r.iterations for r in warm)
        if solver == "gppa2":
            assert tries <= 1.2 * steps
        transformed = resolvents.transformed
        monkeypatch.setattr(resolvents, "transformed", lambda engine, x, start_pattern=None: transformed(engine, x))
        cold = runs()
        for a, b in zip(warm, cold):
            assert (a.status, a.iterations) == (b.status, b.iterations)
            assert np.array(a.trace.iterates).tobytes() == np.array(b.trace.iterates).tobytes()
            assert np.array(a.trace.preimages).tobytes() == np.array(b.trace.preimages).tobytes()
            assert a.preimage.tobytes() == b.preimage.tobytes() and a.image.tobytes() == b.image.tobytes()


class TestSharedDriverJobs:
    DRIVERS = {
        "gppa": lambda x0: solvers.gppa(*qp_pair(), x0),
        "gppa1": lambda x0: solvers.gppa1(*qp_pair(), x0),
        "gppa2": lambda x0: solvers.gppa2(
            *qp_pair(), x0, solvers.SolverConfig(halpern=solvers.HalpernConfig(anchor=(0.0, 0.0)))
        ),
        "dca_baseline": lambda x0: solvers.dca_baseline(np.eye(2), np.ones(2), 1.0, x0),
        "least_squares_iterate": lambda x0: apps.least_squares_iterate(np.eye(2), np.ones(2), 0.2, x0=x0),
    }

    @pytest.mark.parametrize("x0", [[np.nan, 0.0], [0.0, -np.inf]], ids=["nan", "inf"])
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_every_driver_rejects_a_non_finite_start(self, driver, x0):
        with pytest.raises(NonFiniteIterateError, match="x0 contains NaN/Inf"):
            self.DRIVERS[driver](np.array(x0))

    @pytest.mark.parametrize("solver", ["gppa", "gppa1"])
    def test_gamma_schedule_builds_one_engine_per_distinct_gamma(self, solver, monkeypatch):
        # the solvers look build_engine up on the module, so a wrapper put
        # there (as a tracer does) sees every build
        built = []
        build_engine = resolvents.build_engine

        def counted(f, v, gamma, dim=None):
            built.append(gamma)
            return build_engine(f, v, gamma, dim=dim)

        monkeypatch.setattr(resolvents, "build_engine", counted)
        with pytest.warns(UserWarning, match="gamma_n"):
            cfg = solvers.SolverConfig(gamma_schedule=(1.0, 2.0, 1.0, 0.5, 2.0), tol_residual=0.0, max_iters=9)
        res = getattr(solvers, solver)(*qp_pair(), np.zeros(2), cfg)
        assert res.iterations == 9
        assert built == [1.0, 2.0, 0.5]

    def test_anchored_result_reuses_the_last_image(self, monkeypatch):
        # v is evaluated once per step, inside the resolvent, and the result
        # carries that step's image rather than a fresh v(z)
        calls = 0
        evaluate_point = ops.evaluate_point

        def counted(op, x):
            nonlocal calls
            calls += 1
            return evaluate_point(op, x)

        monkeypatch.setattr(ops, "evaluate_point", counted)
        f, v = ops.sign_swap_operator(), ops.swap_operator()
        cfg = solvers.SolverConfig(tol_residual=0.0, max_iters=50, halpern=solvers.HalpernConfig(anchor=(1.0, 1.0)))
        res = solvers.gppa2(f, v, np.array([3.0, 1.0]), cfg)
        assert calls == res.iterations == 50
        assert res.image.tobytes() == evaluate_point(v, res.preimage).tobytes()


class TestResidualAccess:
    def test_trace_disabled(self):
        f, v = qp_pair()
        res = solvers.gppa(f, v, np.zeros(2), solvers.SolverConfig(trace_level=solvers.TraceLevel.NONE))
        with pytest.raises(TraceDisabledError):
            res.residual_norms()

    def test_constant_sequence_all_zero_residuals(self):
        res = solvers.gppa(ops.sign_swap_operator(), ops.swap_operator(), np.zeros(2), FULL)
        assert res.residual_norms() == [0.0]

    def test_qp_residual_geometric_decay(self):
        f, v = qp_pair()
        res = solvers.gppa(f, v, np.zeros(2), FULL)
        residuals = res.residual_norms()
        for r0, r1 in zip(residuals, residuals[1:]):
            if r0 < 1e-12:
                break
            assert r1 == pytest.approx((7.0 / 12.0) * r0, rel=1e-9)

    def test_sign_run_residuals_nonincreasing(self):
        res = solvers.gppa(ops.sign_swap_operator(), ops.swap_operator(), np.array([5.0, -3.0]), FULL)
        residuals = res.residual_norms()
        assert all(b <= a + 1e-10 for a, b in zip(residuals, residuals[1:]))


class TestInvariants:
    def test_linear_rate_on_strongly_monotone_pair(self):
        # (F, Id) with F = diag(2,1) x - b: modulus 1, kernel Lipschitz 1,
        # so image errors contract by at least 1/(1+1) = 1/2 per step
        b = np.array([2.0, 1.0])
        f = ops.Affine(np.diag([2.0, 1.0]), -b)
        v = ops.identity_operator(2)
        x_star = np.array([1.0, 1.0])
        for seed in range(10):
            x0 = SplitMix64(seed).uniform(2, -10.0, 10.0)
            res = solvers.gppa(f, v, x0, FULL, reference=x_star)
            errs = [float(np.linalg.norm(res.trace.iterates[0] - x_star))] + res.trace.err_to_ref
            for a, c in zip(errs, errs[1:]):
                if a < 1e-12:
                    break
                assert c <= 0.5 * a + 1e-10

    def test_fejer_monotonicity_gppa1(self):
        f, v = ops.sign_swap_operator(), ops.swap_operator()
        x_star = np.zeros(2)
        for seed in range(10):
            x0 = SplitMix64(100 + seed).uniform(2, -8.0, 8.0)
            res = solvers.gppa1(f, v, x0, FULL, reference=x_star)
            xs = res.trace.iterates
            for a, c in zip(xs, xs[1:]):
                ea = float(np.sum((a - x_star) ** 2))
                ec = float(np.sum((c - x_star) ** 2))
                step2 = float(np.sum((a - c) ** 2))
                assert ec <= ea - step2 + 1e-9 * (1.0 + ea)

    def test_determinism(self):
        f, v = qp_pair()
        r1 = solvers.gppa(f, v, np.array([0.3, -0.7]), FULL)
        r2 = solvers.gppa(f, v, np.array([0.3, -0.7]), FULL)
        assert r1.trace.residuals == r2.trace.residuals
        assert r1.trace.steps == r2.trace.steps
        assert all(np.array_equal(a, b) for a, b in zip(r1.trace.iterates, r2.trace.iterates))

    def test_converged_implies_residual_below_tol(self):
        for x0 in ([5.0, -3.0], [0.25, 0.125], [-9.0, 9.0]):
            res = solvers.gppa(ops.sign_swap_operator(), ops.swap_operator(), np.array(x0), FULL)
            assert res.status is solvers.Status.CONVERGED
            assert res.trace.residuals[-1] <= solvers.SolverConfig().tol_residual

    def test_step_stall_is_not_reported_converged(self):
        f, v = qp_pair()
        cfg = solvers.SolverConfig(tol_residual=0.0, tol_step=1e-3, max_iters=1000, trace_level=solvers.TraceLevel.NORMS)
        res = solvers.gppa(f, v, np.zeros(2), cfg)
        assert res.status is solvers.Status.FAILED
        assert res.reason == "step-stalled"


# every reachable stop path of each solver, pinned before the iteration loop
# was shared: (status, reason, iterations); the trace holds one row per step
STOP_CONFIGS = {
    "converged": solvers.SolverConfig(tol_residual=1e-6, max_iters=5000),
    "max-iters": solvers.SolverConfig(tol_residual=0.0, max_iters=5),
    "step-stalled": solvers.SolverConfig(tol_residual=0.0, tol_step=1e-3, max_iters=5000),
    "non-finite": solvers.SolverConfig(tol_residual=0.0, max_iters=5000),
    "diverged": solvers.SolverConfig(tol_residual=0.0, max_iters=5000),
}


class TestStopRules:
    @pytest.mark.parametrize(
        "solver, path, expected",
        [
            ("gppa", "converged", ("Converged", None, 25)),
            ("gppa", "max-iters", ("MaxIters", None, 5)),
            ("gppa", "step-stalled", ("Failed", "step-stalled", 12)),
            ("gppa", "non-finite", ("Failed", "Diverged", 0)),
            ("gppa1", "converged", ("Converged", None, 26)),
            ("gppa1", "max-iters", ("MaxIters", None, 5)),
            ("gppa1", "step-stalled", ("Failed", "step-stalled", 13)),
            ("gppa1", "non-finite", ("Failed", "Diverged", 0)),
            ("gppa2", "converged", ("Converged", None, 981)),
            ("gppa2", "max-iters", ("MaxIters", None, 5)),
            ("gppa2", "step-stalled", ("Failed", "step-stalled", 32)),
            ("gppa2", "non-finite", ("Failed", "Diverged", 0)),
            ("gppa", "diverged", ("Failed", "Diverged", 23)),
            ("gppa1", "diverged", ("Failed", "Diverged", 22)),
            ("gppa2", "diverged", ("Failed", "Diverged", 780)),
        ],
    )
    def test_proximal_iterations(self, solver, path, expected):
        # the non-finite and diverged runs use kappa = 0.2 outside
        # (0, |alpha|/2) for alpha = -0.15, so one mode grows by 2.5 per step:
        # gppa and gppa1 stop once the residual passes 1e8 * (1 + r_0), and
        # gppa2, which has no such bound, once its step overflows; the
        # non-finite runs start at 1e308, where the first step overflows, and
        # every solver ends there without counting that step
        if path in ("non-finite", "diverged"):
            f, v = qp_pair(a=np.diag([1.0, -0.15]), b=np.zeros(2))
        else:
            f, v = qp_pair()
        cfg = STOP_CONFIGS[path]
        if solver == "gppa2":
            cfg = dataclasses.replace(cfg, halpern=solvers.HalpernConfig(anchor=(1.0, 1.0)))
        x0 = np.array([1e308, 1e308]) if path == "non-finite" else np.array([0.3, -0.7])
        overflows = path == "non-finite" or (solver, path) == ("gppa2", "diverged")
        mode = "ignore" if overflows else "warn"
        with np.errstate(over=mode, invalid=mode):
            res = getattr(solvers, solver)(f, v, x0, cfg)
        assert (res.status.value, res.reason, res.iterations) == expected
        assert len(res.trace.residuals) == res.iterations
        if path == "non-finite":
            assert np.array_equal(res.preimage, x0)
        if overflows:
            assert np.all(np.isfinite(res.preimage)) and np.all(np.isfinite(res.image))

    @pytest.mark.parametrize(
        "path, expected",
        [
            ("converged", ("Converged", None, 21)),
            ("max-iters", ("MaxIters", None, 5)),
            ("step-stalled", ("Failed", "step-stalled", 11)),
        ],
    )
    def test_dca(self, path, expected):
        res = solvers.dca_baseline(np.eye(2), np.ones(2), m=1.0, x0=np.zeros(2), cfg=STOP_CONFIGS[path])
        assert (res.status.value, res.reason, res.iterations) == expected
        assert len(res.trace.residuals) == res.iterations

    def test_dca_error_cap_divergence(self):
        # e_k doubles per step and passes 1e8 * (1 + e_0) at step 28
        res = solvers.dca_baseline(
            np.diag([1.0, -1.0]), np.zeros(2), m=2.0, x0=np.ones(2),
            cfg=solvers.SolverConfig(max_iters=10_000),
        )
        assert (res.status.value, res.reason, res.iterations) == ("Failed", "Diverged", 28)
        assert len(res.trace.residuals) == 28
        assert res.trace.residuals[-1] > 1e8

    def test_dca_non_finite_divergence(self):
        # from 1e300 the iterate overflows at step 28 while e_k is still
        # below the cap; the non-finite step counts neither as an iteration
        # nor as a trace row, and the last finite iterate is returned
        x0 = np.array([1e300, 1e300])
        with np.errstate(over="ignore", invalid="ignore"):
            res = solvers.dca_baseline(
                np.diag([1.0, -1.0]), np.zeros(2), m=2.0, x0=x0,
                cfg=solvers.SolverConfig(max_iters=10_000),
            )
        assert (res.status.value, res.reason, res.iterations) == ("Failed", "Diverged", 27)
        assert len(res.trace.residuals) == 27
        assert np.all(np.isfinite(res.preimage))
        assert res.preimage[1] == 2.0**27 * 1e300


class TestConfig:
    def test_sequence_schedule_warns_on_small_square_sum(self):
        with pytest.warns(UserWarning, match="gamma_n"):
            solvers.SolverConfig(gamma_schedule=(0.5, 1.0), max_iters=100)

    def test_sequence_schedule_extends_with_last_value(self):
        with pytest.warns(UserWarning):
            cfg = solvers.SolverConfig(gamma_schedule=(0.5, 2.0), max_iters=10)
        assert cfg.gamma_at(0) == 0.5
        assert cfg.gamma_at(1) == 2.0
        assert cfg.gamma_at(7) == 2.0

    def test_invalid_gammas_rejected(self):
        with pytest.raises(ValueError):
            solvers.SolverConfig(gamma_schedule=0.0)
        with pytest.raises(ValueError):
            solvers.SolverConfig(gamma_schedule=(1.0, -1.0), max_iters=10)

    def test_reciprocal_alpha_schedule(self):
        h = solvers.HalpernConfig(anchor=(0.0,))
        assert h.alpha(0) == 1.0
        assert h.alpha(4) == pytest.approx(0.2)

    def test_custom_alpha_schedule(self):
        h = solvers.HalpernConfig(anchor=(0.0,), alpha_schedule=(0.5, 0.25))
        assert h.alpha(0) == 0.5
        assert h.alpha(5) == 0.25


class TestTraceCsv:
    def test_round_trip_exact(self):
        f, v = qp_pair()
        res = solvers.gppa(f, v, np.zeros(2), FULL, reference=np.array([1.0, 0.0]))
        text = solvers.trace_csv_text(res.trace)
        assert text.splitlines()[0] == "iter,residual,step,err_to_ref,seconds"
        back = solvers.read_trace_csv(io.StringIO(text))
        assert back.residuals == res.trace.residuals
        assert back.steps == res.trace.steps
        assert back.err_to_ref == res.trace.err_to_ref
        assert back.seconds == res.trace.seconds

    def test_round_trip_without_reference(self):
        f, v = qp_pair()
        res = solvers.gppa(f, v, np.zeros(2), FULL)
        back = solvers.read_trace_csv(io.StringIO(solvers.trace_csv_text(res.trace)))
        assert back.err_to_ref is None
        assert back.residuals == res.trace.residuals

    def test_file_round_trip(self, tmp_path):
        f, v = qp_pair()
        res = solvers.gppa(f, v, np.zeros(2), FULL)
        path = tmp_path / "trace.csv"
        solvers.write_trace_csv(path, res.trace)
        back = solvers.read_trace_csv(path)
        assert back.residuals == res.trace.residuals

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            solvers.read_trace_csv(io.StringIO("a,b\n1,2\n"))
