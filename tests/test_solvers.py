import csv
import dataclasses
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairprox import applications as apps
from pairprox import operators as ops
from pairprox import linalg, resolvents, solvers
from pairprox.errors import DimensionMismatchError, NonFiniteIterateError, SingularMatrixError, UnsupportedStructureError
from pairprox.rng import SplitMix64
from test_resolvents import EPS, SignAffinePair, _supported

FULL = solvers.SolverConfig(trace_level=solvers.TraceLevel.FULL)


def qp_pair(a=None, b=None, kappa=0.2):
    a = np.diag([1.0, 0.0]) if a is None else a
    b = np.array([1.0, 0.0]) if b is None else b
    return apps.kkt_operator_pair(a, b, kappa)


# every driver on a pair with a growing mode (kappa = 0.2 is outside
# (0, 0.15 / 2)), so that from 1e308 its first step overflows
GROWING = np.diag([1.0, -0.15])
TRACED_DRIVERS = {
    "gppa": lambda x0, cfg: solvers.gppa(*qp_pair(GROWING, np.zeros(2)), x0, cfg, reference=np.zeros(2)),
    "gppa1": lambda x0, cfg: solvers.gppa1(*qp_pair(GROWING, np.zeros(2)), x0, cfg, reference=np.zeros(2)),
    "gppa2": lambda x0, cfg: solvers.gppa2(
        *qp_pair(GROWING, np.zeros(2)), x0, dataclasses.replace(cfg, halpern=solvers.HalpernConfig(anchor=(1.0, 1.0))),
        reference=np.zeros(2),
    ),
    "dca_baseline": lambda x0, cfg: solvers.dca_baseline(np.diag([1.0, -1.0]), np.zeros(2), 2.0, x0, cfg),
    "solve_kkt": lambda x0, cfg: apps.solve_kkt(apps.KKTSystem(GROWING, np.zeros(2), 1), 0.2, x0=x0, cfg=cfg).result,
    "least_squares_iterate": lambda x0, cfg: apps.least_squares_iterate(GROWING, np.zeros(2), 0.2, x0=x0, cfg=cfg).result,
}
TRACED_STARTS = {
    "steps": ((0.3, -0.7), ("MaxIters", None, 5)),
    "overflow": ((1e308, 1e308), ("Failed", "Diverged", 0)),
    # least squares' start check: F(0) = 0, so no engine is built
    "within-tol": ((0.0, 0.0), ("Converged", None, 0)),
}


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

    @pytest.mark.parametrize("kind", ["sign-schedule", "shifted-kkt"])
    def test_norm_residual_hook_is_the_default_bitwise(self, kind):
        # the hook sees u = v(x_n) - v(x_{n+1}); ||u|| / gamma_n is the
        # residual gppa computes without it
        if kind == "shifted-kkt":
            system = apps.generate_consistent_system(12, 5)
            f, v = apps.kkt_operator_pair(system.matrix, system.rhs, 0.2)
            x0, schedule = np.zeros(12), 1.0
        else:
            f, v = ops.sign_swap_operator(), ops.swap_operator()
            x0, schedule = np.array([5.0, -3.0]), (0.5, 1.0, 2.0, 0.75)
        cfg = solvers.SolverConfig(gamma_schedule=schedule, tol_residual=1e-12, trace_level=solvers.TraceLevel.FULL)
        step = iter(range(cfg.max_iters))
        hooked = solvers.gppa(f, v, x0, cfg, residual=lambda u: linalg.norm(u) / cfg.gamma_at(next(step)))
        default = solvers.gppa(f, v, x0, cfg)
        assert (hooked.status, hooked.reason, hooked.iterations) == (default.status, default.reason, default.iterations)
        assert next(step) == hooked.iterations > 1
        assert hooked.preimage.tobytes() == default.preimage.tobytes()
        assert hooked.image.tobytes() == default.image.tobytes()
        assert hooked.trace.residuals == default.trace.residuals
        assert hooked.trace.steps == default.trace.steps
        assert np.array(hooked.trace.iterates).tobytes() == np.array(default.trace.iterates).tobytes()

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


class TestHalpernConfigOnlyForGppa2:
    @pytest.mark.parametrize("driver", ["gppa", "gppa1", "dca_baseline"])
    def test_plain_driver_rejects_halpern_config(self, driver):
        # these drivers run no anchored iteration; they used to ignore the
        # config and run their plain steps
        cfg = solvers.SolverConfig(halpern=solvers.HalpernConfig(anchor=(1.0, 1.0)))
        if driver == "dca_baseline":
            run = lambda: solvers.dca_baseline(np.diag([1.0, 2.0]), np.ones(2), 1.0, np.zeros(2), cfg)
        else:
            run = lambda: getattr(solvers, driver)(ops.sign_swap_operator(), ops.swap_operator(), np.array([3.0, 1.0]), cfg)
        with pytest.raises(ValueError, match="gppa2"):
            run()


class TestUnsupportedPair:
    @pytest.mark.parametrize("driver", ["gppa", "gppa1", "gppa2"])
    def test_pair_without_a_resolvent_is_refused(self, driver):
        # the trig terms have no closed-form resolvent, so the engine build
        # fails before any resolvent is evaluated
        cfg = solvers.SolverConfig(halpern=solvers.HalpernConfig(anchor=(1.0, 1.0)) if driver == "gppa2" else None)
        with pytest.raises(UnsupportedStructureError, match="no closed-form resolvent for F=Sum, v=Permutation"):
            getattr(solvers, driver)(ops.trig_block_operator(), ops.swap_operator(), np.array([3.0, 1.0]), cfg)


# SignAffinePair draws of full rank: sym(P^T B) = scale * L L^T is definite,
# so F has the one zero x*, and the build certifies the pair unless L is
# nearly singular at scale 1e12, a draw that `_supported` rejects. At scale 1e-6, T is
# within about 1e-6 of the identity and a run of 100 steps barely moves, so
# the draws take scales 1 and 1e12 only
def full_rank_sign_affine(max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            SignAffinePair,
            st.permutations(range(n)),
            st.just(n),
            st.booleans(),
            st.sampled_from([1.0, 1e12]),
            st.integers(0, 2**32),
        )
    )


FULL_RANK_SIGN_AFFINE = full_rank_sign_affine(8)


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

    def test_one_entry_schedule_is_a_constant_gamma(self):
        # (0.5,) is the constant gamma 0.5; it used to be refused
        halpern = solvers.HalpernConfig(anchor=(1.0, 1.0))
        runs = [
            solvers.gppa2(
                ops.sign_swap_operator(), ops.swap_operator(), np.array([3.0, 1.0]),
                solvers.SolverConfig(gamma_schedule=gamma, tol_residual=0.0, max_iters=50, halpern=halpern),
            )
            for gamma in (0.5, (0.5,))
        ]
        assert runs[0].image.tobytes() == runs[1].image.tobytes()
        assert runs[0].trace.residuals == runs[1].trace.residuals

    def test_schedule_of_several_gammas_is_refused(self):
        cfg = solvers.SolverConfig(gamma_schedule=(0.5, 0.5), halpern=solvers.HalpernConfig(anchor=(1.0, 1.0)))
        with pytest.raises(ValueError, match="gppa2 requires a constant gamma"):
            solvers.gppa2(ops.sign_swap_operator(), ops.swap_operator(), np.array([3.0, 1.0]), cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_anchor_is_rejected(self, bad):
        # rejected before the first step, as a NaN/Inf x0 is, rather than
        # reported as a diverged run
        cfg = solvers.SolverConfig(halpern=solvers.HalpernConfig(anchor=(bad, 1.0)))
        with pytest.raises(ValueError, match="anchor contains NaN/Inf"):
            solvers.gppa2(ops.sign_swap_operator(), ops.swap_operator(), np.array([3.0, 1.0]), cfg)

    def test_anchor_at_fixed_point_is_constant(self):
        f, v = ops.sign_swap_operator(), ops.swap_operator()
        cfg = solvers.SolverConfig(halpern=solvers.HalpernConfig(anchor=(0.0, 0.0)), trace_level=solvers.TraceLevel.FULL)
        res = solvers.gppa2(f, v, np.zeros(2), cfg)
        assert res.status is solvers.Status.CONVERGED
        assert res.iterations == 1
        assert np.array_equal(res.image, np.zeros(2))

    @given(FULL_RANK_SIGN_AFFINE)
    @settings(max_examples=10, deadline=None)
    def test_halpern_rate_and_strong_limit_on_sign_affine_pairs(self, pair):
        # the pair is sigma-strongly monotone, sigma the least eigenvalue of
        # sym(P^T B), and v is an isometry, so <x - y, T x - T y> >= (1 +
        # sigma) ||T x - T y||^2: T is a 1/(1 + sigma) contraction onto its
        # one fixed point p = v(x*). Lieder's bound then reads ||x_k -
        # T(x_k)|| <= 2 ||anchor - p|| / k, and k ||x_k - p|| <= ||anchor -
        # p|| (1 + sigma) / sigma: the KKT test's bounds at rho = 1/(1 + sigma).
        # p solves the rounded data only within dp = delta (1 + sigma) /
        # sigma, and rounding by delta per step moves x_k by at most k delta
        engine = _supported(pair).engine
        perm = pair.v.as_matrix()
        monotone_part = perm.T @ (pair.matrix - perm)
        sigma = np.linalg.eigvalsh(0.5 * (monotone_part + monotone_part.T))[0]
        assume(sigma > 0.0)
        n, steps = engine.dim, 100
        p = ops.evaluate_point(pair.v, pair.x_star)
        anchor = pair.points.uniform(n, -8.0, 8.0)
        cfg = solvers.SolverConfig(
            tol_residual=0.0, max_iters=steps, trace_level=solvers.TraceLevel.FULL,
            halpern=solvers.HalpernConfig(anchor=tuple(anchor)),
        )
        iterates = solvers.gppa2(pair.f, pair.v, np.zeros(n), cfg).trace.iterates
        assert len(iterates) == steps + 1
        big = max(np.linalg.norm(x) for x in iterates)
        delta = 10.0 * pair.unit(big, big)
        dp = delta * (1.0 + sigma) / sigma
        distance = np.linalg.norm(anchor - p) + dp
        pattern = None
        for k in range(1, steps + 1):
            x = iterates[k]
            out = resolvents.transformed(engine, x, pattern)
            pattern = out.pattern
            assert k * np.linalg.norm(x - out.image) <= 2 * distance + k * (k + 1) * delta
            approach = min(1.0, (1.0 + sigma) / (sigma * k))
            assert np.linalg.norm(x - p) <= approach * distance + dp + k * delta


class TestLinearRateOnSignAffinePairs:
    # at gamma the pair (gamma F, v) is gamma sigma-strongly monotone, sigma
    # the least eigenvalue of sym(P^T B), and v is an isometry, so T_gamma is
    # a 1/(1 + gamma sigma) contraction onto the one fixed point p = v(x*)
    # that every T_gamma shares: the paper's linear rate on a set-valued F
    SCHEDULES = {"unit": 1.0, "schedule": (0.5, 1.0, 2.0, 0.75)}
    STEPS = 40

    @staticmethod
    def sigma(pair):
        perm = pair.v.as_matrix()
        monotone_part = perm.T @ (pair.matrix - perm)
        return np.linalg.eigvalsh(0.5 * (monotone_part + monotone_part.T))[0]

    @staticmethod
    def roundoff(pair, gamma, size):
        """`pair.unit` at gamma: the roundoff of one evaluation of T_gamma
        whose input and preimage have norm at most `size`."""
        perm = pair.v.as_matrix()
        m, n = gamma * (pair.matrix - perm) + perm, perm.shape[0]
        data = size + gamma * (np.linalg.norm(pair.d) + pair.s * np.sqrt(n))
        return n * EPS * np.linalg.norm(np.linalg.inv(m), 2) * (data + np.linalg.norm(m, 2) * size)

    @classmethod
    def check_rate(cls, pair, cfg, images, factor=1.0):
        """||x_{k+1} - p|| <= factor ||x_k - p|| / (1 + gamma_k sigma) plus
        one step's roundoff delta and twice the distance dp of p from the
        fixed point of the rounded data, checked until the error is within
        100 times that slack. Returns the steps checked."""
        sigma = cls.sigma(pair)
        p = ops.evaluate_point(pair.v, pair.x_star)
        big = max(np.linalg.norm(x) for x in images)
        gammas = [cfg.gamma_at(k) for k in range(len(images) - 1)]
        delta = 10.0 * max(cls.roundoff(pair, g, big) for g in gammas)
        # T_gamma(p) is within delta of p, so p is within delta / (1 - rho) of the fixed point
        slack = delta + 2.0 * max(delta * (1.0 + g * sigma) / (g * sigma) for g in gammas)
        errors = [np.linalg.norm(x - p) for x in images]
        checked = 0
        for gamma, before, after in zip(gammas, errors, errors[1:]):
            if before <= 100.0 * slack:
                break
            assert after <= factor * before / (1.0 + gamma * sigma) + slack
            checked += 1
        return checked

    @pytest.mark.parametrize("schedule", SCHEDULES.values(), ids=SCHEDULES.keys())
    # n <= 5 keeps each engine build below 10 ms; the rate does not depend on n
    @given(pair=full_rank_sign_affine(5))
    @settings(max_examples=15, deadline=None)
    def test_gppa1_and_gppa_images_contract_at_the_linear_rate(self, schedule, pair):
        # full-rank draws certify every build, at each gamma; gppa's trace
        # holds the preimages z_k, and their images v(z_k) run T as gppa1's
        # iterates do
        assume(self.sigma(pair) > 0.0)
        cfg = solvers.SolverConfig(
            gamma_schedule=schedule, tol_residual=0.0, max_iters=self.STEPS, trace_level=solvers.TraceLevel.FULL,
        )
        x0 = pair.points.uniform(len(pair.v.perm), -8.0, 8.0)
        images = solvers.gppa1(pair.f, pair.v, ops.evaluate_point(pair.v, x0), cfg).trace.iterates
        assert self.check_rate(pair, cfg, images) >= 1
        preimages = solvers.gppa(pair.f, pair.v, x0, cfg).trace.iterates
        assert self.check_rate(pair, cfg, [ops.evaluate_point(pair.v, z) for z in preimages]) >= 1


def _symmetric_draw(n, seed):
    """A seeded symmetric matrix, indefinite at n >= 2 with high probability, and a right-hand side."""
    rng = SplitMix64(seed)
    g = rng.normal(n * n).reshape(n, n) / np.sqrt(n)
    return 0.5 * (g + g.T), rng.uniform(n, -1.0, 1.0)


def _positive_definite_draw(n, seed):
    """The fingerprint tool's DCA system: A = G G^T / n + I / 2 and b = A times a normal draw."""
    rng = SplitMix64(seed)
    g = rng.normal(n * n).reshape(n, n)
    a = g @ g.T / n + 0.5 * np.eye(n)
    return a, a @ rng.normal(n)


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

    def test_subnormal_singular_shift_is_reported(self):
        # A + m I = diag(1e-320, 0), whose pivot threshold 1e-12 * 1e-320
        # underflows to 0: the zero pivot alone marks it singular
        with pytest.raises(SingularMatrixError, match=r"gamma\*F \+ v is singular affine"):
            solvers.dca_baseline(np.diag([0.0, -1e-320]), np.zeros(2), 1e-320, np.zeros(2))

    @pytest.mark.parametrize(
        "a, b, name",
        [
            ([[np.nan, 1.0], [1.0, 2.0]], [1.0, 1.0], "A"),
            ([[np.inf, 1.0], [1.0, 2.0]], [1.0, 1.0], "A"),
            ([[1.0, 0.0], [0.0, 2.0]], [np.nan, 1.0], "b"),
            ([[1.0, 0.0], [0.0, 2.0]], [1.0, -np.inf], "b"),
        ],
    )
    def test_non_finite_data_rejected(self, a, b, name):
        with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
            solvers.dca_baseline(np.array(a), np.array(b), 2.0, np.zeros(2))

    @pytest.mark.parametrize("m", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
    def test_non_finite_shift_is_named(self, m):
        # m * I turned A + m I non-finite, and the LU blamed the matrix
        with pytest.raises(ValueError, match="^" + re.escape(f"m must lie in (0, inf), got {m!r}") + "$"):
            solvers.dca_baseline(np.diag([1.0, 2.0]), np.ones(2), m, np.zeros(2))

    @pytest.mark.parametrize("a", [np.diag([1e308, 1.0]), np.diag([1.0, 1e308])], ids=["first", "last"])
    def test_overflowing_shift_is_named(self, a):
        # A and m are finite, A + m I is not; at gamma = 1 that is gamma*F + v
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"gamma\*F \+ v overflows the float range"):
            solvers.dca_baseline(a, np.ones(2), 1e308, np.zeros(2))

    @pytest.mark.parametrize("gamma", [0.25, (0.5, 4.0)], ids=["constant", "sequence"])
    def test_requires_unit_gamma(self, gamma):
        # the step is built at gamma = 1; any other schedule ran as gamma = 1
        cfg = solvers.SolverConfig(gamma_schedule=gamma)
        with pytest.raises(ValueError, match="the shifted-kernel iteration is defined at constant gamma = 1"):
            solvers.dca_baseline(np.diag([1.0, -1.0]), np.zeros(2), 2.0, np.ones(2), cfg)

    @pytest.mark.parametrize("a, m", [(np.eye(2), 0.0), (2.0 * np.eye(2), -1.0)], ids=["zero", "negative"])
    def test_nonpositive_shift_is_named(self, a, m):
        # v = m I is no positive kernel: m = 0 made one step x = A^{-1} b
        # and returned Converged, m = -1 ran to MaxIters
        with pytest.raises(ValueError, match="^" + re.escape(f"m must lie in (0, inf), got {m!r}") + "$"):
            solvers.dca_baseline(a, np.ones(2), m, np.zeros(2))

    @staticmethod
    def _shifted_lu_run(a, b, m, x0, cfg):
        # the reference: an LU solve of A + m I at m x + b, DCA's step before it ran `warped`
        fact = linalg.lu_factorize(a + m * np.eye(a.shape[0]))
        res = solvers.dca_baseline(a, b, m, x0, cfg)
        xs = [x0]
        for _ in range(res.iterations):
            xs.append(linalg.lu_solve(fact, m * xs[-1] + b))
        return res, xs, [linalg.norm(a @ x - b) for x in xs[1:]]

    @pytest.mark.parametrize("m", [0.5, 2.0])
    @pytest.mark.parametrize("n", [2, 50, 200])
    def test_steps_are_the_shifted_lu_solve_bitwise(self, n, m):
        # the engine factors 1.0 * A + m I, bitwise A + m I, and its
        # right-hand side m x - (-b + 0) rounds as m x + b
        rng = SplitMix64(7 * n + int(4 * m))
        g = rng.normal(n * n).reshape(n, n) / np.sqrt(n)
        a, b = 0.5 * (g + g.T), rng.sign(n) * rng.uniform(n, 0.5, 1.5)
        cfg = solvers.SolverConfig(tol_residual=0.0, max_iters=25, trace_level=solvers.TraceLevel.FULL)
        res, xs, residuals = self._shifted_lu_run(a, b, m, rng.uniform(n, -1.0, 1.0), cfg)
        # the draws are indefinite: at n >= 50 the runs diverge after 4 to 18 steps
        assert res.iterations >= 4
        assert np.array(res.trace.iterates).tobytes() == np.array(xs).tobytes()
        assert np.array(res.trace.residuals).tobytes() == np.array(residuals).tobytes()

    # (A, b, m, x0, max_iters): the fingerprint tool's n = 200 system (106
    # steps), an indefinite n = 50 draw at m = 0.5 (diverges after 10),
    # diag(2, 3) (23), the dca-divergence demo's run (diverges after 28) and
    # a coupled n = 2 system (85)
    WARPED_RUNS = {
        "n200": lambda: (*_positive_definite_draw(200, 11), 2.0, None, 1000),
        "n50-m0.5": lambda: (*_symmetric_draw(50, 11), 0.5, None, 100),
        "diag23": lambda: (np.diag([2.0, 3.0]), np.array([1.0, -2.0]), 1.0, np.array([5.0, 5.0]), 100),
        "diverging": lambda: (np.diag([1.0, -1.0]), np.zeros(2), 2.0, np.array([1.0, 1.0]), 1000),
        "n2-coupled": lambda: (np.array([[1.0, 0.3], [0.3, 2.0]]), np.array([1.0, 1.0]), 3.0, np.zeros(2), 1000),
    }

    @pytest.mark.parametrize("run", list(WARPED_RUNS))
    def test_steps_equal_warped_steps_and_evaluate_v_once_each(self, run, monkeypatch):
        # each step inverts at the image m x_k that the previous step
        # returned; stepping with `warped` evaluated v(x_k) and v(x_{k+1})
        a, b, m, x0, max_iters = self.WARPED_RUNS[run]()
        x0 = np.zeros(a.shape[0]) if x0 is None else x0
        cfg = solvers.SolverConfig(tol_residual=1e-10, max_iters=max_iters, trace_level=solvers.TraceLevel.FULL)
        engine = resolvents.build_engine(ops.Affine(a, -b), ops.Scale(m, ops.Pointwise("identity")), 1.0)
        calls = 0
        evaluate_point = ops.evaluate_point

        def counted(op, x):
            nonlocal calls
            calls += 1
            return evaluate_point(op, x)

        monkeypatch.setattr(ops, "evaluate_point", counted)
        res = solvers.dca_baseline(a, b, m, x0, cfg)
        assert res.iterations >= 3 and calls == res.iterations + 1
        monkeypatch.setattr(ops, "evaluate_point", evaluate_point)
        xs = [x0]
        for _ in range(res.iterations):
            xs.append(resolvents.warped(engine, xs[-1]).preimage)
        assert np.array(res.trace.iterates).tobytes() == np.array(xs).tobytes()
        assert res.trace.residuals == [linalg.norm(a @ x - b) for x in xs[1:]]
        assert res.preimage.tobytes() == xs[-1].tobytes()

    def test_complex_rhs_is_refused(self):
        # b = (1 + 1j, 1) was cast to (1, 1), and the run returned Converged
        with pytest.raises(ValueError, match="^complex values are not accepted, only real ones$"):
            solvers.dca_baseline(np.eye(2), np.array([1.0 + 1.0j, 1.0]), 1.0, np.zeros(2))

    def test_zero_rhs_entries_differ_at_most_in_the_sign_of_zero(self):
        # where b_i = +0 and m x_i = -0, m x + b is +0 and m x - (-b + 0) is -0
        a, b = np.diag([2.0, 3.0, -0.5]), np.array([0.0, 1.0, 0.0])
        cfg = solvers.SolverConfig(tol_residual=0.0, max_iters=10, trace_level=solvers.TraceLevel.FULL)
        res, xs, residuals = self._shifted_lu_run(a, b, 1.0, np.array([-0.0, 2.0, 1.0]), cfg)
        assert res.iterations == 10
        assert np.array_equal(res.trace.iterates, xs)
        assert res.trace.residuals == residuals


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
            assert a.preimage.tobytes() == b.preimage.tobytes() and a.image.tobytes() == b.image.tobytes()


def record_kink_steps(monkeypatch) -> list[bool]:
    """Wrap `resolvents.transformed`; the list returned gets, per call, whether
    it took the sign pattern that pins every row, whose image is the
    engine's v(0), evaluated on the first such step only."""
    kinks = []
    transformed = resolvents.transformed

    def recorded(engine, *args):
        out = transformed(engine, *args)
        kinks.append(out.pattern is not None and engine._strategy.patterns[out.pattern].factorization is None)
        return out

    monkeypatch.setattr(resolvents, "transformed", recorded)
    return kinks


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

    @staticmethod
    def _count_evaluations(monkeypatch) -> list[str]:
        """The list that gets one entry per resolvent evaluation or
        evaluation of an operator at a point."""
        calls = []
        transformed, evaluate_point = resolvents.transformed, ops.evaluate_point
        monkeypatch.setattr(resolvents, "transformed", lambda *args: calls.append("transformed") or transformed(*args))
        monkeypatch.setattr(ops, "evaluate_point", lambda *args: calls.append("evaluate_point") or evaluate_point(*args))
        return calls

    @staticmethod
    def _run_sign_swap(solver, level, reference):
        halpern = solvers.HalpernConfig(anchor=(1.0, 1.0)) if solver == "gppa2" else None
        cfg = solvers.SolverConfig(halpern=halpern, trace_level=level)
        getattr(solvers, solver)(ops.sign_swap_operator(), ops.swap_operator(), np.array([1.0, 2.0]), cfg, reference=reference)

    @pytest.mark.parametrize("level", [solvers.TraceLevel.NORMS, solvers.TraceLevel.FULL], ids=["norms", "full"])
    @pytest.mark.parametrize("solver", ["gppa", "gppa1", "gppa2"])
    def test_reference_of_the_wrong_size_is_refused_before_the_first_step(self, solver, level, monkeypatch):
        # numpy failed to broadcast (2,) against (3,) after one resolvent
        # evaluation, and gppa evaluated v at it and raised on the
        # operator's dimension
        calls = self._count_evaluations(monkeypatch)
        with pytest.raises(DimensionMismatchError, match=r"reference has shape \(3,\), the start \(2,\)"):
            self._run_sign_swap(solver, level, np.zeros(3))
        assert calls == []

    @pytest.mark.parametrize(
        "anchor, shape",
        [((1.0, 2.0, 3.0), r"\(3,\)"), (None, r"\(\)"), ([[1.0, 2.0]], r"\(1, 2\)"), ((), r"\(0,\)")],
        ids=["size", "none", "row", "empty"],
    )
    def test_anchor_of_the_wrong_shape_is_refused_before_the_first_step(self, anchor, shape, monkeypatch):
        # the anchor is checked as a reference is; a 3-vector anchor was a
        # ValueError that named neither shape, and a None, 1 x 2 or empty
        # anchor failed the 1-D check with a message that did not name it
        calls = self._count_evaluations(monkeypatch)
        cfg = solvers.SolverConfig(halpern=solvers.HalpernConfig(anchor=anchor))
        with pytest.raises(DimensionMismatchError, match=rf"anchor has shape {shape}, the start \(2,\)"):
            solvers.gppa2(ops.sign_swap_operator(), ops.swap_operator(), np.array([1.0, 2.0]), cfg)
        assert calls == []

    @pytest.mark.parametrize("reference, shape", [([[1.0, 2.0]], r"\(1, 2\)"), ((), r"\(0,\)")], ids=["row", "empty"])
    @pytest.mark.parametrize("solver", ["gppa", "gppa1", "gppa2"])
    def test_reference_that_is_not_a_vector_names_its_shape(self, solver, reference, shape, monkeypatch):
        # the 1-D check refused these as "expected a 1-D vector, got shape
        # (1, 2)", a message that did not name the reference
        calls = self._count_evaluations(monkeypatch)
        with pytest.raises(DimensionMismatchError, match=rf"reference has shape {shape}, the start \(2,\)"):
            self._run_sign_swap(solver, solvers.TraceLevel.NORMS, reference)
        assert calls == []

    @pytest.mark.parametrize(
        "value, error",
        [
            ("ab", "its entries must hold real numbers, got dtype <U2"),
            (("1", "2"), "its entries must hold real numbers, got dtype <U1"),
            ((True, False), "its entries must hold real numbers, got dtype bool"),
            ((1.0 + 5.0j, 0.0), "complex values are not accepted, only real ones"),
        ],
        ids=["string", "numeric-text", "bool", "complex"],
    )
    @pytest.mark.parametrize("name", ["anchor", "reference"])
    def test_a_point_that_is_not_numeric_is_refused_by_name(self, name, value, error, monkeypatch):
        # numpy's "could not convert string to float" named neither argument,
        # a complex point was cast to its real part, and a bool or numeric
        # text point was read as 0s and 1s or parsed
        calls = self._count_evaluations(monkeypatch)
        halpern = solvers.HalpernConfig(anchor=value if name == "anchor" else (1.0, 1.0))
        with pytest.raises(ValueError, match=rf"^{name} is not a numeric vector: {re.escape(error)}$"):
            solvers.gppa2(
                ops.sign_swap_operator(), ops.swap_operator(), np.array([1.0, 2.0]), solvers.SolverConfig(halpern=halpern),
                reference=value if name == "reference" else None,
            )
        assert calls == []

    @pytest.mark.parametrize("x0, dtype", [(np.array([True, False]), "bool"), (("1", "0"), "<U1")], ids=["bool", "text"])
    @pytest.mark.parametrize("driver", list(TRACED_DRIVERS))
    def test_bool_or_text_start_is_refused_before_the_first_step(self, driver, x0, dtype, monkeypatch):
        # gppa on the sign-swap pair from (True, False) started at (1, 0)
        calls = self._count_evaluations(monkeypatch)
        with pytest.raises(ValueError, match=f"^x0 must hold real numbers, got dtype {dtype}$"):
            TRACED_DRIVERS[driver](x0, solvers.SolverConfig())
        assert calls == []

    @pytest.mark.parametrize("x0", [np.array([1.0 + 5.0j, 2.0]), (1.0 + 5.0j, 2.0)], ids=["array", "tuple"])
    @pytest.mark.parametrize("driver", list(TRACED_DRIVERS))
    def test_complex_start_is_refused_before_the_first_step(self, driver, x0, monkeypatch):
        # gppa1 on the sign-swap pair ran from (1, 2) and reported
        # Converged, and a tuple raised numpy's TypeError
        calls = self._count_evaluations(monkeypatch)
        with pytest.raises(ValueError, match="^complex values are not accepted, only real ones$"):
            TRACED_DRIVERS[driver](x0, solvers.SolverConfig())
        assert calls == []

    @pytest.mark.parametrize("solver", ["gppa", "gppa1"])
    def test_nan_image_ends_the_run_as_diverged(self, solver):
        # v(x0) = 2 x0 - 2 x0 overflows to inf - inf = NaN, a value that was
        # called set-valued, so the run raised instead of stopping
        f = ops.Affine(np.eye(2))
        v = ops.Sum((ops.Affine(2.0 * np.eye(2)), ops.Affine(-2.0 * np.eye(2))))
        with np.errstate(all="ignore"):
            res = getattr(solvers, solver)(f, v, np.array([1e308, 0.0]))
        assert (res.status, res.reason, res.iterations) == (solvers.Status.FAILED, "Diverged", 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("solver", ["gppa", "gppa1", "gppa2"])
    def test_non_finite_reference_is_refused_before_the_first_step(self, solver, bad, monkeypatch):
        # every err_to_ref read NaN, and gppa evaluated v at the reference
        calls = self._count_evaluations(monkeypatch)
        with pytest.raises(ValueError, match="reference contains NaN/Inf"):
            self._run_sign_swap(solver, solvers.TraceLevel.NORMS, np.array([0.0, bad]))
        assert calls == []

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
        cfg = solvers.SolverConfig(gamma_schedule=(1.0, 2.0, 1.0, 0.5, 2.0), tol_residual=0.0, max_iters=9)
        res = getattr(solvers, solver)(*qp_pair(), np.zeros(2), cfg)
        assert res.iterations == 9
        assert built == [1.0, 2.0, 0.5]

    def test_anchored_result_reuses_the_last_image(self, monkeypatch):
        # v is evaluated once per step, inside the resolvent, but once in all
        # on the steps at the kink, and the result carries that step's image
        # rather than a fresh v(z)
        kinks = record_kink_steps(monkeypatch)
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
        assert res.iterations == len(kinks) == 50 and any(kinks)
        assert calls == kinks.count(False) + 1
        assert res.image.tobytes() == evaluate_point(v, res.preimage).tobytes()

    # each driver's run of 100 steps that stop at the iteration cap, with the
    # evaluations it makes before its first step: gppa reads v(x0), least
    # squares v(x0) and F(x0)
    STEPPERS = {
        "gppa": (1, lambda cfg: solvers.gppa(
            ops.sign_swap_operator(), ops.swap_operator(), np.array([3.0, 1.0]), dataclasses.replace(cfg, gamma_schedule=(0.01,))
        )),
        "gppa1": (0, lambda cfg: solvers.gppa1(
            ops.sign_swap_operator(), ops.swap_operator(), np.array([3.0, 1.0]), dataclasses.replace(cfg, gamma_schedule=(0.01,))
        )),
        "gppa2": (0, lambda cfg: solvers.gppa2(
            ops.sign_swap_operator(), ops.swap_operator(), np.array([3.0, 1.0]),
            dataclasses.replace(cfg, halpern=solvers.HalpernConfig(anchor=(1.0, 1.0))),
        )),
        "solve_kkt": (1, lambda cfg: apps.solve_kkt(
            apps.KKTSystem(np.diag([1.0, 0.05]), np.ones(2), 2), 0.2, cfg=cfg
        ).result),
        "least_squares_iterate": (2, lambda cfg: apps.least_squares_iterate(
            np.diag([1.0, 0.05]), np.ones(2), 0.2, cfg=cfg
        ).result),
    }

    @pytest.mark.parametrize("driver", list(STEPPERS))
    def test_step_checks_one_shape_and_compares_no_bounds(self, driver, monkeypatch):
        # no engine's build evaluates F or v; each step evaluates only v, for
        # the image, and checks its input shape once, at the root, except
        # that the steps at the kink share one evaluation, of v(0). v is an
        # Affine or Permutation leaf, whose value holds one array as both
        # bounds, so telling that it is a point compares nothing
        kinks = record_kink_steps(monkeypatch)
        checks = compares = 0
        check_dim, array_equal = ops.OperatorExpr._check_dim, np.array_equal

        def counted_check(self, x):
            nonlocal checks
            checks += 1
            return check_dim(self, x)

        def counted_equal(*args, **kwargs):
            nonlocal compares
            compares += 1
            return array_equal(*args, **kwargs)

        monkeypatch.setattr(ops.OperatorExpr, "_check_dim", counted_check)
        monkeypatch.setattr(np, "array_equal", counted_equal)
        start_up, run = self.STEPPERS[driver]
        res = run(solvers.SolverConfig(tol_residual=0.0, max_iters=100))
        assert res.status is solvers.Status.MAX_ITERS and res.iterations == len(kinks) == 100
        assert (checks, compares) == (kinks.count(False) + any(kinks) + start_up, 0)


class TestResidualAccess:
    @pytest.mark.parametrize("level", list(solvers.TraceLevel), ids=lambda level: level.name.lower())
    @pytest.mark.parametrize(
        "driver, start",
        [(driver, start) for driver in TRACED_DRIVERS for start in ("steps", "overflow")]
        + [("least_squares_iterate", "within-tol")],
    )
    def test_every_solve_has_a_trace_of_one_row_per_step(self, driver, start, level):
        # the loop records every solve at every level, including a run that
        # stops before its first step and a start that needs no step
        x0, expected = TRACED_STARTS[start]
        x0 = np.array(x0)
        with np.errstate(all="ignore" if start == "overflow" else "warn"):
            res = TRACED_DRIVERS[driver](x0, solvers.SolverConfig(tol_residual=0.0, max_iters=5, trace_level=level))
        assert (res.status.value, res.reason, res.iterations) == expected
        trace = res.trace
        assert isinstance(trace, solvers.IterationTrace)
        assert len(trace.residuals) == len(trace.steps) == len(trace.seconds) == res.iterations
        if trace.err_to_ref is not None:
            assert len(trace.err_to_ref) == res.iterations
        if level is solvers.TraceLevel.FULL:
            assert len(trace.iterates) == res.iterations + 1
            assert trace.iterates[0].tobytes() == x0.tobytes()
        else:
            assert trace.iterates is None

    def test_constant_sequence_all_zero_residuals(self):
        res = solvers.gppa(ops.sign_swap_operator(), ops.swap_operator(), np.zeros(2), FULL)
        assert res.trace.residuals == [0.0]

    def test_qp_residual_geometric_decay(self):
        f, v = qp_pair()
        res = solvers.gppa(f, v, np.zeros(2), FULL)
        residuals = res.trace.residuals
        for r0, r1 in zip(residuals, residuals[1:]):
            if r0 < 1e-12:
                break
            assert r1 == pytest.approx((7.0 / 12.0) * r0, rel=1e-9)

    def test_sign_run_residuals_nonincreasing(self):
        res = solvers.gppa(ops.sign_swap_operator(), ops.swap_operator(), np.array([5.0, -3.0]), FULL)
        residuals = res.trace.residuals
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
        # a step that leaves x where it is while its residual stays above the
        # tolerance ends the shared loop as step-stalled, whatever the solver
        cfg = solvers.SolverConfig(tol_residual=1e-8, max_iters=100)
        x = np.array([1.0, -2.0])
        status, reason, iterations, last, trace = solvers._iterate(cfg, x, lambda n, x: (x.copy(), 1.0, x))
        assert (status, reason, iterations) == (solvers.Status.FAILED, "step-stalled", 1)
        assert trace.steps == [0.0] and trace.residuals == [1.0]
        assert np.array_equal(last, x)

    def test_zero_step_of_a_transformed_iteration_is_converged(self):
        # a residual of None is ||x - x_next|| / gamma_n, which a zero step
        # makes 0: the run has converged, even at tol_residual = 0
        cfg = solvers.SolverConfig(tol_residual=0.0, max_iters=100, gamma_schedule=0.5)
        x = np.array([1.0, -2.0])
        status, reason, iterations, _, trace = solvers._iterate(cfg, x, lambda n, x: (x.copy(), None, x))
        assert (status, reason, iterations) == (solvers.Status.CONVERGED, None, 1)
        assert trace.steps == trace.residuals == [0.0]


# finite 100-step runs: (F, v) pairs and systems whose runs neither converge
# nor stall within the cap
STEP_CAP = solvers.SolverConfig(tol_residual=0.0, max_iters=100)
FINITE_RUNS = {
    "gppa": lambda: solvers.gppa(*qp_pair(np.diag([1.0, 0.01])), (0.3, -0.7), STEP_CAP),
    "gppa1": lambda: solvers.gppa1(*qp_pair(np.diag([1.0, 0.01])), (0.3, -0.7), STEP_CAP),
    "gppa2": lambda: solvers.gppa2(
        *qp_pair(), (0.3, -0.7), dataclasses.replace(STEP_CAP, halpern=solvers.HalpernConfig(anchor=(1.0, 1.0)))
    ),
    "dca_baseline": lambda: solvers.dca_baseline(np.diag([2.0, 3.0]), np.ones(2), 100.0, np.zeros(2), STEP_CAP),
    "least_squares_iterate": lambda: apps.least_squares_iterate(
        np.diag([1.0, 0.01]), np.ones(2), 0.2, cfg=STEP_CAP
    ).result,
}


class TestFinitenessFromStepNorm:
    """`_iterate` reads x_next's finiteness off ||x - x_next||, which is
    finite only for a finite x_next since x is finite, and tests x_next
    itself only where that norm is inf or NaN."""

    @pytest.mark.parametrize("solver", sorted(FINITE_RUNS))
    def test_finite_run_makes_no_separate_test(self, solver, monkeypatch):
        callers = []
        all_finite = linalg.all_finite

        def recorded(a):
            callers.append(sys._getframe(1).f_code.co_name)
            return all_finite(a)

        monkeypatch.setattr(linalg, "all_finite", recorded)
        res = FINITE_RUNS[solver]()
        assert (res.status, res.iterations) == (solvers.Status.MAX_ITERS, 100)
        # the wrapper sees the other tests, `_start`'s and the resolvent's
        assert "_start" in callers and "_iterate" not in callers

    @pytest.mark.parametrize(
        "x_next",
        [(np.nan, 0.0), (np.inf, 0.0), (-np.inf, np.nan), (1e200, np.inf)],
        ids=["nan", "inf", "-inf-nan", "norm-overflows"],
    )
    def test_non_finite_step_is_diverged_uncounted(self, x_next):
        cfg = solvers.SolverConfig(trace_level=solvers.TraceLevel.FULL)
        x = np.array([1.0, 1.0])
        # the norm of (1 - 1e200, -inf) overflows in its dot product
        with np.errstate(over="ignore"):
            status, reason, iterations, last, trace = solvers._iterate(
                cfg, x, lambda n, x: (np.array(x_next), None, x), reference=np.zeros(2)
            )
        assert (status, reason, iterations) == (solvers.Status.FAILED, "Diverged", 0)
        assert last is x and np.array_equal(x, [1.0, 1.0])
        assert trace.residuals == trace.steps == trace.seconds == trace.err_to_ref == []
        assert len(trace.iterates) == 1

    def test_finite_step_whose_norm_overflows_keeps_running(self):
        # ||(1.5e308, 1.5e308)|| exceeds the float range, but (0, 0) is finite:
        # the step is recorded with an infinite residual, and the next, of
        # norm zero, converges
        cfg = solvers.SolverConfig(tol_residual=0.0)
        x = np.array([1.5e308, 1.5e308])
        with np.errstate(over="ignore"):
            status, reason, iterations, last, trace = solvers._iterate(cfg, x, lambda n, x: (np.zeros(2), None, x))
        assert (status, reason, iterations) == (solvers.Status.CONVERGED, None, 2)
        assert trace.steps == trace.residuals == [np.inf, 0.0]
        assert np.array_equal(last, np.zeros(2))


# every reachable stop path of each solver, pinned before the iteration loop
# was shared: (status, reason, iterations); the trace holds one row per step
STOP_CONFIGS = {
    "converged": solvers.SolverConfig(tol_residual=1e-6, max_iters=5000),
    "max-iters": solvers.SolverConfig(tol_residual=0.0, max_iters=5),
    "step-stalled": solvers.SolverConfig(tol_residual=0.0, max_iters=5000),
    "non-finite": solvers.SolverConfig(tol_residual=0.0, max_iters=5000),
    "diverged": solvers.SolverConfig(tol_residual=0.0, max_iters=5000),
}


REFERENCES = {
    "plus-zero": (0.0, 0.0),
    "minus-zero": (-0.0, -0.0),
    "mixed-zero": (0.0, -0.0),
    "nonzero": (0.25, -0.0),
    "tiny": (5e-324, 0.0),
}


class TestErrToRefAtOrigin:
    """`_iterate` takes ||image|| for ||image - reference|| when no entry of
    the reference is nonzero; the recorded bits must be the subtraction's."""

    @pytest.mark.parametrize("reference", REFERENCES)
    def test_same_bits_as_subtracting_on_crafted_images(self, reference):
        ref = np.array(REFERENCES[reference])
        # signed zeros, a sum of squares that overflows and one that underflows
        images = [np.array(p) for p in [(-0.0, -0.0), (-0.0, 3.0), (1e200, -1e200), (1e-170, -0.0), (-2.5, 1e-320)]]
        cfg = solvers.SolverConfig(tol_residual=0.0, max_iters=len(images))
        # the norm scales a sum of squares that overflows, after numpy's warning
        with np.errstate(over="ignore"):
            _, _, iterations, _, trace = solvers._iterate(
                cfg, np.zeros(2), lambda n, x: (x + 1.0, 1.0, images[n]), reference=ref
            )
            expected = [linalg.norm(image - ref) for image in images]
        assert iterations == len(images)
        assert np.array(trace.err_to_ref).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("reference", REFERENCES)
    @pytest.mark.parametrize("solver", ["gppa1", "gppa2"])
    def test_same_bits_as_subtracting_on_the_sign_pair(self, solver, reference):
        # both record the image x_{n+1}, which FULL traces keep as iterates
        ref = np.array(REFERENCES[reference])
        cfg = solvers.SolverConfig(tol_residual=0.0, max_iters=200, trace_level=solvers.TraceLevel.FULL)
        f, v, x0 = ops.sign_swap_operator(), ops.swap_operator(), np.array([-0.0, 3.5])
        if solver == "gppa1":
            res = solvers.gppa1(f, v, x0, cfg, reference=ref)
        else:
            cfg = dataclasses.replace(cfg, halpern=solvers.HalpernConfig(anchor=(-0.0, 1.0)))
            res = solvers.gppa2(f, v, x0, cfg, reference=ref)
        expected = [linalg.norm(x - ref) for x in res.trace.iterates[1:]]
        assert len(expected) == res.iterations > 0
        assert np.array(res.trace.err_to_ref).tobytes() == np.array(expected).tobytes()


class TestStopRules:
    @pytest.mark.parametrize(
        "solver, path, expected",
        [
            ("gppa", "converged", ("Converged", None, 25)),
            ("gppa", "max-iters", ("MaxIters", None, 5)),
            ("gppa", "step-stalled", ("Converged", None, 2)),
            ("gppa", "non-finite", ("Failed", "Diverged", 0)),
            ("gppa1", "converged", ("Converged", None, 26)),
            ("gppa1", "max-iters", ("MaxIters", None, 5)),
            ("gppa1", "step-stalled", ("Converged", None, 2)),
            ("gppa1", "non-finite", ("Failed", "Diverged", 0)),
            ("gppa2", "converged", ("Converged", None, 981)),
            ("gppa2", "max-iters", ("MaxIters", None, 5)),
            ("gppa2", "step-stalled", ("Converged", None, 2)),
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
        #
        # a step of norm zero repeats the image, so its residual is 0 too and
        # the step-stalled runs have converged before that rule is reached:
        # on the sign pair T maps the unit box to its fixed point 0, which is
        # also gppa2's anchor there, and the second step is zero
        if path in ("non-finite", "diverged"):
            f, v = qp_pair(a=np.diag([1.0, -0.15]), b=np.zeros(2))
        elif path == "step-stalled":
            f, v = ops.sign_swap_operator(), ops.swap_operator()
        else:
            f, v = qp_pair()
        cfg = STOP_CONFIGS[path]
        if solver == "gppa2":
            anchor = (0.0, 0.0) if path == "step-stalled" else (1.0, 1.0)
            cfg = dataclasses.replace(cfg, halpern=solvers.HalpernConfig(anchor=anchor))
        x0 = np.array([1e308, 1e308]) if path == "non-finite" else np.array([0.3, -0.7])
        overflows = path == "non-finite" or (solver, path) == ("gppa2", "diverged")
        mode = "ignore" if overflows else "warn"
        with np.errstate(over=mode, invalid=mode):
            res = getattr(solvers, solver)(f, v, x0, cfg)
        assert (res.status.value, res.reason, res.iterations) == expected
        assert len(res.trace.residuals) == res.iterations
        if path == "non-finite":
            assert np.array_equal(res.preimage, x0)
        if path == "step-stalled":
            assert res.trace.steps[-1] == res.trace.residuals[-1] == 0.0
        if overflows:
            assert np.all(np.isfinite(res.preimage)) and np.all(np.isfinite(res.image))

    @pytest.mark.parametrize(
        "path, expected",
        [
            ("converged", ("Converged", None, 21)),
            ("max-iters", ("MaxIters", None, 5)),
            ("step-stalled", ("Failed", "step-stalled", 43)),
        ],
    )
    def test_dca(self, path, expected):
        # a step of norm zero stops the run only where e_k stays above the
        # tolerance: on this system the iterate stops moving with e_k at
        # 2.5e-16, while on I x = 1 e_k reaches 0 first
        a = np.array([[2.0, 1.0], [1.0, 3.0]]) if path == "step-stalled" else np.eye(2)
        res = solvers.dca_baseline(a, np.ones(2), m=1.0, x0=np.zeros(2), cfg=STOP_CONFIGS[path])
        assert (res.status.value, res.reason, res.iterations) == expected
        assert len(res.trace.residuals) == res.iterations
        if path == "step-stalled":
            assert res.trace.steps[-1] == 0.0 and 0.0 < res.trace.residuals[-1] < 1e-15

    def test_dca_error_cap_divergence(self):
        # e_k doubles per step and passes 1e8 * (1 + e_0) at step 28
        res = solvers.dca_baseline(
            np.diag([1.0, -1.0]), np.zeros(2), m=2.0, x0=np.ones(2),
            cfg=solvers.SolverConfig(max_iters=10_000),
        )
        assert (res.status.value, res.reason, res.iterations) == ("Failed", "Diverged", 28)
        assert len(res.trace.residuals) == 28
        assert res.trace.residuals[-1] > 1e8

    def test_divergence_bound_is_capped_at_the_float_maximum(self):
        # 1e8 * (1 + r0) overflows once r0 passes about 1.8e300
        assert solvers._divergence_bound(4.067e300) == sys.float_info.max
        assert solvers._divergence_bound(1e300) == 1e8 * (1.0 + 1e300)

    def test_residual_overflowing_to_inf_stops_as_diverged(self):
        # F = -5x, v = 3x: each image is -1.5 times the last, so from
        # v(x0) = 3e300 the residual |w - image| = 2.5|w| overflows at step
        # 43 while the step's point and image stay finite; the uncapped bound
        # was inf, and the run went on to return an infinite image
        f, v = ops.Affine(np.array([[-5.0]])), ops.Affine(np.array([[3.0]]))
        with np.errstate(over="ignore", invalid="ignore"):
            res = solvers.gppa(f, v, np.array([1e300]), solvers.SolverConfig(max_iters=1000))
        assert (res.status.value, res.reason, res.iterations) == ("Failed", "Diverged", 43)
        assert res.trace.residuals[-1] == np.inf and np.isfinite(res.trace.residuals[-2])
        assert np.all(np.isfinite(res.preimage)) and np.all(np.isfinite(res.image))

    def test_dca_uses_the_shared_bound(self, monkeypatch):
        seen = []
        bound = solvers._divergence_bound
        monkeypatch.setattr(solvers, "_divergence_bound", lambda r0: seen.append(r0) or bound(r0))
        res = solvers.dca_baseline(
            np.diag([1.0, -1.0]), np.zeros(2), m=2.0, x0=np.ones(2), cfg=solvers.SolverConfig(max_iters=10_000)
        )
        assert res.reason == "Diverged"
        # called with e_0 = ||A x0 - b||, not the first step's residual
        assert seen == [pytest.approx(np.sqrt(2.0))]

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
    def test_sequence_schedule_extends_with_last_value(self):
        cfg = solvers.SolverConfig(gamma_schedule=(0.5, 2.0), max_iters=10)
        assert cfg.gamma_at(0) == 0.5
        assert cfg.gamma_at(1) == 2.0
        assert cfg.gamma_at(7) == 2.0

    def test_the_loop_reads_each_gamma_of_the_schedule(self):
        # gppa1's residual is ||x_n - x_{n+1}|| / gamma_n, read in `_iterate`
        # off the bound schedule; from step 2 on gamma_n is its last value
        cfg = solvers.SolverConfig(gamma_schedule=(1.0, 2.0, 0.5), tol_residual=0.0, max_iters=6)
        res = solvers.gppa1(*qp_pair(), np.array([0.3, -0.7]), cfg)
        assert (res.status, res.iterations) == (solvers.Status.MAX_ITERS, 6)
        gammas = (1.0, 2.0, 0.5, 0.5, 0.5, 0.5)
        assert res.trace.residuals == [step / gamma for step, gamma in zip(res.trace.steps, gammas)]

    def test_invalid_gammas_rejected(self):
        with pytest.raises(ValueError):
            solvers.SolverConfig(gamma_schedule=0.0)
        with pytest.raises(ValueError):
            solvers.SolverConfig(gamma_schedule=(1.0, -1.0), max_iters=10)

    @pytest.mark.parametrize(
        "schedule, shown",
        [(float("nan"), "nan"), (float("inf"), "inf"), ((1.0, float("nan")), "nan"), ((1.0, float("inf")), "inf")],
        ids=["nan", "inf", "schedule-nan", "schedule-inf"],
    )
    def test_gamma_must_be_positive_and_finite(self, schedule, shown):
        # rejected with the config, before an engine build would blame the
        # data with "gamma*F + v overflows the float range"
        with pytest.raises(ValueError, match="^" + re.escape(f"gamma must lie in (0, inf), got {shown}") + "$"):
            solvers.SolverConfig(gamma_schedule=schedule)

    @pytest.mark.parametrize(
        "schedule",
        [0.5, 2, (0.5,), [0.5, 2.0], np.float32(0.5), np.int64(1), np.array(0.5), np.array([0.5, 2.0])],
        ids=["float", "int", "one-entry", "list", "float32", "int64", "0-d-array", "array"],
    )
    def test_schedule_is_stored_as_a_tuple_of_floats(self, schedule):
        # numpy scalars and 0-d arrays raised "not iterable"
        cfg = solvers.SolverConfig(gamma_schedule=schedule)
        expected = (float(schedule),) if np.ndim(schedule) == 0 else tuple(map(float, schedule))
        assert cfg.gamma_schedule == expected
        assert all(type(g) is float for g in cfg.gamma_schedule)

    @pytest.mark.parametrize("schedule", ["12", b"12"], ids=["str", "bytes"])
    def test_string_schedule_is_refused(self, schedule):
        # "12" was read as the schedule (1, 2)
        with pytest.raises(ValueError, match="^" + re.escape(f"gamma must lie in (0, inf), got {schedule!r}") + "$"):
            solvers.SolverConfig(gamma_schedule=schedule)

    @pytest.mark.parametrize(
        "schedule, entry",
        [
            (1j, 1j),
            (np.complex128(2.0 + 1.0j), np.complex128(2.0 + 1.0j)),
            (np.array(2.0 + 0.0j), np.array(2.0 + 0.0j)),
            ((1.0, 2.0 + 1.0j), 2.0 + 1.0j),
            (("1", 2.0), "1"),
            ((1.0, b"2"), b"2"),
            (True, True),
            ((2.0, np.True_), np.True_),
        ],
        ids=["complex", "numpy-complex", "0-d-complex-array", "complex-entry", "str-entry", "bytes-entry",
             "bool", "numpy-bool-entry"],
    )
    def test_complex_or_text_gamma_is_refused_by_name(self, schedule, entry):
        # 1j was a bare TypeError from float(), np.complex128(2+1j) became
        # (2.0,) with numpy's ComplexWarning, ("1", 2.0) became (1.0, 2.0),
        # and True became (1.0,)
        with pytest.raises(ValueError, match="^" + re.escape(f"gamma must lie in (0, inf), got {entry!r}") + "$"):
            solvers.SolverConfig(gamma_schedule=schedule)

    @pytest.mark.parametrize("max_iters", [2.5, float("nan"), True, False], ids=["fraction", "nan", "true", "false"])
    def test_max_iters_must_be_an_integer(self, max_iters):
        # a float used to fail inside the solve with a TypeError, and True
        # ran one step and reported iterations=True
        with pytest.raises(ValueError, match=rf"max_iters must be >= 1 and an integer other than a bool, got {max_iters!r}$"):
            solvers.SolverConfig(max_iters=max_iters)

    def test_numpy_integer_max_iters_is_accepted(self):
        assert solvers.SolverConfig(max_iters=np.int64(3)).max_iters == 3

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_tolerance_must_be_nonnegative(self, tol):
        # no residual is within such a tolerance, so a run that reached its
        # fixed point exactly would stop as step-stalled
        with pytest.raises(ValueError, match="^" + re.escape(f"tol_residual must lie in [0, inf], got {tol!r}") + "$"):
            solvers.SolverConfig(tol_residual=tol)

    def test_zero_tolerance_converges_at_an_exact_fixed_point(self):
        cfg = solvers.SolverConfig(tol_residual=0.0)
        res = solvers.gppa(ops.sign_swap_operator(), ops.swap_operator(), (5, -3), cfg)
        assert (res.status, res.iterations, res.trace.residuals[-1]) == (solvers.Status.CONVERGED, 5, 0.0)

    def test_reciprocal_alpha_schedule(self):
        # gppa2 weighs the anchor by a_k = 1/(k+1): the first step lands on
        # the anchor, and every step is the anchored average of T(x_k)
        f, v = qp_pair()
        anchor = np.array([1.0, 1.0])
        cfg = solvers.SolverConfig(
            tol_residual=0.0, max_iters=20, halpern=solvers.HalpernConfig(anchor=tuple(anchor)),
            trace_level=solvers.TraceLevel.FULL,
        )
        xs = solvers.gppa2(f, v, np.array([0.3, -0.7]), cfg).trace.iterates
        assert np.array_equal(xs[1], anchor)
        engine = resolvents.build_engine(f, v, 1.0)
        for k, (x, x_next) in enumerate(zip(xs, xs[1:])):
            image = resolvents.transformed(engine, x).image
            alpha = 1.0 / (k + 1)
            assert x_next.tobytes() == (alpha * anchor + (1.0 - alpha) * image).tobytes()

    def test_one_entry_schedule_runs_as_its_scalar(self):
        # (1.0,) and 1.0 are the same schedule: both build without a warning
        # and run the same iterates bitwise
        f, v = qp_pair()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = [
                solvers.gppa(f, v, np.array([0.3, -0.7]), dataclasses.replace(FULL, gamma_schedule=gamma))
                for gamma in (1.0, (1.0,))
            ]
        assert runs[0].iterations == runs[1].iterations
        assert runs[0].trace.residuals == runs[1].trace.residuals
        assert np.array(runs[0].trace.iterates).tobytes() == np.array(runs[1].trace.iterates).tobytes()


TRACE_HEADER = ["iter", "residual", "step", "err_to_ref", "seconds"]


def _csv_columns(path):
    """The header and the columns of a CSV file, read as text."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, list(zip(*rows))


def _floats(column):
    return np.array([float(c) for c in column]).tobytes()


class TestTraceContract:
    # perfbench's tracer wraps `resolvents.transformed` by module attribute
    # and counts its calls, one per step of every driver; a FULL trace
    # records copies, so no array that a run hands out aliases an iterate
    STEPS = 6
    RUNS = {
        "gppa": lambda cfg: solvers.gppa(ops.sign_swap_operator(), ops.swap_operator(), np.array([40.0, -30.0]), cfg),
        "gppa1": lambda cfg: solvers.gppa1(ops.sign_swap_operator(), ops.swap_operator(), np.array([40.0, -30.0]), cfg),
        "gppa2": lambda cfg: solvers.gppa2(
            ops.sign_swap_operator(), ops.swap_operator(), np.array([40.0, -30.0]),
            dataclasses.replace(cfg, halpern=solvers.HalpernConfig(anchor=(1.0, 1.0))),
        ),
        "dca_baseline": lambda cfg: solvers.dca_baseline(np.diag([3.0, -1.0]), np.ones(2), 2.0, np.zeros(2), cfg),
    }

    @pytest.mark.parametrize("driver", RUNS)
    def test_one_wrapped_call_per_step_and_a_full_trace_of_copies(self, driver, monkeypatch):
        outputs = []
        transformed = resolvents.transformed

        def wrapped(*args, **kwargs):
            outputs.append(transformed(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(resolvents, "transformed", wrapped)
        cfg = solvers.SolverConfig(tol_residual=0.0, max_iters=self.STEPS, trace_level=solvers.TraceLevel.FULL)
        result = self.RUNS[driver](cfg)
        assert (result.status, result.iterations) == (solvers.Status.MAX_ITERS, self.STEPS)
        assert len(outputs) == self.STEPS
        iterates = result.trace.iterates
        assert len(iterates) == self.STEPS + 1
        recorded = [x.tobytes() for x in iterates]
        for array in (result.preimage, result.image, *(a for out in outputs for a in (out.preimage, out.image))):
            array[...] = 7.0
        assert [x.tobytes() for x in iterates] == recorded


class TestTraceCsv:
    def test_round_trip_exact(self, tmp_path):
        f, v = qp_pair()
        res = solvers.gppa(f, v, np.zeros(2), FULL, reference=np.array([1.0, 0.0]))
        path = tmp_path / "trace.csv"
        solvers.write_trace_csv(path, res.trace)
        header, (iters, *floats) = _csv_columns(path)
        assert header == TRACE_HEADER
        t = res.trace
        assert [int(i) for i in iters] == list(range(res.iterations))
        for column, values in zip(floats, (t.residuals, t.steps, t.err_to_ref, t.seconds)):
            assert _floats(column) == np.array(values).tobytes()

    def test_round_trip_without_reference(self, tmp_path):
        f, v = qp_pair()
        res = solvers.gppa(f, v, np.zeros(2), FULL)
        path = tmp_path / "trace.csv"
        solvers.write_trace_csv(path, res.trace)
        header, (_, residuals, _, errs, _) = _csv_columns(path)
        assert header == TRACE_HEADER
        assert set(errs) == {""}
        assert _floats(residuals) == np.array(res.trace.residuals).tobytes()

    def test_file_round_trip(self, tmp_path):
        # a path given as a string, as the CLI passes it
        f, v = qp_pair()
        res = solvers.gppa(f, v, np.zeros(2), FULL)
        path = str(tmp_path / "trace.csv")
        solvers.write_trace_csv(path, res.trace)
        _, (_, residuals, steps, _, _) = _csv_columns(path)
        assert _floats(residuals) == np.array(res.trace.residuals).tobytes()
        assert _floats(steps) == np.array(res.trace.steps).tobytes()
