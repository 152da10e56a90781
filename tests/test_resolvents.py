import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairprox import applications as apps
from pairprox import operators as ops
from pairprox import linalg, resolvents
from pairprox.errors import (
    DimensionMismatchError,
    NonPositiveSlopeError,
    NotInRangeError,
    SingularMatrixError,
    UnsupportedStructureError,
)
from pairprox.rng import SplitMix64


def bisection_inverse(s, c, d, y, iters=200):
    """Independent oracle: invert the monotone scalar graph z -> s*Sign(z)+c*z+d
    by bracketing and bisection (interval [d-s, d+s] maps to z = 0)."""
    if d - s <= y <= d + s:
        return 0.0

    def value(z):
        return s * np.sign(z) + c * z + d

    lo, hi = -1.0, 1.0
    while value(hi) < y:
        hi *= 2.0
    while value(lo) > y:
        lo *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == 0.0:
            mid = lo + 0.25 * (hi - lo)
        if value(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestScalarSignAffineInverse:
    def test_above_interval(self):
        assert bisection_inverse(1.0, 2.0, 0.0, 3.0) == pytest.approx(1.0, abs=1e-12)
        assert resolvents.scalar_sign_affine_inverse(1.0, 2.0, 0.0, 3.0) == pytest.approx(1.0)

    def test_inside_interval(self):
        assert resolvents.scalar_sign_affine_inverse(1.0, 2.0, 0.0, 0.5) == 0.0

    def test_below_interval(self):
        assert bisection_inverse(1.0, 2.0, 0.0, -5.0) == pytest.approx(-2.0, abs=1e-12)
        assert resolvents.scalar_sign_affine_inverse(1.0, 2.0, 0.0, -5.0) == pytest.approx(-2.0)

    def test_nonpositive_slope_rejected(self):
        with pytest.raises(NonPositiveSlopeError):
            resolvents.scalar_sign_affine_inverse(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(NonPositiveSlopeError):
            resolvents.scalar_sign_affine_inverse(1.0, -2.0, 0.0, 1.0)

    @given(
        st.floats(0.0, 5.0),
        st.floats(0.1, 10.0),
        st.floats(-5.0, 5.0),
        st.floats(-50.0, 50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_bisection_oracle(self, s, c, d, y):
        closed = resolvents.scalar_sign_affine_inverse(s, c, d, y)
        oracle = bisection_inverse(s, c, d, y)
        assert closed == pytest.approx(oracle, abs=1e-9)


def qp_engine(kappa=0.2, a=None, b=None, gamma=1.0):
    a = np.diag([1.0, 0.0]) if a is None else a
    b = np.array([1.0, 0.0]) if b is None else b
    f, v = apps.kkt_operator_pair(a, b, kappa)
    return resolvents.build_engine(f, v, gamma), f, v


def sign_engine(gamma=1.0):
    f, v = ops.sign_swap_operator(), ops.swap_operator()
    return resolvents.build_engine(f, v, gamma), f, v


class TestBuildEngine:
    def test_affine_pair_dispatch(self):
        engine, _, _ = qp_engine()
        assert engine.kind is resolvents.StrategyKind.AFFINE_AFFINE
        # the cached factorization realizes (2A + 2k I)^{-1}
        m = 2.0 * np.diag([1.0, 0.0]) + 0.4 * np.eye(2)
        probe = np.array([1.0, 2.0])
        from pairprox import linalg

        assert np.allclose(linalg.lu_solve(engine._strategy.factorization, probe), np.linalg.solve(m, probe))

    def test_sign_pair_dispatch(self):
        engine, _, _ = sign_engine()
        assert engine.kind is resolvents.StrategyKind.SIGN_SEPARABLE

    def test_trig_pair_unsupported(self):
        engine = resolvents.build_engine(ops.trig_block_operator(), ops.swap_operator(), 1.0)
        assert engine.kind is resolvents.StrategyKind.UNSUPPORTED
        with pytest.raises(UnsupportedStructureError):
            resolvents.warped(engine, np.zeros(2))

    def test_scalar_sign_plus_identity_is_diagonal(self):
        # Sign + 2 Id on each coordinate: the fully separable branch
        f = ops.SignBlock(1.0, (0, 1))
        v = ops.Scale(2.0, ops.Pointwise("identity"))
        engine = resolvents.build_engine(f, v, 1.0, dim=2)
        assert engine.kind is resolvents.StrategyKind.SIGN_SEPARABLE
        assert np.array_equal(engine._strategy.diagonal, [2.0, 2.0])
        out = resolvents.transformed(engine, np.array([3.0, 0.5]))
        assert np.allclose(out.preimage, [1.0, 0.0])

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            resolvents.build_engine(ops.identity_operator(1), ops.identity_operator(1), 0.0)

    def test_dim_inference_failure(self):
        with pytest.raises(DimensionMismatchError):
            resolvents.build_engine(ops.Pointwise("identity"), ops.Pointwise("identity"), 1.0)


# structural dispatch, one row per tree shape: the affine rows give the
# matrix and offset F reduces to, the Sign rows the per-row Sign scales and
# the variable each one reads
_A3 = np.array([[2.0, 1.0, 0.0], [0.5, 3.0, -1.0], [0.0, 1.0, 4.0]])
_C3 = np.array([1.0, -2.0, 0.5])
_PERM3 = ops.Permutation((2, 0, 1), signs=(1.0, -1.0, 1.0))
_PERM3_MATRIX = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
_B2 = np.array([[1.0, 2.0], [0.0, 1.0]])
_STACK3 = ops.Stack(3, ((0, 1, ops.Pointwise("negation")), (1, 3, ops.Affine(_B2, np.array([0.25, -0.5])))))
_STACK3_MATRIX = np.block([[-np.ones((1, 1)), np.zeros((1, 2))], [np.zeros((2, 1)), _B2]])
_STACK3_OFFSET = np.array([0.0, 0.25, -0.5])
_V3 = ops.Affine(4.0 * np.eye(3) + 0.5 * np.ones((3, 3)), np.array([0.0, 1.0, -1.0]))
_GAMMA = 0.75

AFFINE_TREES = [
    ("affine", ops.Affine(_A3, _C3), _A3, _C3),
    ("permutation", _PERM3, _PERM3_MATRIX, np.zeros(3)),
    ("identity", ops.Pointwise("identity"), np.eye(3), np.zeros(3)),
    ("negation", ops.Pointwise("negation"), -np.eye(3), np.zeros(3)),
    ("scale", ops.Scale(2.5, ops.Affine(_A3, _C3)), 2.5 * _A3, 2.5 * _C3),
    ("sum", ops.Sum((ops.Affine(_A3, _C3), _PERM3)), _A3 + _PERM3_MATRIX, _C3),
    ("stack", _STACK3, _STACK3_MATRIX, _STACK3_OFFSET),
    (
        "nested",
        ops.Scale(0.5, ops.Sum((_STACK3, ops.Scale(3.0, _PERM3), ops.Pointwise("identity")))),
        0.5 * (_STACK3_MATRIX + 3.0 * _PERM3_MATRIX + np.eye(3)),
        0.5 * _STACK3_OFFSET,
    ),
]

_SIGN_SWAP = ops.SignBlock(1.0, (1, 0))
SIGN_TREES = [
    # (id, F, v, Sign scale per row, variable per row or None if unsupported)
    ("sign-block", _SIGN_SWAP, ops.swap_operator(), [1.0, 1.0], [1, 0]),
    (
        "same-variable-terms-add",
        ops.Sum((_SIGN_SWAP, ops.Scale(0.5, _SIGN_SWAP), ops.Affine(np.diag([1.0, -1.0])))),
        ops.swap_operator(),
        [1.5, 1.5],
        [1, 0],
    ),
    (
        "distinct-terms-on-one-row",
        ops.Sum((ops.SignBlock(1.0, (0, 1)), _SIGN_SWAP)),
        ops.swap_operator(),
        None,
        None,
    ),
    (
        "stack",
        ops.Sum((ops.Stack(3, ((0, 2, _SIGN_SWAP), (2, 3, ops.Pointwise("negation")))), _PERM3)),
        _V3,
        [1.0, 1.0, 0.0],
        [1, 0, 2],
    ),
    (
        "nested",
        ops.Scale(2.0, ops.Sum((ops.Stack(3, ((1, 3, ops.Scale(0.5, _SIGN_SWAP)),)), ops.Pointwise("identity")))),
        _V3,
        [0.0, 1.0, 1.0],
        [0, 2, 1],
    ),
    ("sign-kernel", ops.Affine(np.eye(2)), ops.Sum((_SIGN_SWAP, ops.Affine(np.eye(2)))), None, None),
    ("registry-map", ops.trig_block_operator(), ops.swap_operator(), None, None),
]


class TestStructuralDispatch:
    @pytest.mark.parametrize("f, matrix, offset", [row[1:] for row in AFFINE_TREES], ids=[row[0] for row in AFFINE_TREES])
    def test_affine_trees(self, f, matrix, offset):
        engine = resolvents.build_engine(f, _V3, _GAMMA)
        assert engine.kind is resolvents.StrategyKind.AFFINE_AFFINE
        expected = linalg.lu_factorize(_GAMMA * matrix + _V3.matrix)
        fact = engine._strategy.factorization
        assert np.array_equal(fact.packed, expected.packed)
        assert np.array_equal(fact.perm, expected.perm)
        assert np.array_equal(engine._strategy.offset, _GAMMA * offset + _V3.offset)

    @pytest.mark.parametrize(
        "f, v, scales, variables", [row[1:] for row in SIGN_TREES], ids=[row[0] for row in SIGN_TREES]
    )
    def test_sign_trees(self, f, v, scales, variables):
        engine = resolvents.build_engine(f, v, _GAMMA)
        if scales is None:
            assert engine.kind is resolvents.StrategyKind.UNSUPPORTED
            return
        assert engine.kind is resolvents.StrategyKind.SIGN_SEPARABLE
        strategy = engine._strategy
        assert np.array_equal(strategy.scales, _GAMMA * np.array(scales))
        signed = np.array(scales) > 0.0
        assert np.array_equal(strategy.sigma[signed], np.array(variables)[signed])
        # a consistent inverse: the input lies in (gamma*F + v)(z)
        w = np.array([2.0, -3.0, 0.5])[: engine.dim]
        out = resolvents.transformed(engine, w)
        fz = f.evaluate(out.preimage)
        assert ops.ValueSet(_GAMMA * fz.lower, _GAMMA * fz.upper).contains(w - out.image, tol=1e-9)


class TestWarped:
    def test_qp_engine_closed_form(self):
        # solve (2A + 0.4 I) z = (A + 0.4 I) x + b at x = 0, per coordinate:
        # z1 = 1/2.4, z2 = 0
        engine, _, _ = qp_engine()
        out = resolvents.warped(engine, np.zeros(2))
        assert np.allclose(out.preimage, [1.0 / 2.4, 0.0], atol=1e-12)

    def test_fixed_point_at_zero_of_f(self):
        a = np.diag([1.0, 0.0])
        b = np.array([1.0, 0.0])
        x_star = np.array([1.0, 0.7])  # any point with A x = b
        engine, _, _ = qp_engine(a=a, b=b)
        out = resolvents.warped(engine, x_star)
        assert np.allclose(out.preimage, x_star, atol=1e-12)

    def test_sign_engine_case_analysis(self):
        engine, _, v = sign_engine()
        x = np.array([1.0, 3.0])  # v(x) = (3, 1)
        out = resolvents.warped(engine, x)
        assert np.allclose(out.preimage, [1.0, 1.0])
        assert np.allclose(out.image, [1.0, 1.0])

    def test_sign_engine_fixed_point(self):
        engine, _, _ = sign_engine()
        out = resolvents.warped(engine, np.zeros(2))
        assert np.array_equal(out.preimage, np.zeros(2))

    def test_singular_affine_is_loud(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        engine = resolvents.build_engine(ops.Affine(a), ops.Affine(a), 1.0)
        assert engine.kind is resolvents.StrategyKind.AFFINE_AFFINE
        with pytest.raises(SingularMatrixError):
            resolvents.warped(engine, np.ones(2))

    def test_dimension_mismatch(self):
        engine, _, _ = qp_engine()
        with pytest.raises(DimensionMismatchError):
            resolvents.warped(engine, np.zeros(3))


class TestTransformed:
    def test_sign_engine_example(self):
        engine, _, _ = sign_engine()
        out = resolvents.transformed(engine, np.array([3.0, 1.0]))
        assert np.allclose(out.preimage, [1.0, 1.0])
        assert np.allclose(out.image, [1.0, 1.0])

    def test_fixed_point_at_kernel_image(self):
        engine, _, v = sign_engine()
        x_star = np.zeros(2)
        out = resolvents.transformed(engine, ops.evaluate_point(v, x_star))
        assert np.array_equal(out.image, np.zeros(2))

    def test_rotation_half_map(self):
        # F = v = [[0,1],[-1,0]]: image = A (2A)^{-1} x = x / 2
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        engine = resolvents.build_engine(ops.Affine(a), ops.Affine(a), 1.0)
        out = resolvents.transformed(engine, np.array([2.0, 0.0]))
        assert np.allclose(out.image, [1.0, 0.0], atol=1e-14)

    def test_no_consistent_pattern_raises_not_in_range(self):
        # white-box: a strategy whose solvable patterns all fail their checks
        scales, sigma = np.array([1.0, 0.0]), np.array([0, 1])
        matrix = np.array([[0.0, 1.0], [0.0, 1.0]])
        strategy = resolvents._SignStrategy(
            scales=scales,
            sigma=sigma,
            matrix=matrix,
            offset=np.zeros(2),
            diagonal=None,
            patterns=resolvents._pattern_table(scales, sigma, matrix, linalg.lu_factorize(matrix[:, sigma])),
        )
        # only the pattern pinning row 0 is solvable, and its box check fails
        assert [p.pinned.tolist() for p in strategy.patterns] == [[0]]
        with pytest.raises(NotInRangeError):
            resolvents._invert_sign(strategy, np.array([5.0, 0.0]))


def _consistent_solutions(strategy, w):
    """The x of every table pattern that passes its sign and box checks."""
    y = w - strategy.offset
    found = (resolvents._solve_pattern(strategy, p, y) for p in strategy.patterns)
    return [x for x in found if x is not None]


def _seeded_inputs(n, count, seed):
    rng = SplitMix64(seed)
    return [rng.uniform(n, -scale, scale) for scale in (0.5, 3.0, 20.0) for _ in range(count // 3)]


# the pairs whose linear part is positive definite in the sign variables
# u = x[sigma]: there s*Sign(u) + M[:, sigma] u is strongly monotone in u, so
# the preimage is unique and a warm-started pattern search may not change it
MONOTONE_SIGN_PAIRS = [("sign-swap", ops.sign_swap_operator(), ops.swap_operator())] + [
    row[:3] for row in SIGN_TREES if row[0] == "same-variable-terms-add"
]


class TestPatternTable:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("f, v", [row[1:] for row in MONOTONE_SIGN_PAIRS], ids=[row[0] for row in MONOTONE_SIGN_PAIRS])
    def test_consistent_solution_is_unique_on_seeded_inputs(self, f, v, gamma):
        engine = resolvents.build_engine(f, v, gamma)
        strategy = engine._strategy
        for w in _seeded_inputs(engine.dim, 300, seed=31):
            xs = _consistent_solutions(strategy, w)
            assert xs, "a strongly monotone inclusion has a solution"
            assert all(np.allclose(x, xs[0], rtol=0.0, atol=1e-9) for x in xs)
            assert np.array_equal(resolvents._invert_sign(strategy, w), xs[0])

    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.tuples(
                st.permutations(range(n)),
                st.lists(st.sampled_from([0.0]) | st.floats(0.01, 3.0), min_size=n, max_size=n),
                st.lists(st.floats(-2.0, 2.0), min_size=2 * n * n, max_size=2 * n * n),
                st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_consistent_solution_is_unique_on_monotone_instances(self, instance):
        perm, scales, entries, w = instance
        n = len(perm)
        scales = np.array(scales)
        signed = scales > 0.0
        sign_var = np.where(signed, perm, -1)
        # rows without a Sign term take the leftover variables in increasing order
        sigma = np.empty(n, dtype=int)
        sigma[signed] = np.array(perm)[signed]
        sigma[~signed] = np.setdiff1d(np.arange(n), sigma[signed])
        low, skew = np.array(entries).reshape(2, n, n)
        matrix = np.empty((n, n))
        matrix[:, sigma] = low @ low.T + 0.1 * np.eye(n) + skew - skew.T
        strategy = resolvents._assemble_sign_strategy(scales, sign_var, matrix, np.zeros(n), n)
        assert np.array_equal(strategy.sigma, sigma)
        assume(strategy.diagonal is None)
        xs = _consistent_solutions(strategy, np.array(w))
        assert xs, "a strongly monotone inclusion has a solution"
        assert all(np.allclose(x, xs[0], rtol=0.0, atol=1e-7) for x in xs)

    def test_first_consistent_pattern_wins_where_the_preimage_is_not_unique(self):
        # the stack tree's linear part is indefinite in its sign variables, so
        # several patterns can be consistent; the (+, -, 0) order picks one
        f, v = next(row[1:3] for row in SIGN_TREES if row[0] == "stack")
        strategy = resolvents.build_engine(f, v, 2.0)._strategy
        ambiguous = 0
        for w in _seeded_inputs(3, 300, seed=31):
            xs = _consistent_solutions(strategy, w)
            ambiguous += any(not np.allclose(x, xs[0]) for x in xs)
            assert np.array_equal(resolvents._invert_sign(strategy, w), xs[0])
        assert ambiguous > 0

    def test_threads_share_one_engine(self):
        engine, _, _ = sign_engine()
        inputs = _seeded_inputs(2, 600, seed=32)

        def evaluate(points):
            outs = [resolvents.transformed(engine, w) for w in points]
            return [(o.preimage.tobytes(), o.image.tobytes()) for o in outs]

        serial = evaluate(inputs)
        results = {}

        def worker(key, points):
            results[key] = evaluate(points)

        threads = [
            threading.Thread(target=worker, args=("forward", inputs)),
            threading.Thread(target=worker, args=("backward", inputs[::-1])),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results["forward"] == serial
        assert results["backward"] == serial[::-1]

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_diagonal_branch_is_the_scalar_inverse_per_coordinate(self, gamma):
        # row i reads Sign(x[1 - i]) and has slope c_i on that same variable
        slopes, offset = np.array([2.0, 3.0]), np.array([0.25, -0.5])
        f = ops.SignBlock(0.5, (1, 0))
        v = ops.Affine(np.array([[0.0, slopes[0]], [slopes[1], 0.0]]), offset)
        engine = resolvents.build_engine(f, v, gamma)
        assert np.array_equal(engine._strategy.diagonal, slopes)
        for w in _seeded_inputs(2, 300, seed=33):
            expected = np.zeros(2)
            for i in range(2):
                expected[1 - i] = resolvents.scalar_sign_affine_inverse(0.5 * gamma, slopes[i], offset[i], w[i])
            assert resolvents.transformed(engine, w).preimage.tobytes() == expected.tobytes()


def _sample_points(n, count, seed, low=-8.0, high=8.0):
    rng = SplitMix64(seed)
    return [rng.uniform(n, low, high) for _ in range(count)]


class TestResolventInvariants:
    def test_membership_warped(self):
        for engine, f, v, n in [(*sign_engine(), 2), (*qp_engine(), 2)]:
            for x in _sample_points(n, 50, seed=21):
                out = resolvents.warped(engine, x)
                resid = ops.evaluate_point(v, x) - out.image
                fz = f.evaluate(out.preimage)
                assert ops.ValueSet(engine.gamma * fz.lower, engine.gamma * fz.upper).contains(
                    resid, tol=1e-9
                )

    def test_membership_transformed(self):
        for engine, f, v, n in [(*sign_engine(), 2), (*qp_engine(), 2)]:
            for x in _sample_points(n, 50, seed=22):
                out = resolvents.transformed(engine, x)
                resid = x - out.image
                fz = f.evaluate(out.preimage)
                assert ops.ValueSet(engine.gamma * fz.lower, engine.gamma * fz.upper).contains(
                    resid, tol=1e-9
                )

    def test_firm_nonexpansiveness_of_transformed(self):
        for engine, _, _, n in [(*sign_engine(), 2), (*qp_engine(), 2)]:
            pts = _sample_points(n, 60, seed=23)
            images = [resolvents.transformed(engine, x).image for x in pts]
            for i in range(0, len(pts) - 1, 2):
                dx = pts[i] - pts[i + 1]
                dt = images[i] - images[i + 1]
                assert float(dt @ dt) <= float(dx @ dt) + 1e-10

    def test_contraction_under_strong_monotonicity(self):
        # (F, Id) with F = diag(2, 1) has modulus 1 and kernel Lipschitz 1,
        # so T contracts with factor 1/(1 + 1) = 1/2
        f = ops.Affine(np.diag([2.0, 1.0]))
        v = ops.identity_operator(2)
        engine = resolvents.build_engine(f, v, 1.0)
        pts = _sample_points(2, 60, seed=24)
        for i in range(0, len(pts) - 1, 2):
            t1 = resolvents.transformed(engine, pts[i]).image
            t2 = resolvents.transformed(engine, pts[i + 1]).image
            assert np.linalg.norm(t1 - t2) <= 0.5 * np.linalg.norm(pts[i] - pts[i + 1]) + 1e-10

    def test_warped_image_inequality(self):
        # ||v(y1) - v(y2)||^2 <= <v(x1) - v(x2), v(y1) - v(y2)> under pair
        # monotonicity
        for engine, _, v, n in [(*sign_engine(), 2), (*qp_engine(), 2)]:
            pts = _sample_points(n, 60, seed=25)
            for i in range(0, len(pts) - 1, 2):
                o1 = resolvents.warped(engine, pts[i])
                o2 = resolvents.warped(engine, pts[i + 1])
                dv_img = o1.image - o2.image
                dv_in = ops.evaluate_point(v, pts[i]) - ops.evaluate_point(v, pts[i + 1])
                assert float(dv_img @ dv_img) <= float(dv_in @ dv_img) + 1e-10

    def test_fixed_point_identities_on_kkt_instances(self):
        for seed in (101, 202, 303):
            system = apps.generate_consistent_system(8, seed)
            kappa = 0.2
            f, v = apps.kkt_operator_pair(system.matrix, system.rhs, kappa)
            engine = resolvents.build_engine(f, v, 1.0)
            x_star = system.solution
            out_j = resolvents.warped(engine, x_star)
            assert np.allclose(out_j.preimage, x_star, atol=1e-9)
            v_star = ops.evaluate_point(v, x_star)
            out_t = resolvents.transformed(engine, v_star)
            assert np.allclose(out_t.image, v_star, atol=1e-9)
