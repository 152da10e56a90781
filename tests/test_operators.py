import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairprox import linalg, operators as ops
from pairprox.errors import DimensionMismatchError, UnknownRegistryKeyError
from pairprox.rng import SplitMix64
from test_resolvents import AFFINE_TREES, SIGN_TREES

REMARK_MATRIX = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, -2.0, -3.0]])
REMARK_POINT = np.array([0.0, -3.0, 2.0])


class TestEvaluate:
    def test_sign_block_off_zero(self):
        vs = ops.SignBlock(1.0, (0, 1)).evaluate(np.array([2.0, -3.0]))
        assert vs.is_singleton
        assert np.array_equal(vs.lower, [1.0, -1.0])

    def test_evaluate_point_rejects_a_set_value(self):
        with pytest.raises(ValueError, match="set-valued"):
            ops.evaluate_point(ops.SignBlock(1.0, (0,)), np.array([0.0]))

    def test_evaluate_point_accepts_equal_bounds_in_two_arrays(self):
        class TwoArrays(ops.OperatorExpr):
            def _eval(self, x):
                return ops.ValueSet(x.copy(), x.copy())

        assert ops.evaluate_point(TwoArrays(), np.array([1.0, -0.0])).tobytes() == np.array([1.0, -0.0]).tobytes()

    def test_nan_bounds_are_a_point(self):
        # NaN != NaN made a NaN value (inf - inf) set-valued; a box stays one
        assert ops.ValueSet(np.array([np.nan, 1.0]), np.array([np.nan, 1.0])).is_singleton
        assert not ops.ValueSet(np.array([np.nan, 1.0]), np.array([np.nan, 2.0])).is_singleton

    def test_sign_block_at_zero_gives_interval(self):
        vs = ops.SignBlock(1.0, (0,)).evaluate(np.array([0.0]))
        assert not vs.is_singleton
        assert np.array_equal(vs.lower, [-1.0])
        assert np.array_equal(vs.upper, [1.0])

    def test_trig_block_at_origin(self):
        # (0 + |sin 0|, 0 - cos 0) = (0, -1)
        vs = ops.trig_block_operator().evaluate(np.zeros(2))
        assert vs.is_singleton
        assert np.allclose(vs.lower, [0.0, -1.0])

    def test_sign_swap_operator_set_values(self):
        vs = ops.sign_swap_operator().evaluate(np.array([0.0, 2.0]))
        # first row: Sign(2) + 0 = 1; second row: Sign(0) - 2 = [-3, -1]
        assert np.array_equal(vs.lower, [1.0, -3.0])
        assert np.array_equal(vs.upper, [1.0, -1.0])

    def test_sum_of_box_and_point_translates(self):
        op = ops.Sum((ops.SignBlock(1.0, (0,)), ops.Affine(np.array([[2.0]]), np.array([5.0]))))
        vs = op.evaluate(np.array([0.0]))
        assert np.array_equal(vs.lower, [4.0])
        assert np.array_equal(vs.upper, [6.0])

    @pytest.mark.parametrize("shape", [(1, 2), (2, 1), (2, 3)], ids=["row", "column", "wide"])
    def test_affine_matrix_must_be_square(self, shape):
        with pytest.raises(DimensionMismatchError, match=rf"affine matrix must be square, got shape \({shape[0]}, {shape[1]}\)"):
            ops.Affine(np.ones(shape))

    def test_unknown_registry_key(self):
        with pytest.raises(UnknownRegistryKeyError):
            ops.Pointwise("does-not-exist").evaluate(np.zeros(1))

    def test_unknown_registry_key_is_rejected_when_built(self):
        with pytest.raises(UnknownRegistryKeyError, match="no pointwise map named 'does-not-exist'"):
            ops.Pointwise("does-not-exist")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ops.Affine(np.eye(2)).evaluate(np.zeros(3))

    def test_deterministic(self):
        op = ops.sign_swap_operator()
        x = np.array([0.0, 1.5])
        a, b = op.evaluate(x), op.evaluate(x)
        assert np.array_equal(a.lower, b.lower) and np.array_equal(a.upper, b.upper)


# one tree per node kind, then the dispatch trees of the resolvent tests
_KIND_TREES = [
    ("affine", ops.Affine(np.array([[2.0, -1.0, 0.5], [0.0, 3.0, 1.0], [1.0, 1.0, -4.0]]), np.array([0.5, -1.0, 2.0]))),
    ("sign-block", ops.SignBlock(1.5, (2, 0, 1))),
    ("permutation", ops.Permutation((2, 0, 1), (1.0, -1.0, 1.0))),
    *[(f"pointwise-{name}", ops.Pointwise(name)) for name in ("identity", "negation", "abs-sin", "cos-abs", "neg-cos-abs")],
    ("scale", ops.Scale(0.3, ops.SignBlock(1.0, (1, 0, 2)))),
    ("sum", ops.Sum((ops.SignBlock(1.0, (0, 1, 2)), ops.Pointwise("abs-sin"), ops.identity_operator(3)))),
    ("stack", ops.Stack(3, ((0, 1, ops.Pointwise("abs-sin")), (1, 3, ops.Sum((ops.SignBlock(2.0, (1, 0)), ops.Affine(np.eye(2)))))))),
]
BATCH_TREES = (
    _KIND_TREES
    + [(f"affine-tree-{row[0]}", row[1]) for row in AFFINE_TREES]
    + [(f"sign-tree-{row[0]}-{side}", row[i]) for row in SIGN_TREES for side, i in (("f", 1), ("v", 2))]
    + [("trig", ops.trig_block_operator()), ("sign-swap", ops.sign_swap_operator())]
)


def _batch_points(n, count=120, seed=41):
    x = SplitMix64(seed).uniform(count * n, -3.0, 3.0).reshape(count, n)
    x[::3, 0] = 0.0  # a Sign coordinate at zero
    x[::7] = 0.0  # every coordinate at zero
    return x


class TestBatchedEvaluate:
    @pytest.mark.parametrize("op", [row[1] for row in BATCH_TREES], ids=[row[0] for row in BATCH_TREES])
    def test_rows_equal_per_point_calls_bitwise(self, op):
        n = op.dim or 3
        x = _batch_points(n)
        # the check evaluates strided views of its (N, 2, n) draw
        pairs = np.stack((x, x[::-1]), axis=1)
        for batch in (x, pairs[:, 0], pairs[:, 1]):
            vs = op.evaluate(batch)
            assert vs.lower.shape == vs.upper.shape == batch.shape
            for row, point in zip(zip(vs.lower, vs.upper), batch):
                single = op.evaluate(point.copy())
                assert row[0].tobytes() == single.lower.tobytes()
                assert row[1].tobytes() == single.upper.tobytes()

    def test_points_at_zero_give_boxes_row_by_row(self):
        vs = ops.sign_swap_operator().evaluate(np.array([[0.0, 2.0], [1.0, -1.0]]))
        assert np.array_equal(vs.lower, [[1.0, -3.0], [0.0, 2.0]])
        assert np.array_equal(vs.upper, [[1.0, -1.0], [0.0, 2.0]])

    @pytest.mark.parametrize("shape", [(2, 3, 2), (4, 3), (), (3, 0)])
    def test_other_shapes_rejected(self, shape):
        with pytest.raises(DimensionMismatchError):
            ops.Affine(np.eye(2)).evaluate(np.zeros(shape))


def _checked_evaluate(op, x):
    """The per-node checked recursion that `evaluate` replaced: every node
    checks the shape of its input and evaluates its children through this
    same checked call. Returns (lower, upper)."""
    x = op._check_dim(x)
    if isinstance(op, ops.Affine):
        y = op.matrix @ x + op.offset if x.ndim == 1 else np.matmul(op.matrix, x[..., None])[..., 0] + op.offset
        return y, y
    if isinstance(op, ops.SignBlock):
        picked = x[..., list(op.selector)]
        lower = op.scale * np.sign(picked)
        upper = lower.copy()
        at_zero = picked == 0.0
        lower[at_zero] = -op.scale
        upper[at_zero] = op.scale
        return lower, upper
    if isinstance(op, ops.Permutation):
        y = np.array(op.signs) * x[..., list(op.perm)]
        return y, y
    if isinstance(op, ops.Pointwise):
        y = np.asarray(ops._POINTWISE_REGISTRY[op.name](x), dtype=float)
        return y, y
    if isinstance(op, ops.Scale):
        lower, upper = _checked_evaluate(op.inner, x)
        return op.gamma * lower, op.gamma * upper
    lower, upper = np.zeros(x.shape), np.zeros(x.shape)
    if isinstance(op, ops.Sum):
        for t in op.terms:
            lo, hi = _checked_evaluate(t, x)
            lower, upper = lower + lo, upper + hi
        return lower, upper
    for start, stop, block in op.blocks:
        lower[..., start:stop], upper[..., start:stop] = _checked_evaluate(block, x[..., start:stop])
    return lower, upper


class TestRootChecked:
    """`evaluate` checks the shape once, at the root, and must give what the
    per-node checked recursion gave, bit for bit."""

    @pytest.mark.parametrize("op", [row[1] for row in BATCH_TREES], ids=[row[0] for row in BATCH_TREES])
    def test_matches_checked_recursion_bitwise(self, op):
        n = op.dim or 3
        batch = _batch_points(n)
        # single points (a third with a Sign coordinate at 0), the batch, and
        # a strided view of it
        for x in [*batch[:30], batch, batch[::2], np.zeros(n)]:
            vs = op.evaluate(x)
            lower, upper = _checked_evaluate(op, x)
            assert vs.lower.tobytes() == lower.tobytes() and vs.upper.tobytes() == upper.tobytes()
            assert vs.lower.shape == vs.upper.shape == x.shape

    @pytest.mark.parametrize(
        "op",
        [row[1] for row in AFFINE_TREES] + [ops.trig_block_operator(), ops.swap_operator()],
        ids=[f"affine-tree-{row[0]}" for row in AFFINE_TREES] + ["trig", "swap"],
    )
    def test_single_valued_trees_are_points(self, op):
        # only the variants single-valued by type return one array as both
        # bounds; a composite computes two equal ones
        leaf = isinstance(op, (ops.Affine, ops.Permutation, ops.Pointwise))
        n = op.dim or 3
        for x in (np.linspace(-1.0, 2.0, n), _batch_points(n)):
            vs = op.evaluate(x)
            assert vs.is_singleton and vs.lower.tobytes() == vs.upper.tobytes()
            assert (vs.lower is vs.upper) == leaf

    @pytest.mark.parametrize("op", [ops.sign_swap_operator(), ops.SignBlock(1.0, (1, 0))], ids=["sign-swap", "sign-block"])
    def test_sign_off_zero_is_a_point_and_at_zero_a_box(self, op):
        for x in (np.array([0.5, -2.0]), np.array([[0.5, -2.0], [-1.0, 3.0]])):
            off = op.evaluate(x)
            assert off.is_singleton and off.lower.tobytes() == off.upper.tobytes()
        at = op.evaluate(np.array([0.0, 2.0]))
        assert not at.is_singleton

    @pytest.mark.parametrize(
        "op",
        [
            ops.sign_swap_operator(),
            ops.trig_block_operator(),
            ops.Stack(3, ((0, 1, ops.Pointwise("abs-sin")), (1, 3, ops.SignBlock(1.0, (1, 0))))),
            ops.Scale(2.0, ops.Sum((ops.Pointwise("identity"), ops.Permutation((1, 0))))),
        ],
        ids=["sum", "sum-of-stack", "stack", "scale-of-sum"],
    )
    @pytest.mark.parametrize("shape", [(4,), (5, 4), (1,), (), (2, 3, 2), (3, 0)])
    def test_wrong_shape_raises_at_the_root(self, op, shape):
        with pytest.raises(DimensionMismatchError):
            op.evaluate(np.zeros(shape))


@given(
    st.permutations(list(range(4))),
    st.lists(st.sampled_from([-1.0, 1.0]), min_size=4, max_size=4),
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=4, max_size=4),
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=4, max_size=4),
)
@settings(max_examples=80, deadline=None)
def test_permutation_is_isometry(perm, signs, xs, ys):
    p = ops.Permutation(tuple(perm), tuple(signs))
    x, y = np.array(xs), np.array(ys)
    vx, vy = p.evaluate(x), p.evaluate(y)
    assert vx.is_singleton and vy.is_singleton
    px, py = vx.lower, vy.lower
    assert np.linalg.norm(px - py) == pytest.approx(np.linalg.norm(x - y), abs=1e-9)


def _selected(vs, selection):
    """The point of the value set `vs` that `selection` names."""
    return {
        ops.Selection.LOW: vs.lower, ops.Selection.MID: 0.5 * (vs.lower + vs.upper), ops.Selection.HIGH: vs.upper
    }[selection]


def _witness_inner(f, v, report):
    """<F(x) - F(y), v(x) - v(y)> at the report's witness pair, evaluated
    afresh with the report's selections from (F(x), F(y), v(x), v(y))."""
    x, y = report.witness_x, report.witness_y
    fx, fy, vx, vy = (
        _selected(op.evaluate(p), s) for op, p, s in zip((f, f, v, v), (x, y, x, y), report.witness_selections)
    )
    return float((fx - fy) @ (vx - vy))


class TestPairMonotonicity:
    def test_trig_pair_is_monotone_evidence(self):
        report = ops.check_pair_monotone(
            ops.trig_block_operator(), ops.swap_operator(), box=(-5.0, 5.0), samples=10_000, seed=0
        )
        assert report.verdict is ops.Verdict.MONOTONE_EVIDENCE
        assert report.min_inner >= -1e-12

    def test_trig_operator_alone_is_not_monotone(self):
        report = ops.check_pair_monotone(
            ops.trig_block_operator(), ops.identity_operator(2), box=(-5.0, 5.0), samples=5_000, seed=0
        )
        assert report.verdict is ops.Verdict.VIOLATION_FOUND

    def test_remark_counterexample_exact_witness(self):
        # non-symmetric 3x3 with kappa = 1/4: the canonical pair evaluates to
        # exactly -1/2; the tiny box keeps sampled pairs above the form's
        # lambda_min * diam^2 ~ -1.3e-3, so the included pair is the minimizer
        f = ops.Affine(REMARK_MATRIX)
        v = ops.Affine(REMARK_MATRIX + 0.5 * np.eye(3))
        report = ops.check_pair_monotone(
            f, v, box=(-0.05, 0.05), samples=2_000, seed=3, include=[(REMARK_POINT, np.zeros(3))]
        )
        assert report.verdict is ops.Verdict.VIOLATION_FOUND
        assert report.min_inner == pytest.approx(-0.5, abs=1e-12)
        assert np.array_equal(report.witness_x, REMARK_POINT)
        assert _witness_inner(f, v, report) == report.min_inner

    def test_remark_counterexample_default_box(self):
        f = ops.Affine(REMARK_MATRIX)
        v = ops.Affine(REMARK_MATRIX + 0.5 * np.eye(3))
        report = ops.check_pair_monotone(f, v, samples=2_000, seed=3)
        assert report.verdict is ops.Verdict.VIOLATION_FOUND
        assert report.min_inner <= -0.5 - 1e-6 or report.min_inner <= -1e-6

    def test_identity_pair_quotient_one(self):
        report = ops.check_pair_monotone(
            ops.identity_operator(3), ops.identity_operator(3), box=(-4.0, 4.0), samples=500, seed=9
        )
        assert report.verdict is ops.Verdict.MONOTONE_EVIDENCE
        assert report.min_quotient >= 1.0 - 1e-12

    def test_psd_affine_never_violates(self):
        # classical monotonicity is the pair (F, Id)
        for seed in range(20):
            rng = SplitMix64(seed)
            n = 2 + seed % 4
            g = rng.normal(n * n).reshape(n, n)
            s = g @ g.T
            f = ops.Affine(s, rng.normal(n))
            report = ops.check_pair_monotone(f, ops.identity_operator(n), samples=300, seed=seed)
            assert report.verdict is ops.Verdict.MONOTONE_EVIDENCE

    def test_witness_reevaluates_for_sign_operators(self):
        report = ops.check_pair_monotone(
            ops.sign_swap_operator(), ops.swap_operator(), box=(-2.0, 2.0), samples=800, seed=5,
            include=[(np.array([0.0, 1.0]), np.array([0.0, -1.0]))],
        )
        assert _witness_inner(ops.sign_swap_operator(), ops.swap_operator(), report) == pytest.approx(
            report.min_inner, abs=1e-15
        )

    def test_samples_validation(self):
        with pytest.raises(ValueError, match="^need at least 2 samples$"):
            ops.check_pair_monotone(ops.identity_operator(1), ops.identity_operator(1), samples=1)

    @pytest.mark.parametrize("samples", [2.5, "10", None, True, np.float64(10.0)], ids=["fraction", "text", "none", "bool", "numpy-float"])
    def test_samples_must_be_an_integer(self, samples):
        # the count rule of max_iters and trials; these were a bare TypeError,
        # or (True, 10.0) ran
        with pytest.raises(ValueError, match=rf"^samples must be >= 1 and an integer other than a bool, got {re.escape(repr(samples))}$"):
            ops.check_pair_monotone(ops.identity_operator(1), ops.identity_operator(1), samples=samples)

    def test_numpy_integer_samples_run(self):
        report = ops.check_pair_monotone(ops.identity_operator(2), ops.identity_operator(2), samples=np.int64(20), seed=1)
        assert report.samples == 20

    @pytest.mark.parametrize(
        "scale, width", [(1.0, 1e200), (1e100, 1e150)], ids=["distance-overflows", "only-inner-overflows"]
    )
    def test_overflowing_pairs_are_no_violation(self, scale, width):
        # each sampled pair's inner product overflows to -inf or NaN, and at
        # width 1e200 its squared distance too: no evidence, so the box is too
        # large, where a -inf inner product used to report a violation of a
        # monotone pair
        f = ops.Scale(scale, ops.sign_swap_operator())
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="the box is too large"):
            ops.check_pair_monotone(f, ops.swap_operator(), box=(-width, width), samples=50, seed=0)

    def test_quotient_by_an_overflowing_distance_is_no_evidence(self):
        # <F(x)-F(y), x-y> = 1e-200 ||x-y||^2 is finite where ||x-y||^2 is
        # not; the quotient used to read 0 and pass as monotone evidence
        f, v = ops.Affine(1e-200 * np.eye(2)), ops.identity_operator(2)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="the box is too large"):
            ops.check_pair_monotone(f, v, box=(-1e200, 1e200), samples=50, seed=0)

    def test_finite_inner_product_is_evidence_where_the_distance_overflows(self):
        f, v = ops.Affine(-1e-200 * np.eye(2)), ops.identity_operator(2)
        with np.errstate(over="ignore"):
            report = ops.check_pair_monotone(f, v, box=(-1e200, 1e200), samples=50, seed=0)
        assert report.verdict is ops.Verdict.VIOLATION_FOUND
        assert -np.inf < report.min_inner < -1e190 and report.min_quotient == np.inf
        assert _witness_inner(f, v, report) == report.min_inner

    def test_violation_shown_only_by_an_overflowing_product_is_an_input_error(self):
        # in 1-D a -inf inner product is one product below -DBL_MAX, a true
        # violation; it is no evidence all the same, so the box is too large
        f, v = ops.Affine(-np.eye(1)), ops.identity_operator(1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="the box is too large"):
            ops.check_pair_monotone(f, v, box=(-1e200, 1e200), samples=50, seed=0)

    def test_overflowing_pairs_are_counted_without_evidence(self):
        # one finite included pair among overflowing draws decides the report
        pair = (np.array([0.0, 1.0]), np.array([0.0, -1.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            report = ops.check_pair_monotone(
                ops.sign_swap_operator(), ops.swap_operator(), box=(-1e200, 1e200), samples=50, seed=0, include=[pair]
            )
        assert report.samples == 51
        assert report.verdict is ops.Verdict.MONOTONE_EVIDENCE
        # F(x) - F(y) has first entry 2 at every selection, v(x) - v(y) = (2, 0), ||x - y||^2 = 4
        assert (report.min_inner, report.min_quotient) == (4.0, 1.0)
        assert np.array_equal(report.witness_x, pair[0]) and np.array_equal(report.witness_y, pair[1])


def _loop_check_pair_monotone(f, v, box=None, samples=10_000, seed=0, include=()):
    """check_pair_monotone as it scanned one pair at a time before batching,
    kept as the reference the batched scan must match bitwise."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    lower, upper = ops._resolve_box(f, v, box)
    rng = SplitMix64(seed)

    def candidates(vs):
        if vs.is_singleton:
            return [(ops.Selection.MID, vs.lower)]
        return [
            (ops.Selection.LOW, vs.lower),
            (ops.Selection.MID, 0.5 * (vs.lower + vs.upper)),
            (ops.Selection.HIGH, vs.upper),
        ]

    count = 0
    best = {"quot": np.inf, "inner": np.inf, "quot_w": None, "inner_w": None}

    def scan(x, y):
        nonlocal count
        dx2 = float(np.sum((x - y) ** 2))
        if dx2 == 0.0:
            return
        count += 1
        fxs, fys = candidates(f.evaluate(x)), candidates(f.evaluate(y))
        vxs, vys = candidates(v.evaluate(x)), candidates(v.evaluate(y))
        for (sfx, fx), (sfy, fy), (svx, vx), (svy, vy) in itertools.product(fxs, fys, vxs, vys):
            inner = float((fx - fy) @ (vx - vy))
            quot = inner / dx2
            sel = (sfx, sfy, svx, svy)
            if quot < best["quot"]:
                best["quot"] = quot
                best["quot_w"] = (x.copy(), y.copy(), sel)
            if inner < best["inner"]:
                best["inner"] = inner
                best["inner_w"] = (x.copy(), y.copy(), sel)

    for x, y in include:
        scan(linalg.as_vector(x), linalg.as_vector(y))
    for _ in range(samples):
        scan(rng.uniform_box(lower, upper), rng.uniform_box(lower, upper))
    if count == 0:
        raise ValueError("no usable sample pairs (all coincided)")
    violated = best["inner"] < -ops.MONOTONE_SLACK
    wx, wy, wsel = best["inner_w"] if violated else best["quot_w"]
    return ops.PairMonotonicityReport(
        samples=count,
        min_quotient=best["quot"],
        min_inner=best["inner"],
        witness_x=wx,
        witness_y=wy,
        witness_selections=wsel,
        verdict=ops.Verdict.VIOLATION_FOUND if violated else ops.Verdict.MONOTONE_EVIDENCE,
    )


def _report_fields(report):
    return (
        report.samples,
        np.float64(report.min_quotient).tobytes(),
        np.float64(report.min_inner).tobytes(),
        report.witness_x.tobytes(),
        report.witness_y.tobytes(),
        report.witness_selections,
        report.verdict,
    )


_KERNEL_PAIR = (np.array([0.0, 1.0]), np.array([0.0, -1.0]))
REFERENCE_PAIRS = [
    ("trig-swap", ops.trig_block_operator(), ops.swap_operator(), (-5.0, 5.0), [_KERNEL_PAIR]),
    ("sign-swap", ops.sign_swap_operator(), ops.swap_operator(), (-2.0, 2.0), [_KERNEL_PAIR, (np.zeros(2), np.array([1.0, 0.0]))]),
    # x2 = 0 at every draw: all four evaluations are boxes, 3**4 products per pair
    ("sign-swap-on-axis", ops.sign_swap_operator(), ops.swap_operator(), (np.array([-1.0, 0.0]), np.array([1.0, 0.0])), [_KERNEL_PAIR]),
    ("remark", ops.Affine(REMARK_MATRIX), ops.Affine(REMARK_MATRIX + 0.5 * np.eye(3)), (-0.05, 0.05), [(REMARK_POINT, np.zeros(3))]),
]


class TestBatchedCheckMatchesLoop:
    @pytest.mark.parametrize("with_include", [False, True], ids=["sampled", "included"])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("f, v, box, include", [row[1:] for row in REFERENCE_PAIRS], ids=[row[0] for row in REFERENCE_PAIRS])
    def test_every_report_field_bitwise(self, f, v, box, include, seed, with_include, monkeypatch):
        # a small chunk puts several chunk boundaries inside each run; the
        # included pairs end with a coincident one, which is skipped
        monkeypatch.setattr(ops, "_PAIR_CHUNK", 64)
        pairs = [*include, (include[0][0], include[0][0].copy())] if with_include else []
        for samples in (2, 64, 65, 300):
            report = ops.check_pair_monotone(f, v, box=box, samples=samples, seed=seed, include=pairs)
            expected = _loop_check_pair_monotone(f, v, box=box, samples=samples, seed=seed, include=pairs)
            assert _report_fields(report) == _report_fields(expected)
            if report.verdict is ops.Verdict.VIOLATION_FOUND:
                assert _witness_inner(f, v, report) == report.min_inner

    def test_default_chunk_boundary(self):
        f, v = ops.trig_block_operator(), ops.swap_operator()
        samples = ops._PAIR_CHUNK + 1
        report = ops.check_pair_monotone(f, v, box=(-5.0, 5.0), samples=samples, seed=3)
        expected = _loop_check_pair_monotone(f, v, box=(-5.0, 5.0), samples=samples, seed=3)
        assert _report_fields(report) == _report_fields(expected)

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_include_pairs_must_be_finite(self, entry):
        with pytest.raises(ValueError, match="include pairs must have finite coordinates"):
            ops.check_pair_monotone(
                ops.identity_operator(2), ops.identity_operator(2), samples=10,
                include=[(np.array([entry, 1.0]), np.array([3.0, 1.0]))],
            )

    def test_include_pairs_must_match_the_box(self):
        with pytest.raises(DimensionMismatchError):
            ops.check_pair_monotone(
                ops.Pointwise("identity"), ops.Pointwise("identity"), box=(-1.0, 1.0), samples=10,
                include=[(np.zeros(2), np.ones(2))],
            )

    @pytest.mark.parametrize(
        "box",
        [(np.nan, 1.0), (-np.inf, np.inf), (0.0, np.inf), (np.zeros(2), np.array([1.0, np.nan]))],
        ids=["nan", "infinite", "half-infinite", "per-coordinate"],
    )
    def test_non_finite_box_is_refused_by_name(self, box):
        # a NaN bound passed the order test, and the report said the box was
        # too large; an infinite one made numpy warn on inf - inf first
        with pytest.raises(ValueError, match="^the sampling box must have finite bounds, got "):
            ops.check_pair_monotone(ops.sign_swap_operator(), ops.swap_operator(), box=box, samples=10)

    @pytest.mark.parametrize(
        "box",
        [(-5.0 + 1.0j, 5.0), (-5.0, np.array([5.0, 5.0 + 0.0j]))],
        ids=["lower", "per-coordinate-upper"],
    )
    def test_complex_box_is_refused(self, box):
        # a complex scalar bound was a bare TypeError from the float cast,
        # and a complex array was cast to its real part
        with pytest.raises(ValueError, match="^complex values are not accepted, only real ones$"):
            ops.check_pair_monotone(ops.sign_swap_operator(), ops.swap_operator(), box=box, samples=10)

    def test_complex_include_pair_is_refused(self):
        # the pair was scanned as its real part
        with pytest.raises(ValueError, match="^complex values are not accepted, only real ones$"):
            ops.check_pair_monotone(
                ops.identity_operator(2), ops.identity_operator(2), samples=10,
                include=[(np.array([1.0 + 1.0j, 0.0]), np.array([3.0, 1.0]))],
            )

    def test_overflowing_box_is_an_input_error(self):
        # every draw is +-inf or NaN, so no quotient is finite
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="too large"):
            ops.check_pair_monotone(ops.identity_operator(2), ops.identity_operator(2), box=(-1e308, 1e308), samples=50)


class TestStrongMonotonicity:
    # the smallest quotient <F(x)-F(y), v(x)-v(y)> / ||x-y||^2 over the
    # sampled pairs estimates the pair's strong-monotonicity modulus
    def test_double_identity_modulus_two(self):
        alpha = ops.check_pair_monotone(
            ops.Scale(2.0, ops.Pointwise("identity")), ops.identity_operator(2),
            box=(-10.0, 10.0), samples=500, seed=1,
        ).min_quotient
        assert alpha == pytest.approx(2.0, abs=1e-9)

    def test_rank_deficient_modulus_zero_on_kernel(self):
        alpha = ops.check_pair_monotone(
            ops.Affine(np.diag([1.0, 0.0])), ops.identity_operator(2),
            samples=500, seed=1, include=[(np.array([0.0, 1.0]), np.zeros(2))],
        ).min_quotient
        assert alpha == 0.0

    def test_shifted_kernel_pair_moduli(self):
        # F = Ax - b, v = (A + 2k)x with A = diag(1, 0, -0.5), kappa = 0.2.
        # Brute force over eigendirections: quotient lambda*(lambda + 0.4),
        # minimized at 0 over the kernel and at (-0.5)(-0.1) = 0.05 on ran A.
        a = np.diag([1.0, 0.0, -0.5])
        oracle_range = min(lam * (lam + 0.4) for lam in (1.0, -0.5))
        assert oracle_range == pytest.approx(0.05)
        f = ops.Affine(a, -np.array([0.3, 0.0, 0.0]))
        v = ops.Affine(a + 0.4 * np.eye(3))
        full = ops.check_pair_monotone(
            f, v, samples=500, seed=1, include=[(np.array([0.0, 1.0, 0.0]), np.zeros(3))]
        ).min_quotient
        assert full == 0.0
        range_box = (np.array([-10.0, 0.0, -10.0]), np.array([10.0, 0.0, 10.0]))
        restricted = ops.check_pair_monotone(
            f, v, box=range_box, samples=500, seed=1,
            include=[(np.array([0.0, 0.0, 1.0]), np.zeros(3))],
        ).min_quotient
        assert restricted == pytest.approx(oracle_range, abs=1e-12)
        assert restricted >= oracle_range - 1e-12


class TestJsonSerialization:
    def _example_operators(self):
        return [
            ops.trig_block_operator(),
            ops.sign_swap_operator(),
            ops.Affine(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.5, -0.5])),
            ops.Scale(2.5, ops.Permutation((1, 0), (-1.0, 1.0))),
        ]

    def _assert_same_behavior(self, a, b, dim):
        rng = SplitMix64(77)
        for _ in range(20):
            x = rng.uniform(dim, -3.0, 3.0)
            va, vb = a.evaluate(x), b.evaluate(x)
            assert np.allclose(va.lower, vb.lower) and np.allclose(va.upper, vb.upper)

    def test_inline_round_trip(self):
        for op in self._example_operators():
            doc = ops.operator_to_json(op)
            back = ops.operator_from_json(doc)
            self._assert_same_behavior(op, back, op.dim)

    def test_matrix_file_round_trip(self, tmp_path):
        # a "matrix-file" reference is read relative to the JSON document
        matrix = np.array([[1.0, 2.0], [0.0, -1.0]])
        op = ops.Sum((ops.Affine(matrix, np.array([1.0, 0.0])), ops.SignBlock(2.0, (1, 0))))
        (tmp_path / "mats").mkdir()
        linalg.write_matrix(str(tmp_path / "mats" / "a.mat"), matrix)
        doc = ops.operator_to_json(op)
        del doc["terms"][0]["matrix"]
        doc["terms"][0]["matrix-file"] = "mats/a.mat"
        path = tmp_path / "op.json"
        path.write_text(json.dumps(doc))
        back = ops.load_operator(str(path))
        self._assert_same_behavior(op, back, 2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown operator kind"):
            ops.operator_from_json({"kind": "mystery"})

    def test_unknown_registry_name(self):
        with pytest.raises(UnknownRegistryKeyError):
            ops.operator_from_json({"kind": "pointwise", "registry-name": "nope"})


    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"kind": "sign-block", "selector": 5}, "selector"),
            ({"kind": "sign-block", "selector": [0, 1.5]}, "selector"),
            ({"kind": "sum", "terms": 3}, "terms"),
            ({"kind": "permutation", "permutation": 3}, "permutation"),
            ({"kind": "permutation", "permutation": [1, 0], "signs": [[1], 1]}, "signs"),
            ({"kind": "stack", "dim": 2, "blocks": [5]}, "blocks"),
            ({"kind": "stack", "dim": [2], "blocks": []}, "dim"),
            ({"kind": "stack", "dim": 2, "blocks": [{"start": 0, "stop": "2", "op": {}}]}, "stop"),
            ({"kind": "pointwise", "registry-name": ["x"]}, "registry-name"),
            ({"kind": "affine", "matrix": [[1, 0], [0, 1]], "offset": {"a": 1}}, "offset"),
            ({"kind": "affine", "matrix": [[1, {}], [0, 1]]}, "matrix"),
            ({"kind": "affine", "matrix-file": 3}, "matrix-file"),
            ({"kind": "scale", "scale": None, "inner": {"kind": "pointwise", "registry-name": "identity"}}, "scale"),
            ({"kind": "scale", "scale": 2, "inner": [1]}, "inner"),
            ({"kind": "sign-block", "scale": 1e400, "selector": [0]}, "scale"),
        ],
    )
    def test_wrong_json_type_names_the_key(self, doc, key):
        with pytest.raises(ValueError, match=f"operator key '{key}' must be"):
            ops.operator_from_json(doc)

    def test_missing_key_names_the_key(self):
        with pytest.raises(ValueError, match="operator missing required key 'selector'"):
            ops.operator_from_json({"kind": "sign-block"})

    def test_document_must_be_an_object(self, tmp_path):
        path = tmp_path / "op.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match=f"operator file {path} must hold a JSON object"):
            ops.load_operator(str(path))


class TestValidation:
    def test_scale_requires_positive(self):
        with pytest.raises(ValueError):
            ops.Scale(0.0, ops.identity_operator(2))

    def test_sign_block_scale_nonnegative(self):
        with pytest.raises(ValueError):
            ops.SignBlock(-1.0, (0,))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_scales_must_be_finite(self, value):
        # both passed `scale < 0` and `gamma <= 0`; a NaN Sign scale plus I
        # built a diagonal engine that mapped every input to 0
        with pytest.raises(ValueError, match=f"sign-block scale must be nonnegative and finite, got {value!r}"):
            ops.SignBlock(value, (0, 1))
        with pytest.raises(ValueError, match=f"scale factor must be positive and finite, got {value!r}"):
            ops.Scale(value, ops.identity_operator(2))

    def test_complex_affine_offset_is_refused(self):
        # Affine(I, [1j, 0]) kept the offset (0, 0)
        with pytest.raises(ValueError, match="^complex values are not accepted, only real ones$"):
            ops.Affine(np.eye(2), [1.0j, 0.0])

    def test_selector_must_be_permutation(self):
        with pytest.raises(ValueError):
            ops.SignBlock(1.0, (0, 0))

    def test_stack_overlap_rejected(self):
        with pytest.raises(ValueError):
            ops.Stack(2, ((0, 2, ops.Pointwise("identity")), (1, 2, ops.Pointwise("identity"))))

    def test_stack_spans_may_touch_in_any_order(self):
        ident = ops.Pointwise("identity")
        ops.Stack(4, ((2, 4, ident), (0, 2, ident)))
        with pytest.raises(ValueError, match="stack blocks must not overlap"):
            ops.Stack(4, ((3, 4, ident), (0, 2, ident), (1, 3, ident)))

    def test_stack_spans_are_checked_without_listing_their_indices(self, capped_python):
        # a set of every covered index took about 1.1 GB at dim 1e7, so a
        # child capped at a few GB ran out of memory at dim 1e12
        code = """if True:
            from pairprox import operators as ops
            ident = ops.Pointwise("identity")
            ops.Stack(10**12, ((0, 10**12, ident),))
            try:
                ops.Stack(10**12, ((10**6, 10**12, ident), (0, 10**6 + 1, ident)))
            except ValueError as exc:
                print(exc)
        """
        proc = capped_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "stack blocks must not overlap\n"

    def test_sum_dimension_conflict(self):
        with pytest.raises(DimensionMismatchError):
            ops.Sum((ops.identity_operator(2), ops.identity_operator(3)))
