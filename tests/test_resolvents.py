import dataclasses
import functools
import itertools
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from pairprox import applications as apps
from pairprox import operators as ops
from pairprox import linalg, resolvents, solvers
from pairprox.errors import (
    DimensionMismatchError,
    NonFiniteIterateError,
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


def diagonal_inverse(s, c, d, y):
    """z with s*Sign(z) + c*z + d containing y, through the diagonal branch
    of the 1-D engine of F = s*Sign, v = c*z + d at gamma = 1."""
    engine = resolvents.build_engine(ops.SignBlock(s, (0,)), ops.Affine(np.array([[c]]), np.array([d])), 1.0)
    assert engine._strategy.diagonal is not None
    return resolvents.transformed(engine, np.array([y])).preimage[0]


class TestScalarSignAffineInverse:
    def test_above_interval(self):
        assert bisection_inverse(1.0, 2.0, 0.0, 3.0) == pytest.approx(1.0, abs=1e-12)
        assert diagonal_inverse(1.0, 2.0, 0.0, 3.0) == pytest.approx(1.0)

    def test_inside_interval(self):
        assert diagonal_inverse(1.0, 2.0, 0.0, 0.5) == 0.0

    def test_below_interval(self):
        assert bisection_inverse(1.0, 2.0, 0.0, -5.0) == pytest.approx(-2.0, abs=1e-12)
        assert diagonal_inverse(1.0, 2.0, 0.0, -5.0) == pytest.approx(-2.0)

    @pytest.mark.parametrize("slope", [0.0, -2.0])
    def test_nonpositive_slope_rejected(self, slope):
        # the diagonal branch divides by the slope, so the build takes it only
        # for a positive one; a table needs a positive definite linear part,
        # so slope 0, a singular system, and a negative slope are refused
        f = ops.SignBlock(1.0, (0,))
        with pytest.raises(UnsupportedStructureError, match=r"^\(gamma\*F \+ v\)\^-1 is not certified single-valued"):
            resolvents.build_engine(f, ops.Affine(np.array([[slope]]), np.array([0.0])), 1.0)

    @given(
        st.floats(0.0, 5.0),
        st.floats(0.1, 10.0),
        st.floats(-5.0, 5.0),
        st.floats(-50.0, 50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_bisection_oracle(self, s, c, d, y):
        # the 1-D engine of s*Sign(z) + c*z + d at gamma = 1: diagonal for
        # s > 0, affine for s = 0
        engine = resolvents.build_engine(ops.SignBlock(s, (0,)), ops.Affine(np.array([[c]]), np.array([d])), 1.0)
        assert s == 0.0 or engine._strategy.diagonal is not None
        closed = resolvents.transformed(engine, np.array([y])).preimage[0]
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


OVERFLOWING_OFFSET = "gamma*F + v overflows the float range: its offset or Sign scales are not finite"
_OVERFLOWING_NORMS = 1e308 * np.array([[-0.8, -1.6, -1.6], [1.1, 1.4, 0.4], [0.8, 0.1, 1.5]])
# partial pivoting doubles the last column at each of three steps
_OVERFLOWING_GROWTH = 4e307 * np.array(
    [[1.0, 0.0, 0.0, 1.0], [-1.0, 1.0, 0.0, 1.0], [-1.0, -1.0, 1.0, 1.0], [-1.0, -1.0, -1.0, 1.0]]
)


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

    def test_overflowing_shifted_operator_is_named(self):
        # A is finite, but gamma*F + v = 2A + 2 kappa I is not
        f, v = apps.kkt_operator_pair(np.diag([1e308, -1e308]), np.ones(2), 0.2)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows the float range"):
            resolvents.build_engine(f, v, 1.0)

    @pytest.mark.parametrize(
        "f",
        [
            # sum_j max_i |M_ij| and max_i sum_j |M_ij| pass the float
            # maximum, so every roundoff bound was inf and the first pattern
            # tried was accepted; sym(M) summed before halving raised
            # LinAlgError
            ops.Sum((ops.SignBlock(1.0, (0, 1, 2)), ops.Affine(_OVERFLOWING_NORMS))),
            # the norms are finite, but the elimination overflows: the
            # all-(+) pattern took y = (3, 3, 3, 3) to an x whose row 3
            # missed y by 16, and the affine engine's row 3 missed it by 24
            ops.Sum((ops.SignBlock(1.0, (0, 1, 2, 3)), ops.Affine(_OVERFLOWING_GROWTH))),
            ops.Affine(_OVERFLOWING_GROWTH),
        ],
        ids=["sign-norms", "sign-factors", "affine-factors"],
    )
    def test_engine_past_the_float_maximum_is_rejected(self, f):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="overflows the float range"):
            resolvents.build_engine(f, ops.identity_operator(f.dim), 1.0)

    @pytest.mark.parametrize(
        "f, v, gamma, message",
        [
            # the soft-threshold read the NaN row as 0: gppa from (1, 2)
            # returned Converged at (0, 0), where F has a NaN row
            (ops.Sum((ops.SignBlock(1.0, (0, 1)), ops.Affine(np.eye(2), offset=(np.nan, 0.0)))),
             ops.identity_operator(2), 1.0, "F's offset holds NaN"),
            # affine and tabled engines built, and gppa reported Failed(Diverged) after 0 steps
            (ops.Affine(np.eye(2), offset=(np.nan, 0.0)), ops.identity_operator(2), 1.0, "F's offset holds NaN"),
            (ops.Affine(np.eye(2), offset=(0.0, -np.inf)), ops.identity_operator(2), 1.0, OVERFLOWING_OFFSET),
            (ops.Sum((ops.SignBlock(1.0, (1, 0)), ops.Affine(np.diag([1.0, -1.0]), offset=(np.inf, 0.0)))),
             ops.swap_operator(), 1.0, OVERFLOWING_OFFSET),
            # gamma * 1e300 is inf: the soft-threshold mapped every input to 0
            (ops.SignBlock(1e300, (0, 1)), ops.identity_operator(2), 1e10, OVERFLOWING_OFFSET),
        ],
        ids=["diagonal-nan-offset", "affine-nan-offset", "affine-inf-offset", "tabled-inf-offset", "inf-sign-scale"],
    )
    def test_non_finite_offset_or_sign_scale_is_rejected(self, f, v, gamma, message):
        # a NaN in F's own data is named on the error path, not blamed on an overflow
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            resolvents.build_engine(f, v, gamma)

    @pytest.mark.parametrize("owner, field", [("F", "matrix"), ("F", "offset"), ("v", "matrix"), ("v", "offset")])
    def test_nan_data_is_named_not_blamed_on_an_overflow(self, owner, field):
        data = {"matrix": np.eye(2), "offset": np.zeros(2)}
        data[field] = data[field].copy()
        data[field][1] = np.nan
        bad, good = ops.Affine(data["matrix"], data["offset"]), ops.Affine(np.eye(2))
        with pytest.raises(ValueError, match=f"^{owner}'s {field} holds NaN$"):
            resolvents.build_engine(*((bad, good) if owner == "F" else (good, bad)), 1.0)

    def test_sign_engine_near_the_float_maximum_is_certified(self):
        # 2 * M[0, 0] overflows but every norm is finite; sym(M) halved
        # before the sum is positive definite, where the unhalved sum read
        # an inf eigenvalue and the certificate failed
        m = np.array([[1.5e308, 1e306, 0.0], [-1e306, 1e307, 0.0], [0.0, 1.0, 1e307]])
        f = ops.Sum((ops.SignBlock(1.0, (0, 1, 2)), ops.Affine(m)))
        engine = resolvents.build_engine(f, ops.identity_operator(3), 1.0)
        assert engine.kind is resolvents.StrategyKind.SIGN_SEPARABLE and engine._strategy.diagonal is None
        for w in (np.full(3, 3.0), np.array([-1e300, 2e299, 5.0]), np.zeros(3)):
            out = resolvents.transformed(engine, w)
            fz = f.evaluate(out.preimage)
            resid, tol = w - out.image, 1e-12 * (1.0 + np.abs(w))
            assert np.all(resid >= fz.lower - tol) and np.all(resid <= fz.upper + tol)

    def test_certificate_is_relative(self):
        # sym(M) = diag(1e11, 1, 1) + I is positive definite, but its least
        # eigenvalue is 2e-11 of its largest; the build returned an engine
        # that it could not certify as single-valued
        skew = 1e-3 * np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        f = ops.Sum((ops.SignBlock(1.0, (0, 1, 2)), ops.Affine(np.diag([1e11, 1.0, 1.0]) + skew)))
        with pytest.raises(
            UnsupportedStructureError,
            match=r"^\(gamma\*F \+ v\)\^-1 is not certified single-valued: .* least eigenvalue 2, not above 1e-10 times"
            r" its largest \|eigenvalue\| 1e\+11$",
        ):
            resolvents.build_engine(f, ops.identity_operator(3), 1.0)

    def test_row_scaled_system_near_the_float_maximum_is_refused(self):
        # the engine built, and at (-1e300, 2e299, 5) the all-(+) pattern gave
        # x_2 = -4e-307, a wrong sign that the max-norm roundoff bound of
        # about 2e285 accepted: row 2 read 3, not 5
        m = np.array([[-1.5e308, 1.0, 0.0], [2.0, 1e307, 0.0], [0.0, 1.0, -1e307]])
        f = ops.Sum((ops.SignBlock(1.0, (0, 1, 2)), ops.Affine(m)))
        with pytest.raises(UnsupportedStructureError, match="not certified single-valued"):
            resolvents.build_engine(f, ops.identity_operator(3), 1.0)

    def test_trig_pair_unsupported(self):
        # refused at build: no engine exists that could fail at evaluation
        with pytest.raises(UnsupportedStructureError, match="no closed-form resolvent for F=Sum, v=Permutation"):
            resolvents.build_engine(ops.trig_block_operator(), ops.swap_operator(), 1.0)

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

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
    def test_gamma_must_be_finite(self, gamma):
        # checked first: the overflow check of gamma*F + v would blame the data
        with pytest.raises(ValueError, match="^" + re.escape(f"gamma must lie in (0, inf), got {gamma!r}") + "$"):
            resolvents.build_engine(ops.sign_swap_operator(), ops.swap_operator(), gamma)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", [np.complex128(1 + 1j), True, "1"], ids=["numpy-complex", "bool", "str"])
    @pytest.mark.parametrize(
        "f, v",
        [(ops.Affine(np.eye(2)), ops.identity_operator(2)), (ops.sign_swap_operator(), ops.swap_operator())],
        ids=["affine", "sign-swap"],
    )
    def test_gamma_reads_through_the_step_rule(self, f, v, gamma):
        # the affine pair built and solved at gamma = 1 for np.complex128(1+1j),
        # with numpy's ComplexWarning from inside the LU, and the sign-swap pair
        # raised a bare TypeError from signbit; True built at gamma = 1.0
        with pytest.raises(ValueError, match="^" + re.escape(f"gamma must lie in (0, inf), got {gamma!r}") + "$"):
            resolvents.build_engine(f, v, gamma, dim=2)

    def test_dim_inference_failure(self):
        with pytest.raises(DimensionMismatchError):
            resolvents.build_engine(ops.Pointwise("identity"), ops.Pointwise("identity"), 1.0)


def _kkt_type_pair(n, seed):
    """kkt_operator_pair of [[H, C^T], [C, 0]], H = G G^T / n, with a
    quarter of the rows constraints: symmetric indefinite, so partial
    pivoting interchanges rows."""
    rng = SplitMix64(seed)
    m = n // 4
    g = rng.normal((n - m) * (n - m)).reshape(n - m, n - m)
    c = rng.normal(m * (n - m)).reshape(m, n - m)
    a = np.block([[g @ g.T / n, c.T], [c, np.zeros((m, m))]])
    return apps.kkt_operator_pair(a, rng.normal(n), 0.2)


def _signed_zero_pair(n, seed):
    """F a Gaussian matrix with a fifth of its entries +0 and a fifth -0, and
    v = 2n I with -0 off the diagonal: gamma*F + v keeps the signs of
    gamma*F's zeros, since x + (-0) is x bitwise."""
    rng = SplitMix64(seed)
    a = rng.normal(n * n).reshape(n, n)
    u = rng.uniform(n * n).reshape(n, n)
    a[u < 0.2] = 0.0
    a[u > 0.8] = -0.0
    v = np.full((n, n), -0.0)
    np.fill_diagonal(v, 2.0 * n)
    return ops.Affine(a), ops.Affine(v)


def _fortran_pair(n, seed):
    """Both matrices in column-major order, so gamma*F + v is too."""
    f, v = _kkt_type_pair(n, seed)
    return ops.Affine(np.asfortranarray(f.matrix), f.offset), ops.Affine(np.asfortranarray(v.matrix))


def assert_same_factorization(fact, expected):
    """`packed`, `perm`, the flag, the strips and the inverses are
    bytes-equal; np.array_equal would not tell -0.0 from +0.0."""
    assert fact.packed.tobytes() == expected.packed.tobytes()
    assert fact.perm.tobytes() == expected.perm.tobytes() and fact.singular == expected.singular
    for blocks, reference in ((fact.lower_blocks, expected.lower_blocks), (fact.upper_blocks, expected.upper_blocks)):
        assert [b[:2] for b in blocks] == [b[:2] for b in reference]
        for (_, _, strip, inverse), (_, _, strip_ref, inverse_ref) in zip(blocks, reference):
            assert strip.tobytes() == strip_ref.tobytes() and inverse.tobytes() == inverse_ref.tobytes()


class TestAffineBuildInPlace:
    """An affine engine factors the gamma*F + v it built in that array."""

    @pytest.mark.parametrize("pair", [_kkt_type_pair, _signed_zero_pair, _fortran_pair], ids=["kkt", "signed-zeros", "fortran"])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_factors_are_those_of_the_public_factorization(self, pair, gamma):
        n = 130
        f, v = pair(n, 17)
        engine = resolvents.build_engine(f, v, gamma)
        fact = engine._strategy.factorization
        assert_same_factorization(fact, linalg.lu_factorize(gamma * f.matrix + v.matrix))
        if pair is not _signed_zero_pair:
            assert np.any(fact.perm != np.arange(n))
        assert fact.packed.flags.c_contiguous

    @pytest.mark.parametrize("n", (300, 900))
    def test_build_peak_is_what_the_engine_keeps_and_three_panels(self, n):
        # gamma*F + v is one array, and it becomes the factorization's
        # `packed`; before the LU allocates its strips, that array and the
        # finiteness mask hold less than the engine keeps. Within the LU,
        # the rows that a panel's interchanges move, at most two per column,
        # are gathered once, 2 x 64 rows of n doubles, and the other
        # temporaries are smaller than one more panel. A build that factored
        # a copy of gamma*F + v held n x n doubles more
        f, v = _kkt_type_pair(n, n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            engine = resolvents.build_engine(f, v, 1.0)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert engine.kind is resolvents.StrategyKind.AFFINE_AFFINE
        assert peak - before <= after - before + 8 * 3 * 64 * n


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


def _sign_kernel(perm):
    """A kernel whose linear part is 5 I in the sign variables `perm`, plus
    0.5 on every entry: it certifies the stack and nested trees below for
    gamma up to 2. _V3 leaves their sym(M[:, sigma]) negative definite."""
    linear = ops.Affine(0.5 * np.ones((3, 3)), np.array([0.0, 1.0, -1.0]))
    return ops.Sum((ops.Scale(5.0, ops.Permutation(perm)), linear))


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
        _sign_kernel((1, 0, 2)),
        [1.0, 1.0, 0.0],
        [1, 0, 2],
    ),
    (
        "nested",
        ops.Scale(2.0, ops.Sum((ops.Stack(3, ((1, 3, ops.Scale(0.5, _SIGN_SWAP)),)), ops.Pointwise("identity")))),
        _sign_kernel((0, 2, 1)),
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
        if scales is None:
            with pytest.raises(UnsupportedStructureError, match="no closed-form resolvent"):
                resolvents.build_engine(f, v, _GAMMA)
            return
        engine = resolvents.build_engine(f, v, _GAMMA)
        assert engine.kind is resolvents.StrategyKind.SIGN_SEPARABLE
        strategy = engine._strategy
        assert np.array_equal(strategy.scales, _GAMMA * np.array(scales))
        signed = np.array(scales) > 0.0
        assert np.array_equal(strategy.sigma[signed], np.array(variables)[signed])
        # a consistent inverse: the input lies in (gamma*F + v)(z)
        w = np.array([2.0, -3.0, 0.5])[: engine.dim]
        out = resolvents.transformed(engine, w)
        fz = f.evaluate(out.preimage)
        resid = w - out.image
        assert np.all(resid >= _GAMMA * fz.lower - 1e-9) and np.all(resid <= _GAMMA * fz.upper + 1e-9)


def _term_magnitude(op, x):
    """Sum over the terms of a Sign-plus-affine tree of their magnitudes at
    each row of x: |A| |x| + |c| for an affine term, the scale for a Sign
    term. It bounds the roundoff of evaluating the tree, cancelling terms
    included."""
    if isinstance(op, ops.Affine):
        return np.abs(x) @ np.abs(op.matrix).T + np.abs(op.offset)
    if isinstance(op, ops.SignBlock):
        return np.full(x.shape, op.scale)
    if isinstance(op, ops.Permutation):
        return np.abs(x[:, list(op.perm)])
    if isinstance(op, ops.Pointwise):
        return np.abs(x)
    if isinstance(op, ops.Scale):
        return op.gamma * _term_magnitude(op.inner, x)
    if isinstance(op, ops.Sum):
        return sum(_term_magnitude(t, x) for t in op.terms)
    out = np.zeros(x.shape)
    for start, stop, sub in op.blocks:
        out[:, start:stop] = _term_magnitude(sub, x[:, start:stop])
    return out


def _scaled_node_count(op, n):
    """Per row, the nodes of a Sign-plus-affine tree that act on it, each
    weighted by the scale factors above it. A node rounds each row at most
    2n + 3 times in the tree and in its normal form, by up to half the
    smallest subnormal each time whatever its terms' magnitude, and the
    factors above scale that error."""
    if isinstance(op, ops.Scale):
        return 1.0 + op.gamma * _scaled_node_count(op.inner, n)
    if isinstance(op, ops.Sum):
        return 1.0 + sum(_scaled_node_count(t, n) for t in op.terms)
    out = np.ones(n)
    if isinstance(op, ops.Stack):
        for start, stop, sub in op.blocks:
            out[start:stop] += _scaled_node_count(sub, stop - start)
    return out


_ENTRIES = st.one_of(st.integers(-3, 3).map(float), st.floats(-4.0, 4.0))


@st.composite
def sign_affine_trees(draw, n, depth=3):
    """Trees of every variant `_try_sign_affine` reduces, on n coordinates,
    with at most `depth` levels of nodes. Small integer entries make terms
    cancel; the data is scaled by 1e-6, 1 or 1e12."""
    # composites and Sign terms weigh double, so that trees branch and Sign
    # terms meet in sums and stacks
    kinds = ["affine", "sign-block", "sign-block", "permutation", "identity", "negation"]
    kind = draw(st.sampled_from(kinds + (["scale", "sum", "stack"] * 2 if depth > 1 else [])))
    if kind == "affine":
        size = draw(st.sampled_from((1.0, 1e-6, 1e12)))
        matrix = draw(st.lists(_ENTRIES, min_size=n * n, max_size=n * n))
        offset = draw(st.lists(_ENTRIES, min_size=n, max_size=n))
        return ops.Affine(size * np.reshape(matrix, (n, n)), size * np.array(offset))
    if kind == "sign-block":
        return ops.SignBlock(draw(st.floats(0.25, 4.0)), tuple(draw(st.permutations(range(n)))))
    if kind == "permutation":
        signs = draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=n, max_size=n))
        return ops.Permutation(tuple(draw(st.permutations(range(n)))), tuple(signs))
    if kind in ("identity", "negation"):
        return ops.Pointwise(kind)
    if kind == "scale":
        return ops.Scale(draw(st.floats(1e-3, 1e3)), draw(sign_affine_trees(n, depth - 1)))
    if kind == "sum":
        return ops.Sum(tuple(draw(st.lists(sign_affine_trees(n, depth - 1), min_size=2, max_size=3))))
    # a stack cuts [0, n) into slices, each given a subtree or left at zero
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
    edges = [0, *cuts, n]
    blocks = [
        (a, b, draw(sign_affine_trees(b - a, depth - 1))) for a, b in zip(edges, edges[1:]) if draw(st.booleans())
    ]
    return ops.Stack(n, tuple(blocks))


@st.composite
def trees_and_points(draw):
    """A tree and four generic points in [-10, 10]^n, some coordinates set
    to 0 so that Sign terms there give intervals."""
    n = draw(st.integers(1, 8))
    points = SplitMix64(draw(st.integers(0, 2**32))).uniform(4 * n, -10.0, 10.0).reshape(4, n)
    points[np.array(draw(st.lists(st.booleans(), min_size=4 * n, max_size=4 * n))).reshape(4, n)] = 0.0
    return draw(sign_affine_trees(n)), points


def _flip_affine_offsets(original):
    def reduce(op, dim):
        form = original(op, dim)
        if form is not None and isinstance(op, ops.Affine):
            form = dataclasses.replace(form, offset=-form.offset)
        return form

    return reduce


def _drop_scale_factors(original):
    def reduce(op, dim):
        return original(op.inner if isinstance(op, ops.Scale) else op, dim)

    return reduce


_TINY = np.finfo(float).smallest_subnormal
# subnormal data: a relative tolerance rounds to zero here, while the tree
# and its normal form differ by a few subnormal ulps
_SUBNORMAL_SCALE = ops.Scale(0.001, ops.Scale(0.125, ops.Affine([[0.0, 0.0], [0.0, 1.11e-308]])))


def _subnormal_draw(index):
    """Draw `index` of F = Scale(0.001, Scale(0.125, Affine(m, d))) with m
    3x3 at magnitudes 1e-315 to 1e-300 and d about 1e-310."""
    rng = np.random.default_rng(0)
    for _ in range(index + 1):
        m = rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-315, -300)
        d = rng.standard_normal(3) * 1e-310
    return ops.Scale(0.001, ops.Scale(0.125, ops.Affine(m, d)))


def assert_reduction_matches(tree, points):
    """The normal form of `tree` must agree with its `evaluate` at each row
    of `points`, interval bounds included, within the roundoff of the terms
    summed. Rows are points with |x| <= 10; at a zero coordinate a Sign
    term gives an interval, so the interval widths must agree too."""
    n = points.shape[1]
    form = resolvents._try_sign_affine(tree, n)
    assert form is not None, "the tree does not reduce"
    values = tree.evaluate(points)
    linear = points @ form.matrix.T + form.offset
    picked = points[:, form.sign_var]
    sign = np.sign(picked)
    width = np.where(picked == 0.0, form.scales, 0.0)
    # the normal form's entries round too, and |points| <= 10 scales that
    tol = 1e-12 * _term_magnitude(tree, points) + 10.0 * (2 * n + 3) * _TINY * _scaled_node_count(tree, n)
    assert np.all(np.abs(values.lower - (linear + form.scales * sign - width)) <= tol)
    assert np.all(np.abs(values.upper - (linear + form.scales * sign + width)) <= tol)


def _check_points(n):
    """Two generic points in [-10, 10]^n, then 0. A wrong matrix or offset
    shows at a generic point with probability one, as in Freivalds' check
    of matrix products; at 0 every Sign term gives its interval."""
    return np.vstack((SplitMix64(7).uniform(2 * n, -10.0, 10.0).reshape(2, n), np.zeros(n)))


class TestStructuralReduction:
    @given(trees_and_points())
    @example((_SUBNORMAL_SCALE, SplitMix64(6).uniform(8, -10.0, 10.0).reshape(4, 2)))
    @settings(max_examples=300, deadline=None)
    def test_reduction_matches_evaluate(self, case):
        tree, points = case
        if resolvents._try_sign_affine(tree, points.shape[1]) is not None:
            assert_reduction_matches(tree, points)

    def test_cancelling_terms_match_evaluate(self):
        # F = (I + E) - I with E tiny: the tree rounds x + E x at the scale of
        # x, far above the scale of E x that the normal form holds
        e = 1e-10 * np.array([[0.0, 1.0, 2.0], [3.0, 0.0, -1.0], [1.0, 1.0, 0.0]])
        f = ops.Sum(
            (ops.Affine(np.eye(3) + e, np.ones(3)), ops.Pointwise("negation"), ops.Affine(np.zeros((3, 3)), -np.ones(3)))
        )
        assert_reduction_matches(f, _check_points(3))
        engine = resolvents.build_engine(f, ops.identity_operator(3), 1.0)
        assert engine.kind is resolvents.StrategyKind.AFFINE_AFFINE

    @pytest.mark.parametrize(
        "f",
        [
            # the ninth draw was off by one subnormal ulp at 0, where a bound
            # relative to the terms alone rounds to 0
            _subnormal_draw(8),
            # the tree rounds m x among subnormals and then scales the error
            # up by 1e6, far above the relative bound of the scaled terms
            ops.Scale(1e3, ops.Scale(1e3, ops.Affine(np.random.default_rng(1).standard_normal((3, 3)) * 1e-321))),
        ],
        ids=["draw-8", "scaled-up"],
    )
    def test_subnormal_data_matches_evaluate(self, f):
        assert_reduction_matches(f, _check_points(f.dim))
        engine = resolvents.build_engine(f, ops.identity_operator(f.dim), 1.0)
        assert engine.kind is resolvents.StrategyKind.AFFINE_AFFINE

    @pytest.mark.parametrize(
        "mutation, op",
        [
            (_flip_affine_offsets, apps.kkt_operator_pair(np.diag([2.0, 0.0]), np.array([1.0, -1.0]), 0.2)[0]),
            (_flip_affine_offsets, _STACK3),
            (_flip_affine_offsets, _V3),
            (_drop_scale_factors, AFFINE_TREES[4][1]),
            (_drop_scale_factors, SIGN_TREES[4][1]),
            (_drop_scale_factors, ops.Scale(3.0, ops.swap_operator())),
        ],
        ids=["kkt-F-affine", "F-stack", "v-affine", "F-scale", "F-nested-scale", "v-scale"],
    )
    def test_wrong_reduction_fails_the_comparison(self, monkeypatch, mutation, op):
        monkeypatch.setattr(resolvents, "_try_sign_affine", mutation(resolvents._try_sign_affine))
        with pytest.raises(AssertionError):
            assert_reduction_matches(op, _check_points(op.dim))

    @pytest.mark.parametrize(
        "op",
        [ops.Sum((_SIGN_SWAP, ops.Pointwise("identity"))), ops.Scale(2.0, ops.Pointwise("identity"))],
        ids=["F-sum", "v-scale"],
    )
    def test_replaced_identity_fails_the_comparison(self, monkeypatch, op):
        # the registry is a fixed dict, so a replaced map is written directly
        monkeypatch.setitem(ops._POINTWISE_REGISTRY, "identity", lambda t: 2.0 * t)
        with pytest.raises(AssertionError):
            assert_reduction_matches(op, _check_points(2))


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
        with pytest.raises(SingularMatrixError, match=r"gamma\*F \+ v is singular affine"):
            resolvents.build_engine(ops.Affine(a), ops.Affine(a), 1.0)

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
            patterns=resolvents._pattern_table(scales, sigma, matrix),
            zero_offset=True,
        )
        # only the pattern pinning row 0 is solvable, and its box check fails
        assert [p.pinned.tolist() for p in strategy.patterns] == [[0]]
        with pytest.raises(NotInRangeError):
            resolvents._invert_sign(strategy, np.array([5.0, 0.0]))


class TestNonFiniteInput:
    # the affine and diagonal branches test the input with numpy, the
    # diagonal one because its soft-threshold maps NaN to 0; a table engine
    # tests it over the floats of its kink test, before any pattern is
    # solved; warped tests it before it evaluates v. Warnings are errors
    # here, so no branch may compute on a non-finite input first
    ENGINES = {
        "affine": lambda: qp_engine()[0],
        "diagonal": lambda: resolvents.build_engine(
            ops.SignBlock(1.0, (0, 1)), ops.Scale(2.0, ops.Pointwise("identity")), 1.0, dim=2
        ),
        "table": lambda: sign_engine()[0],
        # a nonzero offset, and a v whose Affine has zero entries: 0 * inf
        # in v(inf) would warn, so warped's own test is pinned
        "table-offset": lambda: resolvents.build_engine(*KINK_PAIRS["scale"]),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("evaluate", [resolvents.transformed, resolvents.warped], ids=["transformed", "warped"])
    @pytest.mark.parametrize("row", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ENGINES)
    def test_nan_and_inf_input_is_rejected(self, kind, bad, row, evaluate):
        engine = self.ENGINES[kind]()
        strategy = engine._strategy
        affine = engine.kind is resolvents.StrategyKind.AFFINE_AFFINE
        assert kind.startswith("affine" if affine else "diagonal" if strategy.diagonal is not None else "table")
        assert kind != "table-offset" or (not strategy.zero_offset and isinstance(engine.v.inner, ops.Affine))
        starts = [None] if affine or strategy.diagonal is not None else [None, *range(len(strategy.patterns))]
        w = np.ones(2)
        w[row] = bad
        for start in starts:
            with pytest.raises(NonFiniteIterateError, match="^resolvent input contains NaN/Inf$"):
                if evaluate is resolvents.transformed:
                    evaluate(engine, w, start)
                else:
                    evaluate(engine, w)


# sign engines whose offset is all +0 from the build, so that a step may use its input w itself for w - offset
ZERO_OFFSET_ENGINES = {
    "diagonal": lambda: resolvents.build_engine(
        ops.SignBlock(1.0, (0, 1)), ops.Scale(2.0, ops.Pointwise("identity")), 1.0, dim=2
    ),
    "table": lambda: sign_engine()[0],
}
# and an affine engine, which always subtracts its offset
STEP_ENGINES = {
    "affine": lambda: resolvents.build_engine(ops.Affine([[2.0, 1.0], [-1.0, 3.0]]), ops.Pointwise("identity"), 1.0, dim=2),
    **ZERO_OFFSET_ENGINES,
}


def _with_offset(engine, offset, zero_offset):
    """`engine` with its strategy's offset and skip flag replaced."""
    strategy = dataclasses.replace(engine._strategy, offset=np.array(offset), zero_offset=zero_offset)
    return dataclasses.replace(engine, _strategy=strategy)


def _output_bits(out):
    return out.preimage.tobytes(), out.image.tobytes(), out.pattern


class TestOffsetSkip:
    # a step on an offset of all +0 uses w for w - offset: x - (+0) is x
    # bitwise, NaN and -0 included, while x - (-0) turns -0 into +0

    @pytest.mark.parametrize(
        "offset, skips",
        [((0.0, 0.0), True), ((-0.0, -0.0), False), ((0.0, -0.0), False), ((1e-300, 0.0), False), ((np.nan, 0.0), False)],
        ids=["plus-zero", "minus-zero", "mixed", "nonzero", "nan"],
    )
    def test_only_an_offset_of_plus_zeros_is_skipped(self, offset, skips):
        assert resolvents._is_plus_zero(np.array(offset)) is skips

    def test_the_build_records_the_skip(self):
        assert all(make()._strategy.zero_offset for make in ZERO_OFFSET_ENGINES.values())
        shifted = ops.Sum((ops.SignBlock(1.0, (0, 1)), ops.Affine(np.zeros((2, 2)), offset=(1.0, 0.0))))
        engine = resolvents.build_engine(shifted, ops.Scale(2.0, ops.Pointwise("identity")), 1.0, dim=2)
        assert engine.kind is resolvents.StrategyKind.SIGN_SEPARABLE and not engine._strategy.zero_offset

    @pytest.mark.parametrize("offset", [(0.0, 0.0), (-0.0, -0.0), (0.0, -0.0)], ids=["plus-zero", "minus-zero", "mixed"])
    @pytest.mark.parametrize("kind", ZERO_OFFSET_ENGINES)
    def test_same_bits_as_subtracting_the_offset(self, kind, offset):
        built = ZERO_OFFSET_ENGINES[kind]()
        engine = _with_offset(built, offset, resolvents._is_plus_zero(np.array(offset)))
        subtracting = _with_offset(built, offset, False)
        edges = _edge_inputs(built._strategy.scales, 60, 19)
        inputs = [np.array([-0.0, -0.0]), np.array([-0.0, 0.5]), np.array([3.0, -0.0]), *edges]
        for w in inputs:
            for start in (None, 0, 4):
                expected = _output_bits(resolvents.transformed(subtracting, w, start))
                assert _output_bits(resolvents.transformed(engine, w, start)) == expected

    @pytest.mark.parametrize("kind", STEP_ENGINES)
    def test_the_input_is_not_written(self, kind):
        engine = STEP_ENGINES[kind]()
        scales = getattr(engine._strategy, "scales", np.ones(2))
        for w in [np.zeros(2), np.array([-0.0, 0.25]), *_edge_inputs(scales, 40, 23)]:
            kept = w.copy()
            out = resolvents.transformed(engine, w)
            assert w.tobytes() == kept.tobytes()
            assert not np.shares_memory(out.preimage, w) and not np.shares_memory(out.image, w)


def _kink_pair_3d():
    # F's linear part puts sym(M[:, sigma]) at the identity, skew off it
    v = ops.Sum((ops.Permutation((2, 0, 1), (-1.0, 1.0, 1.0)), ops.Affine(np.zeros((3, 3)), offset=(0.0, 1.5, -2.0))))
    permuted = np.array([[1.0, 0.5, 0.0], [-0.5, 1.0, 0.25], [0.0, -0.25, 1.0]])
    matrix = np.empty((3, 3))
    matrix[:, [1, 2, 0]] = permuted
    f = ops.Sum((ops.SignBlock(0.75, (1, 2, 0)), ops.Affine(matrix - ops.Permutation((2, 0, 1), (-1.0, 1.0, 1.0)).as_matrix())))
    return f, v


# table engines whose kernels have an offset, a -1 sign (the plain
# permutation's v(0) holds -0), and Sum or Scale trees: (F, v, gamma)
KINK_PAIRS = {
    "offset-sum": (
        ops.Sum((ops.SignBlock(1.0, (1, 0)), ops.Affine([[0.5, 0.0], [2.0, -0.5]]))),
        ops.Sum((ops.Permutation((1, 0), (1.0, -1.0)), ops.Affine(np.zeros((2, 2)), offset=(0.5, -0.25)))),
        1.0,
    ),
    "negative-zero": (
        ops.Sum((ops.SignBlock(1.0, (1, 0)), ops.Affine([[0.5, 0.0], [2.0, -0.5]]))),
        ops.Permutation((1, 0), (1.0, -1.0)),
        1.0,
    ),
    "scale": (ops.sign_swap_operator(), ops.Scale(2.0, ops.Affine([[0.0, 1.0], [1.0, 0.0]], offset=(1.0, -3.0))), 0.5),
    "three-dim": (*_kink_pair_3d(), 2.0),
    "sign-swap": (ops.sign_swap_operator(), ops.swap_operator(), 1.0),
}


def _kink_engine(name):
    """The engine of KINK_PAIRS[name], its kernel, the index of its pattern
    that pins every row, and inputs that only that pattern takes: the
    box's centre and seeded points inside it. On the box's faces the
    patterns that free a row on that side solve to x = 0 as well."""
    f, v, gamma = KINK_PAIRS[name]
    engine = resolvents.build_engine(f, v, gamma)
    strategy = engine._strategy
    assert strategy.diagonal is None
    kink = next(i for i, p in enumerate(strategy.patterns) if p.factorization is None)
    n = engine.dim
    boxed = [np.zeros(n), *(SplitMix64(41).uniform(8 * n, -0.99, 0.99).reshape(8, n))]
    return engine, v, kink, [strategy.offset + strategy.scales * t for t in boxed]


class TestKinkImage:
    # the pattern that pins every row has x = 0, and its image is the
    # engine's v(0), computed on the first step that takes it

    @pytest.mark.parametrize("name", KINK_PAIRS)
    def test_outputs_are_zero_and_v_at_zero_bitwise(self, name):
        engine, v, kink, inputs = _kink_engine(name)
        zero = np.zeros(engine.dim)
        expected = ops.evaluate_point(v, np.zeros(engine.dim))
        assert np.any((expected == 0.0) & np.signbit(expected)) == (name == "negative-zero")
        for w in inputs:
            for start in (None, kink):
                out = resolvents.transformed(engine, w, start)
                assert out.pattern == kink
                assert out.preimage.tobytes() == zero.tobytes() and out.image.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["offset-sum", "negative-zero"])
    def test_each_output_is_a_fresh_array(self, name):
        engine, v, kink, inputs = _kink_engine(name)
        expected = ops.evaluate_point(v, np.zeros(engine.dim))
        first = resolvents.transformed(engine, inputs[0])
        first.preimage[:] = 7.0
        first.image[:] = 7.0
        second = resolvents.transformed(engine, inputs[0])
        assert second.preimage.tobytes() == np.zeros(engine.dim).tobytes()
        assert second.image.tobytes() == expected.tobytes()

    def test_v_is_evaluated_once_per_engine_and_not_by_the_build(self, monkeypatch):
        points = []
        evaluate_point = ops.evaluate_point

        def recorded(op, x):
            points.append(np.array(x))
            return evaluate_point(op, x)

        monkeypatch.setattr(ops, "evaluate_point", recorded)
        (engine, _, kink, inputs), (other, _, _, other_inputs) = _kink_engine("offset-sum"), _kink_engine("scale")
        assert points == []
        for w in inputs:
            resolvents.transformed(engine, w, kink)
        assert len(points) == 1 and points[0].tobytes() == np.zeros(2).tobytes()
        # a step off the kink evaluates v at its preimage, as before
        far = resolvents.transformed(engine, inputs[0] + 10.0)
        assert far.pattern != kink and len(points) == 2
        for w in inputs:
            resolvents.transformed(engine, w)
        assert len(points) == 2
        for w in other_inputs:
            resolvents.transformed(other, w)
        assert len(points) == 3

    def test_overflowing_shift_is_refused_alike_from_every_start(self):
        # y = w - offset overflows in row 0: the solve of a pattern that
        # frees a row turned it into a NaN x, which passed the sign and box
        # comparisons, and numpy's "invalid value encountered in dot" came
        # before "resolvent produced a non-finite point"; a start at the
        # kink pattern refused the shift itself
        f = ops.Sum((ops.SignBlock(1.0, (1, 0)), ops.Affine(np.diag([1.0, -1.0]), (-1e308, 0.0))))
        engine = resolvents.build_engine(f, ops.swap_operator(), 1.0)
        assert len(engine._strategy.patterns) == 9
        for start in (None, *range(9)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(NonFiniteIterateError, match="^resolvent input minus the offset overflows the float range$"):
                    resolvents.transformed(engine, np.array([1e308, 0.5]), start)
            assert [str(w.message) for w in caught] == ["overflow encountered in subtract"]

    def test_overflowing_shifted_input_is_refused_warm_or_cold(self):
        # y = w - offset overflows to inf; an infinite roundoff bound then
        # accepted the pattern that pins every row when the search started
        # there, though gamma*F(0) + v(0) lies near (-1e308, 0)
        f = ops.Sum((ops.SignBlock(1.0, (1, 0)), ops.Affine([[1.0, 1.0], [1.0, -1.0]], offset=(-1e308, 0.0))))
        engine = resolvents.build_engine(f, ops.swap_operator(), 1.0)
        kink = next(i for i, p in enumerate(engine._strategy.patterns) if p.factorization is None)
        assert kink == 8
        for start in (kink, None):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteIterateError):
                resolvents.transformed(engine, np.array([1e308, 0.0]), start)


def _consistent_solutions(strategy, w):
    """The x of every table pattern that passes its sign and box checks."""
    y = w - strategy.offset
    found = (resolvents._solve_pattern(p, y) for p in strategy.patterns)
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
            assert np.array_equal(resolvents._invert_sign(strategy, w)[0], xs[0])

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

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("row", [row for row in SIGN_TREES if row[3] is not None], ids=lambda row: row[0])
    def test_certificate(self, row, gamma):
        # sym(B), B = M[:, sigma], is the identity on the sign-block and
        # same-variable trees, and 5 I minus at most 2 gamma on the stack and
        # nested trees, plus a semidefinite part
        strategy = resolvents.build_engine(row[1], row[2], gamma)._strategy
        permuted = strategy.matrix[:, strategy.sigma]
        assert np.linalg.eigvalsh(0.5 * (permuted + permuted.T))[0] > 0.5

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("name", ["stack", "nested"])
    def test_uncertified_trees_are_refused(self, name, gamma):
        # with _V3 as kernel, sym(B) has eigenvalues between -8 and -4.3:
        # several sign patterns can be consistent with different x, and the
        # first in (+, -, 0) order was returned
        f = next(row[1] for row in SIGN_TREES if row[0] == name)
        with pytest.raises(UnsupportedStructureError, match=r"^\(gamma\*F \+ v\)\^-1 is not certified single-valued"):
            resolvents.build_engine(f, _V3, gamma)

    def test_certificate_on_other_engines(self):
        assert qp_engine()[0].kind is resolvents.StrategyKind.AFFINE_AFFINE
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError):
            resolvents.build_engine(ops.Affine(a), ops.Affine(a), 1.0)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("f, v", [row[1:] for row in MONOTONE_SIGN_PAIRS], ids=[row[0] for row in MONOTONE_SIGN_PAIRS])
    def test_start_pattern_does_not_change_the_preimage(self, f, v, gamma):
        # seeded inputs, plus grid inputs on which several patterns are
        # consistent because some coordinate of x sits on a sign boundary
        engine = resolvents.build_engine(f, v, gamma)
        strategy = engine._strategy
        grid = [np.array(p) for p in itertools.product(np.arange(-3.0, 3.5, 0.5) * gamma, repeat=2)]
        several = 0
        for w in _seeded_inputs(2, 300, seed=31) + grid:
            cold, first = resolvents._invert_sign(strategy, w)
            y = w - strategy.offset
            consistent = [i for i, p in enumerate(strategy.patterns) if resolvents._solve_pattern(p, y) is not None]
            tie = len(consistent) > 1
            several += tie
            for start in [*range(len(strategy.patterns)), -1, len(strategy.patterns)]:
                warm, accepted = resolvents._invert_sign(strategy, w, start)
                assert warm.tobytes() == cold.tobytes() or (tie and np.allclose(warm, cold, rtol=0.0, atol=1e-12))
                assert accepted == (start if start in consistent else first)
            out = resolvents.transformed(engine, w, first)
            assert out.pattern == first and out.preimage.tobytes() == cold.tobytes()
        assert several > 0

    def test_output_names_the_accepted_pattern(self):
        engine, _, _ = sign_engine()
        assert engine._strategy.diagonal is None
        out = resolvents.transformed(engine, np.array([3.0, 1.0]))
        assert out.pattern is not None
        assert resolvents._solve_pattern(
            engine._strategy.patterns[out.pattern], np.array([3.0, 1.0])
        ).tobytes() == out.preimage.tobytes()
        assert resolvents.transformed(qp_engine()[0], np.ones(2), 3).pattern is None
        diagonal = resolvents.build_engine(ops.SignBlock(1.0, (0, 1)), ops.Scale(2.0, ops.Pointwise("identity")), 1.0, dim=2)
        assert resolvents.transformed(diagonal, np.array([3.0, 0.5]), 0).pattern is None

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
        s = 0.5 * gamma
        for w in _seeded_inputs(2, 300, seed=33):
            expected = np.zeros(2)
            for i in range(2):
                # the soft-threshold of row i, whose interval [-s, s] maps to 0
                r = w[i] - offset[i]
                expected[1 - i] = (r - s if r > s else r + s if r < -s else 0.0) / slopes[i]
            assert resolvents.transformed(engine, w).preimage.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_table_equals_the_pattern_by_pattern_build(self, n):
        # the reference factors each pattern's subsystem on its own; the
        # table shares one per set of pinned rows and must equal it bitwise.
        # Row 0 of the second matrix leaves some subsystems singular
        rng = SplitMix64(40 + n)
        generic = rng.normal(n * n).reshape(n, n)
        for matrix in (generic, np.vstack((np.eye(n)[:1], generic[1:]))):
            scales = np.where(rng.uniform(n) < 0.8, rng.uniform(n, 0.1, 2.0), 0.0)
            sigma = np.argsort(rng.uniform(n))
            table = resolvents._pattern_table(scales, sigma, matrix)
            reference = _pattern_by_pattern(scales, sigma, matrix)
            assert len(table) == len(reference)
            for pattern, expected in zip(table, reference):
                fields = ("shift", "signs", "rows", "cols", "pinned", "pinned_matrix", "pinned_scales")
                arrays = [getattr(pattern, name) for name in fields]
                assert [(a.dtype, a.shape, a.tobytes()) for a in arrays] == [(a.dtype, a.shape, a.tobytes()) for a in expected[:-1]]
                fact, ref = pattern.factorization, expected[-1]
                assert (fact is None) == (ref is None)
                if ref is not None:
                    assert fact.perm.tobytes() == ref.perm.tobytes() and fact.packed.tobytes() == ref.packed.tobytes()


def _pattern_by_pattern(scales, sigma, matrix):
    """Each sign pattern's arrays in (+, -, 0) order whose subsystem has no
    zero pivot, every subsystem factored on its own."""
    signed = np.flatnonzero(scales > 0.0)
    found = []
    for pattern in itertools.product((1.0, -1.0, 0.0), repeat=signed.size):
        p = np.zeros(scales.size)
        p[signed] = pattern
        pinned = signed[p[signed] == 0.0]
        rows = np.setdiff1d(np.arange(scales.size), pinned)
        fact = linalg.lu_factorize(matrix[np.ix_(rows, sigma[rows])], pivot_rtol=0.0) if rows.size else None
        if fact is None or not fact.singular:
            signs = np.zeros(scales.size)
            signs[sigma] = p
            found.append(((scales * p)[rows], signs, rows, sigma[rows], pinned, matrix[pinned], scales[pinned], fact))
    return found


def _sample_points(n, count, seed, low=-8.0, high=8.0):
    rng = SplitMix64(seed)
    return [rng.uniform(n, low, high) for _ in range(count)]


def general_solve_pattern(pattern, y):
    """`resolvents._solve_pattern` as it was before its fast paths: one path
    for every pattern, the reductions through ndarray.min and .max. The fast
    paths must give its verdict and its x bitwise."""
    x = np.zeros(y.size)
    if pattern.factorization is not None:
        x[pattern.cols] = linalg.lu_solve(pattern.factorization, y[pattern.rows] - pattern.shift)
    low = (pattern.signs * x).min()
    if low < 0.0 and -low * pattern.column_total > resolvents._roundoff(pattern, y, x):
        return None
    if pattern.pinned.size:
        passed = (np.abs(y[pattern.pinned] - pattern.pinned_matrix @ x) - pattern.pinned_scales).max()
        if passed > 0.0 and passed > resolvents._roundoff(pattern, y, x):
            return None
    return x


def _seeded_sign_strategy(n, seed, all_signed, size):
    """A sign strategy on n rows from a seeded stream, with its scales and
    matrix entries at magnitude `size`: every row signed, or the first half
    of them. M[:, sigma] is L L^T / n + 0.1 I plus a skew part, from normal
    L and skew entries, so the build would certify it. Its table is built
    directly: at n = 1 the build takes the soft-threshold instead."""
    rng = SplitMix64(seed)
    sigma = np.argsort(rng.uniform(n, 0.0, 1.0))
    scales = size * rng.uniform(n, 0.1, 2.0)
    if not all_signed:
        scales[(n + 1) // 2 :] = 0.0
        # rows without a Sign term take the leftover variables in increasing order
        sigma[(n + 1) // 2 :] = np.sort(sigma[(n + 1) // 2 :])
    low, skew = rng.normal(2 * n * n).reshape(2, n, n)
    matrix = np.empty((n, n))
    matrix[:, sigma] = size * (low @ low.T / n + 0.1 * np.eye(n) + skew - skew.T)
    return resolvents._SignStrategy(
        scales, sigma, matrix, np.zeros(n), None, resolvents._pattern_table(scales, sigma, matrix), True
    )


def _edge_inputs(scales, count, seed):
    """Inputs whose entries each come from the edge values of their row:
    +-0.0, +-s exactly and one ulp either side, -(s + 1) and 3s, subnormals,
    or a normal draw of magnitude 1e-3 to 1e12."""
    rng = SplitMix64(seed)
    inputs = []
    for _ in range(count):
        picks, normals = rng.uniform(scales.size, 0.0, 1.0), rng.normal(scales.size)
        powers = rng.uniform(scales.size, -3.0, 12.0)
        y = np.empty(scales.size)
        for i, s in enumerate(scales):
            pool = (0.0, -0.0, s, -s, np.nextafter(s, np.inf), np.nextafter(s, 0.0), np.nextafter(-s, -np.inf),
                    np.nextafter(-s, 0.0), -(s + 1.0), 3.0 * s, _TINY, -_TINY, 2.5e-310, -1.7e-312,
                    normals[i] * 10.0 ** powers[i])
            y[i] = pool[int(picks[i] * len(pool))]
        inputs.append(y)
    return inputs


class TestPatternFastPaths:
    @pytest.mark.parametrize("size", [1.0, 1e12])
    @pytest.mark.parametrize("n, all_signed", [(n, True) for n in (1, 2, 3, 4)] + [(n, False) for n in (2, 3, 4)])
    def test_verdict_and_x_bitwise_equal_to_the_general_path(self, n, all_signed, size):
        # the pattern that pins every row exists only where every row is signed
        seen = {}
        for seed in (n, 10 + n):
            strategy = _seeded_sign_strategy(n, seed, all_signed, size)
            assert strategy is not None and strategy.diagonal is None
            for y in _edge_inputs(strategy.scales, 100, seed):
                for pattern in strategy.patterns:
                    expected, x = general_solve_pattern(pattern, y), resolvents._solve_pattern(pattern, y)
                    assert (x is None) == (expected is None)
                    assert x is None or x.tobytes() == expected.tobytes()
                    seen[pattern.factorization is None, x is None] = True
        assert (all_signed, False) in seen and (all_signed, True) in seen
        assert all_signed or (False, False) in seen and (False, True) in seen

    @pytest.mark.parametrize("size", [1.0, 1e12])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_overflowed_entry_raises_on_both_paths_at_the_kink_pattern(self, n, size):
        # a shift y = w - offset that overflowed to +-inf in one row passes
        # that row's box by inf, and the acceptance bound refuses it
        strategy = _seeded_sign_strategy(n, 20 + n, True, size)
        kink = [p for p in strategy.patterns if p.factorization is None]
        assert len(kink) == 1
        for y in _edge_inputs(strategy.scales, 10, 30 + n):
            for row, entry in itertools.product(range(n), (np.inf, -np.inf)):
                y_over = y.copy()
                y_over[row] = entry
                for solve in (general_solve_pattern, resolvents._solve_pattern):
                    with pytest.raises(NonFiniteIterateError, match="resolvent input minus the offset overflows"):
                        solve(kink[0], y_over)


class TestResolventInvariants:
    def test_membership_warped(self):
        gamma = 1.0
        for engine, f, v, n in [(*sign_engine(gamma), 2), (*qp_engine(gamma=gamma), 2)]:
            for x in _sample_points(n, 50, seed=21):
                out = resolvents.warped(engine, x)
                resid = ops.evaluate_point(v, x) - out.image
                fz = f.evaluate(out.preimage)
                assert np.all(resid >= gamma * fz.lower - 1e-9)
                assert np.all(resid <= gamma * fz.upper + 1e-9)

    def test_membership_transformed(self):
        gamma = 1.0
        for engine, f, v, n in [(*sign_engine(gamma), 2), (*qp_engine(gamma=gamma), 2)]:
            for x in _sample_points(n, 50, seed=22):
                out = resolvents.transformed(engine, x)
                resid = x - out.image
                fz = f.evaluate(out.preimage)
                assert np.all(resid >= gamma * fz.lower - 1e-9)
                assert np.all(resid <= gamma * fz.upper + 1e-9)

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


EPS = np.finfo(float).eps


class ShiftedKkt:
    """The pair (Ax - b, (A + 2 kappa I) x) on a generated consistent system,
    with kappa = fraction * |alpha| and its gamma = 1 engine.

    `roundoff` is n * eps * cond(2A + 2 kappa I), taken from the planted
    spectrum: the relative error that a backward stable solve with F + v
    leaves, and the unit of every slack below.
    """

    def __init__(self, n, seed, fraction):
        self.system = apps.generate_consistent_system(n, seed)
        lam = self.system.eigenvalues
        kappa = fraction * np.abs(lam[lam != 0.0]).min()
        self.f, self.v = apps.kkt_operator_pair(self.system.matrix, self.system.rhs, kappa)
        self.engine = resolvents.build_engine(self.f, self.v, 1.0)
        shifted = np.abs(2.0 * lam + 2.0 * kappa)
        self.roundoff = n * EPS * shifted.max() / shifted.min()
        self.v_norm = np.abs(lam + 2.0 * kappa).max()
        self.points = SplitMix64(seed + 1)


# n up to 160 gives the LU one to three diagonal blocks. Down to a fraction
# of 1e-6, a point with a kernel component has a preimage near x / (2 kappa),
# about 1e6 times larger than the point
SHIFTED_KKT = st.builds(
    ShiftedKkt,
    st.integers(1, 160),
    st.integers(0, 2**32),
    st.floats(1e-6, 0.5, exclude_max=True),
)


class TestShiftedKktProperties:
    @given(SHIFTED_KKT)
    @settings(max_examples=40, deadline=None)
    def test_transformed_is_firmly_nonexpansive(self, pair):
        n = pair.engine.dim
        for _ in range(3):
            x, y = pair.points.uniform(n, -8.0, 8.0), pair.points.uniform(n, -8.0, 8.0)
            dx = x - y
            dt = resolvents.transformed(pair.engine, x).image - resolvents.transformed(pair.engine, y).image
            slack = 10.0 * pair.roundoff * (np.linalg.norm(x) + np.linalg.norm(y)) * np.linalg.norm(dx)
            assert float(dt @ dt) <= float(dx @ dt) + slack

    @given(SHIFTED_KKT)
    @settings(max_examples=40, deadline=None)
    def test_kernel_image_of_the_solution_is_fixed(self, pair):
        v_star = ops.evaluate_point(pair.v, pair.system.solution)
        image = resolvents.transformed(pair.engine, v_star).image
        assert np.linalg.norm(image - v_star) <= 10.0 * pair.roundoff * np.linalg.norm(v_star)

    @given(SHIFTED_KKT)
    @settings(max_examples=40, deadline=None)
    def test_gppa_residual_is_nonincreasing(self, pair):
        x0 = pair.points.uniform(pair.engine.dim, -8.0, 8.0)
        cfg = solvers.SolverConfig(max_iters=50, tol_residual=0.0, trace_level=solvers.TraceLevel.FULL)
        res = solvers.gppa(pair.f, pair.v, x0, cfg)
        # the residual ||v(x_n) - v(x_n+1)|| carries the roundoff of v at
        # the largest iterate
        slack = 10.0 * pair.roundoff * pair.v_norm * max(np.linalg.norm(x) for x in res.trace.iterates)
        residuals = res.trace.residuals
        assert len(residuals) == res.iterations >= 1
        assert all(later <= earlier + slack for earlier, later in zip(residuals, residuals[1:]))


class SignAffinePair:
    """F = SignBlock(s, sigma) + Affine(B, d) and v = Permutation(sigma), the
    sign-swap family, with its gamma = 1 engine.

    B = P S, P being v's matrix, so sym(P^T B) = sym(S) = L L^T is positive
    semidefinite of the drawn rank; with the monotone Sign terms the pair is
    then monotone. d plants the zero x*, whose coordinates are all nonzero.
    s, B and d are multiplied by `scale`.

    `unit(x, z)` is the roundoff of one evaluation at x with preimage z:
    n * eps * |M^-1| times the magnitude |x| + |d| + s sqrt(n) + |M| |z| of
    the terms the solve sums, M = B + P being the matrix of gamma*F + v.
    The engine is built on first use, as the solvers build their own.
    """

    def __init__(self, sigma, rank, skewed, scale, seed):
        n = len(sigma)
        rng = SplitMix64(seed)
        low = rng.normal(n * rank).reshape(n, rank)
        skew = rng.normal(n * n).reshape(n, n) if skewed else np.zeros((n, n))
        self.v = ops.Permutation(sigma)
        p = self.v.as_matrix()
        b = scale * (p @ (low @ low.T + skew - skew.T))
        self.matrix = b + p
        self.s = scale * rng.uniform(1, 0.1, 2.0)[0]
        self.x_star = rng.uniform(n, 0.5, 3.0) * rng.sign(n)
        self.d = -(self.s * np.sign(self.x_star[list(sigma)]) + b @ self.x_star)
        self.f = ops.Sum((ops.SignBlock(self.s, sigma), ops.Affine(b, self.d)))
        self.points = rng

    @functools.cached_property
    def engine(self):
        return resolvents.build_engine(self.f, self.v, 1.0)

    def unit(self, x, z):
        m, n = self.matrix, self.matrix.shape[0]
        data = np.linalg.norm(x) + np.linalg.norm(self.d) + self.s * np.sqrt(n)
        return n * EPS * np.linalg.norm(np.linalg.inv(m), 2) * (data + np.linalg.norm(m, 2) * np.linalg.norm(z))

    def planted_unit(self, w, z):
        """The roundoff of T(w) at a preimage z with zero coordinates. A
        pattern's x solves the inclusion for some w' within n * eps *
        (|w| + |d| + |M| |z| + s) of w, a bound that also covers building w
        as s * sel + M z + d. The map u -> s*Sign(u) + M[:, sigma] u is
        mu-strongly monotone in u = x[sigma] = v(x), mu being the least
        eigenvalue of sym(M[:, sigma]), so v of the preimage moves by at most
        |w' - w| / mu. `unit`'s |M^-1| bounds only a solve with all of M; a
        pattern's kept subsystem can be far worse conditioned."""
        n = self.matrix.shape[0]
        permuted = self.matrix[:, list(self.v.perm)]
        mu = np.linalg.eigvalsh(0.5 * (permuted + permuted.T))[0]
        terms = np.abs(w) + np.abs(self.d) + np.abs(self.matrix) @ np.abs(z) + self.s
        return n * EPS * np.linalg.norm(terms) / mu

    def planted_input(self, zero, selection):
        """x_star with the coordinates `zero` set to 0, and the input w =
        s * sel + M z + d that takes it, sel being `selection` on the rows
        that read a zeroed variable and the sign of z elsewhere."""
        z = np.where(zero, 0.0, self.x_star)
        picked = z[list(self.v.perm)]
        return z, self.s * np.where(picked == 0.0, selection, np.sign(picked)) + self.matrix @ z + self.d


# n <= 8 is the sign-pattern table's limit. sym(M[:, sigma]) = I + scale *
# sym(S) is definite, and the build certifies it except at scale 1e12 with
# rank < n, where it refuses the pair and the property rejects the draw.
# At scales 1e12 and 1e-6 the data are far from 1, so any absolute
# tolerance in _solve_pattern would be too tight at one and too loose at the
# other; its roundoff bound scales with the data instead
SIGN_AFFINE = st.integers(1, 8).flatmap(
    lambda n: st.builds(
        SignAffinePair,
        st.permutations(range(n)),
        st.integers(0, n),
        st.booleans(),
        st.sampled_from([1.0, 1e-6, 1e12]),
        st.integers(0, 2**32),
    )
)


def _supported(pair):
    # at scale 1e12 with rank < n the build cannot certify the pair and
    # refuses it (UnsupportedStructureError), which is not a wrong answer
    try:
        pair.engine
    except UnsupportedStructureError:
        reject()
    return pair


class TestSignAffineProperties:
    @given(SIGN_AFFINE)
    @settings(max_examples=15, deadline=None)
    def test_transformed_is_firmly_nonexpansive(self, pair):
        engine = _supported(pair).engine
        for _ in range(3):
            x, y = pair.points.uniform(engine.dim, -8.0, 8.0), pair.points.uniform(engine.dim, -8.0, 8.0)
            ox, oy = resolvents.transformed(engine, x), resolvents.transformed(engine, y)
            dx, dt = x - y, ox.image - oy.image
            slack = 10.0 * (pair.unit(x, ox.preimage) + pair.unit(y, oy.preimage)) * np.linalg.norm(dx)
            assert float(dt @ dt) <= float(dx @ dt) + slack

    @given(SIGN_AFFINE)
    @settings(max_examples=15, deadline=None)
    def test_kernel_image_of_the_planted_zero_is_fixed(self, pair):
        v_star = ops.evaluate_point(pair.v, pair.x_star)
        image = resolvents.transformed(_supported(pair).engine, v_star).image
        assert np.linalg.norm(image - v_star) <= 10.0 * pair.unit(v_star, pair.x_star)

    @pytest.mark.parametrize("solver", ["gppa", "gppa1"])
    @given(pair=SIGN_AFFINE)
    @settings(max_examples=10, deadline=None)
    def test_residual_is_nonincreasing(self, solver, pair):
        x0 = pair.points.uniform(pair.matrix.shape[0], -8.0, 8.0)
        cfg = solvers.SolverConfig(max_iters=50, tol_residual=0.0, trace_level=solvers.TraceLevel.FULL)
        try:
            res = getattr(solvers, solver)(pair.f, pair.v, x0, cfg)
        except UnsupportedStructureError:
            reject()  # as in _supported
        # v is an isometry, so every input and preimage of the run is as
        # long as some recorded iterate; a residual compares two evaluations
        big = max(np.linalg.norm(x) for x in res.trace.iterates)
        slack = 20.0 * pair.unit(big, big)
        residuals = res.trace.residuals
        assert len(residuals) == res.iterations >= 1
        assert all(later <= earlier + slack for earlier, later in zip(residuals, residuals[1:]))

    @given(SIGN_AFFINE)
    @settings(max_examples=15, deadline=None)
    def test_planted_preimages_with_zero_coordinates(self, pair):
        # the Sign selections of the zero coordinates sit on the box edge or
        # 1e-13 to 1e-1 inside it; a certified engine has z as the only
        # preimage of w, so T(w) = v(z), and w is in range
        engine = _supported(pair).engine
        n, rng = engine.dim, pair.points
        for _ in range(8):
            zero = rng.uniform(n) < 0.5
            zero[int(rng.uniform(1, 0.0, n)[0])] = True
            depth = np.floor(rng.uniform(n, 0.0, 14.0))
            z, w = pair.planted_input(zero, rng.sign(n) * (1.0 - np.where(depth > 0.0, 10.0**-depth, 0.0)))
            image = resolvents.transformed(engine, w).image
            assert np.linalg.norm(image - ops.evaluate_point(pair.v, z)) <= 10.0 * pair.planted_unit(w, z)

    def test_wrong_sign_by_roundoff_at_scale_1e12(self):
        # a draw of the property above: z has zeros at variables 2 and 4, and
        # the row reading variable 2 selects the box edge +1. The pattern
        # that pins x4 and takes Sign(x2) = +1 comes before the one that pins
        # both, and gives x2 = -1e-16, a wrong sign that setting x2 to zero
        # undoes within roundoff. Exact sign tests raised NotInRangeError
        # here while the table lacked the pattern that pins both
        pair = SignAffinePair([4, 0, 1, 3, 2], 0, True, 1e12, 3445961160)
        zero = np.array([False, False, True, False, True])
        z, w = pair.planted_input(zero, np.array([0.999, 0.0, 0.0, 0.0, 1.0]))
        out = resolvents.transformed(pair.engine, w)
        assert list(pair.engine._strategy.patterns[out.pattern].signs) == [-1.0, -1.0, 1.0, -1.0, 0.0]
        assert out.preimage[2] < 0.0
        assert np.linalg.norm(out.image - ops.evaluate_point(pair.v, z)) <= 10.0 * pair.planted_unit(w, z)

    def test_ill_conditioned_subsystem_of_a_certified_engine(self):
        # a draw of the planted property: z has a zero at variable 1, and
        # row 2, which reads it, selects -0.99. The pattern that pins row 2
        # has a 3x3 subsystem with singular values (3.8e12, 3.8e12, 1), and a
        # relative pivot test dropped it from the table; no other pattern
        # took w, which raised NotInRangeError. The engine is certified, so
        # no kept subsystem is singular and the table holds all 3^4 patterns
        pair = SignAffinePair([0, 2, 1, 3], 0, True, 1e12, 481)
        z, w = pair.planted_input(np.array([False, True, False, False]), np.array([0.0, 0.0, -0.99, 0.0]))
        strategy = pair.engine._strategy
        assert len(strategy.patterns) == 3**4
        out = resolvents.transformed(pair.engine, w)
        assert list(strategy.patterns[out.pattern].signs) == [-1.0, 0.0, -1.0, 1.0]
        assert np.linalg.norm(out.image - ops.evaluate_point(pair.v, z)) <= 10.0 * pair.planted_unit(w, z)

    def test_uncertified_engine_with_ill_conditioned_subsystems_is_refused(self):
        # a draw of the first property: sym(M[:, sigma]) = I + 1e12 * L L^T
        # has eigenvalues from 1 to 7e12, too spread for the certificate.
        # Three subsystems have least singular value 1 against a largest of
        # 4e12 to 7e12; a relative pivot test dropped their 48 patterns, and
        # a transformed input raised NotInRangeError
        pair = SignAffinePair([0, 3, 2, 1, 4], 3, False, 1e12, 115)
        with pytest.raises(UnsupportedStructureError, match="not certified single-valued"):
            pair.engine

    def test_pinned_row_on_its_box_bound_at_scale_1e12(self):
        # a planted input whose zero coordinate's row selects the box edge
        # +1: the accepted pattern pins that row, and its residual passes the
        # half-width s by 3.7e-4 of roundoff, more than an absolute box slack
        # of 1e-9 allows but within n*eps*(|y| + |M||x| + s). A draw of rank
        # 1 that hit such a kink in gppa is no longer built
        pair = SignAffinePair([0, 1, 2], 3, False, 1e12, 0)
        zero = np.array([False, False, True])
        z, w = pair.planted_input(zero, np.array([0.0, 0.0, 1.0]))
        out = resolvents.transformed(pair.engine, w)
        pattern = pair.engine._strategy.patterns[out.pattern]
        assert pattern.pinned.tolist() == [2] and out.preimage[2] == 0.0
        y = w - pair.engine._strategy.offset
        passed = np.abs(y[2] - pattern.pinned_matrix[0] @ out.preimage) - pattern.pinned_scales[0]
        assert 1e-9 < passed <= resolvents._roundoff(pattern, y, out.preimage)
        assert np.linalg.norm(out.image - ops.evaluate_point(pair.v, z)) <= 10.0 * pair.planted_unit(w, z)


class RowScaledSign:
    """F = SignBlock(s, perm) + Affine(m) and v = Affine(diag(c)) at step
    gamma, from one of two scanned families, each drawn from numpy's
    default_rng(seed) with n from 2 to 4 and s = 10^U(-4, 4):

    - "row-scaled": m normal with each row scaled by 10^U(-8, 8), perm
      random, c = 10^U(-1, 1) per coordinate. Few draws are certified;
    - "skew": m = diag(10^U(4, 11.5), 1, ..., 1) plus B - B^T, B normal
      scaled by 10^U(0, 13), perm the identity and c = 1. sym(gamma*m + I)
      is then diagonal, and certified up to a first entry of about 1e10.

    `certified` is the build's certificate on the array that the build
    forms; `mu`, the least eigenvalue of sym((gamma*m + diag(c))[:, perm]),
    is the strong monotonicity modulus of gamma*F + v in u = x[perm].
    """

    def __init__(self, m, s, perm, c, gamma, seed):
        self.m, self.s, self.perm, self.c, self.gamma = m, s, list(perm), np.asarray(c, dtype=float), gamma
        self.f = ops.Sum((ops.SignBlock(s, tuple(self.perm)), ops.Affine(m)))
        self.v = ops.Affine(np.diag(self.c))
        permuted = (gamma * m + np.diag(self.c))[:, self.perm]
        eig = np.linalg.eigvalsh(0.5 * permuted + 0.5 * permuted.T)
        self.certified = bool(eig[0] > resolvents._CERTIFICATE_RTOL * np.abs(eig).max())
        self.mu = eig[0]
        self.rng = np.random.default_rng(seed)

    @classmethod
    def draw(cls, kind, seed, gamma):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        s = 10.0 ** rng.uniform(-4.0, 4.0)
        if kind == "row-scaled":
            m = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (n, 1))
            return cls(m, s, rng.permutation(n), 10.0 ** rng.uniform(-1.0, 1.0, n), gamma, seed)
        b = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(0.0, 13.0)
        m = np.diag([10.0 ** rng.uniform(4.0, 11.5)] + [1.0] * (n - 1)) + b - b.T
        return cls(m, s, range(n), np.ones(n), gamma, seed)

    def terms(self, w, x):
        """Per row, the magnitudes |w| + gamma*(s + |m||x|) + c|x| of the
        terms that w = gamma*F(x) + v(x) sums."""
        return np.abs(w) + self.gamma * (self.s + np.abs(self.m) @ np.abs(x)) + self.c * np.abs(x)


_SKEW_1E13 = np.array([[1.0, 1e13, 0.0], [-1e13, 1.0, 0.0], [0.0, 0.0, 1.0]])


class TestRowScaledSignSystems:
    @given(
        st.builds(
            RowScaledSign.draw,
            st.sampled_from(["row-scaled", "skew"]),
            st.integers(0, 2**32 - 1),
            st.sampled_from([0.5, 1.0, 2.0]),
        )
    )
    # sym(M) is the identity, so the system is certified, but the full LU's
    # last pivot, 1, fell under a relative pivot test of 1e-12 * 1e13, and
    # the build refused it
    @example(RowScaledSign(_SKEW_1E13, 1.0, range(3), np.ones(3), 1.0, 0))
    # the eighth planted input, z_0 = 0 with its row 1e-10 inside the box:
    # the pattern that pins row 0 keeps an ill-conditioned 3x3 block, whose
    # forward error moves row 0 past the roundoff bound, and the patterns
    # that free x_0 return it as -1.4e-14 or 1.6e-15, a wrong sign that the
    # bound misses by 0.3% at best. About 4e-5 of the planted inputs of
    # certified "skew" draws end this way
    @example(RowScaledSign.draw("skew", 1578, 1.0)).xfail(
        raises=NotInRangeError, reason="roundoff of an ill-conditioned kept subsystem"
    )
    # derandomized, so that a run draws the same cases as every other run
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_certified_draws_invert_in_range_inputs_and_others_are_refused(self, case):
        if not case.certified:
            with pytest.raises(UnsupportedStructureError, match="not certified single-valued"):
                resolvents.build_engine(case.f, case.v, case.gamma)
            return
        engine = resolvents.build_engine(case.f, case.v, case.gamma)
        n, rng = engine.dim, case.rng
        for _ in range(5):
            # z free of zeros: gamma*F(z) is a point, and the preimage is z
            z = rng.uniform(0.5, 3.0, n) * rng.choice([-1.0, 1.0], n)
            w = case.gamma * case.f.evaluate(z).lower + ops.evaluate_point(case.v, z)
            x = resolvents.transformed(engine, w).preimage
            r, fx = w - ops.evaluate_point(case.v, x), case.f.evaluate(x)
            miss = np.maximum(np.maximum(case.gamma * fx.lower - r, r - case.gamma * fx.upper), 0.0)
            assert np.all(miss <= 1e-6 * case.terms(w, x))
        for _ in range(8):
            # planted zeros, whose rows select the box edge or 1e-13 to 1e-1
            # inside it: a preimage off by roundoff may flip Sign there, so
            # the image is measured by its distance to v(z). w' within
            # n*eps*|terms| of w moves u = x[perm] by at most that over mu
            z = rng.uniform(0.5, 3.0, n) * rng.choice([-1.0, 1.0], n)
            z[rng.uniform(size=n) < 0.5] = 0.0
            z[rng.integers(n)] = 0.0
            depth = np.floor(rng.uniform(0.0, 14.0, n))
            selection = rng.choice([-1.0, 1.0], n) * (1.0 - np.where(depth > 0.0, 10.0**-depth, 0.0))
            picked = z[case.perm]
            sel = np.where(picked == 0.0, selection, np.sign(picked))
            w = case.gamma * (case.s * sel + case.m @ z) + case.c * z
            image = resolvents.transformed(engine, w).image
            bound = 10.0 * case.c.max() * n * EPS * np.linalg.norm(case.terms(w, z)) / case.mu
            assert np.linalg.norm(image - ops.evaluate_point(case.v, z)) <= bound
