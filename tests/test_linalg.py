import ast
import dataclasses
import math
import pathlib
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pairprox import applications, cli, linalg, operators, resolvents, rng, solvers
from pairprox.applications import QPProblem, generate_consistent_system, write_qp
from pairprox.errors import (
    DimensionMismatchError,
    NonSquareError,
    NotSymmetricError,
    SingularMatrixError,
)
from pairprox.rng import SplitMix64
from test_applications import KAPPA_HIGH
from test_resolvents import _kkt_type_pair

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "pairprox"
KKT_EXAMPLE = np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0], [1.0, 1.0, 0.0]])


def _is_float_annotation(node) -> bool:
    """Whether an annotation is float or tuple[float, ...], or a union with
    one of them, such as float | None."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _is_float_annotation(node.left) or _is_float_annotation(node.right)
    if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "tuple":
        entries = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        return all(getattr(e, "id", None) == "float" or getattr(e, "value", None) is Ellipsis for e in entries)
    return getattr(node, "id", None) == "float"


def _float_parameters() -> list[str]:
    """The labels of pairprox's public parameters and dataclass fields
    annotated float or tuple[float, ...]: of functions, of methods and of
    the fields of classes, whose names do not start with an underscore."""
    labels = []

    def visit(label, node):
        if isinstance(node, ast.FunctionDef):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            labels.extend(f"{label}.{node.name}.{a.arg}" for a in args if a.annotation and _is_float_annotation(a.annotation))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and _is_float_annotation(item.annotation):
                    labels.append(f"{label}.{node.name}.{item.target.id}")
                elif isinstance(item, (ast.FunctionDef, ast.ClassDef)) and not item.name.startswith("_"):
                    visit(f"{label}.{node.name}", item)

    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                visit(path.stem, node)
    return labels


def _catalogue_cases(sites, values, none_unsets):
    """Each site with each bad value, but for None where None is a value of
    the parameter and for inf where the interval holds it."""
    return [
        pytest.param(site, value, id=f"{site[0]}-{key}")
        for site in sites
        for key, value in values.items()
        if not (value is None and site[0] in none_unsets) and not (value == math.inf and site[2].endswith("inf]"))
    ]


def random_spd_spectrum_matrix(n, seed, lo, hi):
    """Symmetric matrix with |eigenvalues| in [lo, hi] via a random rotation."""
    rng = SplitMix64(seed)
    g = rng.normal(n * n).reshape(n, n)
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    lam = rng.uniform(n, lo, hi) * rng.sign(n)
    return (q * lam) @ q.T


class TestLU:
    def test_identity(self):
        fact = linalg.lu_factorize(np.eye(3))
        assert not fact.singular
        assert np.allclose(np.diag(fact.packed), 1.0)

    def test_zero_pivot_flags_singular(self):
        assert linalg.lu_factorize(np.diag([1.0, 0.0])).singular
        assert linalg.lu_factorize(np.zeros((2, 2))).singular

    def test_pivot_rtol_sets_the_singular_threshold(self):
        # the pivot 1 is below 1e-12 * 1e13; at rtol 0 only a zero pivot flags
        a = np.diag([1e13, 1.0])
        assert linalg.lu_factorize(a).singular
        fact = linalg.lu_factorize(a, pivot_rtol=0.0)
        assert not fact.singular
        assert np.array_equal(linalg.lu_solve(fact, np.array([1e13, 2.0])), np.array([1.0, 2.0]))
        assert linalg.lu_factorize(np.diag([1.0, 0.0]), pivot_rtol=0.0).singular

    @pytest.mark.parametrize(
        "a",
        [[[1e-320, 0.0], [0.0, 0.0]], [[1e-320, 1e-320], [1e-320, 1e-320]]],
        ids=["zero-entry", "eliminated-to-zero"],
    )
    def test_zero_pivot_flags_singular_where_the_threshold_underflows(self, a):
        # 1e-12 * max|A| underflows to 0 on subnormal data, so the zero
        # pivot is not below it; inverting its block raised LinAlgError
        assert linalg.lu_factorize(np.array(a)).singular

    @pytest.mark.parametrize(
        "a",
        [
            # partial pivoting doubles the last column three times: U[3, 3]
            # is inf, and its inverse read 0, so solves were finite but wrong
            4e307 * np.array([[1.0, 0.0, 0.0, 1.0], [-1.0, 1.0, 0.0, 1.0], [-1.0, -1.0, 1.0, 1.0], [-1.0, -1.0, -1.0, 1.0]]),
            # the pivot 1e-311 passes 1e-12 * max|A|, but 1/1e-311 is inf,
            # and every solve was NaN
            np.diag([1e-300, 1e-311]),
        ],
        ids=["growth", "inverse"],
    )
    def test_factors_past_the_float_maximum_are_a_value_error(self, a):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="overflows the float range"):
            linalg.lu_factorize(a)

    def test_hand_checked_solve(self):
        # A x = (0, 0, 2) has the hand-verifiable solution (1, 1, -2):
        # row sums 2-2=0, 2-2=0, 1+1=2
        fact = linalg.lu_factorize(KKT_EXAMPLE)
        x = linalg.lu_solve(fact, np.array([0.0, 0.0, 2.0]))
        assert np.allclose(x, [1.0, 1.0, -2.0], atol=1e-12)

    def test_solve_identity_and_diagonal(self):
        b = np.array([3.0, -4.0])
        assert np.array_equal(linalg.lu_solve(linalg.lu_factorize(np.eye(2)), b), b)
        x = linalg.lu_solve(linalg.lu_factorize(np.diag([2.0, 4.0])), np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0])

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            linalg.lu_factorize(np.ones((2, 3)))

    def test_singular_solve_rejected(self):
        fact = linalg.lu_factorize(np.diag([1.0, 0.0]))
        with pytest.raises(SingularMatrixError):
            linalg.lu_solve(fact, np.ones(2))

    def test_dimension_mismatch(self):
        fact = linalg.lu_factorize(np.eye(3))
        with pytest.raises(DimensionMismatchError):
            linalg.lu_solve(fact, np.ones(2))

    def test_blocking_matches_unblocked(self):
        rng = SplitMix64(5)
        a = rng.normal(90 * 90).reshape(90, 90) + 90 * np.eye(90)
        b = rng.normal(90)
        x_small = linalg.lu_solve(linalg.lu_factorize(a, block=7), b)
        x_big = linalg.lu_solve(linalg.lu_factorize(a, block=256), b)
        assert np.allclose(x_small, x_big, atol=1e-12)

    def test_residual_bound_on_seeded_well_conditioned(self):
        # condition number capped at 1e4 through the constructed spectrum
        for trial in range(100):
            n = 2 + trial % 37
            a = random_spd_spectrum_matrix(n, 1000 + trial, 0.01, 100.0)
            rng = SplitMix64(trial)
            b = rng.normal(n)
            x = linalg.lu_solve(linalg.lu_factorize(a), b)
            assert np.linalg.norm(a @ x - b) <= 1e-8 * (1 + np.linalg.norm(b))


BLOCKED_SIZES = (1, 2, 63, 64, 65, 128, 129, 300)
BLOCKS = (1, 7, 64, 256)
EPS = np.finfo(float).eps


def conditioned_system(n, seed):
    """Nonsymmetric A = Q1 diag(lam) Q2^T with lam in [0.1, 10] (condition
    number at most 100) and a Gaussian right-hand side."""
    rng = SplitMix64(seed)
    q1, _ = np.linalg.qr(rng.normal(n * n).reshape(n, n))
    q2, _ = np.linalg.qr(rng.normal(n * n).reshape(n, n))
    lam = rng.uniform(n, 0.1, 10.0)
    return (q1 * lam) @ q2.T, rng.normal(n)


def reference_elimination(a, block):
    """The panel elimination with partial pivoting that lu_factorize ran
    before it eliminated each panel in a transposed copy, swapping two full
    rows per column: (packed, perm, singular). A pivot below 1e-12 * max|A|,
    or a zero pivot, stops it as singular with the factors and permutation
    of that moment."""
    n = a.shape[0]
    lu = a.copy()
    perm = np.arange(n)
    maxabs = float(np.max(np.abs(a)))
    if maxabs == 0.0:
        return lu, perm, True
    threshold = 1e-12 * maxabs
    for j in range(0, n, block):
        jb = min(block, n - j)
        for k in range(j, j + jb):
            p = k + int(np.argmax(np.abs(lu[k:, k])))
            if abs(lu[p, k]) < threshold or lu[p, k] == 0.0:
                return lu, perm, True
            if p != k:
                lu[[k, p], :] = lu[[p, k], :]
                perm[[k, p]] = perm[[p, k]]
            lu[k + 1 :, k] /= lu[k, k]
            if k + 1 < j + jb:
                lu[k + 1 :, k + 1 : j + jb] -= lu[k + 1 :, k : k + 1] * lu[k : k + 1, k + 1 : j + jb]
        end = j + jb
        if end < n:
            panel = lu[j:end, j:end]
            tail = lu[j:end, end:]
            for r in range(1, jb):
                tail[r] -= panel[r, :r] @ tail[:r]
            lu[end:, end:] -= lu[end:, j:end] @ tail
    return lu, perm, False


def assert_elimination_matches_reference(fact, a, block):
    """`packed`, `perm` and the singular flag are bytes-equal to
    reference_elimination's, partial ones included."""
    packed, perm, singular = reference_elimination(a, block)
    assert fact.singular == singular
    assert fact.packed.tobytes() == packed.tobytes()
    assert fact.perm.tobytes() == perm.tobytes()


def strided_solve(fact, b):
    """The blocked substitution as lu_solve ran it before it kept the
    off-diagonal strips: every product reads its strided view of `packed`."""
    lu, n = fact.packed, fact.dim
    x = b[fact.perm]
    for start, stop, _strip, inverse in fact.lower_blocks:
        if start:
            x[start:stop] -= lu[start:stop, :start].dot(x[:start])
        x[start:stop] = inverse.dot(x[start:stop])
    for start, stop, _strip, inverse in fact.upper_blocks:
        if stop < n:
            x[start:stop] -= lu[start:stop, stop:].dot(x[stop:])
        x[start:stop] = inverse.dot(x[start:stop])
    return x


RHS_MAGNITUDES = tuple(10.0**e for e in range(-200, 201, 50))


def assert_solves_like_strided_reference(fact, seed):
    """Bitwise equal to strided_solve for Gaussian right-hand sides of every
    magnitude in RHS_MAGNITUDES, also with `packed` replaced by NaN."""
    blind = dataclasses.replace(fact, packed=np.full_like(fact.packed, np.nan))
    base = SplitMix64(seed).normal(fact.dim)
    for magnitude in RHS_MAGNITUDES:
        b = base * magnitude
        expected = strided_solve(fact, b)
        assert np.array_equal(linalg.lu_solve(fact, b), expected)
        # a solve that read `packed` would return NaN here
        assert np.array_equal(linalg.lu_solve(blind, b), expected)


def assert_strips_copy_packed(fact):
    """Each block's strip is a C-contiguous copy of its part of `packed`,
    and U's blocks are L's in reverse order."""
    lower = [(strip, fact.packed[start:stop, :start]) for start, stop, strip, _ in fact.lower_blocks]
    upper = [(strip, fact.packed[start:stop, stop:]) for start, stop, strip, _ in fact.upper_blocks]
    for strip, part in lower + upper:
        assert strip.flags.c_contiguous and np.array_equal(strip, part)
    assert [b[:2] for b in fact.lower_blocks] == [b[:2] for b in reversed(fact.upper_blocks)]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("n", BLOCKED_SIZES)
class TestBlockedSolve:
    def test_matches_numpy_solve(self, n, block):
        # backward error n*eps*(||A|| ||x|| + ||b||), forward error that
        # times cond(A) <= 100; both measured below 0.3 of these bounds
        a, b = conditioned_system(n, 1000 * n + block)
        x = linalg.lu_solve(linalg.lu_factorize(a, block=block), b)
        expected = np.linalg.solve(a, b)
        a_norm = np.linalg.norm(a)
        assert np.linalg.norm(a @ x - b) <= n * EPS * (a_norm * np.linalg.norm(x) + np.linalg.norm(b))
        assert np.linalg.norm(x - expected) <= 100.0 * n * EPS * np.linalg.norm(expected)

    def test_rhs_left_unmodified(self, n, block):
        a, b = conditioned_system(n, 7 * n + block)
        original = b.copy()
        linalg.lu_solve(linalg.lu_factorize(a, block=block), b)
        assert np.array_equal(b, original)

    def test_singular_flagged_and_raises(self, n, block):
        a, _ = conditioned_system(n, 3 * n + block)
        if n == 1:
            a[0, 0] = 0.0
        else:
            a[-1] = a[0]  # the duplicate row eliminates to exact zeros
        fact = linalg.lu_factorize(a, block=block)
        assert fact.singular
        assert_elimination_matches_reference(fact, a, block)
        with pytest.raises(SingularMatrixError):
            linalg.lu_solve(fact, np.ones(n))

    def test_elimination_bitwise_unchanged(self, n, block):
        a, _ = conditioned_system(n, 1000 * n + block)
        fact = linalg.lu_factorize(a, block=block)
        assert not fact.singular
        assert_elimination_matches_reference(fact, a, block)

    def test_solve_bitwise_equal_to_strided_reference(self, n, block):
        a, _ = conditioned_system(n, 1000 * n + block)
        fact = linalg.lu_factorize(a, block=block)
        assert_strips_copy_packed(fact)
        assert_solves_like_strided_reference(fact, 11 * n + block)


# (n, column): the first, a middle and the last column of a panel of the
# default block 64 is made to go singular; in a panel past the first, the
# partial factors hold the interchanges of rows left of the panel
SINGULAR_COLUMNS = (
    (63, 0), (63, 31), (63, 62), (64, 0), (64, 32), (64, 63),
    (65, 63), (65, 64), (129, 64), (129, 96), (129, 127), (129, 128),
)


@pytest.mark.parametrize("scale", (1e-300, 1.0, 1e300))
@pytest.mark.parametrize("how", ("zeroed", "dependent"))
@pytest.mark.parametrize("n, column", SINGULAR_COLUMNS)
def test_singular_column_stops_as_the_reference_does(n, column, how, scale):
    # a zeroed column stays exactly zero under elimination; a column that is
    # a combination of the columns before it eliminates to roundoff, far
    # below the pivot threshold 1e-12 * max|A|
    a, _ = conditioned_system(n, 100 * n + column)
    if how == "zeroed":
        a[:, column] = 0.0
    else:
        a[:, column] = a[:, :column] @ SplitMix64(n + column).normal(column)
    a *= scale
    fact = linalg.lu_factorize(a)
    assert fact.singular
    assert_elimination_matches_reference(fact, a, 64)


@pytest.mark.parametrize("scale", (1e-300, 1e300))
@pytest.mark.parametrize("n", (63, 64, 65, 129))
def test_elimination_at_extreme_scales_matches_the_reference(n, scale):
    a, _ = conditioned_system(n, 31 * n)
    a *= scale
    fact = linalg.lu_factorize(a)
    assert not fact.singular
    assert_elimination_matches_reference(fact, a, 64)


def zero_laden_matrix(n, seed, kind, scale):
    """A Gaussian matrix with about a fifth of its entries planted as +0.0
    and a fifth as -0.0, times `scale`. "dependent" replaces a column by a
    combination of the columns before it, and "zeroed" sets one to +0.0."""
    rng = SplitMix64(seed)
    a = rng.normal(n * n).reshape(n, n)
    u = rng.uniform(n * n).reshape(n, n)
    a[u < 0.2] = 0.0
    a[u > 0.8] = -0.0
    column = int(rng.uniform(1)[0] * n)
    if kind == "dependent" and column:
        a[:, column] = a[:, :column] @ rng.normal(column)
    elif kind == "zeroed":
        a[:, column] = 0.0
    return a * scale


def assert_factors_match_reference(fact, a, block):
    """`packed`, `perm`, the singular flag, the strips and the inverses are
    bytes-equal to what reference_elimination's factors give; np.array_equal
    would not tell -0.0 from +0.0."""
    assert_elimination_matches_reference(fact, a, block)
    if fact.singular:
        assert fact.lower_blocks == fact.upper_blocks == ()
        return
    packed = fact.packed
    bounds = [(j, min(j + block, a.shape[0])) for j in range(0, a.shape[0], block)]
    lower = [(j, end, packed[j:end, :j], np.linalg.inv(np.tril(packed[j:end, j:end], -1) + np.eye(end - j))) for j, end in bounds]
    upper = [(j, end, packed[j:end, end:], np.linalg.inv(np.triu(packed[j:end, j:end]))) for j, end in reversed(bounds)]
    for blocks, expected in ((fact.lower_blocks, lower), (fact.upper_blocks, upper)):
        assert [b[:2] for b in blocks] == [e[:2] for e in expected]
        for (_, _, strip, inverse), (_, _, part, inverted) in zip(blocks, expected):
            assert strip.tobytes() == np.ascontiguousarray(part).tobytes()
            assert inverse.tobytes() == inverted.tobytes()


@pytest.mark.parametrize("kind", ("signed-zeros", "dependent", "zeroed"))
@pytest.mark.parametrize("block", (1, 2, 3, 7, 64))
def test_zero_laden_factors_are_the_reference_bits(block, kind):
    # the whole-row updates subtract +0 from the columns they leave alone;
    # a -0 there, from a product with a nonzero entry, would turn a -0 of
    # the factors into +0
    singular = 0
    for n in (1, 2, 5, 9, 17, 40, 70, 130):
        for scale in (1e-300, 1.0, 1e300):
            a = zero_laden_matrix(n, 1000 * n + 10 * block + len(kind), kind, scale)
            fact = linalg.lu_factorize(a, block=block)
            assert_factors_match_reference(fact, a, block)
            singular += fact.singular
    # signed zeros reach the strips and inverses of nonsingular factors, the
    # planted columns stop the elimination mid-panel
    assert singular <= 6 if kind == "signed-zeros" else singular >= 18


@pytest.mark.parametrize("n", (65, 129, 130, 900, 1000))
def test_contiguous_strips_at_default_block(n):
    # diagonally dominant, so the pivots stay away from the singular flag
    rng = SplitMix64(n)
    a = rng.normal(n * n).reshape(n, n) + n * np.eye(n)
    fact = linalg.lu_factorize(a)
    assert len(fact.lower_blocks) == -(-n // 64)
    assert_strips_copy_packed(fact)
    assert_solves_like_strided_reference(fact, 5 * n)


@pytest.mark.parametrize("n", (300, 900))
def test_factorization_peak_memory_is_what_it_keeps_and_one_panel(n):
    # the elimination keeps its scratch, the trailing products included, in
    # the storage of the inverses and the strips, and the factors are tested
    # for overflow a block row at a time. This matrix is diagonally dominant
    # and never pivots, so only temporaries smaller than a panel of 64 x n
    # doubles come on top of what the factorization keeps; the next test
    # covers the rows that interchanges move
    a = SplitMix64(n).normal(n * n).reshape(n, n) + n * np.eye(n)
    fact, excess = _factorization_excess(a)
    assert not fact.singular
    assert excess <= 8 * 64 * n


@pytest.mark.parametrize("n", (300, 900))
def test_pivoting_factorization_peak_memory_is_what_it_keeps_and_three_panels(n):
    # a symmetric indefinite KKT-type matrix interchanges rows; the rows a
    # panel's interchanges move, at most two per column, are gathered once,
    # 2 x 64 rows of n doubles, and the other temporaries are smaller than
    # one more panel, the allowance of TestAffineBuildInPlace
    a = _kkt_type_pair(n, n)[0].matrix
    fact, excess = _factorization_excess(a)
    assert not fact.singular and np.any(fact.perm != np.arange(n))
    assert excess <= 8 * 3 * 64 * n


def _factorization_excess(a):
    """The factorization of a, and the bytes its peak holds above what it keeps."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fact = linalg.lu_factorize(a)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return fact, peak - after


@pytest.mark.parametrize("n", (1, 70, 130))
def test_factorize_leaves_its_argument_unmodified(n):
    # the public function factors a copy; only the affine engine's build and
    # dca_baseline hand their own array to the in-place core
    a = zero_laden_matrix(n, 13 * n, "signed-zeros", 1.0)
    original = a.tobytes()
    fact = linalg.lu_factorize(a)
    assert a.tobytes() == original
    assert not np.shares_memory(fact.packed, a)


class TestNonFiniteMatrix:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_factorize_rejects_a_non_finite_entry(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            linalg.lu_factorize(np.array([[bad, 1.0], [1.0, 2.0]]))

    def test_non_finite_entry_past_the_first_block(self):
        a = np.eye(100)
        a[99, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            linalg.lu_factorize(a)


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.floats(-1, 1, allow_nan=False), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.lists(st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_lu_solve_property_diagonally_dominant(data):
    rows, rhs = data
    a = np.array(rows)
    n = a.shape[0]
    a = a + (n + 1) * np.eye(n)  # strict diagonal dominance: nonsingular
    b = np.array(rhs)
    fact = linalg.lu_factorize(a)
    assert not fact.singular
    x = linalg.lu_solve(fact, b)
    assert np.linalg.norm(a @ x - b) <= 1e-8 * (1 + np.linalg.norm(b))


class TestJacobi:
    def test_diagonal_input(self):
        dec = linalg.jacobi_eigendecomposition(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(dec.values, [1.0, 2.0, 3.0], atol=1e-12)

    def test_two_by_two_swap(self):
        # characteristic polynomial lambda^2 - 1
        dec = linalg.jacobi_eigendecomposition(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.values, [-1.0, 1.0], atol=1e-12)

    def test_identity(self):
        dec = linalg.jacobi_eigendecomposition(np.eye(5))
        assert np.allclose(dec.values, 1.0)
        assert np.allclose(dec.vectors.T @ dec.vectors, np.eye(5), atol=1e-12)

    def test_not_symmetric_rejected(self):
        with pytest.raises(NotSymmetricError):
            linalg.jacobi_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_seeded_reconstruction_and_orthonormality(self):
        # 100 seeded symmetric matrices, sizes up to 200
        sizes = [2 + (i * 7) % 29 for i in range(98)] + [60, 200]
        for i, n in enumerate(sizes):
            rng = SplitMix64(4000 + i)
            g = rng.normal(n * n).reshape(n, n)
            a = 0.5 * (g + g.T)
            dec = linalg.jacobi_eigendecomposition(a)
            norm_a = np.linalg.norm(a)
            recon = np.linalg.norm(dec.vectors @ np.diag(dec.values) @ dec.vectors.T - a)
            assert recon <= 1e-8 * (1 + norm_a)
            assert np.linalg.norm(dec.vectors.T @ dec.vectors - np.eye(n)) <= 1e-8
            assert np.all(np.diff(dec.values) >= -1e-15)

    def test_diag_constructed_eigenvalues_match(self):
        for seed in range(10):
            rng = SplitMix64(seed)
            diag = rng.uniform(6, -5.0, 5.0)
            dec = linalg.jacobi_eigendecomposition(np.diag(diag))
            assert np.allclose(dec.values, np.sort(diag), atol=1e-10)


class TestSymmetricEigen:
    def test_asymmetry_just_inside_tolerance_uses_symmetric_part(self):
        rng = SplitMix64(77)
        g = rng.normal(36).reshape(6, 6)
        sym = 0.5 * (g + g.T)
        skew = np.zeros((6, 6))
        skew[0, 5], skew[5, 0] = 1.0, -1.0
        # max|A - A^T| = 2 * eps must stay below rtol * (1 + max|A|)
        eps = 0.45 * linalg._SYMMETRY_RTOL * (1.0 + np.max(np.abs(sym)))
        a = sym + eps * skew
        assert 0.0 < np.max(np.abs(a - a.T)) <= linalg._SYMMETRY_RTOL * (1.0 + np.max(np.abs(a)))
        dec = linalg.jacobi_eigendecomposition(a)
        assert np.allclose(dec.values, np.linalg.eigvalsh(sym), rtol=0.0, atol=1e-12)
        assert np.allclose(dec.vectors @ np.diag(dec.values) @ dec.vectors.T, sym, rtol=0.0, atol=1e-12)
        assert np.allclose(dec.vectors.T @ dec.vectors, np.eye(6), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        a = np.array([[bad, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            linalg.jacobi_eigendecomposition(a)

    def test_overflowing_eigenvalue_is_named(self):
        # finite entries whose eigenvalue 2e308 is beyond the float range
        with pytest.raises(ValueError, match="overflow"):
            linalg.jacobi_eigendecomposition(np.full((2, 2), 1e308))

    @pytest.mark.parametrize("n, seed", [(10, 0), (40, 3), (200, 7)])
    def test_symmetrization_matches_the_plain_average_bitwise(self, n, seed):
        # halving before adding changes nothing away from overflow
        system = generate_consistent_system(n, seed)
        a = system.matrix.copy()
        a[0, -1] += 1e-13
        values, vectors = np.linalg.eigh(0.5 * (a + a.T))
        dec = linalg.jacobi_eigendecomposition(a)
        assert np.array_equal(dec.values, values) and np.array_equal(dec.vectors, vectors)


class TestMatrixTextFormat:
    def test_round_trip(self, tmp_path):
        a = np.array([[1.0 / 3.0, -2.5e-17], [1e300, 4.0]])
        path = tmp_path / "m.mat"
        linalg.write_matrix(path, a)
        back = linalg.read_matrix(path)
        assert np.array_equal(back, a)
        first = path.read_text().splitlines()[0]
        assert first == "2 2"

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("garbage\n1 2 3\n")
        with pytest.raises(ValueError, match="rows cols"):
            linalg.read_matrix(path)

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "short.mat"
        path.write_text("2 2\n1 2 3\n")
        with pytest.raises(ValueError, match="expected 4 entries"):
            linalg.read_matrix(path)

    def test_vector_round_trip(self, tmp_path):
        v = np.array([1.25, -3.5, 0.1])
        path = tmp_path / "v.txt"
        linalg.write_vector(path, v)
        assert np.array_equal(linalg.read_vector(path), v)

    # the texts below were written by the per-entry f"{x:.17g}" writer
    def test_special_values_keep_their_text(self, tmp_path):
        values = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0 / 3.0]
        path = tmp_path / "m.mat"
        linalg.write_matrix(path, np.array([values[:5], values[4:]]))
        assert path.read_text() == (
            "2 5\n"
            "nan inf -inf -0 4.9406564584124654e-324\n"
            "4.9406564584124654e-324 2.2250738585072014e-308 1.7976931348623157e+308"
            " 0.10000000000000001 0.33333333333333331\n"
        )
        linalg.write_vector(path, np.array(values))
        assert path.read_text() == (
            "nan\ninf\n-inf\n-0\n4.9406564584124654e-324\n2.2250738585072014e-308\n"
            "1.7976931348623157e+308\n0.10000000000000001\n0.33333333333333331\n"
        )

    @pytest.mark.parametrize(
        "shape, text", [((0, 3), "0 3\n"), ((3, 0), "3 0\n\n\n\n"), ((1, 1), "1 1\n0.5\n")], ids=["0x3", "3x0", "1x1"]
    )
    def test_edge_shapes_keep_their_text(self, shape, text, tmp_path):
        path = tmp_path / "m.mat"
        linalg.write_matrix(path, np.full(shape, 0.5))
        assert path.read_text() == text
        back = linalg.read_matrix(path)
        assert back.shape == shape and np.array_equal(back, np.full(shape, 0.5))

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5),
            elements=st.floats(width=64),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_bitwise(self, tmp_path_factory, a):
        path = tmp_path_factory.getbasetemp() / "round-trip.mat"
        linalg.write_matrix(path, a)
        back = linalg.read_matrix(path)
        nan = np.isnan(a)
        # the text of every NaN is "nan", so only its place survives
        assert back.shape == a.shape and np.array_equal(np.isnan(back), nan)
        assert np.array_equal(back[~nan].view(np.uint64), a[~nan].view(np.uint64))

    @pytest.mark.parametrize(
        "read, text", [(linalg.read_matrix, "1 2\n1 abc\n"), (linalg.read_vector, "1\nabc\n")], ids=["matrix", "vector"]
    )
    def test_bad_token_is_float_own_error(self, read, text, tmp_path):
        # float()'s message, after the file's path as in the header errors
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: could not convert string to float: 'abc'") + "$"):
            read(path)

    def test_readers_give_the_bits_float_gives_each_token(self, tmp_path):
        # the readers convert with numpy, which reads each token by float()'s rules
        values = [5e-324, -5e-324, 2.2250738585072009e-308, 0.0, -0.0, np.inf, -np.inf, np.nan,
                  1.7976931348623157e308, -1.7976931348623157e308, 0.1, -1.0 / 3.0]
        path = tmp_path / "m.mat"
        linalg.write_matrix(path, np.array(values).reshape(3, 4))
        tokens = path.read_text().split()[2:]
        expected = np.array([float(t) for t in tokens]).reshape(3, 4)
        assert linalg.read_matrix(path).tobytes() == expected.tobytes()
        linalg.write_vector(path, np.array(values))
        assert linalg.read_vector(path).tobytes() == expected.reshape(-1).tobytes()

    def test_operator_json_text_is_unchanged(self, tmp_path):
        path = tmp_path / "op.json"
        affine = operators.Affine(np.array([[0.1, -0.0], [1.0 / 3.0, 2.0]]), np.array([5e-324, -1e300]))
        operators.save_operator(str(path), operators.Sum((operators.SignBlock(0.5, (0, 1)), affine)))
        assert path.read_text() == (
            '{\n  "kind": "sum",\n  "terms": [\n    {\n      "kind": "sign-block",\n      "scale": 0.5,\n'
            '      "selector": [\n        0,\n        1\n      ]\n    },\n    {\n      "kind": "affine",\n'
            '      "offset": [\n        5e-324,\n        -1e+300\n      ],\n      "matrix": [\n        [\n'
            '          0.1,\n          -0.0\n        ],\n        [\n          0.3333333333333333,\n'
            '          2.0\n        ]\n      ]\n    }\n  ]\n}\n'
        )

    def test_qp_files_text_is_unchanged(self, tmp_path):
        qp = QPProblem(
            np.array([[2.0, 0.1], [0.1, 1.0 / 3.0]]), np.array([-0.0, 1e-310]), np.array([[1.0, -1.0 / 3.0]]), np.array([0.1])
        )
        write_qp(str(tmp_path / "qp.json"), qp)
        assert (tmp_path / "qp.json").read_text() == (
            '{\n  "Q": "qp-Q.mat",\n  "C": "qp-C.mat",\n  "c": [\n    -0.0,\n    1e-310\n  ],\n'
            '  "d": [\n    0.1\n  ]\n}\n'
        )
        assert (tmp_path / "qp-Q.mat").read_text() == "2 2\n2 0.10000000000000001\n0.10000000000000001 0.33333333333333331\n"
        assert (tmp_path / "qp-C.mat").read_text() == "1 2\n1 -0.33333333333333331\n"


def _strided(values):
    """A view of every other entry of a buffer whose skipped entries are NaN."""
    buffer = np.full(2 * len(values), np.nan)
    buffer[::2] = values
    return buffer[::2]


class TestRealInput:
    @pytest.mark.parametrize(
        "convert, value",
        [
            (linalg.as_real, np.array([1.0 + 5.0j, 2.0])),
            (linalg.as_real, (1.0 + 5.0j, 2.0)),
            (linalg.as_real, np.array([1.0, 2.0], dtype=np.complex64)),
            (linalg.as_real, 1.0 + 0.0j),
            (lambda a: linalg.as_matrix(a, "matrix"), np.eye(2) * (1.0 + 0.0j)),
            (lambda a: linalg.as_matrix(a, "matrix"), [[1.0, 2.0j], [0.0, 1.0]]),
        ],
        ids=["vector", "tuple", "zero-imaginary", "scalar", "matrix", "nested-list"],
    )
    def test_complex_value_is_refused(self, convert, value):
        # the float cast kept the real part, with numpy's ComplexWarning, or
        # raised a TypeError that named no input
        with pytest.raises(ValueError, match="^complex values are not accepted, only real ones$"):
            convert(value)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda a: operators.Affine(a), "affine matrix"),
            (lambda a: applications.kkt_operator_pair(a, np.ones(2), 0.2), "A"),
            (linalg.lu_factorize, "matrix"),
            (linalg.require_symmetric, "matrix"),
            (lambda a: linalg.write_matrix("unwritten.mat", a), "matrix"),
        ],
        ids=["Affine", "kkt_operator_pair", "lu_factorize", "require_symmetric", "write_matrix"],
    )
    @pytest.mark.parametrize("shape", [(2,), (1, 2, 2), ()], ids=["vector", "3-D", "scalar"])
    def test_a_matrix_of_another_ndim_is_named(self, call, name, shape, tmp_path, monkeypatch):
        # was "expected a 2-D matrix, got shape (2,)", which named no argument
        monkeypatch.chdir(tmp_path)
        with pytest.raises(DimensionMismatchError, match="^" + re.escape(f"{name} must be a 2-D array, got shape {shape}") + "$"):
            call(np.ones(shape))
        assert not (tmp_path / "unwritten.mat").exists()

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda x: solvers.gppa1(operators.sign_swap_operator(), operators.swap_operator(), x), "x0"),
            (lambda x: operators.Affine(np.eye(2), x), "affine offset"),
            (lambda x: operators.check_pair_monotone(
                operators.sign_swap_operator(), operators.swap_operator(), samples=2, include=[(x, x)]
            ), "include pairs"),
            (lambda x: resolvents.transformed(
                resolvents.build_engine(operators.sign_swap_operator(), operators.swap_operator(), 1.0), x
            ), "resolvent input"),
            (lambda x: linalg.lu_solve(linalg.lu_factorize(np.eye(2)), x), "rhs"),
            (lambda x: linalg.write_vector("unwritten.vec", x), "vector"),
        ],
        ids=["x0", "affine-offset", "include-pairs", "resolvent-input", "rhs", "vector"],
    )
    @pytest.mark.parametrize("shape", [(2, 2), (), (0,)], ids=["matrix", "scalar", "empty"])
    def test_a_vector_of_another_shape_is_named(self, call, name, shape, tmp_path, monkeypatch):
        # was "expected a 1-D vector, got shape (2, 2)", which named no argument
        monkeypatch.chdir(tmp_path)
        message = f"{name} must be a nonempty 1-D array, got shape {shape}"
        with pytest.raises(DimensionMismatchError, match="^" + re.escape(message) + "$"):
            call(np.ones(shape))
        assert not (tmp_path / "unwritten.vec").exists()

    def test_real_values_of_any_dtype_convert_to_float(self):
        assert linalg.as_real(np.array([1, 2], dtype=np.int32)).dtype == np.float64
        assert linalg.as_matrix(np.eye(2, dtype=np.float32), "matrix").dtype == np.float64

    # The catalogue: each public float parameter or field of pairprox, by
    # its label "module.function.parameter" or "module.Class.field", with the
    # name its refusal gives, the interval it must lie in and a call that
    # reads a value there. A sequence takes the value as the entry that the
    # label's "[i]" names, one row per entry rule.
    SCALAR_SITES = [
        ("applications.require_kappa.kappa", "kappa", f"(0, {KAPPA_HIGH}]", applications.require_kappa),
        ("applications.verify_pair_lemma.kappa", "kappa", f"(0, {KAPPA_HIGH}]",
         lambda x: applications.verify_pair_lemma(np.diag([1.0, -1.0]), x)),
        ("applications.kkt_operator_pair.kappa", "kappa", f"(0, {KAPPA_HIGH}]",
         lambda x: applications.kkt_operator_pair(np.eye(2), np.ones(2), x)),
        ("applications.solve_kkt.kappa", "kappa", f"(0, {KAPPA_HIGH}]",
         lambda x: applications.solve_kkt(applications.KKTSystem(np.eye(2), np.ones(2), 1), x)),
        ("applications.least_squares_iterate.kappa", "kappa", f"(0, {KAPPA_HIGH}]",
         lambda x: applications.least_squares_iterate(np.eye(2), np.ones(2), x)),
        ("applications.require_kappa_fraction.kappa_fraction", "kappa_fraction", "(0, 0.5)",
         applications.require_kappa_fraction),
        ("applications.select_kappa.kappa_fraction", "kappa_fraction", "(0, 0.5)",
         lambda x: applications.select_kappa(np.diag([1.0, -1.0]), x)),
        *(
            row
            for generate in ("generate_consistent_system", "generate_inconsistent_system")
            for row in (
                (f"applications.{generate}.spectrum[0]", "spectrum[0]", "(0, inf)",
                 lambda x, g=generate: getattr(applications, g)(6, 0, spectrum=(x, 2.0))),
                (f"applications.{generate}.spectrum[1]", "spectrum[1]", "[0.5, inf)",
                 lambda x, g=generate: getattr(applications, g)(6, 0, spectrum=(0.5, x))),
                (f"applications.{generate}.zero_fraction", "zero_fraction", "[0, 1)",
                 lambda x, g=generate: getattr(applications, g)(6, 0, zero_fraction=x)),
            )
        ),
        ("cli.BenchSpec.kappa", "kappa", f"(0, {KAPPA_HIGH}]", lambda x: cli.BenchSpec(sizes=(4,), kappa=x)),
        ("cli.BenchSpec.kappa_fraction", "kappa_fraction", "(0, 0.5)",
         lambda x: cli.BenchSpec(sizes=(4,), kappa=None, kappa_fraction=x)),
        ("cli.BenchSpec.tolerance", "tolerance", "(0, inf]", lambda x: cli.BenchSpec(sizes=(4,), tolerance=x)),
        ("cli.BenchSpec.spectrum[0]", "spectrum[0]", "(0, inf)", lambda x: cli.BenchSpec(sizes=(4,), spectrum=(x, 2.0))),
        ("cli.BenchSpec.spectrum[1]", "spectrum[1]", "[0.5, inf)", lambda x: cli.BenchSpec(sizes=(4,), spectrum=(0.5, x))),
        ("cli.BenchSpec.zero_fraction", "zero_fraction", "[0, 1)", lambda x: cli.BenchSpec(sizes=(4,), zero_fraction=x)),
        ("operators.SignBlock.scale", "sign-block scale", "[0, inf)", lambda x: operators.SignBlock(x, (0,))),
        ("operators.Scale.gamma", "scale factor", "(0, inf)", lambda x: operators.Scale(x, operators.identity_operator(2))),
        ("operators.Permutation.signs[0]", "signs", "[-1, 1]", lambda x: operators.Permutation((1, 0), (x, 1.0))),
        ("resolvents.build_engine.gamma", "gamma", "(0, inf)",
         lambda x: resolvents.build_engine(operators.Affine(np.eye(2)), operators.identity_operator(2), x, dim=2)),
        ("solvers.SolverConfig.gamma_schedule", "gamma", "(0, inf)", lambda x: solvers.SolverConfig(gamma_schedule=x)),
        ("solvers.SolverConfig.gamma_schedule[1]", "gamma", "(0, inf)", lambda x: solvers.SolverConfig(gamma_schedule=(1.0, x))),
        ("solvers.SolverConfig.tol_residual", "tol_residual", "[0, inf]", lambda x: solvers.SolverConfig(tol_residual=x)),
        ("solvers.dca_baseline.m", "m", "(0, inf)", lambda x: solvers.dca_baseline(np.eye(2), np.ones(2), x, np.zeros(2))),
    ]
    # public float parameters and fields outside the catalogue, each with its reason
    NOT_READ = {
        **dict.fromkeys(
            [
                "applications.KappaSelection.alpha_abs", "applications.KappaSelection.kappa",
                "applications.PairLemmaReport.min_value", "applications.PairLemmaReport.kappa",
                "applications.PairLemmaReport.alpha_abs", "applications.GeneratedSystem.range_distance",
                "cli.RunRecord.seconds", "cli.RunRecord.ek",
                "operators.PairMonotonicityReport.min_quotient", "operators.PairMonotonicityReport.min_inner",
            ],
            "a field of an output record, which the library fills",
        ),
        "linalg.real_scalar.low": "an end of the interval that the reader itself checks against",
        "linalg.real_scalar.high": "an end of the interval that the reader itself checks against",
        "linalg.lu_factorize.pivot_rtol": "a threshold of the factorization: the library passes its default or 0.0",
        "rng.SplitMix64.uniform.low": "a bound of a draw: its only caller passes a spectrum bound it has read",
        "rng.SplitMix64.uniform.high": "a bound of a draw: its only caller passes a spectrum bound it has read",
        "solvers.HalpernConfig.anchor": "a point, which solvers._point reads as an array of the start's shape",
    }
    # where None is a value of the parameter: no kappa, or no kappa fraction
    NONE_UNSETS = {"cli.BenchSpec.kappa", "cli.BenchSpec.kappa_fraction"}
    BAD_VALUES = {
        "complex": 1j,
        "numpy-complex": np.complex128(1 + 1j),
        "0-d-complex": np.array(1 + 0j),
        "str": "1",
        "bytes": b"1",
        "bool": True,
        "nan": math.nan,
        "inf": math.inf,
        "-inf": -math.inf,
        "None": None,
    }

    @pytest.fixture
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work ran on a refused value")

        monkeypatch.setattr(operators.OperatorExpr, "evaluate", fail)
        monkeypatch.setattr(resolvents, "_try_sign_affine", fail)
        monkeypatch.setattr(linalg, "jacobi_eigendecomposition", fail)
        monkeypatch.setattr(rng.SplitMix64, "_raw", fail)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("site, value", _catalogue_cases(SCALAR_SITES, BAD_VALUES, NONE_UNSETS))
    def test_bad_scalar_is_refused_by_name(self, site, value, no_work):
        # before the interval, numpy complex scalars passed the range checks
        # of m, kappa, Scale, SignBlock and tol_residual; build_engine ran at
        # gamma = 1 for np.complex128(1+1j) and for True; the generators ran
        # np.complex128(0.5+1j) and True as spectrum bounds; BenchSpec took a
        # complex zero_fraction and failed in generation
        _, name, interval, call = site
        with pytest.raises(ValueError, match="^" + re.escape(f"{name} must lie in {interval}, got {value!r}") + "$"):
            call(value)

    def test_every_public_float_parameter_is_catalogued(self):
        labels = set(_float_parameters())
        catalogued = {row[0].partition("[")[0] for row in self.SCALAR_SITES}
        assert not catalogued & set(self.NOT_READ)
        known = catalogued | set(self.NOT_READ)
        # a catalogued or exempted label that is gone is stale too
        assert labels == known, (
            f"not catalogued: {sorted(labels - known)}, stale: {sorted(known - labels)}; a public parameter or field"
            " annotated float or tuple[float, ...] must be read through linalg.real_scalar and added to"
            " SCALAR_SITES, or be listed in NOT_READ with a reason"
        )

    def test_integer_beyond_the_float_range_reads_as_inf(self):
        # float() raised OverflowError for kappa, and Scale and SignBlock
        # kept the integer
        big = 10**400
        with pytest.raises(ValueError, match="^" + re.escape(f"kappa must lie in (0, {KAPPA_HIGH}], got {big}") + "$"):
            applications.require_kappa(big)
        with pytest.raises(ValueError, match="^" + re.escape(f"scale factor must lie in (0, inf), got {big}") + "$"):
            operators.Scale(big, operators.identity_operator(2))
        with pytest.raises(ValueError, match="^" + re.escape(f"sign-block scale must lie in [0, inf), got {-big}") + "$"):
            operators.SignBlock(-big, (0,))
        assert solvers.SolverConfig(tol_residual=big).tol_residual == math.inf

    @pytest.mark.parametrize("value", [2, np.float32(0.5), np.int64(3), np.array(2.0)], ids=["int", "float32", "int64", "0-d"])
    def test_real_scalars_are_stored_as_floats(self, value):
        stored = (
            operators.Scale(value, operators.identity_operator(2)).gamma,
            operators.SignBlock(value, (0,)).scale,
            solvers.SolverConfig(tol_residual=value).tol_residual,
        )
        assert all(type(s) is float and s == float(value) for s in stored)


class TestAllFinite:
    @pytest.mark.parametrize(
        "a",
        [
            np.array([1.0, -0.0, 5e-324, 1.7976931348623157e308]),
            np.array([np.nan, 1.0]),
            np.array([1.0, np.inf]),
            np.array([-np.inf]),
            np.array([]),
            np.zeros((0, 3)),
            np.arange(6.0).reshape(2, 3),
            np.array([[1.0, 2.0], [3.0, np.inf]]),
            np.array([[[0.0], [np.nan]]]),
            _strided([1.0, 2.0, 3.0]),
            _strided([1.0, -np.inf]),
            np.array([[1.0, np.nan], [2.0, np.nan]])[:, 0],
            np.array([[1.0, np.nan], [2.0, 3.0]]).T[1],
        ],
    )
    def test_equals_isfinite_all(self, a):
        assert linalg.all_finite(a) == np.isfinite(a).all()


class TestNorm:
    def test_bitwise_equal_to_numpy_on_seeded_vectors(self):
        # sizes from 1 to 1000 and magnitudes from 1e-150 to 1e150, where the
        # sum of squares neither overflows nor underflows
        for i in range(300):
            rng = SplitMix64(9000 + i)
            n = 1 + (i * 37) % 1000
            x = rng.normal(n) * 10.0 ** rng.uniform(1, -150.0, 150.0)[0]
            assert linalg.norm(x) == np.linalg.norm(x)

    def test_bitwise_equal_on_strided_views_and_special_values(self):
        x = SplitMix64(5).normal(40)
        for v in (x[::3], x[5:6], np.zeros(3), np.array([-0.0]), np.array([np.inf, 1.0]), np.array([1e153, 1e154])):
            assert linalg.norm(v) == np.linalg.norm(v)
        assert np.isnan(linalg.norm(np.array([np.nan, 1.0])))

    @pytest.mark.parametrize(
        "x, expected",
        [
            ([1e300, 1e300], 1e300 * np.sqrt(2.0)),
            ([3e200, -4e200], 5e200),
            ([1.7e308, 0.0, 1e-300], 1.7e308),
            ([1.7e308, 1.7e308], np.inf),  # the norm itself exceeds the float range
            ([np.inf, 1e300], np.inf),
        ],
    )
    def test_sum_of_squares_that_overflows_is_scaled(self, x, expected):
        with np.errstate(over="ignore"):
            assert linalg.norm(np.array(x)) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "x, expected",
        [
            ([1e-320, 0.0], 1e-320),  # the sum of squares underflows to 0
            ([3e-160, 4e-160], 5e-160),  # a subnormal sum of squares
            ([-5e-324], 5e-324),
            ([1e-200, 1e-320, -1e-200], 1e-200 * np.sqrt(2.0)),
        ],
    )
    def test_sum_of_squares_that_underflows_is_scaled(self, x, expected):
        # approx's default absolute tolerance would pass 0 for each of these
        assert linalg.norm(np.array(x)) == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("x", [[0.0], [-0.0], [0.0, -0.0, 0.0]])
    def test_zero_vector_has_norm_plus_zero(self, x):
        result = linalg.norm(np.array(x))
        assert result == 0.0 and math.copysign(1.0, result) == 1.0

    @given(st.lists(st.floats(-1e160, 1e160), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_equals_sqrt_of_the_sum_of_squares_where_that_is_normal(self, values):
        x = np.array(values)
        with np.errstate(over="ignore"):
            squares = x.dot(x)
        assume(sys.float_info.min <= squares < math.inf)
        assert linalg.norm(x) == math.sqrt(squares)
