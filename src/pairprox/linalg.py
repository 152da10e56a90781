"""Dense linear algebra kernels: LU with partial pivoting, the symmetric
eigendecomposition behind the kernel-shift selection, and matrix text I/O.

The LU factorization eliminates in column panels and then inverts each
diagonal block of L and U once. Each panel is eliminated in a contiguous
transposed copy, so the pivot search, the scaling and the rank-1 updates run
on contiguous rows, and its row interchanges are applied to the rest of the
matrix once per panel (LAPACK's dgetf2 and dlaswp split). The rank-1
updates of a panel and the GEMM update of the trailing matrix subtract their
products over whole C-contiguous rows, in one 1-D pass each, with +0 in the
columns an update leaves alone: x - (+0) is x bitwise. Every entry gets the
same operations in the same order as in place, so the factors are the same
bits. A solve is blocked forward and back
substitution on those cached inverses (Golub & Van Loan, Matrix
Computations, section 3.1): per block, one matrix-vector product for the
part already solved and one small product with the block's inverse, so no
Python loop runs over the rows.

`lu_factorize` factors a copy of its argument. Only the affine resolvent
engine's build, the DCA baseline's included, instead hands the matrix it
built, gamma*F + v, to the same elimination, which factors it in place
(LAPACK's dgetrf overwrites A with its factors too): that array becomes the
factorization's `packed`, and the build's peak memory is what the
factorization keeps plus the scratch of one panel and its interchanges.

Everything operates on plain float64 numpy arrays; matrices are row-major
2-D arrays, vectors are 1-D arrays. The readers of the JSON operator and QP
files check each value's shape here before converting it.
"""
from __future__ import annotations

import math
import numbers
import reprlib
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonSquareError,
    NotSymmetricError,
    SingularMatrixError,
)

PIVOT_RTOL = 1e-12
_SYMMETRY_RTOL = 1e-10
_SMALLEST_NORMAL = sys.float_info.min


def as_real(x, name: str = "value") -> np.ndarray:
    """`x` as a float array. A complex value is a ValueError, not cast to its real
    part; so is a bool or text array, named `name`, which the cast reads as 0s and 1s or parses."""
    a = np.asarray(x)
    if a.dtype.kind == "c":
        raise ValueError("complex values are not accepted, only real ones")
    if a.dtype.kind in "bSU":
        raise ValueError(f"{name} must hold real numbers, got dtype {a.dtype}")
    return np.asarray(a, dtype=float)


def real_scalar(name: str, value, low: float, high: float, ends: str) -> float:
    """`value` as a Python float if it lies between `low` and `high`, each
    end open or closed as `ends` writes it: "()", "[)", "(]" or "[]". An
    integer beyond the float range reads as +-inf. Anything else is a
    ValueError naming `name`: NaN, a value outside, None, a bool, a complex
    number (Python's, numpy's or a 0-d array) and text, as float() would
    read True and "1" as 1.0, and numpy orders a complex by its real part."""
    x = math.nan
    if isinstance(value, float) or np.asarray(value).dtype.kind not in "bcSU":
        try:
            x = float(value)
        except OverflowError:
            x = math.inf if value > 0 else -math.inf
        except TypeError:  # None, or another object that float() cannot read
            pass
    if not ((low < x if ends[0] == "(" else low <= x) and (x < high if ends[1] == ")" else x <= high)):
        raise ValueError(f"{name} must lie in {ends[0]}{low!r}, {high!r}{ends[1]}, got {value!r}")
    return x


def _require_count(name: str, value) -> int:
    """`value` if it is a count of iterations, trials or samples: an integer
    >= 1 that is not a bool. Anything else is a ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be >= 1 and an integer other than a bool, got {value!r}")
    return value


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def as_matrix(a, name: str) -> np.ndarray:
    m = as_real(a, name)
    if m.ndim != 2:
        raise DimensionMismatchError(f"{name} must be a 2-D array, got shape {m.shape}")
    return m


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of `a` is finite: np.isfinite(a).all() without
    the Python-level wrapper that numpy runs `.all()` through, which costs
    more than the test itself on the short vectors of a sign-pattern step."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def real_array(name: str, value, ndim: int) -> np.ndarray:
    """`value` as a float array of `ndim` dimensions with finite entries. What
    `as_real` refuses is its ValueError, a NaN or infinite entry a ValueError
    naming `name`, and another ndim a DimensionMismatchError naming it."""
    a = as_real(value, name)
    if a.ndim != ndim:
        raise DimensionMismatchError(f"{name} must be a {ndim}-D array, got shape {a.shape}")
    if not all_finite(a):
        raise ValueError(f"{name} has non-finite entries")
    return a


def norm(x: np.ndarray) -> float:
    """The Euclidean norm of a 1-D float vector.

    Where x.dot(x) is a finite normal number this is sqrt(x.dot(x)),
    bitwise what numpy.linalg.norm computes on a vector, with less call
    overhead. Where the sum of squares overflows, or underflows below the
    smallest normal number, for a finite nonzero x, x is first scaled by
    max|x|: the norm is then inf only when it exceeds the float range, and
    0 only for a zero vector. The overflow of the sum of squares is
    reported as numpy's error state says (a RuntimeWarning by default).
    """
    # a strided view is summed in another order, so it is made contiguous
    # first, as numpy.linalg.norm does
    x = x.ravel()
    # compared as a Python float: two comparisons of the numpy scalar made
    # each call about a fifth slower on the short vectors of a step
    squares = float(x.dot(x))
    if not _SMALLEST_NORMAL <= squares < math.inf and x.size:
        scale = float(np.abs(x).max())
        if 0.0 < scale < math.inf:
            y = x / scale
            return scale * math.sqrt(y.dot(y))
    return math.sqrt(squares)


def require_symmetric(a: np.ndarray) -> np.ndarray:
    a = as_matrix(a, "matrix")
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"matrix is {a.shape[0]}x{a.shape[1]}")
    if a.size:
        asymmetry = float(np.max(np.abs(a - a.T)))
        if asymmetry > _SYMMETRY_RTOL * (1.0 + float(np.max(np.abs(a)))):
            raise NotSymmetricError(f"asymmetry {asymmetry:.3e} exceeds tolerance")
    return a


@dataclass(frozen=True, eq=False)
class LUFactorization:
    """Packed PA = LU with partial pivoting (unit lower triangle implied).

    `lower_blocks` and `upper_blocks` hold (start, stop, strip, inverse)
    for each diagonal block of L and of U, in the order the forward and the
    back substitution visit them (U's in reverse). `strip` is a C-contiguous
    copy of the block row's off-diagonal part, packed[start:stop, :start]
    for L and packed[start:stop, stop:] for U, and `inverse` is the inverse
    of the diagonal block; a solve reads only these, never `packed`. Both
    are empty when the matrix is flagged singular.
    """

    dim: int
    perm: np.ndarray
    packed: np.ndarray
    singular: bool
    lower_blocks: tuple[tuple[int, int, np.ndarray, np.ndarray], ...] = ()
    upper_blocks: tuple[tuple[int, int, np.ndarray, np.ndarray], ...] = ()


def lu_factorize(a: np.ndarray, block: int = 64, pivot_rtol: float = PIVOT_RTOL) -> LUFactorization:
    """Factorize a square matrix; flags singularity instead of raising.

    A pivot below pivot_rtol * max|A| (1e-12 by default), or a zero pivot
    where that threshold underflows to 0, marks the matrix singular (the
    downstream solvers target deliberately singular systems, so detection
    must be a reportable state, not an exception). `packed` and `perm` then
    hold the elimination as it stood at that column: the factors of the
    columns before it, every interchange made so far applied to whole rows,
    and the rest of the matrix updated through the last finished panel and
    within the current one. A matrix with a NaN or infinite entry is a ValueError, and so is
    one whose factors, or the inverses of their diagonal blocks, overflow
    the float range.
    """
    a = as_matrix(a, "matrix")
    n, m = a.shape
    if n != m:
        raise NonSquareError(f"matrix is {n}x{m}")
    return _factorize_in_place(a.copy(), block, pivot_rtol)


def _factorize_in_place(lu: np.ndarray, block: int = 64, pivot_rtol: float = PIVOT_RTOL) -> LUFactorization:
    """`lu_factorize` of a square float64 matrix that the caller gives up:
    its storage, copied first only if it is not C-contiguous, becomes the
    factorization's `packed`."""
    lu = np.ascontiguousarray(lu)
    n = lu.shape[0]
    perm = np.arange(n)
    # two reductions instead of np.max(np.abs(lu)), whose |A| is one more n x n array
    high, low = (float(lu.max()), float(lu.min())) if lu.size else (0.0, 0.0)
    if not (math.isfinite(high) and math.isfinite(low)):
        raise ValueError("matrix has non-finite entries")
    maxabs = max(high, -low)
    if maxabs == 0.0:
        return LUFactorization(n, perm, lu, True)
    threshold = pivot_rtol * maxabs

    # all inverses share one allocation, and so do all strips: as separate
    # small arrays that live through a whole solve they fragmented the heap,
    # and peak RSS then grew by a full n x n matrix in about half of the
    # benchmark's runs
    bounds = [(j, min(j + block, n)) for j in range(0, n, block)]
    inverses = np.empty((2, n, min(block, n)))
    # a matrix-vector product runs about 3x faster on a C-contiguous copy of
    # an off-diagonal strip than on its strided view of `lu`, and sums in the
    # same order
    strips = np.empty(sum((end - j) * (n - end + j) for j, end in bounds))
    # the elimination's scratch lives in the storage of the inverses and the
    # strips, which are filled only after it: each panel lu[j:, j:end] is
    # eliminated in a transposed copy `pt`, where its column c is the
    # contiguous row pt[c], beside the column entries of its rank-1 updates,
    # and the strips, at least (n - block) x n doubles, hold the trailing
    # products. Every 2-D update subtracts its products over whole
    # C-contiguous rows in one 1-D pass (numpy's 2-D loop over a strided view
    # costs about 1 us per row), with +0 in the columns it leaves alone: a
    # rank-1 update multiplies two factors that hold +0 there, and the
    # trailing update writes +0 there. x - (+0) is x bitwise for every x, -0
    # and NaN included, and raises no floating-point flag; the GEMM keeps its
    # shape, and only its output's row stride changes
    scratch = np.empty(n)
    for j in range(0, n, block):
        jb = min(block, n - j)
        end = j + jb
        pt, columns = (storage.reshape(-1)[: jb * (n - j)].reshape(jb, n - j) for storage in inverses)
        multipliers = scratch[: n - j]
        pt[...] = lu[j:, j:end].T
        # row i of the panel came from row j + order[i]
        order = np.arange(n - j)
        singular = False
        for c in range(jb):
            col = pt[c]
            p = c + int(np.abs(col[c:]).argmax())
            if abs(col[p]) < threshold or col[p] == 0.0:
                singular = True
                break
            if p != c:
                swap = pt[:, c].copy()
                pt[:, c] = pt[:, p]
                pt[:, p] = swap
                order[c], order[p] = order[p], order[c]
            col[c + 1 :] /= col[c]
            if c + 1 < jb:
                # pt[c + 1 :, c + 1 :] -= pt[c + 1 :, c : c + 1] * col[c + 1 :];
                # the entries before c were zeroed at the earlier steps
                multipliers[c] = columns[c + 1 :, c] = 0.0
                multipliers[c + 1 :] = col[c + 1 :]
                columns[c + 1 :, c + 1 :] = pt[c + 1 :, c : c + 1]
                pt[c + 1 :] -= np.multiply(columns[c + 1 :], multipliers, out=columns[c + 1 :])
        # the interchanges reach the rows outside the panel in one gather of
        # the rows they moved
        moved = np.flatnonzero(order != np.arange(n - j))
        if moved.size:
            rows, source = j + moved, j + order[moved]
            lu[rows, :j] = lu[source, :j]
            lu[rows, end:] = lu[source, end:]
            perm[rows] = perm[source]
        lu[j:, j:end] = pt.T
        if singular:
            return LUFactorization(n, perm, lu, True)
        if end < n:
            # U12 = L11^{-1} A12, then GEMM trailing update
            panel = lu[j:end, j:end]
            tail = lu[j:end, end:]
            for r in range(1, jb):
                tail[r] -= panel[r, :r] @ tail[:r]
            # lu[end:, end:] -= lu[end:, j:end] @ tail; the rows keep their
            # length n, so the columns before j were zeroed at the last panel
            products = strips[: (n - end) * n].reshape(n - end, n)
            products[:, j:end] = 0.0
            np.matmul(lu[end:, j:end], tail, out=products[:, end:])
            lu[end:] -= products
    for j, end in bounds:
        inverses[0, j:end, : end - j] = np.linalg.inv(np.tril(lu[j:end, j:end], -1) + np.eye(end - j))
        inverses[1, j:end, : end - j] = np.linalg.inv(np.triu(lu[j:end, j:end]))
    # past the float maximum a factor turns inf or NaN, and an inverse may
    # read 1/inf as 0 and solve to a wrong but finite x; `lu` is tested a
    # block row at a time, so that the test's mask of n x n booleans does
    # not come on top of the strips
    if not all(all_finite(lu[j:end]) and all_finite(inverses[:, j:end, : end - j]) for j, end in bounds):
        raise ValueError("the LU factorization overflows the float range")
    used = 0

    def copy(part: np.ndarray) -> np.ndarray:
        nonlocal used
        strip = strips[used : used + part.size].reshape(part.shape)
        strip[...] = part
        used += part.size
        return strip

    lower = tuple((j, end, copy(lu[j:end, :j]), inverses[0, j:end, : end - j]) for j, end in bounds)
    upper = tuple((j, end, copy(lu[j:end, end:]), inverses[1, j:end, : end - j]) for j, end in reversed(bounds))
    return LUFactorization(n, perm, lu, False, lower, upper)


def lu_solve(fact: LUFactorization, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by blocked substitution; `b` is left unmodified."""
    b = as_vector(b)
    if fact.singular:
        raise SingularMatrixError("factorization is singular")
    if b.size != fact.dim:
        raise DimensionMismatchError(f"rhs has size {b.size}, matrix is {fact.dim}")
    n = fact.dim
    x = b[fact.perm]  # fancy indexing copies
    # tiny systems are solved very often, so the empty products of the
    # first and last block are skipped rather than computed
    for start, stop, strip, inverse in fact.lower_blocks:
        if start:
            x[start:stop] -= strip.dot(x[:start])
        x[start:stop] = inverse.dot(x[start:stop])
    for start, stop, strip, inverse in fact.upper_blocks:
        if stop < n:
            x[start:stop] -= strip.dot(x[stop:])
        x[start:stop] = inverse.dot(x[start:stop])
    return x


@dataclass(frozen=True, eq=False)
class SymmetricEigenDecomposition:
    """A = V diag(values) V^T with orthonormal columns, values ascending."""

    values: np.ndarray
    vectors: np.ndarray


def jacobi_eigendecomposition(a: np.ndarray) -> SymmetricEigenDecomposition:
    """LAPACK's symmetric eigensolver (numpy.linalg.eigh) on 0.5 (A + A^T).

    The name predates the switch from cyclic Jacobi rotations and stays
    because the benchmark's per-layer metric is keyed on it. An eigenvalue
    that overflows, as for [[1e308, 1e308], [1e308, 1e308]], is a ValueError.
    """
    # LAPACK returns finite-looking eigenvalues for some NaN inputs
    a = require_symmetric(real_array("matrix", a, 2))
    # halving first keeps sums of entries near the float maximum finite;
    # halving a normal number is exact, so away from overflow and subnormals
    # this equals 0.5 * (a + a.T) bitwise
    values, vectors = np.linalg.eigh(0.5 * a + 0.5 * a.T)
    if not all_finite(values):
        raise ValueError("matrix eigenvalues overflow the float range")
    return SymmetricEigenDecomposition(values, vectors)


def write_matrix(path, a: np.ndarray) -> None:
    """Text format: first line "rows cols", one whitespace-separated row per
    line. Each row is formatted from Python floats with one "%.17g" template,
    the same routine and bytes as f"{x:.17g}", non-finite values included."""
    a = as_matrix(a, "matrix")
    line = " ".join(["%.17g"] * a.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for row in a:
            fh.write(line % tuple(row.tolist()))


def read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: first line must be 'rows cols', got {header!r}")
        try:
            rows, cols = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ValueError(f"{path}: first line must be 'rows cols' integers") from exc
        if rows < 0 or cols < 0:
            raise ValueError(f"{path}: negative dimensions in 'rows cols' header")
        flat = fh.read().split()
    if len(flat) != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} entries, found {len(flat)}")
    return _floats(path, flat).reshape(rows, cols)


def write_vector(path, x: np.ndarray) -> None:
    x = as_vector(x)
    with open(path, "w") as fh:
        fh.write(("%.17g\n" * x.size) % tuple(x.tolist()))


def read_vector(path) -> np.ndarray:
    with open(path) as fh:
        toks = fh.read().split()
    if not toks:
        raise ValueError(f"{path}: empty vector file")
    return _floats(path, toks)


def _floats(path, tokens: list[str]) -> np.ndarray:
    """The tokens of a text file as floats, each read by float(); a token
    that is no number is float's ValueError after the file's path."""
    try:
        return np.fromiter(map(float, tokens), dtype=float, count=len(tokens))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _is_number(t) -> bool:
    # abs() also rejects NaN and integers too large for a float
    return isinstance(t, (int, float)) and abs(t) <= sys.float_info.max


def _is_integer(t) -> bool:
    return _is_number(t) and float(t).is_integer()


def _list_of(ok):
    return lambda t: isinstance(t, list) and all(map(ok, t))


# shape name -> (description, predicate) for values read from JSON documents
_JSON_SHAPES = {
    "number": ("a finite number", _is_number),
    "integer": ("an integer", _is_integer),
    "string": ("a string", lambda t: isinstance(t, str)),
    "object": ("an object", lambda t: isinstance(t, dict)),
    "numbers": ("a list of finite numbers", _list_of(_is_number)),
    "integers": ("a list of integers", _list_of(_is_integer)),
    "rows": ("a list of rows of finite numbers", _list_of(_list_of(_is_number))),
    "objects": ("a list of objects", _list_of(lambda t: isinstance(t, dict))),
}
_REQUIRED = object()


def _json_field(where: str, doc: dict, key: str, shape: str, default=_REQUIRED):
    """doc[key] after checking it against one of the `_JSON_SHAPES`; a
    missing key gives `default`, or an error when there is none. `where`
    names the document in the error message."""
    if key not in doc:
        if default is _REQUIRED:
            raise ValueError(f"{where} missing required key {key!r}")
        return default
    what, ok = _JSON_SHAPES[shape]
    if not ok(doc[key]):
        raise ValueError(f"{where} key {key!r} must be {what}, got {reprlib.repr(doc[key])}")
    return doc[key]
