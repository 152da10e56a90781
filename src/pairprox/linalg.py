"""Dense linear algebra kernels: LU with partial pivoting, the symmetric
eigendecomposition behind the kernel-shift selection, and matrix text I/O.

The LU factorization eliminates in column panels and then inverts each
diagonal block of L and U once. A solve is blocked forward and back
substitution on those cached inverses (Golub & Van Loan, Matrix
Computations, section 3.1): per block, one matrix-vector product for the
part already solved and one small product with the block's inverse, so no
Python loop runs over the rows.

Everything operates on plain float64 numpy arrays; matrices are row-major
2-D arrays, vectors are 1-D arrays. The readers of the JSON operator and QP
files check each value's shape here before converting it.
"""
from __future__ import annotations

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

_PIVOT_RTOL = 1e-12
_SYMMETRY_RTOL = 1e-10


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def require_finite(a: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def max_asymmetry(a: np.ndarray) -> float:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"matrix is {a.shape[0]}x{a.shape[1]}")
    return float(np.max(np.abs(a - a.T))) if a.size else 0.0


def require_symmetric(a: np.ndarray, rtol: float = _SYMMETRY_RTOL) -> np.ndarray:
    a = as_matrix(a)
    scale = 1.0 + (float(np.max(np.abs(a))) if a.size else 0.0)
    if max_asymmetry(a) > rtol * scale:
        raise NotSymmetricError(f"asymmetry {max_asymmetry(a):.3e} exceeds tolerance")
    return a


@dataclass(frozen=True, eq=False)
class LUFactorization:
    """Packed PA = LU with partial pivoting (unit lower triangle implied).

    `lower_blocks` and `upper_blocks` hold (start, stop, inverse) for each
    diagonal block of L and of U, in the order the forward and the back
    substitution visit them (U's in reverse); both are empty when the
    matrix is flagged singular.
    """

    dim: int
    perm: np.ndarray
    packed: np.ndarray
    singular: bool
    lower_blocks: tuple[tuple[int, int, np.ndarray], ...] = ()
    upper_blocks: tuple[tuple[int, int, np.ndarray], ...] = ()


def lu_factorize(a: np.ndarray, block: int = 64) -> LUFactorization:
    """Factorize a square matrix; flags singularity instead of raising.

    A pivot below 1e-12 * max|A| marks the matrix singular (the downstream
    solvers target deliberately singular systems, so detection must be a
    reportable state, not an exception).
    """
    a = as_matrix(a)
    n, m = a.shape
    if n != m:
        raise NonSquareError(f"matrix is {n}x{m}")
    lu = a.copy()
    perm = np.arange(n)
    maxabs = float(np.max(np.abs(a))) if a.size else 0.0
    if maxabs == 0.0:
        return LUFactorization(n, perm, lu, True)
    threshold = _PIVOT_RTOL * maxabs

    for j in range(0, n, block):
        jb = min(block, n - j)
        for k in range(j, j + jb):
            p = k + int(np.argmax(np.abs(lu[k:, k])))
            if abs(lu[p, k]) < threshold:
                return LUFactorization(n, perm, lu, True)
            if p != k:
                lu[[k, p], :] = lu[[p, k], :]
                perm[[k, p]] = perm[[p, k]]
            lu[k + 1 :, k] /= lu[k, k]
            if k + 1 < j + jb:
                lu[k + 1 :, k + 1 : j + jb] -= lu[k + 1 :, k : k + 1] * lu[k : k + 1, k + 1 : j + jb]
        end = j + jb
        if end < n:
            # U12 = L11^{-1} A12, then GEMM trailing update
            panel = lu[j:end, j:end]
            tail = lu[j:end, end:]
            for r in range(1, jb):
                tail[r] -= panel[r, :r] @ tail[:r]
            lu[end:, end:] -= lu[end:, j:end] @ tail
    # all inverses share one allocation: as separate small arrays that live
    # through a whole solve they fragmented the heap, and peak RSS then grew
    # by a full n x n matrix in about half of the benchmark's runs
    bounds = [(j, min(j + block, n)) for j in range(0, n, block)]
    inverses = np.empty((2, n, min(block, n)))
    for j, end in bounds:
        inverses[0, j:end, : end - j] = np.linalg.inv(np.tril(lu[j:end, j:end], -1) + np.eye(end - j))
        inverses[1, j:end, : end - j] = np.linalg.inv(np.triu(lu[j:end, j:end]))
    lower = tuple((j, end, inverses[0, j:end, : end - j]) for j, end in bounds)
    upper = tuple((j, end, inverses[1, j:end, : end - j]) for j, end in reversed(bounds))
    return LUFactorization(n, perm, lu, False, lower, upper)


def lu_solve(fact: LUFactorization, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by blocked substitution; `b` is left unmodified."""
    b = as_vector(b)
    if fact.singular:
        raise SingularMatrixError("factorization is singular")
    if b.size != fact.dim:
        raise DimensionMismatchError(f"rhs has size {b.size}, matrix is {fact.dim}")
    lu = fact.packed
    n = fact.dim
    x = b[fact.perm]  # fancy indexing copies
    # tiny systems are solved very often, so the empty products of the
    # first and last block are skipped rather than computed
    for start, stop, inverse in fact.lower_blocks:
        if start:
            x[start:stop] -= lu[start:stop, :start].dot(x[:start])
        x[start:stop] = inverse.dot(x[start:stop])
    for start, stop, inverse in fact.upper_blocks:
        if stop < n:
            x[start:stop] -= lu[start:stop, stop:].dot(x[stop:])
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
    a = require_symmetric(require_finite(as_matrix(a), "matrix"))
    # halving first keeps sums of entries near the float maximum finite;
    # halving a normal number is exact, so away from overflow and subnormals
    # this equals 0.5 * (a + a.T) bitwise
    values, vectors = np.linalg.eigh(0.5 * a + 0.5 * a.T)
    if not np.all(np.isfinite(values)):
        raise ValueError("matrix eigenvalues overflow the float range")
    return SymmetricEigenDecomposition(values, vectors)


def write_matrix(path, a: np.ndarray) -> None:
    """Text format: first line "rows cols", one whitespace-separated row per line."""
    a = as_matrix(a)
    with open(path, "w") as fh:
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for row in a:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


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
    data = np.array([float(tok) for tok in flat], dtype=float)
    return data.reshape(rows, cols)


def write_vector(path, x: np.ndarray) -> None:
    x = as_vector(x)
    with open(path, "w") as fh:
        for val in x:
            fh.write(f"{val:.17g}\n")


def read_vector(path) -> np.ndarray:
    with open(path) as fh:
        toks = fh.read().split()
    if not toks:
        raise ValueError(f"{path}: empty vector file")
    return np.array([float(tok) for tok in toks], dtype=float)


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
