"""Dense linear algebra kernels: BLAS-1/2 helpers, LU with partial pivoting,
and a cyclic Jacobi eigensolver for symmetric matrices.

The LU factorization eliminates in column panels and then inverts each
diagonal block of L and U once. A solve is blocked forward and back
substitution on those cached inverses (Golub & Van Loan, Matrix
Computations, section 3.1): per block, one matrix-vector product for the
part already solved and one small product with the block's inverse, so no
Python loop runs over the rows.

Everything operates on plain float64 numpy arrays; matrices are row-major
2-D arrays, vectors are 1-D arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
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


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    a, x = as_matrix(a), as_vector(x)
    if a.shape[1] != x.size:
        raise DimensionMismatchError(f"matvec: {a.shape} by {x.size}")
    return a @ x


def dot(x: np.ndarray, y: np.ndarray) -> float:
    x, y = as_vector(x), as_vector(y)
    if x.size != y.size:
        raise DimensionMismatchError(f"dot: {x.size} vs {y.size}")
    return float(x @ y)


def norm2(x: np.ndarray) -> float:
    x = as_vector(x)
    return float(np.sqrt(x @ x))


def axpy(alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """alpha * x + y."""
    x, y = as_vector(x), as_vector(y)
    if x.size != y.size:
        raise DimensionMismatchError(f"axpy: {x.size} vs {y.size}")
    return alpha * x + y


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


def jacobi_eigendecomposition(a: np.ndarray, max_sweeps: int = 100) -> SymmetricEigenDecomposition:
    """Cyclic Jacobi rotations until the off-diagonal Frobenius norm falls
    below 1e-12 * ||A||_F (or the sweep budget runs out)."""
    a = require_symmetric(a)
    n = a.shape[0]
    b = 0.5 * (a + a.T)
    v = np.eye(n)
    norm_f = float(np.linalg.norm(a))
    target = 1e-12 * norm_f
    if n == 1 or norm_f == 0.0:
        return _sorted_eigen(np.diag(b).copy(), v)
    skip = target / n

    for _ in range(max_sweeps):
        off = _offdiag_norm(b)
        if off <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = b[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (b[q, q] - b[p, p]) / (2.0 * apq)
                t = 1.0 / (abs(tau) + np.sqrt(1.0 + tau * tau))
                if tau < 0.0:
                    t = -t
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                _rotate(b, v, p, q, c, s)
    else:
        if _offdiag_norm(b) > target:
            raise NoConvergenceError(f"Jacobi did not converge in {max_sweeps} sweeps")
    return _sorted_eigen(np.diag(b).copy(), v)


def _offdiag_norm(b: np.ndarray) -> float:
    off = b - np.diag(np.diag(b))
    return float(np.linalg.norm(off))


def _rotate(b: np.ndarray, v: np.ndarray, p: int, q: int, c: float, s: float) -> None:
    bp = b[:, p].copy()
    bq = b[:, q].copy()
    b[:, p] = c * bp - s * bq
    b[:, q] = s * bp + c * bq
    bp = b[p, :].copy()
    bq = b[q, :].copy()
    b[p, :] = c * bp - s * bq
    b[q, :] = s * bp + c * bq
    b[p, q] = 0.0
    b[q, p] = 0.0
    vp = v[:, p].copy()
    vq = v[:, q].copy()
    v[:, p] = c * vp - s * vq
    v[:, q] = s * vp + c * vq


def _sorted_eigen(values: np.ndarray, vectors: np.ndarray) -> SymmetricEigenDecomposition:
    order = np.argsort(values, kind="stable")
    return SymmetricEigenDecomposition(values[order], vectors[:, order])


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
