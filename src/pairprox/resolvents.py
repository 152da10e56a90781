"""Warped and transformed resolvents evaluated by structural dispatch.

Given operators F, v and a step gamma, the engine inverts (gamma*F + v)
through a cached LU factorization (both operators affine), or, when the
shifted operator reduces to Sign terms plus an invertible linear part, by
one soft-threshold per coordinate (linear part diagonal) or by a table of
sign patterns whose subsystems are factored when the engine is built.
Anything else is Unsupported: no generic inner root-finder is attempted.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg, operators as ops
from .errors import (
    DimensionMismatchError,
    NonFiniteIterateError,
    NonPositiveSlopeError,
    NotInRangeError,
    SingularMatrixError,
    UnsupportedStructureError,
)

MEMBERSHIP_TOL = 1e-9
_SIGN_CONSISTENCY_TOL = 1e-12
_PATTERN_DIM_LIMIT = 8


def scalar_sign_affine_inverse(s, c, d, y):
    """The unique z with y in s*Sign(z) + c*z + d (requires c > 0, s >= 0).

    Broadcasts over arrays, elementwise; scalar arguments give a scalar.
    """
    if np.any(c <= 0.0):
        raise NonPositiveSlopeError(f"slope must be positive, got {c}")
    if np.any(s < 0.0):
        raise ValueError(f"sign scale must be nonnegative, got {s}")
    r = y - d
    return (np.where(r > s, r - s, np.where(r < -s, r + s, 0.0)) / c)[()]


# ---------------------------------------------------------------------------
# structural reductions


@dataclass
class _SignAffineForm:
    """gamma*F + v as y_i in s_i * Sign(x_{sel(i)}) + (B x)_i + d_i."""

    scales: np.ndarray  # s_i >= 0 per output row
    sign_var: np.ndarray  # input index whose sign feeds row i, or -1
    matrix: np.ndarray
    offset: np.ndarray


def _affine_form(matrix: np.ndarray, offset: np.ndarray) -> _SignAffineForm:
    dim = offset.size
    return _SignAffineForm(np.zeros(dim), np.full(dim, -1, dtype=int), matrix, offset)


def _try_sign_affine(op: ops.OperatorExpr, dim: int) -> _SignAffineForm | None:
    """Reduce an expression to its Sign-plus-affine form, or None; affine
    expressions reduce to a form whose scales are all zero."""
    if isinstance(op, ops.Affine):
        return _affine_form(op.matrix, op.offset)
    if isinstance(op, ops.Permutation):
        return _affine_form(op.as_matrix(), np.zeros(dim))
    if isinstance(op, ops.Pointwise):
        if op.name == "identity":
            return _affine_form(np.eye(dim), np.zeros(dim))
        if op.name == "negation":
            return _affine_form(-np.eye(dim), np.zeros(dim))
        return None
    if isinstance(op, ops.SignBlock):
        return _SignAffineForm(
            np.full(dim, op.scale),
            np.array(op.selector, dtype=int),
            np.zeros((dim, dim)),
            np.zeros(dim),
        )
    if isinstance(op, ops.Scale):
        inner = _try_sign_affine(op.inner, dim)
        if inner is None:
            return None
        return _SignAffineForm(
            op.gamma * inner.scales, inner.sign_var, op.gamma * inner.matrix, op.gamma * inner.offset
        )
    if isinstance(op, ops.Sum):
        acc = _affine_form(np.zeros((dim, dim)), np.zeros(dim))
        for t in op.terms:
            part = _try_sign_affine(t, dim)
            if part is None:
                return None
            acc.matrix = acc.matrix + part.matrix
            acc.offset = acc.offset + part.offset
            signed = part.scales != 0.0
            held = acc.scales != 0.0
            if np.any(signed & held & (acc.sign_var != part.sign_var)):
                return None  # two distinct Sign terms on one row
            taken = signed & ~held
            acc.sign_var[taken] = part.sign_var[taken]
            acc.scales[signed] += part.scales[signed]
        return acc
    if isinstance(op, ops.Stack):
        acc = _affine_form(np.zeros((dim, dim)), np.zeros(dim))
        for start, stop, sub in op.blocks:
            part = _try_sign_affine(sub, stop - start)
            if part is None:
                return None
            acc.matrix[start:stop, start:stop] = part.matrix
            acc.offset[start:stop] = part.offset
            acc.scales[start:stop] = part.scales
            shifted = part.sign_var.copy()
            shifted[shifted >= 0] += start
            acc.sign_var[start:stop] = shifted
        return acc
    return None


# ---------------------------------------------------------------------------
# engine strategies


class StrategyKind(Enum):
    AFFINE_AFFINE = "affine-affine"
    SIGN_SEPARABLE = "sign-separable"
    UNSUPPORTED = "unsupported"


@dataclass(eq=False)
class _AffineStrategy:
    factorization: linalg.LUFactorization
    offset: np.ndarray  # solve M z = w - offset


@dataclass(frozen=True, eq=False)
class _SignPattern:
    """One sign pattern p on the signed rows. A row with p = 0 pins its
    variable to zero and leaves the equations for a box condition; the kept
    rows and the free variables are then the same index set."""

    shift: np.ndarray  # (s * p)[rows]
    rows: np.ndarray  # kept equation rows, ascending
    cols: np.ndarray  # their variables sigma[rows]
    factorization: linalg.LUFactorization | None  # of M[rows, cols]; None if no row is kept
    nonneg: np.ndarray  # variables whose sign must be >= 0
    nonpos: np.ndarray  # variables whose sign must be <= 0
    pinned: np.ndarray  # rows whose variable is pinned to zero


@dataclass(frozen=True, eq=False)
class _SignStrategy:
    # normal form: y_i in s_i*Sign(x_{sigma[i]}) + (M x)_i + d_i
    scales: np.ndarray
    sigma: np.ndarray  # a permutation extending the rows' sign variables
    matrix: np.ndarray
    offset: np.ndarray
    diagonal: np.ndarray | None  # M[i, sigma[i]] if these are M's only nonzeros, all > 0
    patterns: tuple[_SignPattern, ...]  # the nonsingular ones, in (+, -, 0) order


@dataclass(eq=False)
class ResolventEngine:
    """Evaluator of (gamma*F + v)^{-1}; immutable after build."""

    f: ops.OperatorExpr
    v: ops.OperatorExpr
    gamma: float
    dim: int
    kind: StrategyKind
    _strategy: object | None


def build_engine(
    f: ops.OperatorExpr, v: ops.OperatorExpr, gamma: float, dim: int | None = None
) -> ResolventEngine:
    """Select an inversion strategy for gamma*F + v by pattern matching."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    n = f.dim if f.dim is not None else (v.dim if v.dim is not None else dim)
    if n is None:
        raise DimensionMismatchError("cannot infer dimension; pass dim explicitly")
    if (f.dim is not None and f.dim != n) or (v.dim is not None and v.dim != n):
        raise DimensionMismatchError("F and v disagree on dimension")

    form = _try_sign_affine(f, n)
    va = _try_sign_affine(v, n)
    if form is not None and va is not None and not np.any(va.scales):
        matrix = gamma * form.matrix + va.matrix
        offset = gamma * form.offset + va.offset
        if not np.any(form.scales):
            fact = linalg.lu_factorize(matrix)
            return ResolventEngine(f, v, gamma, n, StrategyKind.AFFINE_AFFINE, _AffineStrategy(fact, offset))
        strategy = _assemble_sign_strategy(gamma * form.scales, form.sign_var, matrix, offset, n)
        if strategy is not None:
            return ResolventEngine(f, v, gamma, n, StrategyKind.SIGN_SEPARABLE, strategy)

    return ResolventEngine(f, v, gamma, n, StrategyKind.UNSUPPORTED, None)


def _assemble_sign_strategy(
    scales: np.ndarray, sign_var: np.ndarray, matrix: np.ndarray, offset: np.ndarray, n: int
) -> _SignStrategy | None:
    # rows with a Sign term must reference distinct variables; rows without
    # one take the leftover variables in increasing order
    signed = scales > 0.0
    active = sign_var[signed]
    if np.unique(active).size != active.size:
        return None
    sigma = np.empty(n, dtype=int)
    sigma[signed] = active
    sigma[~signed] = np.setdiff1d(np.arange(n), active)
    permuted = matrix[:, sigma]
    diagonal = np.diag(permuted)
    if np.all(diagonal > 0.0) and np.all(permuted - np.diag(diagonal) == 0.0):
        return _SignStrategy(scales, sigma, matrix, offset, diagonal, ())
    if n > _PATTERN_DIM_LIMIT:
        return None
    full = linalg.lu_factorize(permuted)
    if full.singular:
        return None
    return _SignStrategy(scales, sigma, matrix, offset, None, _pattern_table(scales, sigma, matrix, full))


def _pattern_table(scales, sigma, matrix, full) -> tuple[_SignPattern, ...]:
    """Every sign pattern on the signed rows, in (+, -, 0) order, whose kept
    subsystem is nonsingular. Patterns that pin the same rows share one
    factorization; `full`, that of matrix[:, sigma], serves every pattern
    that pins none."""
    signed = np.flatnonzero(scales > 0.0)
    factors = {(): full}
    table = []
    for pattern in itertools.product((1.0, -1.0, 0.0), repeat=signed.size):
        p = np.zeros(scales.size)
        p[signed] = pattern
        pinned = signed[p[signed] == 0.0]
        rows = np.setdiff1d(np.arange(scales.size), pinned)
        key = tuple(pinned.tolist())
        if key not in factors:
            factors[key] = linalg.lu_factorize(matrix[np.ix_(rows, sigma[rows])]) if rows.size else None
        fact = factors[key]
        if fact is None or not fact.singular:
            table.append(
                _SignPattern((scales * p)[rows], rows, sigma[rows], fact, sigma[p > 0.0], sigma[p < 0.0], pinned)
            )
    return tuple(table)


# ---------------------------------------------------------------------------
# inversion


def _invert_affine(strategy: _AffineStrategy, w: np.ndarray) -> np.ndarray:
    if strategy.factorization.singular:
        raise SingularMatrixError(
            "gamma*F + v is singular affine; the range condition fails and no pseudo-solution is returned"
        )
    return linalg.lu_solve(strategy.factorization, w - strategy.offset)


def _invert_sign(strategy: _SignStrategy, w: np.ndarray) -> np.ndarray:
    y = w - strategy.offset
    if strategy.diagonal is not None:
        x = np.zeros_like(y)
        x[strategy.sigma] = scalar_sign_affine_inverse(strategy.scales, strategy.diagonal, 0.0, y)
        return x
    for pattern in strategy.patterns:
        x = _solve_pattern(strategy, pattern, y)
        if x is not None:
            return x
    raise NotInRangeError("no sign pattern yields a consistent solution; input not in range")


def _solve_pattern(strategy: _SignStrategy, pattern: _SignPattern, y: np.ndarray) -> np.ndarray | None:
    """The x that `pattern` assigns to y in s*Sign(x[sigma]) + M x, or None
    when x breaks the pattern's sign or box conditions."""
    x = np.zeros(y.size)
    if pattern.factorization is not None:
        x[pattern.cols] = linalg.lu_solve(pattern.factorization, y[pattern.rows] - pattern.shift)
    if (x[pattern.nonneg] < -_SIGN_CONSISTENCY_TOL).any() or (x[pattern.nonpos] > _SIGN_CONSISTENCY_TOL).any():
        return None
    pinned = pattern.pinned
    if pinned.size:
        resid = y[pinned] - strategy.matrix[pinned] @ x
        if (np.abs(resid) > strategy.scales[pinned] + MEMBERSHIP_TOL).any():
            return None
    return x


# ---------------------------------------------------------------------------
# public evaluation


@dataclass(frozen=True, eq=False)
class ResolventOutput:
    """Both views of one resolvent evaluation: z in (gamma*F+v)^{-1}(input)
    and its kernel image v(z)."""

    preimage: np.ndarray
    image: np.ndarray


def _invert(engine: ResolventEngine, w: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(w)):
        raise NonFiniteIterateError("resolvent input contains NaN/Inf")
    if engine.kind is StrategyKind.AFFINE_AFFINE:
        z = _invert_affine(engine._strategy, w)
    elif engine.kind is StrategyKind.SIGN_SEPARABLE:
        z = _invert_sign(engine._strategy, w)
    else:
        raise UnsupportedStructureError(
            f"no closed-form resolvent for F={type(engine.f).__name__}, v={type(engine.v).__name__}"
        )
    if not np.all(np.isfinite(z)):
        raise NonFiniteIterateError("resolvent produced a non-finite point")
    return z


def _check_membership(engine: ResolventEngine, target: np.ndarray, z: np.ndarray, vz: np.ndarray) -> None:
    resid = target - vz
    fz = engine.f.evaluate(z)
    # the band scales with data magnitude so that roundoff on large iterates
    # is not misread as a range failure
    tol = MEMBERSHIP_TOL * (1.0 + float(np.max(np.abs(target))) + float(np.max(np.abs(vz))))
    lo = engine.gamma * fz.lower - tol
    hi = engine.gamma * fz.upper + tol
    if not (np.all(resid >= lo) and np.all(resid <= hi)):
        raise NotInRangeError(
            f"membership check failed: max violation "
            f"{float(np.max(np.maximum(lo - resid, resid - hi))):.3e}"
        )


def warped(engine: ResolventEngine, x: np.ndarray) -> ResolventOutput:
    """z in (gamma*F + v)^{-1}(v(x)); fixed points are zeros of F.

    This is `transformed` at v(x). An iteration that already holds v(x),
    as the image of its previous step, should call `transformed` on it
    directly and save one evaluation of v per step.
    """
    x = linalg.as_vector(x)
    if x.size != engine.dim:
        raise DimensionMismatchError(f"engine dim {engine.dim}, input dim {x.size}")
    return transformed(engine, ops.evaluate_point(engine.v, x))


def transformed(engine: ResolventEngine, x: np.ndarray) -> ResolventOutput:
    """v(z) with z in (gamma*F + v)^{-1}(x); fixed points are v-images of
    zeros of F. Raises NotInRangeError when x is outside ran(gamma*F + v)."""
    x = linalg.as_vector(x)
    if x.size != engine.dim:
        raise DimensionMismatchError(f"engine dim {engine.dim}, input dim {x.size}")
    z = _invert(engine, x)
    vz = ops.evaluate_point(engine.v, z)
    _check_membership(engine, x, z, vz)
    return ResolventOutput(z, vz)
