"""Warped and transformed resolvents evaluated by structural dispatch.

Given operators F, v and a step gamma, the engine inverts (gamma*F + v) either
through a cached LU factorization (both operators affine) or through a
componentwise / sign-pattern case analysis when the shifted operator reduces
to Sign terms plus an invertible linear part. Anything else is Unsupported:
no generic inner root-finder is attempted.
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


def scalar_sign_affine_inverse(s: float, c: float, d: float, y: float) -> float:
    """The unique z with y in s*Sign(z) + c*z + d (requires c > 0, s >= 0)."""
    if c <= 0.0:
        raise NonPositiveSlopeError(f"slope must be positive, got {c}")
    if s < 0.0:
        raise ValueError(f"sign scale must be nonnegative, got {s}")
    r = y - d
    if r > s:
        return (r - s) / c
    if r < -s:
        return (r + s) / c
    return 0.0


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


@dataclass(eq=False)
class _SignStrategy:
    # normal form in permuted variables u: y in s*Sign(u) + B' u + d, u = P x
    scales: np.ndarray
    sigma: np.ndarray  # u_i = x_{sigma[i]}
    bprime: np.ndarray
    offset: np.ndarray
    diagonal: bool  # B' diagonal with positive diagonal -> scalar inversion

    def __post_init__(self):
        # per-pattern subsystem factorizations, filled lazily
        self._subfacts: dict[tuple, linalg.LUFactorization] = {}


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
    # rows with a Sign term must reference distinct variables
    active = sign_var[scales > 0.0]
    if len(set(active.tolist())) != active.size:
        return None
    # extend the partial selector to a full permutation (rows without Sign
    # take the leftover variables in increasing order)
    sigma = np.full(n, -1, dtype=int)
    used = set(active.tolist())
    sigma[scales > 0.0] = active
    leftovers = iter(sorted(set(range(n)) - used))
    for i in range(n):
        if sigma[i] < 0:
            sigma[i] = next(leftovers)
    p = np.zeros((n, n))
    p[np.arange(n), sigma] = 1.0  # u = P x
    bprime = matrix @ p.T

    diag_ok = bool(
        np.all(np.diag(bprime) > 0.0) and np.all(np.abs(bprime - np.diag(np.diag(bprime))) == 0.0)
    )
    if diag_ok:
        return _SignStrategy(scales, sigma, bprime, offset, True)
    if n > _PATTERN_DIM_LIMIT:
        return None
    if linalg.lu_factorize(bprime).singular:
        return None
    return _SignStrategy(scales, sigma, bprime, offset, False)


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
    n = y.size
    sigma = strategy.sigma
    if strategy.diagonal:
        diag = np.diag(strategy.bprime)
        u = np.array(
            [scalar_sign_affine_inverse(strategy.scales[i], diag[i], 0.0, y[i]) for i in range(n)]
        )
        return _unpermute(u, sigma)

    b = strategy.bprime
    s = strategy.scales
    signed_rows = [i for i in range(n) if s[i] > 0.0]
    for pattern in itertools.product((1.0, -1.0, 0.0), repeat=len(signed_rows)):
        p_full = np.zeros(n)
        for row, val in zip(signed_rows, pattern):
            p_full[row] = val
        zero_vars = [row for row, val in zip(signed_rows, pattern) if val == 0.0]
        free = [i for i in range(n) if i not in zero_vars]
        eq_rows = [i for i in range(n) if not (s[i] > 0.0 and p_full[i] == 0.0)]
        rhs = y - s * p_full
        u = np.zeros(n)
        if free:
            fact = strategy._subfacts.get(pattern)
            if fact is None:
                fact = linalg.lu_factorize(b[np.ix_(eq_rows, free)])
                strategy._subfacts[pattern] = fact
            if fact.singular:
                continue
            u[free] = linalg.lu_solve(fact, rhs[eq_rows])
        # sign consistency on determined rows
        ok = True
        for row, val in zip(signed_rows, pattern):
            if val > 0.0 and u[row] < -_SIGN_CONSISTENCY_TOL:
                ok = False
                break
            if val < 0.0 and u[row] > _SIGN_CONSISTENCY_TOL:
                ok = False
                break
        if not ok:
            continue
        # box consistency on rows whose sign variable was pinned to zero
        resid = y - b @ u
        for row in zero_vars:
            if abs(resid[row]) > s[row] + MEMBERSHIP_TOL:
                ok = False
                break
        if ok:
            return _unpermute(u, sigma)
    raise NotInRangeError("no sign pattern yields a consistent solution; input not in range")


def _unpermute(u: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    x = np.zeros_like(u)
    x[sigma] = u
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
