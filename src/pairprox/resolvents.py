"""Warped and transformed resolvents evaluated by structural dispatch.

Given operators F, v and a step gamma, the engine inverts (gamma*F + v)
through a cached LU factorization (both operators affine), or, when the
shifted operator reduces to Sign terms plus a linear part, by one
soft-threshold per coordinate (linear part diagonal with positive slopes)
or, where the linear part is certified, by a table of sign patterns whose
subsystems are factored when the engine is built. The certificate asks
that the symmetric part of the linear term in the sign variables be
positive definite past 1e-10 of its largest |eigenvalue|: gamma*F + v is
then strongly and maximally monotone, so its inverse is single-valued on
R^n, as the paper's iterations need. It is relative: diag(1e11, 1, 1)
plus a small skew part fails it, and a unit diagonal with skew entries
+-1e13 passes. The build raises UnsupportedStructureError for an
uncertified Sign system or any other pair (no generic root-finder is
tried), and SingularMatrixError for a singular affine gamma*F + v, so
every engine it returns can be evaluated.

The pattern search accepts a pattern whose x solves the inclusion for an
input within the roundoff n*eps*(|y| + |M||x| + s) of y in the max norm;
no other tolerance applies. It tries the pattern the caller names first,
such as the one its previous step accepted, then the table in (+, -, 0)
order; the start changes the point found by roundoff at most. The pattern
that pins every row has x = 0 and needs no solve: its pinned residual is
|y| - s, tested over Python floats. Near a kink at the origin every step
takes it, and its image is the engine's v(0), computed on the first such
step and copied out on each, so the build still evaluates no operator.

An accepted sign pattern satisfies the inclusion by construction, and
evaluations check nothing further per call. The structural reduction
itself is trusted: the tests compare it with each tree's `evaluate`.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg, operators as ops
from .errors import (
    DimensionMismatchError,
    NonFiniteIterateError,
    NotInRangeError,
    SingularMatrixError,
    UnsupportedStructureError,
)

_EPS = np.finfo(float).eps
_PATTERN_DIM_LIMIT = 8
# the smallest eigenvalue of sym(B) must exceed this fraction of the largest
# absolute value, so that a singular semidefinite part is not certified on roundoff
_CERTIFICATE_RTOL = 1e-10


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
        sign = {"identity": 1.0, "negation": -1.0}.get(op.name)
        return None if sign is None else _affine_form(sign * np.eye(dim), np.zeros(dim))
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


@dataclass(eq=False)
class _AffineStrategy:
    factorization: linalg.LUFactorization
    offset: np.ndarray  # solve M z = w - offset


@dataclass(frozen=True, eq=False)
class _SignPattern:
    """One sign pattern p on the signed rows. A row with p = 0 pins its
    variable to zero and leaves the equations for a box condition; the kept
    rows and the free variables are then the same index set. The pattern
    takes y when its x has the signs p and leaves each pinned row's residual
    in [-s, s], both up to the roundoff that `_solve_pattern` bounds."""

    shift: np.ndarray  # (s * p)[rows]
    # per variable, +1 if its sign must be >= 0, -1 if <= 0, else 0: the
    # sign conditions then hold when min(signs * x) >= 0
    signs: np.ndarray
    # the next seven are shared by the patterns that pin the same rows, the last three by the table
    rows: np.ndarray  # kept equation rows, ascending
    cols: np.ndarray  # their variables sigma[rows]
    factorization: linalg.LUFactorization | None  # of M[rows, cols]; None if no row is kept
    pinned: np.ndarray  # rows whose variable is pinned to zero
    pinned_matrix: np.ndarray  # M[pinned]
    pinned_scales: np.ndarray  # s[pinned], the box half-widths
    pinned_floats: list[float]  # the same, as Python floats for the pattern that pins every row
    column_total: float  # sum_j max_i |M_ij|: zeroing entries |x_j| <= t moves M x by <= t * this
    matrix_norm: float  # the max norms of M and s
    scale_max: float


@dataclass(frozen=True, eq=False)
class _SignStrategy:
    # normal form: y_i in s_i*Sign(x_{sigma[i]}) + (M x)_i + d_i
    scales: np.ndarray
    sigma: np.ndarray  # a permutation extending the rows' sign variables
    offset: np.ndarray
    diagonal: np.ndarray | None  # M[i, sigma[i]] if these are M's only nonzeros, all > 0
    patterns: tuple[_SignPattern, ...]  # the nonsingular ones, in (+, -, 0) order
    zero_offset: bool  # see `_is_plus_zero`


@dataclass(eq=False)
class ResolventEngine:
    """Evaluator of (gamma*F + v)^{-1}; immutable after build."""

    v: ops.OperatorExpr
    dim: int
    kind: StrategyKind
    _strategy: _AffineStrategy | _SignStrategy

    @functools.cached_property
    def kink_image(self) -> np.ndarray:
        """v(0), the image of the sign pattern that pins every row."""
        return ops.evaluate_point(self.v, np.zeros(self.dim))


def build_engine(
    f: ops.OperatorExpr, v: ops.OperatorExpr, gamma: float, dim: int | None = None
) -> ResolventEngine:
    """Select an inversion strategy for gamma*F + v by pattern matching on
    the trees of F and v; no operator is evaluated. A pair that no strategy
    inverts, an uncertified Sign system among them, is an
    UnsupportedStructureError, a singular affine one a SingularMatrixError,
    a non-finite one a ValueError."""
    gamma = _require_gamma(gamma)
    n = f.dim if f.dim is not None else (v.dim if v.dim is not None else dim)
    if n is None:
        raise DimensionMismatchError("cannot infer dimension; pass dim explicitly")
    if (f.dim is not None and f.dim != n) or (v.dim is not None and v.dim != n):
        raise DimensionMismatchError(f"F and v disagree on dimension: F has {f.dim}, v has {v.dim}")

    form = _try_sign_affine(f, n)
    va = _try_sign_affine(v, n)
    if form is not None and va is not None and not np.any(va.scales):
        # numpy writes the sum into the product's temporary: one n x n array,
        # which an affine engine's factorization then keeps as `packed`
        matrix = gamma * form.matrix + va.matrix
        if not linalg.all_finite(matrix):
            raise _not_finite(form, va, "its matrix has non-finite entries")
        offset, scales = gamma * form.offset + va.offset, gamma * form.scales
        if not (linalg.all_finite(offset) and linalg.all_finite(scales)):
            raise _not_finite(form, va, "its offset or Sign scales are not finite")
        if not np.any(form.scales):
            fact = linalg._factorize_in_place(matrix)
            if fact.singular:
                raise SingularMatrixError(
                    "gamma*F + v is singular affine; the range condition fails and no pseudo-solution is returned"
                )
            return ResolventEngine(v, n, StrategyKind.AFFINE_AFFINE, _AffineStrategy(fact, offset))
        strategy = _assemble_sign_strategy(scales, form.sign_var, matrix, offset, n)
        if strategy is not None:
            return ResolventEngine(v, n, StrategyKind.SIGN_SEPARABLE, strategy)
    raise UnsupportedStructureError(f"no closed-form resolvent for F={type(f).__name__}, v={type(v).__name__}")


def _not_finite(form: _SignAffineForm, va: _SignAffineForm, what: str) -> ValueError:
    """A NaN in F's or v's own data, tested on this error path only, is named; anything else overflowed."""
    data = {"F's matrix": form.matrix, "F's offset": form.offset, "v's matrix": va.matrix, "v's offset": va.offset}
    nan = [name for name, values in data.items() if np.isnan(values).any()]
    return ValueError(f"{nan[0]} holds NaN" if nan else f"gamma*F + v overflows the float range: {what}")


# the step rule, which solvers.SolverConfig reads each gamma of a schedule
# through: an infinite gamma leaves gamma*F + v non-finite
_require_gamma = functools.partial(linalg.real_scalar, "gamma", low=0, high=math.inf, ends="()")


def _is_plus_zero(offset: np.ndarray) -> bool:
    """Whether every entry is +0, so that a step may use w for w - offset: bitwise
    the same, NaN and -0 included. A -0 entry does not count: -0 - (-0) is +0."""
    return not (np.any(offset) or np.any(np.signbit(offset)))


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
    zero_offset = _is_plus_zero(offset)
    if np.all(diagonal > 0.0) and np.all(permuted - np.diag(diagonal) == 0.0):
        return _SignStrategy(scales, sigma, offset, diagonal, (), zero_offset)
    if n > _PATTERN_DIM_LIMIT:
        return None
    # built first, so that a system whose norms or factors overflow is named as one
    table = _pattern_table(scales, sigma, matrix)
    # halving first keeps the sum of two entries near the float maximum finite
    eig = np.linalg.eigvalsh(0.5 * permuted + 0.5 * permuted.T)
    # sym(permuted) positive definite makes u -> s*Sign(u) + permuted u strongly
    # monotone in u = x[sigma], so every input has exactly one preimage
    largest = np.abs(eig).max()
    if not eig[0] > _CERTIFICATE_RTOL * largest:
        raise UnsupportedStructureError(
            "(gamma*F + v)^-1 is not certified single-valued: the symmetric part of its linear term in the"
            f" sign variables has least eigenvalue {eig[0]:.3g}, not above {_CERTIFICATE_RTOL:g} times"
            f" its largest |eigenvalue| {largest:.3g}"
        )
    return _SignStrategy(scales, sigma, offset, None, table, zero_offset)


def _pattern_table(scales, sigma, matrix) -> tuple[_SignPattern, ...]:
    """Every sign pattern on the signed rows, in (+, -, 0) order, whose kept
    subsystem has no zero pivot. Patterns that pin the same rows share their
    kept rows, factorization and pinned rows of M. On a certified system the
    symmetric part of each kept subsystem, a principal submatrix of
    sym(M[:, sigma]), is positive definite, so none is singular however
    ill-conditioned: a relative pivot test dropped subsystems of condition
    4e12 to 7e12 at scale 1e12, and inputs in range raised NotInRangeError."""
    signed = np.flatnonzero(scales > 0.0)
    entries = np.abs(matrix)
    norms = (float(entries.max(axis=0).sum()), float(entries.sum(axis=1).max()), float(scales.max()))
    shared = {}
    for zeros in itertools.product((False, True), repeat=signed.size):
        pinned = signed[np.array(zeros, dtype=bool)]
        rows = np.delete(np.arange(scales.size), pinned)
        fact = linalg.lu_factorize(matrix[np.ix_(rows, sigma[rows])], pivot_rtol=0.0) if rows.size else None
        if fact is None or not fact.singular:
            shared[zeros] = (rows, sigma[rows], fact, pinned, matrix[pinned], scales[pinned], scales[pinned].tolist())
    # column_total bounds matrix_norm; past the float maximum a norm makes
    # `_roundoff` inf, and `_solve_pattern` then rejects no pattern
    if not all(map(math.isfinite, norms)):
        raise ValueError("gamma*F + v overflows the float range: the norms of its sign patterns are not finite")
    table = []
    for pattern in itertools.product((1.0, -1.0, 0.0), repeat=signed.size):
        group = shared.get(tuple(p == 0.0 for p in pattern))
        if group is not None:
            signs = np.zeros(scales.size)
            signs[sigma[signed]] = pattern
            table.append(_SignPattern((scales * signs[sigma])[group[0]], signs, *group, *norms))
    return tuple(table)


# ---------------------------------------------------------------------------
# inversion


def _invert_sign(strategy: _SignStrategy, w: np.ndarray, start: int | None = None) -> tuple[np.ndarray, int | None]:
    """The preimage of w and the index of the table pattern that gave it
    (None on the diagonal branch). The search tries pattern `start` first,
    when it names one. Every input is in the range of a certified system, so
    a NotInRangeError here can come only from roundoff. A non-finite w, or y =
    w - offset, is a NonFiniteIterateError from any start: a table tests y's
    floats before any pattern is solved, and w only to pick the message."""
    y = w if strategy.zero_offset else w - strategy.offset
    if strategy.diagonal is not None:
        _require_finite(w)
        # soft-threshold: row i gives the unique t = x[sigma[i]] with
        # y_i in s_i*Sign(t) + c_i*t, c_i > 0
        s = strategy.scales
        x = np.zeros_like(y)
        x[strategy.sigma] = np.where(y > s, y - s, np.where(y < -s, y + s, 0.0)) / strategy.diagonal
        return x, None
    if not all(map(math.isfinite, y.tolist())):
        _require_finite(w)
        raise NonFiniteIterateError("resolvent input minus the offset overflows the float range")
    order = range(len(strategy.patterns))
    if start is not None and 0 <= start < len(order):
        x = _solve_pattern(strategy.patterns[start], y)
        if x is not None:
            return x, start
        order = (i for i in order if i != start)
    for i in order:
        x = _solve_pattern(strategy.patterns[i], y)
        if x is not None:
            return x, i
    raise NotInRangeError("no sign pattern yields a consistent solution; input not in range")


def _solve_pattern(pattern: _SignPattern, y: np.ndarray) -> np.ndarray | None:
    """The x that `pattern` assigns to y in s*Sign(x[sigma]) + M x, or None
    unless x solves that inclusion for an input within `_roundoff` of y:
    zeroing x's entries of the wrong sign moves M x by no more, nor does a
    pinned row's |residual| pass s by more. Exact hits skip the bound.

    The pattern that pins every row has x = 0: no sign can be wrong, and
    the pinned residual is |y| - s, bitwise |y - M 0| - s for M finite.
    Its largest entry is taken over Python floats, cheaper on the at most
    _PATTERN_DIM_LIMIT rows and the same value provided y holds no NaN, as
    `_invert_sign`'s y, tested finite before any pattern, does. y may be the
    caller's w, which nothing here writes."""
    x = np.zeros(y.size)
    if pattern.factorization is None:
        # its pinned rows are all rows, in order; map runs the loop in C
        passed = max(map(operator.sub, map(abs, y.tolist()), pattern.pinned_floats))
        return None if passed > 0.0 and passed > _roundoff(pattern, y, x) else x
    x[pattern.cols] = linalg.lu_solve(pattern.factorization, y[pattern.rows] - pattern.shift)
    # ufunc reductions called directly skip ndarray.min's Python wrapper
    low = np.minimum.reduce(pattern.signs * x)
    if low < 0.0 and -low * pattern.column_total > _roundoff(pattern, y, x):
        return None
    if pattern.pinned.size:
        passed = np.maximum.reduce(np.abs(y[pattern.pinned] - pattern.pinned_matrix @ x) - pattern.pinned_scales)
        if passed > 0.0 and passed > _roundoff(pattern, y, x):
            return None
    return x


def _roundoff(pattern: _SignPattern, y: np.ndarray, x: np.ndarray) -> float:
    """n*eps*(|y| + |M||x| + s) in max norms: the roundoff of any row's terms.
    A y that overflowed is a NonFiniteIterateError: an infinite bound would
    accept any pattern."""
    top = max(map(abs, y.tolist()))
    if not top < math.inf:
        raise NonFiniteIterateError("resolvent input minus the offset overflows the float range")
    return y.size * _EPS * (top + pattern.matrix_norm * max(map(abs, x.tolist())) + pattern.scale_max)


# ---------------------------------------------------------------------------
# public evaluation


@dataclass(eq=False, slots=True)
class ResolventOutput:
    """Both views of one resolvent evaluation: z in (gamma*F+v)^{-1}(input)
    and its kernel image v(z); slotted, not frozen, which builds one per step in a third of the time."""

    preimage: np.ndarray
    image: np.ndarray
    # the sign pattern table index that gave the preimage; None for affine
    # and diagonal engines
    pattern: int | None = None


def _checked_input(engine: ResolventEngine, x: np.ndarray) -> np.ndarray:
    """x as a float vector of the engine's dimension; each branch tests its finiteness."""
    x = linalg.as_vector(x, "resolvent input")
    if x.size != engine.dim:
        raise DimensionMismatchError(f"engine dim {engine.dim}, input dim {x.size}")
    return x


def _require_finite(x: np.ndarray) -> np.ndarray:
    if not linalg.all_finite(x):
        raise NonFiniteIterateError("resolvent input contains NaN/Inf")
    return x


def warped(engine: ResolventEngine, x: np.ndarray) -> ResolventOutput:
    """z in (gamma*F + v)^{-1}(v(x)); fixed points are zeros of F.

    This is `transformed` at v(x). An iteration that already holds v(x),
    as the image of its previous step, should call `transformed` on it
    directly and save one evaluation of v per step.
    """
    # tested before v is evaluated: an affine v warns on inf
    return transformed(engine, ops.evaluate_point(engine.v, _require_finite(_checked_input(engine, x))))


def transformed(engine: ResolventEngine, x: np.ndarray, start_pattern: int | None = None) -> ResolventOutput:
    """v(z) with z in (gamma*F + v)^{-1}(x); fixed points are v-images of
    zeros of F. Raises NotInRangeError when no sign pattern takes x within
    roundoff; every engine that `build_engine` returns has range R^n, so
    this can come only from roundoff. The build refuses unsupported pairs,
    uncertified Sign systems and singular affine ones.

    z is not checked against F: the inversion solves the structural
    reduction of gamma*F + v exactly up to roundoff.

    `start_pattern` is a first guess for the sign pattern search, typically
    the `pattern` of the previous output, which table engines try first. It
    changes the point found by roundoff at most.
    """
    w = _checked_input(engine, x)
    strategy, pattern = engine._strategy, None
    if type(strategy) is _AffineStrategy:  # a cheaper read than the StrategyKind member of `kind`
        z = linalg.lu_solve(strategy.factorization, _require_finite(w) - strategy.offset)
    else:
        z, pattern = _invert_sign(strategy, w, start_pattern)
        if pattern is not None and strategy.patterns[pattern].factorization is None:
            return ResolventOutput(z, engine.kink_image.copy(), pattern)  # z = 0
    if not linalg.all_finite(z):
        raise NonFiniteIterateError("resolvent produced a non-finite point")
    return ResolventOutput(z, ops.evaluate_point(engine.v, z), pattern)
