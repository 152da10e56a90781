"""Proximal point iterations on warped / transformed resolvents, an anchored
(Halpern) variant, and a difference-of-convex (DC) baseline for linear
systems: the warped iteration on F(x) = Ax - b with kernel m I. The warped
drivers step with `resolvents.transformed` at the previous step's image v(x_n),
so each evaluates v once per step.
Each input rule is checked here once, before the first step: `_start`,
`_point` (a reference, gppa2's anchor), `_unit_gamma` (DCA, applications) and
`SolverConfig` (each gamma of a schedule, by the rule `build_engine` reads
too, and tol_residual, through `linalg.real_scalar`). A complex value is
refused where it enters, not cast to its real part. The loop, `_iterate`,
reads each iterate's finiteness off the step norm it records, so a finite
step costs no separate test.

All solvers record per-iteration diagnostics driven by the residual
u_n = (v(x_n) - v(x_{n+1})) / gamma_n   (warped iteration)
u_n = (x_n - x_{n+1}) / gamma_n         (transformed / anchored iterations)
A x_{n+1} - b                           (DC baseline)
and stop on residual norm, divergence, a step of norm zero, or the
iteration cap. A hard iteration cap is mandatory: the target inclusion can
be solution-free even under strong monotonicity, so non-termination is a
real failure mode.
"""
from __future__ import annotations

import csv
import functools
import math
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import linalg, operators as ops, resolvents
from .errors import DimensionMismatchError, NonFiniteIterateError


class TraceLevel(Enum):
    NORMS = 1
    FULL = 2


class Status(Enum):
    CONVERGED = "Converged"
    MAX_ITERS = "MaxIters"
    FAILED = "Failed"


@dataclass(frozen=True)
class HalpernConfig:
    """The anchor of gppa2's iteration x_{k+1} = a_k anchor + (1-a_k) T(x_k),
    which runs a_k = 1/(k+1): the weights vanish and have a divergent sum."""

    anchor: tuple[float, ...]


@dataclass(frozen=True)
class SolverConfig:
    # stored as a tuple of floats, a constant gamma as (gamma,)
    gamma_schedule: float | tuple[float, ...] = 1.0
    tol_residual: float = 1e-8
    max_iters: int = 100_000
    halpern: HalpernConfig | None = None
    trace_level: TraceLevel = TraceLevel.NORMS

    def __post_init__(self):
        sched = self.gamma_schedule
        # a 0-d value, such as 2, np.array(2.0) or "12" (no schedule (1, 2)), is a constant gamma
        scalar = isinstance(sched, float) or np.ndim(sched) == 0
        sched = tuple(map(resolvents._require_gamma, (sched,) if scalar else sched))
        if not sched:
            raise ValueError("gamma schedule must be nonempty")
        object.__setattr__(self, "gamma_schedule", sched)
        object.__setattr__(self, "tol_residual", linalg.real_scalar("tol_residual", self.tol_residual, 0, math.inf, "[]"))
        linalg._require_count("max_iters", self.max_iters)

    def gamma_at(self, n: int) -> float:
        sched = self.gamma_schedule
        return sched[n] if n < len(sched) else sched[-1]


@dataclass
class IterationTrace:
    """Per-iteration diagnostics; `iterates` only at FULL level.

    `seconds` holds cumulative wall time since the first step started. When a
    reference point is supplied, `err_to_ref` records the distance of the
    iterate's image to it (warped iteration: ||v(x_{n+1}) - v(ref)||;
    transformed iterations: ||x_{n+1} - ref||).
    """

    residuals: list[float] = field(default_factory=list)
    steps: list[float] = field(default_factory=list)
    err_to_ref: list[float] | None = None
    seconds: list[float] = field(default_factory=list)
    iterates: list[np.ndarray] | None = None


@dataclass
class SolveResult:
    status: Status
    reason: str | None
    preimage: np.ndarray
    image: np.ndarray
    iterations: int
    trace: IterationTrace


def _trace(cfg: SolverConfig, x0: np.ndarray, reference: np.ndarray | None) -> IterationTrace:
    """An empty trace: `err_to_ref` given a reference, `iterates` from a copy of x0 at FULL."""
    return IterationTrace(
        err_to_ref=None if reference is None else [],
        iterates=[np.array(x0, dtype=float)] if cfg.trace_level is TraceLevel.FULL else None,
    )


def _unanchored(cfg: SolverConfig | None) -> SolverConfig:
    """`cfg`, or the default config, for a driver that runs no anchored
    iteration: a Halpern config is a ValueError rather than ignored."""
    cfg = cfg or SolverConfig()
    if cfg.halpern is not None:
        raise ValueError("only gppa2 runs the anchored iteration that a Halpern config sets up")
    return cfg


def _unit_gamma(cfg: SolverConfig | None) -> SolverConfig:
    """`cfg`, or the default config, for an iteration on a shifted kernel (m I,
    A + 2 kappa I): it is defined at constant gamma = 1 only, not anchored."""
    cfg = _unanchored(cfg)
    if cfg.gamma_schedule != (1.0,):
        raise ValueError("the shifted-kernel iteration is defined at constant gamma = 1")
    return cfg


def _start(x0: np.ndarray) -> np.ndarray:
    """A copy of the start point as a float vector; what `as_real` refuses and
    NaN/Inf are rejected (here, not in `as_vector`, which every resolvent step runs)."""
    x = linalg.as_vector(linalg.as_real(x0, "x0")).copy()
    if not linalg.all_finite(x):
        raise NonFiniteIterateError("x0 contains NaN/Inf")
    return x


def _point(name: str, value, x: np.ndarray) -> np.ndarray:
    """A reference or anchor as a float vector of the start's shape, checked
    before any operator is evaluated at it. None has shape (): a None anchor
    is refused, and callers pass no None reference (it means none)."""
    try:
        value = linalg.as_real(value, "its entries")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} is not a numeric vector: {exc}") from None
    if value.shape != x.shape:
        raise DimensionMismatchError(f"{name} has shape {value.shape}, the start {x.shape}")
    if not linalg.all_finite(value):
        raise ValueError(f"{name} contains NaN/Inf")
    return value


def _iterate(
    cfg: SolverConfig,
    x: np.ndarray,
    step: Callable[[int, np.ndarray], tuple],
    reference: np.ndarray | None = None,
    diverge_above: Callable[[float], float] | None = None,
) -> tuple[Status, str | None, int, np.ndarray, IterationTrace]:
    """The proximal-point loop every solver runs, and the one that records it.

    `step(n, x)` takes iteration n from the iterate x and returns
    (x_next, residual, image); the image only feeds the trace, as its
    distance to `reference` when given. A residual of None stands for
    ||x - x_next|| / gamma_n, the residual of the transformed iterations,
    so that the loop computes that norm once, as the step norm.
    `diverge_above`, when set, maps the first step's residual to the
    divergence bound. A step that overflows, raising NonFiniteIterateError
    or returning a non-finite x_next, stops the loop as Failed('Diverged')
    without being counted. x_next's finiteness is read off the step norm
    ||x - x_next||: x is finite, so a finite norm shows x_next is finite, and
    only a norm of inf or NaN runs `linalg.all_finite` on x_next, which a
    finite x_next whose norm overflows passes. On that last, uncounted step
    the norm of a non-finite x_next may raise numpy's overflow warning, as
    for x_next = (1e200, inf). After a finite step is recorded, the first rule
    that holds stops the loop: residual above the divergence bound
    (Diverged), residual within tol_residual (Converged), a step of norm
    zero (step-stalled). In the other iterations a zero step makes a zero
    residual, so only DCA, whose residual is ||A x - b||, stops on that
    rule. Returns (status, reason, iterations, last finite iterate, trace),
    whose `seconds` count from the start of the loop. A FULL trace records a
    copy of each x_next. Its lookups, the gamma schedule too, are bound once per solve.
    """
    trace = _trace(cfg, x, reference)
    # ||image - 0|| is ||image|| bitwise: subtracting a zero flips the sign of a zero at most
    at_origin = reference is not None and not np.any(reference)
    add_residual, add_step, add_second = trace.residuals.append, trace.steps.append, trace.seconds.append
    add_err = None if reference is None else trace.err_to_ref.append
    add_iterate = None if trace.iterates is None else trace.iterates.append
    norm, isfinite, clock = linalg.norm, math.isfinite, time.perf_counter
    gammas, last, tol = cfg.gamma_schedule, len(cfg.gamma_schedule) - 1, cfg.tol_residual
    t0 = clock()
    bound = None
    for n in range(cfg.max_iters):
        try:
            x_next, residual, image = step(n, x)
        except NonFiniteIterateError:
            return Status.FAILED, "Diverged", n, x, trace
        # x is finite, so only a non-finite step norm leaves x_next in doubt
        dx = norm(x - x_next)
        if not isfinite(dx) and not linalg.all_finite(x_next):
            return Status.FAILED, "Diverged", n, x, trace
        if residual is None:
            residual = dx / gammas[min(n, last)]
        add_residual(residual)
        add_step(dx)
        add_second(clock() - t0)
        if add_err is not None:
            add_err(norm(image if at_origin else image - reference))
        if add_iterate is not None:
            add_iterate(x_next.copy())
        x = x_next
        if diverge_above is not None:
            if bound is None:
                bound = diverge_above(residual)
            if residual > bound:
                return Status.FAILED, "Diverged", n + 1, x, trace
        if residual <= tol:
            return Status.CONVERGED, None, n + 1, x, trace
        if dx == 0.0:
            return Status.FAILED, "step-stalled", n + 1, x, trace
    return Status.MAX_ITERS, None, cfg.max_iters, x, trace


_DIVERGENCE_FACTOR = 1e8


def _divergence_bound(r0: float) -> float:
    # on a monotone pair the residuals of gppa and gppa1 never increase, nor
    # does ||A u||, least squares' residual via gppa's `residual` hook (u's
    # step map commutes with A and has norm at most 1), so a residual this
    # far above the first shows the pair is not monotone along the run.
    # Capped at the float maximum: past r0 ~ 1.8e300 no finite residual
    # exceeds the product, so the cap only stops one that overflows to inf
    return min(_DIVERGENCE_FACTOR * (1.0 + r0), sys.float_info.max)


def gppa(
    f: ops.OperatorExpr,
    v: ops.OperatorExpr,
    x0: np.ndarray,
    cfg: SolverConfig | None = None,
    reference: np.ndarray | None = None,
    residual: Callable[[np.ndarray], float] | None = None,
) -> SolveResult:
    """Warped-resolvent iteration x_{n+1} = J_{gamma_n F}^v(x_n).

    `reference`, when given, is a known zero of F; the trace then records
    ||v(x_{n+1}) - v(reference)|| per step. `residual`, when given, maps each
    step's u = v(x_n) - v(x_{n+1}) to its residual in place of ||u|| / gamma_n
    (least squares passes ||A u||). Each step inverts at the image v(x_n)
    that the previous step returned, so v is evaluated once per step, and
    starts the sign-pattern search at the pattern the previous step accepted.
    The run stops as Failed('Diverged') once the residual exceeds 1e8 * (1 +
    r_0), r_0 being the first step's residual.
    """
    cfg = _unanchored(cfg)
    x = _start(x0)
    engines = functools.cache(lambda gamma: resolvents.build_engine(f, v, gamma, dim=x.size))
    if reference is not None:
        reference = ops.evaluate_point(v, _point("reference", reference, x))
    out = resolvents.ResolventOutput(x, ops.evaluate_point(v, x))

    def step(n, x):
        nonlocal out
        gamma, w = cfg.gamma_at(n), out.image
        out = resolvents.transformed(engines(gamma), w, out.pattern)
        u = w - out.image
        return out.preimage, linalg.norm(u) / gamma if residual is None else residual(u), out.image

    status, reason, iterations, x, trace = _iterate(cfg, x, step, reference, _divergence_bound)
    return SolveResult(status, reason, x, out.image, iterations, trace)


def gppa1(
    f: ops.OperatorExpr,
    v: ops.OperatorExpr,
    x0: np.ndarray,
    cfg: SolverConfig | None = None,
    reference: np.ndarray | None = None,
) -> SolveResult:
    """Transformed-resolvent iteration x_{n+1} = T_{gamma_n F}^v(x_n).

    x0 is trusted to lie in ran v; the first resolvent evaluation validates
    membership in ran(gamma*F + v). The returned preimage is the candidate
    zero recovered from the final resolvent evaluation (no kernel inversion
    is ever attempted). `reference` is a point of v(zer F). Divergence stops
    the run as in `gppa`.
    """
    cfg = _unanchored(cfg)
    x = _start(x0)
    engines = functools.cache(lambda gamma: resolvents.build_engine(f, v, gamma, dim=x.size))
    reference = None if reference is None else _point("reference", reference, x)
    out = resolvents.ResolventOutput(x, x)

    def step(n, x):
        nonlocal out
        out = resolvents.transformed(engines(cfg.gamma_at(n)), x, out.pattern)
        return out.image, None, out.image

    status, reason, iterations, x, trace = _iterate(cfg, x, step, reference, _divergence_bound)
    return SolveResult(status, reason, out.preimage, x, iterations, trace)


def gppa2(
    f: ops.OperatorExpr,
    v: ops.OperatorExpr,
    x0: np.ndarray,
    cfg: SolverConfig,
    reference: np.ndarray | None = None,
) -> SolveResult:
    """Anchored (Halpern) iteration x_{k+1} = a_k anchor + (1-a_k) T(x_k)
    with a_k = 1/(k+1) at constant gamma; converges to a fixed point of T,
    slowly but strongly.
    Its residual need not decrease, so it has no divergence bound; a step
    that overflows still ends the run as Failed('Diverged').
    """
    if cfg.halpern is None:
        raise ValueError("gppa2 requires cfg.halpern")
    if len(cfg.gamma_schedule) != 1:
        raise ValueError("gppa2 requires a constant gamma")
    x = _start(x0)
    anchor = _point("anchor", cfg.halpern.anchor, x)
    engine = resolvents.build_engine(f, v, cfg.gamma_schedule[0], dim=x.size)
    reference = None if reference is None else _point("reference", reference, x)
    out = resolvents.ResolventOutput(x, x)

    def step(k, x):
        nonlocal out
        out = resolvents.transformed(engine, x, out.pattern)
        alpha = 1.0 / (k + 1)
        x_next = alpha * anchor + (1.0 - alpha) * out.image
        return x_next, None, x_next

    status, reason, iterations, _, trace = _iterate(cfg, x, step, reference)
    return SolveResult(status, reason, out.preimage, out.image, iterations, trace)


def dca_baseline(
    a: np.ndarray,
    b: np.ndarray,
    m: float,
    x0: np.ndarray,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """Difference-of-convex iteration (A + m I) x_{k+1} = m x_k + b for
    Ax = b, the warped resolvent of F(x) = Ax - b at gamma = 1 with kernel
    v = m I. As in `gppa`, each step inverts at the image m x_k that the
    previous step returned, so v is evaluated once per step. Reports
    Failed('Diverged') once e_k = ||A x_k - b|| exceeds 1e8 * (1 + e_0).
    Non-finite or complex A or b, m outside (0, inf) and a gamma other than 1
    are ValueErrors; `build_engine` refuses a singular or overflowing A + m I."""
    cfg = _unit_gamma(cfg)
    a = linalg.require_symmetric(linalg.real_array("A", a, 2))
    b = linalg.real_array("b", b, 1)
    linalg.real_scalar("m", m, 0, math.inf, "()")
    x = _start(x0)
    n = a.shape[0]
    if b.size != n or x.size != n:
        raise DimensionMismatchError("A, b, x0 dimensions disagree")
    # the right-hand side m x - (-b) is m x + b bitwise, but for the sign of a zero
    engine = resolvents.build_engine(ops.Affine(a, -b), ops.Scale(m, ops.Pointwise("identity")), 1.0)
    e0 = linalg.norm(a @ x - b)
    out = resolvents.ResolventOutput(x, ops.evaluate_point(engine.v, x))

    def step(k, x):
        nonlocal out
        out = resolvents.transformed(engine, out.image)
        return out.preimage, linalg.norm(a @ out.preimage - b), out.preimage

    status, reason, iterations, x, trace = _iterate(cfg, x, step, diverge_above=lambda _r0: _divergence_bound(e0))
    return SolveResult(status, reason, x, x, iterations, trace)


# ---------------------------------------------------------------------------
# trace CSV

TRACE_HEADER = ("iter", "residual", "step", "err_to_ref", "seconds")


def write_trace_csv(path, trace: IterationTrace) -> None:
    """Write "iter,residual,step,err_to_ref,seconds" rows (err blank if absent)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        errs = trace.err_to_ref
        for i, (r, s, t) in enumerate(zip(trace.residuals, trace.steps, trace.seconds)):
            err = "" if errs is None else repr(errs[i])
            writer.writerow((i, repr(r), repr(s), err, repr(t)))
