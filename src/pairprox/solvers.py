"""Proximal point iterations on warped / transformed resolvents, an anchored
(Halpern) variant, and a difference-of-convex baseline for linear systems.

All solvers record per-iteration diagnostics driven by the residual
u_n = (v(x_n) - v(x_{n+1})) / gamma_n   (warped iteration)
u_n = (x_n - x_{n+1}) / gamma_n         (transformed / anchored iterations)
and stop on residual norm, step norm, divergence, or the iteration cap. A
hard iteration cap is mandatory: the target inclusion can be solution-free
even under strong monotonicity, so non-termination is a real failure mode.
"""
from __future__ import annotations

import csv
import functools
import io
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import linalg, operators as ops, resolvents
from .errors import (
    DimensionMismatchError,
    NonFiniteIterateError,
    SingularMatrixError,
    TraceDisabledError,
)


class TraceLevel(Enum):
    NONE = 0
    NORMS = 1
    FULL = 2


class Status(Enum):
    CONVERGED = "Converged"
    MAX_ITERS = "MaxIters"
    FAILED = "Failed"


@dataclass(frozen=True)
class HalpernConfig:
    """Anchored-averaging parameters: x_{k+1} = a_k * anchor + (1-a_k) T(x_k).

    alpha_schedule None means the reciprocal schedule a_k = 1/(k+1), which
    vanishes, has divergent sum, and has summable increments.
    """

    anchor: tuple[float, ...]
    alpha_schedule: tuple[float, ...] | None = None

    def alpha(self, k: int) -> float:
        if self.alpha_schedule is None:
            return 1.0 / (k + 1)
        sched = self.alpha_schedule
        return sched[k] if k < len(sched) else sched[-1]


@dataclass(frozen=True)
class SolverConfig:
    gamma_schedule: float | tuple[float, ...] = 1.0
    tol_residual: float = 1e-8
    tol_step: float = 0.0
    max_iters: int = 100_000
    halpern: HalpernConfig | None = None
    trace_level: TraceLevel = TraceLevel.NORMS

    def __post_init__(self):
        if isinstance(self.gamma_schedule, (int, float)):
            if self.gamma_schedule <= 0:
                raise ValueError("gamma must be positive")
        else:
            sched = tuple(float(g) for g in self.gamma_schedule)
            if not sched or any(g <= 0 for g in sched):
                raise ValueError("gamma schedule must be nonempty and positive")
            object.__setattr__(self, "gamma_schedule", sched)
            # finite prefixes cannot certify a divergent sum of squares; warn
            # when the extended prefix sum looks too small to trust
            prefix = list(sched)[: self.max_iters]
            total = sum(g * g for g in prefix)
            total += (self.max_iters - len(prefix)) * sched[-1] ** 2
            if total < 1e6:
                warnings.warn(
                    f"sum of gamma_n^2 over {self.max_iters} iterations is {total:.3g}; "
                    "the divergence condition may fail on this prefix",
                    stacklevel=2,
                )
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")

    def gamma_at(self, n: int) -> float:
        if isinstance(self.gamma_schedule, tuple):
            sched = self.gamma_schedule
            return sched[n] if n < len(sched) else sched[-1]
        return float(self.gamma_schedule)


@dataclass
class IterationTrace:
    """Per-iteration diagnostics; `iterates` / `preimages` only at FULL level.

    `seconds` holds cumulative wall time since the solve started. When a
    reference point is supplied, `err_to_ref` records the distance of the
    iterate's image to it (warped iteration: ||v(x_{n+1}) - v(ref)||;
    transformed iterations: ||x_{n+1} - ref||).
    """

    residuals: list[float] = field(default_factory=list)
    steps: list[float] = field(default_factory=list)
    err_to_ref: list[float] | None = None
    seconds: list[float] = field(default_factory=list)
    iterates: list[np.ndarray] | None = None
    preimages: list[np.ndarray] | None = None


@dataclass
class SolveResult:
    status: Status
    reason: str | None
    preimage: np.ndarray
    image: np.ndarray
    iterations: int
    trace: IterationTrace | None

    def residual_norms(self) -> list[float]:
        if self.trace is None:
            raise TraceDisabledError("solve ran with trace_level=NONE")
        return list(self.trace.residuals)


class _Recorder:
    def __init__(self, cfg: SolverConfig, x0: np.ndarray, reference: np.ndarray | None):
        self.level = cfg.trace_level
        self.reference = reference
        self.t0 = time.perf_counter()
        if self.level is TraceLevel.NONE:
            self.trace = None
        else:
            self.trace = IterationTrace()
            if reference is not None:
                self.trace.err_to_ref = []
            if self.level is TraceLevel.FULL:
                self.trace.iterates = [np.array(x0, dtype=float)]
                self.trace.preimages = []

    def record(
        self,
        residual: float,
        step: float,
        image_next: np.ndarray,
        x_next: np.ndarray,
        preimage: np.ndarray | None,
    ) -> None:
        if self.trace is None:
            return
        self.trace.residuals.append(residual)
        self.trace.steps.append(step)
        self.trace.seconds.append(time.perf_counter() - self.t0)
        if self.trace.err_to_ref is not None:
            self.trace.err_to_ref.append(float(np.linalg.norm(image_next - self.reference)))
        if self.level is TraceLevel.FULL:
            self.trace.iterates.append(np.array(x_next, dtype=float))
            if preimage is not None:
                self.trace.preimages.append(np.array(preimage, dtype=float))


def _start(x0: np.ndarray) -> np.ndarray:
    """A copy of the start point as a float vector; NaN/Inf is rejected."""
    x = linalg.as_vector(x0).copy()
    if not np.all(np.isfinite(x)):
        raise NonFiniteIterateError("x0 contains NaN/Inf")
    return x


def _iterate(
    cfg: SolverConfig,
    rec: _Recorder,
    x: np.ndarray,
    step: Callable[[int, np.ndarray], tuple],
    diverge_above: Callable[[float], float] | None = None,
) -> tuple[Status, str | None, int, np.ndarray]:
    """The proximal-point loop every solver runs.

    `step(n, x)` takes iteration n from the iterate x and returns
    (x_next, residual, image, preimage); image and preimage only feed the
    trace. `diverge_above`, when set, maps the first step's residual to the
    divergence bound. A step that overflows, raising NonFiniteIterateError
    or returning a non-finite x_next, stops the loop as Failed('Diverged')
    without being counted. After a finite step is recorded, the first rule
    that holds stops the loop: residual above the divergence bound
    (Diverged), residual within tol_residual (Converged), step norm within
    tol_step (step-stalled). Returns (status, reason, iterations, last
    finite iterate).
    """
    bound = None
    for n in range(cfg.max_iters):
        try:
            x_next, residual, image, preimage = step(n, x)
        except NonFiniteIterateError:
            return Status.FAILED, "Diverged", n, x
        if not np.all(np.isfinite(x_next)):
            return Status.FAILED, "Diverged", n, x
        dx = float(np.linalg.norm(x - x_next))
        rec.record(residual, dx, image, x_next, preimage)
        x = x_next
        if diverge_above is not None:
            if bound is None:
                bound = diverge_above(residual)
            if residual > bound:
                return Status.FAILED, "Diverged", n + 1, x
        if residual <= cfg.tol_residual:
            return Status.CONVERGED, None, n + 1, x
        if dx <= cfg.tol_step:
            return Status.FAILED, "step-stalled", n + 1, x
    return Status.MAX_ITERS, None, cfg.max_iters, x


_DIVERGENCE_FACTOR = 1e8


def _divergence_bound(r0: float) -> float:
    # on a monotone pair the residuals of gppa and gppa1 never increase, nor
    # does the least-squares residual ||A u|| (u's step map commutes with A
    # and has norm at most 1), so a residual this far above the first one
    # shows the pair is not monotone along the run
    return _DIVERGENCE_FACTOR * (1.0 + r0)


def gppa(
    f: ops.OperatorExpr,
    v: ops.OperatorExpr,
    x0: np.ndarray,
    cfg: SolverConfig | None = None,
    reference: np.ndarray | None = None,
) -> SolveResult:
    """Warped-resolvent iteration x_{n+1} = J_{gamma_n F}^v(x_n).

    `reference`, when given, is a known zero of F; the trace then records
    ||v(x_{n+1}) - v(reference)|| per step. Each step inverts at the image
    v(x_n) that the previous step returned, so v is evaluated once per step,
    and starts the sign-pattern search at the pattern the previous step
    accepted. The run stops as Failed('Diverged') once the residual exceeds
    1e8 * (1 + r_0), r_0 being the first step's residual.
    """
    cfg = cfg or SolverConfig()
    x = _start(x0)
    engines = functools.cache(lambda gamma: resolvents.build_engine(f, v, gamma, dim=x.size))
    v_ref = ops.evaluate_point(v, reference) if reference is not None else None
    rec = _Recorder(cfg, x, v_ref)
    w = ops.evaluate_point(v, x)
    pattern = None

    def step(n, x):
        nonlocal w, pattern
        gamma = cfg.gamma_at(n)
        out = resolvents.transformed(engines(gamma), w, pattern)
        residual = float(np.linalg.norm(w - out.image)) / gamma
        w, pattern = out.image, out.pattern
        return out.preimage, residual, w, None

    status, reason, iterations, x = _iterate(cfg, rec, x, step, _divergence_bound)
    return SolveResult(status, reason, x, w, iterations, rec.trace)


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
    cfg = cfg or SolverConfig()
    x = _start(x0)
    engines = functools.cache(lambda gamma: resolvents.build_engine(f, v, gamma, dim=x.size))
    rec = _Recorder(cfg, x, linalg.as_vector(reference) if reference is not None else None)
    z = x
    pattern = None

    def step(n, x):
        nonlocal z, pattern
        gamma = cfg.gamma_at(n)
        out = resolvents.transformed(engines(gamma), x, pattern)
        z, pattern = out.preimage, out.pattern
        return out.image, float(np.linalg.norm(x - out.image)) / gamma, out.image, z

    status, reason, iterations, x = _iterate(cfg, rec, x, step, _divergence_bound)
    return SolveResult(status, reason, z, x, iterations, rec.trace)


def gppa2(
    f: ops.OperatorExpr,
    v: ops.OperatorExpr,
    x0: np.ndarray,
    cfg: SolverConfig,
    reference: np.ndarray | None = None,
) -> SolveResult:
    """Anchored (Halpern) iteration x_{k+1} = a_k anchor + (1-a_k) T(x_k)
    at constant gamma; converges to a fixed point of T, slowly but strongly.
    Its residual need not decrease, so it has no divergence bound; a step
    that overflows still ends the run as Failed('Diverged').
    """
    if cfg.halpern is None:
        raise ValueError("gppa2 requires cfg.halpern")
    if isinstance(cfg.gamma_schedule, tuple):
        raise ValueError("gppa2 requires a constant gamma")
    x = _start(x0)
    anchor = linalg.as_vector(np.asarray(cfg.halpern.anchor, dtype=float))
    if anchor.size != x.size:
        raise ValueError("anchor dimension mismatch")
    engine = resolvents.build_engine(f, v, float(cfg.gamma_schedule), dim=x.size)
    rec = _Recorder(cfg, x, linalg.as_vector(reference) if reference is not None else None)
    gamma = float(cfg.gamma_schedule)
    out = resolvents.ResolventOutput(x, x)

    def step(k, x):
        nonlocal out
        out = resolvents.transformed(engine, x, out.pattern)
        alpha = cfg.halpern.alpha(k)
        x_next = alpha * anchor + (1.0 - alpha) * out.image
        return x_next, float(np.linalg.norm(x - x_next)) / gamma, x_next, out.preimage

    status, reason, iterations, _ = _iterate(cfg, rec, x, step)
    return SolveResult(status, reason, out.preimage, out.image, iterations, rec.trace)


def dca_baseline(
    a: np.ndarray,
    b: np.ndarray,
    m: float,
    x0: np.ndarray,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """Difference-of-convex iteration (A + m I) x_{k+1} = m x_k + b for
    Ax = b, splitting A = (A + m I) - m I. Reports Failed('Diverged') once
    the error e_k = ||A x_k - b|| exceeds 1e8 * (1 + e_0)."""
    cfg = cfg or SolverConfig()
    a = linalg.require_symmetric(a)
    b = linalg.as_vector(b)
    x = _start(x0)
    n = a.shape[0]
    if b.size != n or x.size != n:
        raise DimensionMismatchError("A, b, x0 dimensions disagree")
    fact = linalg.lu_factorize(a + m * np.eye(n))
    if fact.singular:
        raise SingularMatrixError("A + m*I is singular")
    e0 = float(np.linalg.norm(a @ x - b))
    rec = _Recorder(cfg, x, None)

    def step(k, x):
        x_next = linalg.lu_solve(fact, m * x + b)
        return x_next, float(np.linalg.norm(a @ x_next - b)), x_next, None

    status, reason, iterations, x = _iterate(cfg, rec, x, step, lambda _r0: _DIVERGENCE_FACTOR * (1.0 + e0))
    return SolveResult(status, reason, x, x, iterations, rec.trace)


# ---------------------------------------------------------------------------
# trace CSV

TRACE_HEADER = ("iter", "residual", "step", "err_to_ref", "seconds")


def write_trace_csv(target, trace: IterationTrace) -> None:
    """Write "iter,residual,step,err_to_ref,seconds" rows (err blank if absent)."""
    own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
    fh = open(target, "w", newline="") if own else target
    try:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        errs = trace.err_to_ref
        for i, (r, s, t) in enumerate(zip(trace.residuals, trace.steps, trace.seconds)):
            err = "" if errs is None else repr(errs[i])
            writer.writerow((i, repr(r), repr(s), err, repr(t)))
    finally:
        if own:
            fh.close()


def read_trace_csv(source) -> IterationTrace:
    own = isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")
    fh = open(source, newline="") if own else source
    try:
        rows = list(csv.reader(fh))
    finally:
        if own:
            fh.close()
    if not rows or tuple(rows[0]) != TRACE_HEADER:
        raise ValueError(f"trace CSV must start with header {','.join(TRACE_HEADER)}")
    trace = IterationTrace()
    errs: list[float] = []
    has_err = False
    for row in rows[1:]:
        trace.residuals.append(float(row[1]))
        trace.steps.append(float(row[2]))
        if row[3] != "":
            has_err = True
            errs.append(float(row[3]))
        trace.seconds.append(float(row[4]))
    if has_err:
        trace.err_to_ref = errs
    return trace


def trace_csv_text(trace: IterationTrace) -> str:
    buf = io.StringIO()
    write_trace_csv(buf, trace)
    return buf.getvalue()
