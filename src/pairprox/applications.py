"""Concrete applications of the pair-monotone proximal iteration:
equality-constrained quadratic programs through their (typically singular)
KKT systems, and minimization of ||Ax - b||^2 for symmetric A without ever
forming A^T A.

Both reduce to the fixed-point map x_{k+1} = (2A + 2k I)^{-1}((A + 2k I)x_k + b),
i.e. the warped-resolvent iteration for F(x) = Ax - b with linear kernel
v = A + 2k I, where 0 < k < |alpha|/2 and |alpha| is the smallest absolute
nonzero eigenvalue of A. Both run at gamma = 1 only, by `solvers._unit_gamma`.
"""
from __future__ import annotations

import functools
import json
import math
import os
import reprlib
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import linalg, operators as ops, solvers
from .errors import AllEigenvaluesZeroError, DimensionMismatchError
from .rng import SplitMix64

DEFAULT_KAPPA_FRACTION = 0.4
DEFAULT_ZERO_EIG_RTOL = 1e-10


# ---------------------------------------------------------------------------
# quadratic programs and their saddle systems


@dataclass(frozen=True, eq=False)
class QPProblem:
    """min 1/2 y^T Q y + c^T y  subject to  C y = d  (Q symmetric)."""

    q: np.ndarray
    c: np.ndarray
    constraint: np.ndarray  # C, possibly 0 x n1
    d: np.ndarray

    def __post_init__(self):
        q = linalg.require_symmetric(linalg.real_array("Q", self.q, 2))
        c = linalg.real_array("c", self.c, 1)
        con = linalg.real_array("C", self.constraint, 2)
        d = linalg.real_array("d", self.d, 1)
        if c.size != q.shape[0]:
            raise DimensionMismatchError("c length must match Q")
        if con.shape[1] != q.shape[0]:
            raise DimensionMismatchError("C columns must match Q")
        if d.size != con.shape[0]:
            raise DimensionMismatchError("d length must match C rows")
        for name, value in (("q", q), ("c", c), ("constraint", con), ("d", d)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class KKTSystem:
    """Assembled saddle system A x = b with x = (y, lambda), split after y."""

    matrix: np.ndarray
    rhs: np.ndarray
    split: int


def build_kkt(qp: QPProblem) -> KKTSystem:
    """[[Q, C^T], [C, 0]] x = (-c, d): stationarity plus feasibility."""
    n1 = qp.q.shape[0]
    n = n1 + qp.constraint.shape[0]
    a = np.zeros((n, n))
    a[:n1, :n1] = qp.q
    a[:n1, n1:] = qp.constraint.T
    a[n1:, :n1] = qp.constraint
    b = np.concatenate([-qp.c, qp.d])
    return KKTSystem(a, b, n1)


# ---------------------------------------------------------------------------
# kernel-shift selection and the pair lemma


def _smallest_nonzero_abs(values: np.ndarray) -> float:
    """Smallest |lambda| above DEFAULT_ZERO_EIG_RTOL * max|lambda|; 0.0 if none is."""
    absvals = np.abs(values)
    nonzero = absvals[absvals > DEFAULT_ZERO_EIG_RTOL * absvals.max(initial=0.0)]
    return float(nonzero.min()) if nonzero.size else 0.0


@dataclass(frozen=True, eq=False)
class KappaSelection:
    alpha_abs: float  # smallest absolute nonzero eigenvalue
    kappa: float


def require_kappa_fraction(kappa_fraction: float) -> float:
    """The rule 0 < kappa_fraction < 1/2, which keeps kappa = kappa_fraction * |alpha|
    strictly inside (0, |alpha|/2)."""
    return linalg.real_scalar("kappa_fraction", kappa_fraction, 0, 0.5, "()")


def select_kappa(a: np.ndarray, kappa_fraction: float = DEFAULT_KAPPA_FRACTION) -> KappaSelection:
    """kappa = kappa_fraction * |alpha|, strictly inside (0, |alpha|/2)."""
    kappa_fraction = require_kappa_fraction(kappa_fraction)
    alpha_abs = _smallest_nonzero_abs(linalg.jacobi_eigendecomposition(a).values)
    if alpha_abs == 0.0:
        raise AllEigenvaluesZeroError("matrix has no eigenvalue above the zero threshold")
    return KappaSelection(alpha_abs, kappa_fraction * alpha_abs)


@dataclass(frozen=True, eq=False)
class PairLemmaReport:
    """min over eigenvalues of lambda * (lambda + 2 kappa); the pair
    (Ax - b, (A + 2 kappa I)x) is monotone iff this is nonnegative."""

    min_value: float
    monotone: bool
    kappa: float
    alpha_abs: float
    kappa_within_bound: bool


def require_kappa(kappa: float) -> float:
    """The kernel shift rule 0 < 2 kappa < inf: 2 kappa is finite iff kappa <= max/2."""
    return linalg.real_scalar("kappa", kappa, 0, sys.float_info.max / 2, "(]")


def verify_pair_lemma(a: np.ndarray, kappa: float) -> PairLemmaReport:
    require_kappa(kappa)
    eigen = linalg.jacobi_eigendecomposition(a)
    vals = eigen.values
    products = vals * (vals + 2.0 * kappa)
    min_value = float(products.min())
    alpha_abs = _smallest_nonzero_abs(vals)
    return PairLemmaReport(
        min_value=min_value,
        monotone=min_value >= -1e-12,
        kappa=kappa,
        alpha_abs=alpha_abs,
        kappa_within_bound=bool(alpha_abs > 0 and kappa < alpha_abs / 2.0),
    )


# ---------------------------------------------------------------------------
# solvers


def kkt_operator_pair(a: np.ndarray, b: np.ndarray, kappa: float) -> tuple[ops.Affine, ops.Affine]:
    """F(x) = Ax - b and the shifted kernel v(x) = (A + 2 kappa I) x."""
    require_kappa(kappa)
    a = linalg.as_matrix(a, "A")
    b = linalg.real_array("b", b, 1)
    n = a.shape[0]
    if a.shape[0] != a.shape[1] or b.size != n:
        raise DimensionMismatchError("A must be square and match b")
    return ops.Affine(a, -b), ops.Affine(a + 2.0 * kappa * np.eye(n))


@dataclass
class KKTSolution:
    result: solvers.SolveResult
    primal: np.ndarray
    multipliers: np.ndarray


def solve_kkt(
    kkt: KKTSystem,
    kappa: float,
    x0: np.ndarray | None = None,
    cfg: solvers.SolverConfig | None = None,
) -> KKTSolution:
    """Run the warped-resolvent iteration on the saddle system at gamma = 1.

    The recorded residual at step k equals e_{k+1} = ||A x_{k+1} - b||, so the
    stopping tolerance applies directly to the linear-system error.
    """
    cfg = solvers._unit_gamma(cfg)
    n = kkt.matrix.shape[0]
    f, v = kkt_operator_pair(kkt.matrix, kkt.rhs, kappa)
    result = solvers.gppa(f, v, np.zeros(n) if x0 is None else x0, cfg)
    x = result.preimage
    return KKTSolution(result, x[: kkt.split], x[kkt.split :])


@dataclass
class LeastSquaresSolution:
    """Outcome of minimizing ||Ax - b||^2. The optimality residual
    r_k = ||A^2 x_k - A b|| drives stopping; the data error e_k = ||A x_k - b||
    is recorded in the trace's err_to_ref column (it converges to the distance
    from b to ran A, not to zero, when the system is inconsistent)."""

    result: solvers.SolveResult
    optimality_residuals: list[float]
    data_errors: list[float]


def least_squares_iterate(
    a: np.ndarray,
    b: np.ndarray,
    kappa: float,
    x0: np.ndarray | None = None,
    cfg: solvers.SolverConfig | None = None,
) -> LeastSquaresSolution:
    """Minimize ||Ax - b||^2 for symmetric A via the same shifted iteration,
    never forming A^T A; b may lie outside ran A.

    Each step from x_k to x_{k+1} finds u = v(x_k) - v(x_{k+1}) = F(x_{k+1})
    = A x_{k+1} - b, so e = ||u|| and r = ||A u|| cost one product with A.
    The steps are `solvers.gppa`'s with residual r, so on a monotone pair r
    never increases and the run stops as Failed('Diverged') on gppa's bound.
    """
    cfg = solvers._unit_gamma(cfg)
    a = linalg.require_symmetric(linalg.real_array("A", a, 2))
    n = a.shape[0]
    x = solvers._start(np.zeros(n) if x0 is None else x0)
    f, v = kkt_operator_pair(a, b, kappa)
    rs: list[float] = []
    es: list[float] = []

    def measure(u: np.ndarray) -> float:
        """Append e = ||u|| and r = ||A u|| for u = F(x), and return r."""
        es.append(linalg.norm(u))
        rs.append(linalg.norm(a @ u))
        return rs[-1]

    if measure(ops.evaluate_point(f, x)) <= cfg.tol_residual:
        # no engine is built, so that a start within tol converges on a singular system
        trace = solvers._trace(cfg, x, None)
        result = solvers.SolveResult(solvers.Status.CONVERGED, None, x, ops.evaluate_point(v, x), 0, trace)
    else:
        result = solvers.gppa(f, v, x, cfg, residual=measure)
    # ||u - 0|| is bitwise ||u||: the distance of u to the reference 0
    result.trace.err_to_ref = es[1:]
    return LeastSquaresSolution(result, rs, es)


# ---------------------------------------------------------------------------
# seeded test-problem generators


@dataclass(frozen=True, eq=False)
class GeneratedSystem:
    """Random symmetric system A = V diag(lam) V^T with pinned spectrum; it
    holds A, b, the solution and lam, not V. The solution solves Ax = b
    exactly for consistent systems, and minimizes ||Ax - b|| otherwise."""

    matrix: np.ndarray
    rhs: np.ndarray
    solution: np.ndarray
    eigenvalues: np.ndarray
    range_distance: float  # ||b - proj_{ran A} b||


def _random_orthogonal(n: int, rng: SplitMix64) -> np.ndarray:
    g = rng.normal(n * n).reshape(n, n)
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def _check_spectrum(spectrum: tuple[float, float], zero_fraction: float) -> tuple[float, float, float]:
    """The bounds 0 < lo <= hi < inf of the absolute eigenvalues and the
    zero fraction in [0, 1), as Python floats."""
    if len(spectrum) != 2:
        raise ValueError(f"spectrum must be an interval 'lo,hi', got {spectrum!r}")
    lo = linalg.real_scalar("spectrum[0]", spectrum[0], 0, math.inf, "()")
    hi = linalg.real_scalar("spectrum[1]", spectrum[1], lo, math.inf, "[)")
    return lo, hi, linalg.real_scalar("zero_fraction", zero_fraction, 0, 1, "[)")


def _spectrum(n: int, rng: SplitMix64, spectrum: tuple[float, float], zero_fraction: float) -> np.ndarray:
    lo, hi, zero_fraction = _check_spectrum(spectrum, zero_fraction)
    k = int(round(zero_fraction * n))
    lam = np.zeros(n)
    if n > k:
        lam[k:] = rng.uniform(n - k, lo, hi) * rng.sign(n - k)
    return lam


def _planted_system(
    n: int, rng: SplitMix64, spectrum: tuple[float, float], zero_fraction: float
) -> tuple[GeneratedSystem, np.ndarray]:
    """A = V diag(lam) V^T and b = A z, drawing lam, V and then z from rng;
    returns the system and V, for a caller that reads it before it is freed."""
    lam = _spectrum(n, rng, spectrum, zero_fraction)
    basis = _random_orthogonal(n, rng)
    a = (basis * lam) @ basis.T
    a = 0.5 * (a + a.T)
    z = rng.normal(n)
    return GeneratedSystem(a, a @ z, z, lam, 0.0), basis


def generate_consistent_system(
    n: int,
    seed: int,
    spectrum: tuple[float, float] = (0.5, 2.0),
    zero_fraction: float = 0.1,
) -> GeneratedSystem:
    """A = V diag(lam) V^T with |lam| in the spectrum interval (a configurable
    fraction exactly zero) and b = A z for Gaussian z, so z solves Ax = b."""
    return _planted_system(n, SplitMix64(seed), spectrum, zero_fraction)[0]


def generate_inconsistent_system(
    n: int,
    seed: int,
    spectrum: tuple[float, float] = (0.5, 2.0),
    zero_fraction: float = 0.2,
) -> GeneratedSystem:
    """Same construction plus a guaranteed-nonzero kernel component in b, so
    b is outside ran A; `solution` minimizes ||Ax - b|| and `range_distance`
    is the residual floor."""
    rng = SplitMix64(seed)
    system, basis = _planted_system(n, rng, spectrum, zero_fraction)
    kernel = system.eigenvalues == 0.0
    if not np.any(kernel):
        raise ValueError("zero_fraction too small: A has no kernel, b cannot leave ran A")
    w = rng.normal(int(np.sum(kernel)))
    w[np.abs(w) < 0.1] += 0.5  # keep the kernel component well away from zero
    kernel_part = basis[:, kernel] @ w
    return replace(
        system, rhs=system.rhs + kernel_part, range_distance=float(np.linalg.norm(kernel_part))
    )


# ---------------------------------------------------------------------------
# QP problem files


def write_qp(path: str, qp: QPProblem) -> None:
    """JSON with matrix-file references for Q and C, inline vectors c and d."""
    base = os.path.dirname(os.path.abspath(path))
    stem = os.path.splitext(os.path.basename(path))[0]
    doc = {"Q": f"{stem}-Q.mat", "C": f"{stem}-C.mat", "c": qp.c.tolist(), "d": qp.d.tolist()}
    for key, matrix in (("Q", qp.q), ("C", qp.constraint)):
        linalg.write_matrix(os.path.join(base, doc[key]), matrix)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_qp(path: str) -> QPProblem:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"QP file {path} must hold a JSON object, got {reprlib.repr(doc)}")
    base = os.path.dirname(os.path.abspath(path))
    get = functools.partial(linalg._json_field, "QP file", doc)
    q = linalg.read_matrix(os.path.join(base, get("Q", "string")))
    c = np.asarray(get("c", "numbers"), dtype=float)
    if doc.get("C") is None:
        con = np.zeros((0, q.shape[0]))
        d = np.asarray(get("d", "numbers", []), dtype=float)
    else:
        con = linalg.read_matrix(os.path.join(base, get("C", "string")))
        # d is required with C: defaulting it would invent the data of C y = d
        d = np.asarray(get("d", "numbers"), dtype=float)
    return QPProblem(q, c, con, d)
