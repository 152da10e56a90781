"""Concrete applications of the pair-monotone proximal iteration:
equality-constrained quadratic programs through their (typically singular)
KKT systems, and minimization of ||Ax - b||^2 for symmetric A without ever
forming A^T A.

Both reduce to the fixed-point map x_{k+1} = (2A + 2k I)^{-1}((A + 2k I)x_k + b),
i.e. the warped-resolvent iteration for F(x) = Ax - b with linear kernel
v = A + 2k I, where 0 < k < |alpha|/2 and |alpha| is the smallest absolute
nonzero eigenvalue of A.
"""
from __future__ import annotations

import functools
import json
import os
import reprlib
from dataclasses import dataclass, replace

import numpy as np

from . import linalg, operators as ops, resolvents, solvers
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
        q = linalg.require_symmetric(linalg.require_finite(linalg.as_matrix(self.q), "Q"))
        c = linalg.require_finite(linalg.as_vector(self.c), "c")
        con = np.asarray(self.constraint, dtype=float)
        if con.ndim != 2:
            raise DimensionMismatchError("C must be a 2-D matrix (possibly with 0 rows)")
        linalg.require_finite(con, "C")
        d = linalg.require_finite(np.asarray(self.d, dtype=float).reshape(-1), "d")
        if c.size != q.shape[0]:
            raise DimensionMismatchError("c length must match Q")
        if con.shape[1] != q.shape[0]:
            raise DimensionMismatchError("C columns must match Q")
        if d.size != con.shape[0]:
            raise DimensionMismatchError("d length must match C rows")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "constraint", con)
        object.__setattr__(self, "d", d)

    @property
    def n_primal(self) -> int:
        return self.q.shape[0]

    @property
    def n_dual(self) -> int:
        return self.constraint.shape[0]


@dataclass(frozen=True, eq=False)
class KKTSystem:
    """Assembled saddle system A x = b with x = (y, lambda), split at n_primal."""

    matrix: np.ndarray
    rhs: np.ndarray
    split: int

    def recover(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = linalg.as_vector(x)
        return x[: self.split], x[self.split :]


def build_kkt(qp: QPProblem) -> KKTSystem:
    """[[Q, C^T], [C, 0]] x = (-c, d): stationarity plus feasibility."""
    n1, n2 = qp.n_primal, qp.n_dual
    n = n1 + n2
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
    eigen: linalg.SymmetricEigenDecomposition


def select_kappa(a: np.ndarray, fraction: float = DEFAULT_KAPPA_FRACTION) -> KappaSelection:
    """kappa = fraction * |alpha|, strictly inside (0, |alpha|/2) by default."""
    if not 0.0 < fraction < 0.5:
        raise ValueError("fraction must lie in (0, 0.5)")
    eigen = linalg.jacobi_eigendecomposition(a)
    alpha_abs = _smallest_nonzero_abs(eigen.values)
    if alpha_abs == 0.0:
        raise AllEigenvaluesZeroError("matrix has no eigenvalue above the zero threshold")
    return KappaSelection(alpha_abs, fraction * alpha_abs, eigen)


@dataclass(frozen=True, eq=False)
class PairLemmaReport:
    """min over eigenvalues of lambda * (lambda + 2 kappa); the pair
    (Ax - b, (A + 2 kappa I)x) is monotone iff this is nonnegative."""

    min_value: float
    monotone: bool
    kappa: float
    alpha_abs: float
    kappa_within_bound: bool


def verify_pair_lemma(a: np.ndarray, kappa: float) -> PairLemmaReport:
    if kappa <= 0:
        raise ValueError("kappa must be positive")
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
    a = linalg.as_matrix(a)
    b = linalg.as_vector(b)
    n = a.shape[0]
    if a.shape[0] != a.shape[1] or b.size != n:
        raise DimensionMismatchError("A must be square and match b")
    return ops.Affine(a, -b), ops.Affine(a + 2.0 * kappa * np.eye(n))


def _unit_gamma(cfg: solvers.SolverConfig | None) -> solvers.SolverConfig:
    """`cfg`, or the default config; the shifted-kernel iteration is
    defined at constant gamma = 1 only."""
    cfg = cfg or solvers.SolverConfig()
    if cfg.gamma_schedule != 1.0:
        raise ValueError("the shifted-kernel iteration is defined at constant gamma = 1")
    return cfg


@dataclass
class KKTSolution:
    result: solvers.SolveResult
    primal: np.ndarray
    multipliers: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return self.result.preimage


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
    cfg = _unit_gamma(cfg)
    n = kkt.matrix.shape[0]
    x0 = np.zeros(n) if x0 is None else linalg.as_vector(x0)
    f, v = kkt_operator_pair(kkt.matrix, kkt.rhs, kappa)
    result = solvers.gppa(f, v, x0, cfg)
    y, lam = kkt.recover(result.preimage)
    return KKTSolution(result, y, lam)


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
    On a monotone pair r never increases, and the run stops as
    Failed('Diverged') on the bound `solvers.gppa` uses.
    """
    cfg = _unit_gamma(cfg)
    a = linalg.require_symmetric(linalg.require_finite(linalg.as_matrix(a), "A"))
    b = linalg.require_finite(linalg.as_vector(b), "b")
    n = a.shape[0]
    x = solvers._start(np.zeros(n) if x0 is None else x0)
    f, v = kkt_operator_pair(a, b, kappa)
    engine = resolvents.build_engine(f, v, 1.0)
    rs: list[float] = []
    es: list[float] = []

    def measure(u: np.ndarray) -> float:
        """Append e = ||u|| and r = ||A u|| for u = F(x), and return r."""
        es.append(float(np.linalg.norm(u)))
        rs.append(float(np.linalg.norm(a @ u)))
        return rs[-1]

    # the trace records u against the reference 0, so err_to_ref holds e
    rec = solvers._Recorder(cfg, x, np.zeros(n))
    w = ops.evaluate_point(v, x)
    measure(ops.evaluate_point(f, x))
    status, reason, iters = solvers.Status.CONVERGED, None, 0
    if rs[0] > cfg.tol_residual:
        # each step inverts at v(x_k), the image the previous step returned
        def step(k, x):
            nonlocal w
            out = resolvents.transformed(engine, w)
            u = w - out.image
            w = out.image
            return out.preimage, measure(u), u, None

        status, reason, iters, x = solvers._iterate(cfg, rec, x, step, solvers._divergence_bound)

    result = solvers.SolveResult(status, reason, x, w, iters, rec.trace)
    return LeastSquaresSolution(result, rs, es)


# ---------------------------------------------------------------------------
# seeded test-problem generators


@dataclass(frozen=True, eq=False)
class GeneratedSystem:
    """Random symmetric system with pinned spectrum; solution solves Ax = b
    exactly for consistent systems, and minimizes ||Ax - b|| otherwise."""

    matrix: np.ndarray
    rhs: np.ndarray
    solution: np.ndarray
    eigenvalues: np.ndarray
    basis: np.ndarray
    range_distance: float  # ||b - proj_{ran A} b||


def _random_orthogonal(n: int, rng: SplitMix64) -> np.ndarray:
    g = rng.normal(n * n).reshape(n, n)
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def _check_spectrum(spectrum: tuple[float, float], zero_fraction: float) -> None:
    lo, hi = spectrum
    if not 0.0 < lo <= hi < float("inf"):
        raise ValueError(f"spectrum interval must satisfy 0 < lo <= hi < inf, got {spectrum!r}")
    if not 0.0 <= zero_fraction < 1.0:
        raise ValueError(f"zero_fraction must lie in [0, 1), got {zero_fraction!r}")


def _spectrum(n: int, rng: SplitMix64, spectrum: tuple[float, float], zero_fraction: float) -> np.ndarray:
    _check_spectrum(spectrum, zero_fraction)
    lo, hi = spectrum
    k = int(round(zero_fraction * n))
    lam = np.zeros(n)
    if n > k:
        lam[k:] = rng.uniform(n - k, lo, hi) * rng.sign(n - k)
    return lam


def _planted_system(
    n: int, rng: SplitMix64, spectrum: tuple[float, float], zero_fraction: float
) -> GeneratedSystem:
    """A = V diag(lam) V^T and b = A z, drawing lam, V and then z from rng."""
    lam = _spectrum(n, rng, spectrum, zero_fraction)
    basis = _random_orthogonal(n, rng)
    a = (basis * lam) @ basis.T
    a = 0.5 * (a + a.T)
    z = rng.normal(n)
    return GeneratedSystem(a, a @ z, z, lam, basis, 0.0)


def generate_consistent_system(
    n: int,
    seed: int,
    spectrum: tuple[float, float] = (0.5, 2.0),
    zero_fraction: float = 0.1,
) -> GeneratedSystem:
    """A = V diag(lam) V^T with |lam| in the spectrum interval (a configurable
    fraction exactly zero) and b = A z for Gaussian z, so z solves Ax = b."""
    return _planted_system(n, SplitMix64(seed), spectrum, zero_fraction)


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
    system = _planted_system(n, rng, spectrum, zero_fraction)
    kernel = system.eigenvalues == 0.0
    if not np.any(kernel):
        raise ValueError("zero_fraction too small: A has no kernel, b cannot leave ran A")
    w = rng.normal(int(np.sum(kernel)))
    w[np.abs(w) < 0.1] += 0.5  # keep the kernel component well away from zero
    kernel_part = system.basis[:, kernel] @ w
    return replace(
        system, rhs=system.rhs + kernel_part, range_distance=float(np.linalg.norm(kernel_part))
    )


# ---------------------------------------------------------------------------
# QP problem files


def write_qp(path: str, qp: QPProblem) -> None:
    """JSON with matrix-file references for Q and C, inline vectors c and d."""
    base = os.path.dirname(os.path.abspath(path))
    stem = os.path.splitext(os.path.basename(path))[0]
    q_file = f"{stem}-Q.mat"
    c_file = f"{stem}-C.mat"
    linalg.write_matrix(os.path.join(base, q_file), qp.q)
    linalg.write_matrix(os.path.join(base, c_file), qp.constraint)
    doc = {
        "Q": q_file,
        "C": c_file,
        "c": [float(v) for v in qp.c],
        "d": [float(v) for v in qp.d],
    }
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
