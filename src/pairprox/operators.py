"""Compositional operators, possibly set-valued, and sampling-based
monotonicity checks for operator pairs.

An operator is built from a small closed set of variants (affine maps,
componentwise sign blocks, signed permutations, named pointwise maps,
positive scalings, sums and block stacks). Evaluation returns an axis-aligned
set: a single point, or a box when some sign coordinate sits at zero. Every
variant also evaluates a batch of points, one per row, with the same
arithmetic as one point at a time, so batched results are bitwise those of
the per-point calls.
"""
from __future__ import annotations

import functools
import json
import os
import reprlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, UnknownRegistryKeyError
from .rng import SplitMix64

MONOTONE_SLACK = 1e-12


# ---------------------------------------------------------------------------
# value sets


@dataclass(frozen=True, eq=False)
class ValueSet:
    """Axis-aligned set of operator values: a point iff lower == upper."""

    lower: np.ndarray
    upper: np.ndarray

    @property
    def is_singleton(self) -> bool:
        # the variants single-valued by type return one array as both bounds;
        # NaN equals NaN here, so an overflowing inf - inf is a point, not a box
        return self.lower is self.upper or bool(np.array_equal(self.lower, self.upper, equal_nan=True))


class Selection(Enum):
    """Canonical selections from a box value."""

    LOW = "extreme-low"
    MID = "midpoint"
    HIGH = "extreme-high"


# ---------------------------------------------------------------------------
# operator variants

# the maps an operator file may name; the resolvent engine reduces `identity`
# and `negation` to +-I by name, without evaluating them
_POINTWISE_REGISTRY: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda t: t,
    "negation": lambda t: -t,
    "abs-sin": lambda t: np.abs(np.sin(t)),
    "cos-abs": lambda t: np.cos(np.abs(t)),
    "neg-cos-abs": lambda t: -np.cos(np.abs(t)),
}


class OperatorExpr:
    """Base class; subclasses are immutable value objects.

    `evaluate` checks the input's shape once, at the root of the tree, and
    calls `_eval`, which every variant implements. Composite variants call
    their children's `_eval` directly: the children's dimensions are checked
    when the tree is built.
    """

    def evaluate(self, x: np.ndarray) -> ValueSet:
        """The values at a point x of shape (n,), or at each row of a batch
        of shape (N, n); the bounds then have shape (N, n), row by row."""
        return self._eval(self._check_dim(x))

    def _eval(self, x: np.ndarray) -> ValueSet:
        """`evaluate` on a float array whose shape is already checked."""
        raise NotImplementedError

    @property
    def dim(self) -> int | None:
        """Ambient dimension, or None when the variant fits any dimension."""
        return None

    def _check_dim(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] < 1:
            raise DimensionMismatchError(f"expected a point (n,) or a batch (N, n), got shape {x.shape}")
        dim = self.dim
        if dim is not None and x.shape[-1] != dim:
            raise DimensionMismatchError(f"operator dim {dim}, input dim {x.shape[-1]}")
        return x


def evaluate_point(op: OperatorExpr, x: np.ndarray) -> np.ndarray:
    """Evaluate an operator that must be single-valued at x."""
    vs = op.evaluate(x)
    if vs.lower is not vs.upper and not vs.is_singleton:
        raise ValueError("operator is set-valued at this point")
    return vs.lower


@dataclass(frozen=True, eq=False)
class Affine(OperatorExpr):
    """x -> A x + c, A square."""

    matrix: np.ndarray
    offset: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", linalg.as_matrix(self.matrix, "affine matrix"))
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise DimensionMismatchError(f"affine matrix must be square, got shape {self.matrix.shape}")
        if not self.matrix.size:
            raise DimensionMismatchError("affine matrix must be nonempty")
        off = self.offset
        off = np.zeros(self.matrix.shape[0]) if off is None else linalg.as_vector(linalg.as_real(off, "affine offset"))
        if off.size != self.matrix.shape[0]:
            raise DimensionMismatchError("offset length must match matrix rows")
        object.__setattr__(self, "offset", off)

    @property
    def dim(self) -> int | None:
        return self.matrix.shape[1]

    def _eval(self, x: np.ndarray) -> ValueSet:
        if x.ndim == 1:
            y = self.matrix @ x + self.offset
        else:
            # one matrix-vector product per row, the kernel `A @ x` runs on a
            # point; a matrix-matrix product would round differently
            y = np.matmul(self.matrix, x[..., None])[..., 0] + self.offset
        return ValueSet(y, y)


def identity_operator(n: int) -> Affine:
    return Affine(np.eye(n))


@dataclass(frozen=True, eq=False)
class SignBlock(OperatorExpr):
    """x -> scale * (Sign(x_{sel(0)}), ..., Sign(x_{sel(n-1)})), Sign set-valued at 0."""

    scale: float
    selector: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "scale", linalg.real_scalar("sign-block scale", self.scale, 0, np.inf, "[)"))
        sel = tuple(int(i) for i in self.selector)
        if not sel or sorted(sel) != list(range(len(sel))):
            raise ValueError("selector must be a permutation of 0..n-1 with n >= 1")
        object.__setattr__(self, "selector", sel)
        object.__setattr__(self, "_picks", np.array(sel, dtype=np.intp))

    @property
    def dim(self) -> int | None:
        return len(self.selector)

    def _eval(self, x: np.ndarray) -> ValueSet:
        picked = x[..., self._picks]
        lower = self.scale * np.sign(picked)
        upper = lower.copy()
        at_zero = picked == 0.0
        lower[at_zero] = -self.scale
        upper[at_zero] = self.scale
        return ValueSet(lower, upper)


@dataclass(frozen=True, eq=False)
class Permutation(OperatorExpr):
    """x -> (signs_i * x_{perm(i)}): coordinate shuffle with sign flips."""

    perm: tuple[int, ...]
    signs: tuple[float, ...] | None = None

    def __post_init__(self):
        perm = tuple(int(i) for i in self.perm)
        if not perm or sorted(perm) != list(range(len(perm))):
            raise ValueError("perm must be a permutation of 0..n-1 with n >= 1")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "_picks", np.array(perm, dtype=np.intp))
        signs = self.signs
        signs = (1.0,) * len(perm) if signs is None else tuple(linalg.real_scalar("signs", s, -1, 1, "[]") for s in signs)
        if len(signs) != len(perm) or any(s not in (-1.0, 1.0) for s in signs):
            raise ValueError("signs must be +-1 per coordinate")
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "_sign_vector", np.array(signs))

    @property
    def dim(self) -> int | None:
        return len(self.perm)

    def as_matrix(self) -> np.ndarray:
        n = len(self.perm)
        m = np.zeros((n, n))
        for i, (j, s) in enumerate(zip(self.perm, self.signs)):
            m[i, j] = s
        return m

    def _eval(self, x: np.ndarray) -> ValueSet:
        y = self._sign_vector * x.take(self._picks, axis=-1)
        return ValueSet(y, y)


def swap_operator() -> Permutation:
    """The 2-D coordinate swap (x1, x2) -> (x2, x1)."""
    return Permutation((1, 0))


@dataclass(frozen=True, eq=False)
class Pointwise(OperatorExpr):
    """Named componentwise single-valued map from the registry."""

    name: str

    def __post_init__(self):
        if self.name not in _POINTWISE_REGISTRY:
            raise UnknownRegistryKeyError(f"no pointwise map named {self.name!r}")

    def _eval(self, x: np.ndarray) -> ValueSet:
        y = np.asarray(_POINTWISE_REGISTRY[self.name](x), dtype=float)
        return ValueSet(y, y)


@dataclass(frozen=True, eq=False)
class Scale(OperatorExpr):
    """x -> gamma * inner(x) with 0 < gamma < inf."""

    gamma: float
    inner: OperatorExpr

    def __post_init__(self):
        object.__setattr__(self, "gamma", linalg.real_scalar("scale factor", self.gamma, 0, np.inf, "()"))

    @property
    def dim(self) -> int | None:
        return self.inner.dim

    def _eval(self, x: np.ndarray) -> ValueSet:
        vs = self.inner._eval(x)
        return ValueSet(self.gamma * vs.lower, self.gamma * vs.upper)


@dataclass(frozen=True, eq=False)
class Sum(OperatorExpr):
    """Minkowski sum of term values."""

    terms: tuple[OperatorExpr, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("sum needs at least one term")
        dims = {t.dim for t in terms if t.dim is not None}
        if len(dims) > 1:
            raise DimensionMismatchError(f"sum terms disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "terms", terms)

    @property
    def dim(self) -> int | None:
        for t in self.terms:
            if t.dim is not None:
                return t.dim
        return None

    def _eval(self, x: np.ndarray) -> ValueSet:
        lower, upper = np.zeros(x.shape), np.zeros(x.shape)
        for t in self.terms:
            vs = t._eval(x)
            lower, upper = lower + vs.lower, upper + vs.upper
        return ValueSet(lower, upper)


@dataclass(frozen=True, eq=False)
class Stack(OperatorExpr):
    """Block-structured map: each (start, stop, op) block reads and writes the
    coordinate slice [start, stop); uncovered coordinates map to zero."""

    ambient_dim: int
    blocks: tuple[tuple[int, int, OperatorExpr], ...]

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise DimensionMismatchError(f"stack dim must be >= 1, got {self.ambient_dim}")
        blocks = tuple((int(a), int(b), op) for a, b, op in self.blocks)
        for start, stop, op in blocks:
            if not (0 <= start < stop <= self.ambient_dim):
                raise ValueError(f"slice [{start}, {stop}) out of range for dim {self.ambient_dim}")
            if op.dim is not None and op.dim != stop - start:
                raise DimensionMismatchError("block operator dimension does not match its slice")
        # sorted by start, two spans overlap iff some span starts before its predecessor stops
        spans = sorted((start, stop) for start, stop, _ in blocks)
        if any(nxt[0] < prev[1] for prev, nxt in zip(spans, spans[1:])):
            raise ValueError("stack blocks must not overlap")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int | None:
        return self.ambient_dim

    def _eval(self, x: np.ndarray) -> ValueSet:
        lower, upper = np.zeros(x.shape), np.zeros(x.shape)
        for start, stop, op in self.blocks:
            vs = op._eval(x[..., start:stop])
            lower[..., start:stop], upper[..., start:stop] = vs.lower, vs.upper
        return ValueSet(lower, upper)


# ---------------------------------------------------------------------------
# canonical instances used throughout tests and demos


def trig_block_operator() -> Sum:
    """The 2-D single-valued operator (x1, x2) -> (x2 + |sin x1|, x1 - cos|x2|).

    Not monotone on its own, but forms a monotone pair with the swap kernel.
    """
    return Sum(
        (
            Permutation((1, 0)),
            Stack(2, ((0, 1, Pointwise("abs-sin")), (1, 2, Pointwise("neg-cos-abs")))),
        )
    )


def sign_swap_operator() -> Sum:
    """The 2-D set-valued operator (x1, x2) -> (Sign(x2) + x1, Sign(x1) - x2)."""
    return Sum((SignBlock(1.0, (1, 0)), Affine(np.diag([1.0, -1.0]))))


# ---------------------------------------------------------------------------
# pair monotonicity checks


class Verdict(Enum):
    MONOTONE_EVIDENCE = "monotone-evidence"
    VIOLATION_FOUND = "violation-found"


@dataclass(frozen=True, eq=False)
class PairMonotonicityReport:
    """Outcome of sampling <F(x)-F(y), v(x)-v(y)> over a box.

    Sampling gathers evidence or finds counterexamples; it never certifies
    monotonicity. The witness re-evaluates exactly to `witness_inner` by
    applying `witness_selections` to (F(x), F(y), v(x), v(y)).
    """

    samples: int
    min_quotient: float
    min_inner: float
    witness_x: np.ndarray = field(repr=False)
    witness_y: np.ndarray = field(repr=False)
    witness_selections: tuple[Selection, Selection, Selection, Selection]
    verdict: Verdict


# pairs evaluated per batch in check_pair_monotone; with up to 3**4
# selection products per pair it bounds the batch's memory at any --samples
_PAIR_CHUNK = 1024

# the canonical selections of a value set, by the number k offered
_SLOTS = {1: (Selection.MID,), 3: (Selection.LOW, Selection.MID, Selection.HIGH)}


def _batch_candidates(vs: ValueSet) -> tuple[np.ndarray, np.ndarray]:
    """The canonical selections from each row of a batch of value sets, as
    (values (N, k, n), offered (N, k)) over the slots _SLOTS[k]. k is 1 when
    every row is a point, else 3; a point row then offers only its MID slot,
    which holds the point itself."""
    point = (vs.lower == vs.upper).all(-1)
    if point.all():
        return vs.lower[:, None, :], np.ones((point.size, 1), dtype=bool)
    mid = vs.lower.copy()
    mid[~point] = 0.5 * (vs.lower[~point] + vs.upper[~point])
    offered = np.ones((point.size, 3), dtype=bool)
    offered[point, 0] = offered[point, 2] = False
    return np.stack((vs.lower, mid, vs.upper), axis=1), offered


def _first_minima(f: OperatorExpr, v: OperatorExpr, xs: np.ndarray, ys: np.ndarray):
    """Scan the pairs (xs[i], ys[i]) that do not coincide.

    Returns their count and, for <F(x)-F(y), v(x)-v(y)> and for its quotient
    by ||x-y||^2, the first strict minimum in (pair, selection product)
    order as (value, x, y, selections), or None where no value is below
    +inf. An inner product that is not finite (NaN or an overflow) is no
    evidence and never wins, nor is its quotient by a distance that overflows.
    """
    dx2 = ((xs - ys) ** 2).sum(-1)
    keep = dx2 != 0.0
    xs, ys, dx2 = xs[keep], ys[keep], dx2[keep]
    count, n = xs.shape
    if count == 0:
        return 0, None, None
    (fx, ofx), (fy, ofy), (vx, ovx), (vy, ovy) = (
        _batch_candidates(op.evaluate(p)) for op, p in ((f, xs), (f, ys), (v, xs), (v, ys))
    )
    # axes (pair, Fx slot, Fy slot, vx slot, vy slot, coordinate)
    d = fx[:, :, None, None, None, :] - fy[:, None, :, None, None, :]
    e = vx[:, None, None, :, None, :] - vy[:, None, None, None, :, :]
    shape = np.broadcast_shapes(d.shape, e.shape)
    # one (1, n) x (n, 1) product per selection product: the kernel `d @ e`
    # runs on two vectors, where (d * e).sum(-1) would round differently
    inner = np.matmul(
        np.broadcast_to(d, shape).reshape(-1, 1, n), np.broadcast_to(e, shape).reshape(-1, n, 1)
    ).reshape(count, -1)
    offered = (
        ofx[:, :, None, None, None] & ofy[:, None, :, None, None] & ovx[:, None, None, :, None] & ovy[:, None, None, None, :]
    ).reshape(count, -1)
    finite = offered & np.isfinite(inner)

    def first_min(values, usable):
        keyed = np.where(usable, values, np.inf)
        flat = int(np.argmin(keyed))
        if not keyed.flat[flat] < np.inf:
            return None
        pair, product = divmod(flat, keyed.shape[1])
        slots = np.unravel_index(product, shape[1:5])
        selections = tuple(_SLOTS[k][int(j)] for k, j in zip(shape[1:5], slots))
        return float(keyed.flat[flat]), xs[pair].copy(), ys[pair].copy(), selections

    return count, first_min(inner, finite), first_min(inner / dx2[:, None], finite & np.isfinite(dx2)[:, None])


def _resolve_box(
    f: OperatorExpr, v: OperatorExpr, box: tuple | None
) -> tuple[np.ndarray, np.ndarray]:
    if None not in (f.dim, v.dim) and f.dim != v.dim:
        raise DimensionMismatchError(f"F and v disagree on dimension: F has {f.dim}, v has {v.dim}")
    dim = f.dim if f.dim is not None else v.dim
    if box is None:
        if dim is None:
            raise DimensionMismatchError("box required when operator dimension is ambiguous")
        return np.full(dim, -10.0), np.full(dim, 10.0)
    # an infinite bound would make the sampling warn
    lower, upper = (linalg.real_array("box", np.atleast_1d(bound), 1) for bound in box)
    lower, upper = (np.full(dim, b[0]) if b.size == 1 and dim is not None else b for b in (lower, upper))
    if lower.shape != upper.shape or np.any(lower > upper):
        raise ValueError("invalid sampling box")
    return lower, upper


def check_pair_monotone(
    f: OperatorExpr,
    v: OperatorExpr,
    box: tuple | None = None,
    samples: int = 10_000,
    seed: int = 0,
    include: Sequence[tuple[np.ndarray, np.ndarray]] = (),
) -> PairMonotonicityReport:
    """Sample point pairs and test <F(x)-F(y), v(x)-v(y)> >= 0 over all
    canonical selections from set-valued evaluations.

    `include` pairs are scanned before the seeded draws, so known critical
    directions (kernel vectors, published counterexamples) can be pinned.
    Sample i is the pair of points that the (2i+1)-th and (2i+2)-th
    `uniform_box` calls on SplitMix64(seed) would draw. Coincident pairs are
    skipped and not counted; products that overflow are counted as no
    evidence. Pairs are evaluated in batches; the minima and
    witnesses are those of scanning the pairs one by one.
    """
    if linalg._require_count("samples", samples) < 2:
        raise ValueError("need at least 2 samples")
    lower, upper = _resolve_box(f, v, box)
    dim = lower.size
    rng = SplitMix64(seed)

    def batches():
        if include:
            sides = [linalg.as_vector(linalg.as_real(p, "include pairs")) for pair in include for p in pair]
            if any(p.size != dim for p in sides):
                raise DimensionMismatchError(f"include pairs must have {dim} coordinates, as the box")
            pts = np.array(sides).reshape(-1, 2, dim)
            if not linalg.all_finite(pts):
                raise ValueError("include pairs must have finite coordinates")
            yield pts[:, 0], pts[:, 1]
        for start in range(0, samples, _PAIR_CHUNK):
            size = min(_PAIR_CHUNK, samples - start)
            # the stream is counter-based: one draw of 2*size*dim values
            # equals 2*size successive uniform_box draws
            pts = lower + (upper - lower) * rng.uniform(2 * size * dim).reshape(size, 2, dim)
            yield pts[:, 0], pts[:, 1]

    count = 0
    best_inner = best_quot = None
    for xs, ys in batches():
        scanned, inner, quot = _first_minima(f, v, xs, ys)
        count += scanned
        if inner is not None and (best_inner is None or inner[0] < best_inner[0]):
            best_inner = inner
        if quot is not None and (best_quot is None or quot[0] < best_quot[0]):
            best_quot = quot

    if count == 0:
        raise ValueError("no usable sample pairs (all coincided)")
    violated = best_inner is not None and best_inner[0] < -MONOTONE_SLACK
    witness = best_inner if violated else best_quot
    if witness is None:
        raise ValueError("no pair gave a finite inner product quotient; the box is too large")
    _, wx, wy, wsel = witness
    return PairMonotonicityReport(
        samples=count,
        min_quotient=best_quot[0] if best_quot is not None else np.inf,
        min_inner=best_inner[0] if best_inner is not None else np.inf,
        witness_x=wx,
        witness_y=wy,
        witness_selections=wsel,
        verdict=Verdict.VIOLATION_FOUND if violated else Verdict.MONOTONE_EVIDENCE,
    )


# ---------------------------------------------------------------------------
# JSON serialization


def operator_to_json(op: OperatorExpr) -> dict:
    """Serialize the variant tree, matrices inline."""
    if isinstance(op, Affine):
        return {
            "kind": "affine",
            "offset": op.offset.tolist(),
            "matrix": op.matrix.tolist(),
        }
    if isinstance(op, SignBlock):
        return {"kind": "sign-block", "scale": float(op.scale), "selector": list(op.selector)}
    if isinstance(op, Permutation):
        return {"kind": "permutation", "permutation": list(op.perm), "signs": list(op.signs)}
    if isinstance(op, Pointwise):
        return {"kind": "pointwise", "registry-name": op.name}
    if isinstance(op, Scale):
        return {"kind": "scale", "scale": float(op.gamma), "inner": operator_to_json(op.inner)}
    if isinstance(op, Sum):
        return {"kind": "sum", "terms": [operator_to_json(t) for t in op.terms]}
    if isinstance(op, Stack):
        return {
            "kind": "stack",
            "dim": op.ambient_dim,
            "blocks": [
                {"start": a, "stop": b, "op": operator_to_json(o)}
                for a, b, o in op.blocks
            ],
        }
    raise TypeError(f"cannot serialize {type(op).__name__}")


def operator_from_json(doc: dict, base_dir: str = ".") -> OperatorExpr:
    """The variant tree of a JSON document; a key of the wrong JSON type is
    a ValueError that names the key."""
    get = functools.partial(linalg._json_field, "operator")
    kind = doc.get("kind")
    if kind == "affine":
        if "matrix-file" in doc:
            path = os.path.join(base_dir, get(doc, "matrix-file", "string"))
            # finite, as the inline "matrix" key's "rows" shape requires
            matrix = linalg.real_array(f"operator matrix file {path}", linalg.read_matrix(path), 2)
        elif "matrix" in doc:
            matrix = np.asarray(get(doc, "matrix", "rows"), dtype=float)
        else:
            raise ValueError("affine operator needs 'matrix' or 'matrix-file'")
        return Affine(matrix, get(doc, "offset", "numbers", None))
    if kind == "sign-block":
        return SignBlock(float(get(doc, "scale", "number", 1.0)), tuple(get(doc, "selector", "integers")))
    if kind == "permutation":
        return Permutation(tuple(get(doc, "permutation", "integers")), get(doc, "signs", "numbers", None))
    if kind == "pointwise":
        return Pointwise(get(doc, "registry-name", "string"))
    if kind == "scale":
        return Scale(float(get(doc, "scale", "number")), operator_from_json(get(doc, "inner", "object"), base_dir))
    if kind == "sum":
        return Sum(tuple(operator_from_json(t, base_dir) for t in get(doc, "terms", "objects")))
    if kind == "stack":
        blocks = tuple(
            (get(b, "start", "integer"), get(b, "stop", "integer"), operator_from_json(get(b, "op", "object"), base_dir))
            for b in get(doc, "blocks", "objects")
        )
        return Stack(int(get(doc, "dim", "integer")), blocks)
    raise ValueError(f"unknown operator kind {kind!r}")


def load_operator(path: str) -> OperatorExpr:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"operator file {path} must hold a JSON object, got {reprlib.repr(doc)}")
    return operator_from_json(doc, base_dir=os.path.dirname(os.path.abspath(path)))


def save_operator(path: str, op: OperatorExpr) -> None:
    with open(path, "w") as fh:
        json.dump(operator_to_json(op), fh, indent=2)
        fh.write("\n")
