"""Global and local (stripe-aligned) distance computation.

Local stripe sequences are compared either with a dynamic-programming
shortest path through the stripe-to-stripe cost grid (tolerates vertical
misalignment) or with a direct one-to-one stripe correspondence (valid
when bounding boxes are well aligned).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError
from .gallery import EmbeddingSet, _decode_container, _encode_container

DISTANCE_MAGIC = b"RDMX"


class Metric(str, Enum):
    EUCLIDEAN = "euclidean"
    COSINE = "cosine"


class LocalMode(str, Enum):
    DP_ALIGNED = "dp_aligned"
    ONE_TO_ONE = "one_to_one"
    NONE = "none"


@dataclass(frozen=True)
class DistanceConfig:
    metric: Metric = Metric.EUCLIDEAN
    lam: float = 1.0
    local_mode: LocalMode = LocalMode.NONE

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0:
            raise DataError("lambda must be finite and >= 0")


@dataclass(frozen=True)
class DistanceMatrix:
    values: np.ndarray
    metric: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise DataError("distance matrix must be 2-D")
        if not np.isfinite(v).all():
            raise DataError("distance matrix contains non-finite entries")
        if (v < 0).any():
            raise DataError("distance matrix contains negative entries")
        object.__setattr__(self, "values", v)

    @property
    def shape(self):
        return self.values.shape


def _sq_euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared euclidean distances between the rows of a and b from the
    |a|^2 + |b|^2 - 2ab expansion, clamped in place at 0 against cancellation."""
    sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
    sq -= 2.0 * (a @ b.T)
    return np.maximum(sq, 0.0, out=sq)


def distance_matrix(q: np.ndarray, g: np.ndarray, metric: Metric = Metric.EUCLIDEAN) -> DistanceMatrix:
    """Pairwise Q x G distances between global feature matrices."""
    q = np.asarray(q, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if q.ndim != 2 or g.ndim != 2:
        raise DataError("inputs must be 2-D matrices")
    if q.shape[1] != g.shape[1]:
        raise DataError(f"dimension mismatch: {q.shape[1]} vs {g.shape[1]}")
    metric = Metric(metric)
    if metric is Metric.EUCLIDEAN:
        d = _sq_euclidean(q, g)
        np.sqrt(d, out=d)
    else:
        qn = np.linalg.norm(q, axis=1)
        gn = np.linalg.norm(g, axis=1)
        denom = qn[:, None] * gn[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            cos = np.where(denom > 0, (q @ g.T) / np.where(denom > 0, denom, 1.0), 0.0)
        # zero-norm rows get cos 0, hence distance 1
        d = np.clip(1.0 - cos, 0.0, 2.0)
    return DistanceMatrix(d, metric.value)


def squash(x):
    """Map a non-negative cost into [0, 1): (e^x - 1)/(e^x + 1)."""
    x = np.asarray(x, dtype=np.float64)
    if (x < 0).any():
        raise DataError("squash requires non-negative input")
    return np.tanh(x / 2.0)


# Cells (S1 * S2 * query rows * gallery rows) in one tile of stripe-cost
# grids; bounds the kernel's memory at any N (one Market-1501 query row alone
# has 64 x 15,913 cells at S=8).
_TILE_CELLS = 1 << 16


def _stripe_costs(ql: np.ndarray, gl: np.ndarray) -> np.ndarray:
    """Squashed euclidean stripe-to-stripe cost grids of every (query,
    gallery) pair, laid out (S1, S2, nq, ng), from (nq, S1, Dl) and
    (ng, S2, Dl) stripe stacks.

    Squared distances accumulate direct differences one feature dimension at
    a time rather than the |a|^2 + |b|^2 - 2ab expansion, so identical
    stripes cost exactly 0 and no entry depends on cancellation."""
    if ql.ndim != 3 or gl.ndim != 3:
        raise DataError("stripe sequences must be 2-D (S x Dl)")
    if ql.shape[2] != gl.shape[2]:
        raise DataError(f"stripe dimension mismatch: {ql.shape[2]} vs {gl.shape[2]}")
    (nq, s1, dl), (ng, s2) = ql.shape, gl.shape[:2]
    # rows (stripe, query) x columns (stripe, gallery): one 2-D outer
    # difference per feature dimension
    qa = np.ascontiguousarray(ql.transpose(2, 1, 0)).reshape(dl, s1 * nq)
    ga = np.ascontiguousarray(gl.transpose(2, 1, 0)).reshape(dl, s2 * ng)
    acc = np.zeros((s1 * nq, s2 * ng))
    diff = np.empty_like(acc)
    for k in range(dl):
        np.subtract.outer(qa[k], ga[k], out=diff)
        diff *= diff
        acc += diff
    cost = squash(np.sqrt(acc, out=acc))
    return cost.reshape(s1, nq, s2, ng).transpose(0, 2, 1, 3)


def _min_path_costs(c: np.ndarray) -> np.ndarray:
    """Minimum total cost over monotone (right/down) paths from the top-left
    to the bottom-right cell of each (S1, S2) grid in a (S1, S2, ...) stack,
    endpoints included; the DP sweeps one grid row at a time over the whole
    stack."""
    d = np.cumsum(c[0], axis=0)
    for i in range(1, c.shape[0]):
        d[0] += c[i, 0]
        for j in range(1, c.shape[1]):
            np.minimum(d[j], d[j - 1], out=d[j])
            d[j] += c[i, j]
    return d[-1]


def min_path_cost(cost: np.ndarray) -> float:
    """Minimum total cost over monotone (right/down) paths from the top-left
    to the bottom-right cell of a cost grid, endpoints included."""
    cost = np.asarray(cost, dtype=np.float64)
    return float(_min_path_costs(cost[:, :, None])[0])


def aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Minimum-cost monotone path through the squashed stripe-to-stripe
    euclidean cost grid."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(_min_path_costs(_stripe_costs(a[None], b[None]))[0, 0])


def one_to_one_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of squashed euclidean distances between corresponding stripes."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[0] != b.shape[0]:
        raise DataError(
            f"stripe count mismatch ({a.shape[0]} vs {b.shape[0]}); "
            "use the DP-aligned distance for unequal stripe counts"
        )
    return float(np.trace(_stripe_costs(a[None], b[None])[:, :, 0, 0]))


def local_distance_matrix(q: EmbeddingSet, g: EmbeddingSet, mode: LocalMode) -> DistanceMatrix:
    """Batched local distance: entry (i, j) compares the stripe sequences
    of query row i and gallery row j."""
    mode = LocalMode(mode)
    if mode is LocalMode.NONE:
        raise DataError("local_mode 'none' has no local distance matrix")
    if q.local is None or g.local is None:
        raise DataError("both embedding sets need local features")
    nq, ng = q.n, g.n
    ql = q.local.astype(np.float64)
    gl = g.local.astype(np.float64)
    out = np.zeros((nq, ng), dtype=np.float64)
    if mode is LocalMode.ONE_TO_ONE:
        if ql.shape[1] != gl.shape[1]:
            raise DataError(
                f"stripe count mismatch ({ql.shape[1]} vs {gl.shape[1]}); "
                "use the DP-aligned distance for unequal stripe counts"
            )
        for s in range(ql.shape[1]):
            d = _sq_euclidean(ql[:, s], gl[:, s])
            out += squash(np.sqrt(d, out=d))
    else:
        # tiles of tq x tg pairs hold at most _TILE_CELLS grid cells, or one
        # pair when a single grid is larger
        pairs = max(1, _TILE_CELLS // (ql.shape[1] * gl.shape[1]))
        tg = max(1, min(ng, pairs))
        tq = max(1, pairs // tg)
        for i in range(0, nq, tq):
            for j in range(0, ng, tg):
                out[i : i + tq, j : j + tg] = _min_path_costs(
                    _stripe_costs(ql[i : i + tq], gl[j : j + tg])
                )
    return DistanceMatrix(out, f"local_{mode.value}")


def combine_distances(dg: DistanceMatrix, dl: DistanceMatrix, lam: float) -> DistanceMatrix:
    """Entrywise global + lambda * local combination."""
    if dg.shape != dl.shape:
        raise DataError(f"shape mismatch: {dg.shape} vs {dl.shape}")
    if not np.isfinite(lam) or lam < 0:
        raise DataError("lambda must be finite and >= 0")
    return DistanceMatrix(dg.values + lam * dl.values, f"{dg.metric}+{lam}*{dl.metric}")


def encode_distance_matrix(d: DistanceMatrix) -> bytearray:
    """Serialize with the shared binary container (magic RDMX, S=0)."""
    return _encode_container(DISTANCE_MAGIC, d.values, None)


def decode_distance_matrix(data: bytes, metric: str = "unknown") -> DistanceMatrix:
    main, _ = _decode_container(data, DISTANCE_MAGIC)
    return DistanceMatrix(main.astype(np.float64), metric)
