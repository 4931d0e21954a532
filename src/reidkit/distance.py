"""Global and local (stripe-aligned) distance computation.

Local stripe sequences are compared either with a dynamic-programming
shortest path through the stripe-to-stripe cost grid (tolerates vertical
misalignment) or with a direct one-to-one stripe correspondence (valid
when bounding boxes are well aligned).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from .errors import DataError
from .gallery import EmbeddingSet, _check_finite, _container_header, _container_views, _finite, _real

DISTANCE_MAGIC = b"RDMX"


class Metric(str, Enum):
    EUCLIDEAN = "euclidean"
    COSINE = "cosine"


class LocalMode(str, Enum):
    DP_ALIGNED = "dp_aligned"
    ONE_TO_ONE = "one_to_one"


def check_lambda(lam: float) -> None:
    """Reject a global/local mixing weight that is complex, negative or not finite."""
    if not np.isfinite(lam := _real(lam)) or lam < 0:
        raise DataError("lambda must be finite and >= 0")


@dataclass(frozen=True)
class DistanceMatrix:
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(_real(self.values), dtype=np.float64)
        if v.ndim != 2:
            raise DataError("distance matrix must be 2-D")
        # two reductions, no full-size mask: NaN propagates through both,
        # and -0.0 is not below 0
        lo, hi = (v.min(), v.max()) if v.size else (0.0, 0.0)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise DataError("distance matrix contains non-finite entries")
        if lo < 0:
            raise DataError("distance matrix contains negative entries")
        object.__setattr__(self, "values", v)

    @property
    def shape(self):
        return self.values.shape


# Cells in one block of every blocked pass (_blocks): stripe-cost grids (S1 *
# S2 * pairs), direct differences (pairs * D), rows of a result or of a norm
# square (rows * width); bounds their memory at any N (one Market-1501 query
# row alone has 64 x 15,913 stripe-cost cells at S=8).
_TILE_CELLS = 1 << 16


def _blocks(n: int, width: int) -> list[slice]:
    """Slices cutting n rows of width cells into blocks of at most
    _TILE_CELLS cells, one row at least."""
    step = max(1, _TILE_CELLS // max(1, width))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """np.sum(x * x, axis=1) a block of rows at a time: the same bits."""
    out = np.empty(len(x))
    for rows in _blocks(len(x), x.shape[1]):
        blk = x[rows]
        np.sum(blk * blk, axis=1, out=out[rows])
    return out


def _twice_gamma(n: int) -> float:
    """2 gamma_n = 2 n u / (1 - n u), u the unit roundoff of float64 (2^-53)."""
    u = np.finfo(np.float64).eps / 2
    return 2 * n * u / (1 - n * u)


def _exact_near_zero(a, b, blk, an_tau, bn_tau, an=None, bn=None) -> None:
    """Recompute from direct differences of the rows of a and b the entries
    (i, j) of blk that are at or below an_tau[i] + bn_tau[j], a bounded chunk
    of pairs at a time. blk holds squared euclidean distances or, given the
    row norms an and bn, cosine distances: half the squared difference of the
    unit rows. One reduction decides a block that has no such entry."""
    if blk.size == 0:
        return
    bound = an_tau.max() + bn_tau.max()
    if blk.min() > bound:
        return
    cells = np.flatnonzero(blk <= bound)
    for chunk in _blocks(len(cells), a.shape[1]):
        r, c = np.divmod(cells[chunk], blk.shape[1])
        keep = blk[r, c] <= an_tau[r] + bn_tau[c]
        r, c = r[keep], c[keep]
        diff, other = a[r], b[c]
        if an is not None:
            diff /= an[r, None]
            other /= bn[c, None]
        diff -= other
        sq = np.einsum("ij,ij->i", diff, diff)
        blk[r, c] = sq if an is None else sq / 2


def _sq_euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared euclidean distances between the rows of a and b: _finish of
    a @ b.T, the float operations of max((an + bn) - 2.0 * (a @ b.T), 0).

    Near zero that expansion cancels. Its computed value differs from the
    true one by at most tau * (|a|^2 + |b|^2), tau = 2 gamma_{D+2},
    gamma_n = n u / (1 - n u), u the unit roundoff (2^-53 in float64): the dot
    product and each norm are off by at most gamma_D of their share, and the
    norm sum, the difference and the comparison add a few u more. Every entry
    at or below that bound is recomputed as a sum of squared direct
    differences, so d(x, x) is exactly 0 and near-duplicates rank as their
    direct differences do. A block whose minimum clears the bound of its
    largest norms skips the comparison."""
    return _finish(a, b, Metric.EUCLIDEAN, _side_terms(b, Metric.EUCLIDEAN))


def _finish(q, g, metric, g_terms, out=None) -> np.ndarray:
    """d = q @ g.T (into out) of the float64 rows q and g, taken after q's
    _side_terms (g's are g_terms), made distances in place a tile of rows at
    a time: squared euclidean |q|^2 + |g|^2 - 2d in [0, inf), or cosine
    1 - d / (|q| |g|) in [0, 2], a zero norm leaving d (0 for a zero row)
    undivided; then entries at or below their bound are recomputed exactly.
    A float64 row whose squared norm underflows to 0 reads 1 - d, which is
    not 1 only against values beyond ~1e140."""
    (qn, q_tau), (gn, g_tau) = _side_terms(q, metric), g_terms
    d = np.matmul(q, g.T, out=out)
    cosine = metric is Metric.COSINE
    for rows in _blocks(*d.shape):
        blk = d[rows]
        if cosine:
            denom = qn[rows, None] * gn
            np.divide(blk, denom, out=blk, where=denom != 0)
            np.subtract(1.0, blk, out=blk)
        else:
            blk *= 2.0
            np.subtract(qn[rows, None] + gn, blk, out=blk)
        np.clip(blk, 0.0, 2.0 if cosine else None, out=blk)
        _exact_near_zero(q[rows], g, blk, q_tau[rows], g_tau, *((qn[rows], gn) if cosine else ()))
    return d


def _side_terms(g: np.ndarray, metric: Metric) -> tuple[np.ndarray, np.ndarray]:
    """(norms, tau terms) of the float64 rows of g, one side's share of the
    global finish: squared norms and tau times them for euclidean, norms and
    tau_c / 2 per row for cosine (tau_c / 2 per row of either side: tau_c per
    entry). A row with a NaN or inf, or a squared norm of at least a quarter
    of float64's max, raises DataError: below that, _finish cannot overflow."""
    with np.errstate(over="ignore"):
        sq = _sq_norms(g)
    if not (sq < np.finfo(np.float64).max / 4).all():
        raise DataError("feature row with a NaN, an inf or a squared norm past float64's max / 4")
    if metric is Metric.EUCLIDEAN:
        return sq, _twice_gamma(g.shape[1] + 2) * sq
    return np.sqrt(sq), np.full(len(g), _twice_gamma(g.shape[1] + 4) / 2)


# Result cells of one block of query rows in global_distance_blocks: 2^23
# float64 cells (64 MiB), 527 query rows at Market-1501's 15,913 gallery
# items. Each block's matmul packs the whole gallery again; larger blocks
# cost memory.
_QUERY_BLOCK_CELLS = 1 << 23


def global_distance_blocks(q, g, metric=Metric.EUCLIDEAN, rows=None) -> Iterator[DistanceMatrix]:
    """distance_matrix(q, g, metric) in blocks of rows query rows (by
    default as many as _QUERY_BLOCK_CELLS result cells hold). The gallery
    operand (C-ordered float64 rows, norms, tau terms) is built here, from
    any real g. Each block casts its query rows to float64 when it is drawn
    and is finished in one result buffer, made at the first draw, so its
    values hold until the next draw. Within a block the float operations and
    their order are distance_matrix's, but BLAS may round a block of other
    rows than the whole matrix differently in the last bit."""
    q, g = _real(q), np.ascontiguousarray(_real(g), dtype=np.float64)
    if q.ndim != 2 or g.ndim != 2:
        raise DataError("inputs must be 2-D matrices")
    if q.shape[1] != g.shape[1]:
        raise DataError(f"dimension mismatch: {q.shape[1]} vs {g.shape[1]}")
    metric = Metric(metric)
    rows = rows or max(1, _QUERY_BLOCK_CELLS // max(1, len(g)))
    if rows < 1:
        raise DataError(f"rows must be >= 1, got {rows}")
    return _global_blocks(q, g, metric, rows, _side_terms(g, metric))


def _global_blocks(q, g, metric, rows, g_terms) -> Iterator[DistanceMatrix]:
    out = np.empty((min(rows, len(q)), len(g)))  # at the first draw
    for i in range(0, max(len(q), 1), rows):
        qb = np.ascontiguousarray(q[i : i + rows], dtype=np.float64)
        d = _finish(qb, g, metric, g_terms, out[: len(qb)])
        yield DistanceMatrix(np.sqrt(d, out=d) if metric is Metric.EUCLIDEAN else d)


def distance_matrix(q: np.ndarray, g: np.ndarray, metric: Metric = Metric.EUCLIDEAN) -> DistanceMatrix:
    """Pairwise Q x G distances between global feature matrices: the one
    block of global_distance_blocks that holds every query row, finished in
    place in one (Q, G) buffer a tile of rows at a time. q and g are cast to
    C-ordered float64 whole: a matmul into column slices of the result changes
    bits on some shapes, and numpy sums a row of an F-ordered matrix in
    another order than a lone row.

    Euclidean entries near zero are exact as _sq_euclidean states. A cosine
    entry 1 - q.g / (|q| |g|) differs from its true value by at most
    tau_c = 2 gamma_{D+4} (gamma as in _sq_euclidean, D below 10^8): the dot
    product is off by at most gamma_D |q| |g|, the two norms, their product
    and the division scale cos by at most 1 + gamma_{D+4}, and 1 - cos is
    exact near 0. Every entry at or below tau_c is recomputed as half the
    squared direct difference of the unit rows, so d(x, x) = d(x, 2x) = 0
    exactly and near-parallel rows rank by their angle."""
    return next(global_distance_blocks(q, g, metric, max(1, len(q))))


def _stripe_costs(qa: np.ndarray, ga: np.ndarray) -> np.ndarray:
    """Stripe-to-stripe cost grids tanh(d/2), d euclidean, of every (query,
    gallery) pair, laid out (S1, S2, nq, ng), from stripe stacks laid out
    feature dimension first, (Dl, S1, nq) and (Dl, S2, ng).

    Squared distances accumulate direct differences one feature dimension at
    a time rather than the |a|^2 + |b|^2 - 2ab expansion, so identical
    stripes cost exactly 0 and no entry depends on cancellation."""
    (dl, s1, nq), (s2, ng) = qa.shape, ga.shape[1:]
    # (stripe, query) x (stripe, gallery): one outer difference per feature
    # dimension
    acc = np.zeros((s1, nq, s2, ng))
    diff = np.empty_like(acc)
    with np.errstate(over="ignore"):  # an overflow is inf: tanh(inf) = 1 is its cost
        for k in range(dl):
            np.subtract.outer(qa[k], ga[k], out=diff)
            diff *= diff
            acc += diff
    # tanh(d/2) in place
    np.sqrt(acc, out=acc)
    acc /= 2.0
    np.tanh(acc, out=acc)
    return acc.transpose(0, 2, 1, 3)


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


def _local_distances(ql, gl, mode: LocalMode) -> np.ndarray:
    """(nq, ng) float64 local distances between the real, finite stripe
    stacks (nq, S1, Dl) and (ng, S2, Dl), S and Dl >= 1. DP-aligned tiles
    hold at most _TILE_CELLS grid cells, or one pair when a single grid is
    larger. One-to-one sums, tile by tile, the DP-aligned distances of the S
    single-stripe stacks (a 1 x 1 grid has one path: stripe s against s)."""
    ql, gl = _real(ql), _real(gl)
    if ql.ndim != 3 or gl.ndim != 3:
        raise DataError("stripe sequences must be 2-D (S x Dl)")
    if ql.shape[2] != gl.shape[2]:
        raise DataError(f"stripe dimension mismatch: {ql.shape[2]} vs {gl.shape[2]}")
    (nq, s1), (ng, s2) = ql.shape[:2], gl.shape[:2]
    # laid out for _stripe_costs once per call; every tile is a slice
    qa, ga = (np.ascontiguousarray(x.transpose(2, 1, 0), dtype=np.float64) for x in (ql, gl))
    if min(s1, s2, qa.shape[0]) < 1 or not (_finite(qa) and _finite(ga)):
        raise DataError("stripe sequences need S >= 1, Dl >= 1 and finite values")
    stacks, cells = [(qa, ga)], s1 * s2
    if mode is LocalMode.ONE_TO_ONE:
        if s1 != s2:
            raise DataError(
                f"stripe count mismatch ({s1} vs {s2}); "
                "use the DP-aligned distance for unequal stripe counts"
            )
        stacks, cells = [(qa[:, s : s + 1], ga[:, s : s + 1]) for s in range(s1)], 1
    # a tile of pairs: gallery blocks of grids, query blocks of those
    cols = _blocks(ng, cells)
    out = np.zeros((nq, ng))
    for i in _blocks(nq, cells * (cols[0].stop if cols else 1)):
        for j in cols:
            for a, b in stacks:
                out[i, j] += _min_path_costs(_stripe_costs(a[..., i], b[..., j]))
    return out


def aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Minimum-cost monotone path through the stripe-to-stripe cost grid
    tanh(d/2), d euclidean."""
    return float(_local_distances([a], [b], LocalMode.DP_ALIGNED)[0, 0])


def one_to_one_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of tanh(d/2), d euclidean, over corresponding stripes."""
    return float(_local_distances([a], [b], LocalMode.ONE_TO_ONE)[0, 0])


def local_distance_matrix(q: EmbeddingSet, g: EmbeddingSet, mode: LocalMode) -> DistanceMatrix:
    """Batched local distance: entry (i, j) compares the stripe sequences
    of query row i and gallery row j."""
    mode = LocalMode(mode)
    if q.local is None or g.local is None:
        raise DataError("both embedding sets need local features")
    return DistanceMatrix(_local_distances(q.local, g.local, mode))


def combine_distances(dg, dl: DistanceMatrix, lam: float) -> Iterator[DistanceMatrix]:
    """Entrywise global + lambda * local combination, a generator of each
    block of dg (one DistanceMatrix or its row blocks, _checked_blocks
    against dl's shape) plus lambda times the rows of dl it covers."""
    check_lambda(lam)
    return _combined(_checked_blocks(dg, dl.shape), dl.values, lam)


def _combined(blocks, dl, lam) -> Iterator[DistanceMatrix]:
    for i, d in blocks:
        with np.errstate(over="ignore"):  # an overflow to inf is DistanceMatrix's DataError
            v = d.values + lam * dl[i : i + len(d.values)]
        yield DistanceMatrix(v)


def _checked_blocks(dist, shape) -> Iterator[tuple[int, DistanceMatrix]]:
    """(first row, block) for each block of dist, one DistanceMatrix or its
    row blocks, each checked to extend a matrix of shape (nq, ng) when it is
    drawn, and all of them to fill it once the last is drawn."""
    nq, ng = shape
    done = 0
    for block in [dist] if isinstance(dist, DistanceMatrix) else dist:
        row0, done = done, done + block.shape[0]
        if block.shape[1] != ng or done > nq:
            raise DataError(f"distance shape {(done, block.shape[1])} != ({nq}, {ng})")
        yield row0, block
    if done != nq:
        raise DataError(f"distance shape {(done, ng)} != ({nq}, {ng})")


def encode_distance_matrix(d: DistanceMatrix | Iterable[DistanceMatrix], shape=None) -> _BlockParts:
    """Serialize with the shared binary container (magic RDMX, S=0), as the
    parts of _BlockParts: of one DistanceMatrix, of its own shape; of its
    row blocks, of the whole matrix's shape."""
    return _BlockParts(d, d.shape if shape is None else shape)


class _BlockParts:
    """The .rdmx bytes of a matrix of a known shape given as row blocks of
    any heights (_checked_blocks), as parts for gallery._write_file: the
    header, then each block cast to its own C-ordered float32 array. A
    non-finite float32 cell is named by its row in the whole matrix. Drawn
    one at a time, only one part is alive; joined, the parts are the file's
    bytes. len() is the container's size in bytes."""

    def __init__(self, blocks, shape):
        self.blocks, self.shape = blocks, shape
        self.header = _container_header(DISTANCE_MAGIC, *shape)

    def __len__(self):
        return len(self.header) + 4 * self.shape[0] * self.shape[1]

    def __iter__(self):
        yield self.header
        for row0, d in _checked_blocks(self.blocks, self.shape):
            with np.errstate(over="ignore"):  # _check_finite names an overflow to inf
                part = np.ascontiguousarray(d.values, "<f4")
            _check_finite(part, None, row0)
            yield part
            del part  # before the next block is cast


def decode_distance_matrix(data: bytes) -> DistanceMatrix:
    return DistanceMatrix(_container_views(data, DISTANCE_MAGIC)[0])
