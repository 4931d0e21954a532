"""Retrieval evaluation: mAP and CMC under a cross-camera protocol.

Per query, gallery items sharing both person and camera with the query
are filtered out (standard cross-camera protocol, on by default); queries
left with no valid positive are excluded from both mAP and CMC.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError
from .distance import DistanceMatrix
from .gallery import GalleryIndex, _groups


@dataclass(frozen=True)
class EvalProtocol:
    cross_camera_filter: bool = True
    max_rank: int = 20

    def __post_init__(self):
        if self.max_rank < 1:
            raise DataError("max_rank must be >= 1")


@dataclass(frozen=True)
class EvalReport:
    map: float
    cmc: np.ndarray
    per_query_ap: list
    num_valid_queries: int
    protocol: EvalProtocol

    def __post_init__(self):
        cmc = np.asarray(self.cmc, dtype=np.float64)
        if (np.diff(cmc) < -1e-12).any():
            raise DataError("CMC curve must be non-decreasing")
        if ((cmc < -1e-12) | (cmc > 1 + 1e-12)).any():
            raise DataError("CMC values must lie in [0, 1]")
        if not 0.0 <= self.map <= 1.0 + 1e-12:
            raise DataError("mAP must lie in [0, 1]")
        object.__setattr__(self, "cmc", cmc)

    def to_dict(self) -> dict:
        return {
            "mAP": float(self.map),
            "cmc": [float(v) for v in self.cmc],
            "per_query_ap": [float(v) for v in self.per_query_ap],
            "num_valid_queries": int(self.num_valid_queries),
            "protocol": asdict(self.protocol),
        }


def rank_gallery(row: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Indices of valid gallery items sorted by ascending distance,
    ties broken by ascending gallery index (stable sort)."""
    row = np.asarray(row, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if not np.isfinite(row[valid]).all():
        raise DataError("distances must be finite")
    idx = np.flatnonzero(valid)
    return idx[np.argsort(row[idx], kind="stable")]


def average_precision(ranked_relevance) -> float:
    """AP = (1/R) * sum over relevant ranks k of (relevant in top k)/k."""
    rel = np.asarray(ranked_relevance, dtype=bool)
    total = int(rel.sum())
    if total == 0:
        raise DataError("average_precision needs at least one relevant item")
    hits = np.cumsum(rel)
    ranks = np.arange(1, len(rel) + 1)
    return float(np.sum(hits[rel] / ranks[rel]) / total)


def cmc_curve(first_hit_ranks, max_rank: int) -> np.ndarray:
    """cmc[r] = fraction of queries whose first correct match is at
    rank <= r+1; non-decreasing by construction."""
    ranks = np.asarray(first_hit_ranks, dtype=np.int64)
    if len(ranks) == 0:
        raise DataError("no queries to aggregate")
    if (ranks < 1).any():
        raise DataError("ranks must be >= 1")
    hits = np.bincount(ranks[ranks <= max_rank] - 1, minlength=max_rank)
    return np.cumsum(hits) / len(ranks)


def _relevant_ranks(row: np.ndarray, relevant: np.ndarray, n_valid: int) -> np.ndarray:
    """Ascending 1-based ranks of the relevant items in the ranking that
    rank_gallery would give, without sorting indices. ``row`` holds +inf
    at filtered-out items, so they sort after every valid one.

    rank(j) = 1 + #{valid i: d_i < d_j} + #{valid i < j: d_i == d_j}
    """
    s = np.sort(row)
    # a non-finite valid entry makes slot 0 -inf, or slot n_valid - 1 +inf
    # or NaN (NaN sorts after the +inf fill)
    if not np.isfinite(s[[0, n_valid - 1]]).all():
        raise DataError("distances must be finite")
    d = row[relevant]
    ranks = np.searchsorted(s, d, "left") + 1
    for k in np.flatnonzero(np.searchsorted(s, d, "right") - ranks > 0):
        ranks[k] += np.count_nonzero(row[: relevant[k]] == d[k])
    ranks.sort()
    return ranks


def evaluate(
    queries: GalleryIndex,
    gallery: GalleryIndex,
    dist: DistanceMatrix,
    protocol: EvalProtocol = EvalProtocol(),
) -> EvalReport:
    """Full retrieval protocol over a query/gallery pair.

    Only the ranks of each query's relevant items are computed; AP and the
    first hit follow from them exactly as average_precision and
    rank_gallery would give them.
    """
    nq, ng = len(queries), len(gallery)
    if dist.shape != (nq, ng):
        raise DataError(f"distance shape {dist.shape} != ({nq}, {ng})")
    rows_of = {p: rows for (p,), rows in _groups(gallery.person_ids)}
    no_rows = np.empty(0, np.intp)
    per_query_ap = []
    first_hits = []
    for row, q_pid, q_cam in zip(dist.values, queries.person_ids, queries.camera_ids):
        relevant = rows_of.get(q_pid, no_rows)
        n_valid = ng
        if protocol.cross_camera_filter:
            is_junk = gallery.camera_ids[relevant] == q_cam
            junk, relevant = relevant[is_junk], relevant[~is_junk]
            if junk.size:
                n_valid -= junk.size
                row = row.copy()
                row[junk] = np.inf
        if not relevant.size:
            continue
        ranks = _relevant_ranks(row, relevant, n_valid)
        r = relevant.size
        per_query_ap.append(float(np.sum(np.arange(1, r + 1) / ranks) / r))
        first_hits.append(int(ranks[0]))
    if not per_query_ap:
        raise DataError("empty evaluation: every query has zero valid positives")
    return EvalReport(
        map=float(np.mean(per_query_ap)),
        cmc=cmc_curve(first_hits, protocol.max_rank),
        per_query_ap=per_query_ap,
        num_valid_queries=len(per_query_ap),
        protocol=protocol,
    )
