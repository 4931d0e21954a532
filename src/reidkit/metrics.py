"""Retrieval evaluation: mAP and CMC under a cross-camera protocol.

Per query, gallery items sharing both person and camera with the query
are filtered out (standard cross-camera protocol, on by default); queries
left with no valid positive are excluded from both mAP and CMC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .distance import DistanceMatrix
from .gallery import GalleryIndex


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
            "protocol": {
                "cross_camera_filter": self.protocol.cross_camera_filter,
                "max_rank": self.protocol.max_rank,
            },
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


def evaluate(
    queries: GalleryIndex,
    gallery: GalleryIndex,
    dist: DistanceMatrix,
    protocol: EvalProtocol = EvalProtocol(),
) -> EvalReport:
    """Full retrieval protocol over a query/gallery pair."""
    nq, ng = len(queries), len(gallery)
    if dist.shape != (nq, ng):
        raise DataError(f"distance shape {dist.shape} != ({nq}, {ng})")
    g_pids = gallery.person_ids()
    g_cams = gallery.camera_ids()
    per_query_ap = []
    first_hits = []
    for qi, q in enumerate(queries.records):
        if protocol.cross_camera_filter:
            valid = ~((g_pids == q.person_id) & (g_cams == q.camera_id))
        else:
            valid = np.ones(ng, dtype=bool)
        relevant = valid & (g_pids == q.person_id)
        if not relevant.any():
            continue
        order = rank_gallery(dist.values[qi], valid)
        rel_ranked = g_pids[order] == q.person_id
        per_query_ap.append(average_precision(rel_ranked))
        first_hits.append(int(np.argmax(rel_ranked)) + 1)
    if not per_query_ap:
        raise DataError("empty evaluation: every query has zero valid positives")
    return EvalReport(
        map=float(np.mean(per_query_ap)),
        cmc=cmc_curve(first_hits, protocol.max_rank),
        per_query_ap=per_query_ap,
        num_valid_queries=len(per_query_ap),
        protocol=protocol,
    )
