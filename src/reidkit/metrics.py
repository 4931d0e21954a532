"""Retrieval evaluation: mAP and CMC under a cross-camera protocol.

Per query, gallery items sharing both person and camera with the query
are filtered out (standard cross-camera protocol, on by default); queries
left with no valid positive are excluded from both mAP and CMC.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Iterable

import numpy as np

from .errors import DataError
from .distance import DistanceMatrix, _checked_blocks
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
    """CMC curve and the valid queries' APs, from which mAP and their count derive."""

    cmc: np.ndarray
    per_query_ap: list
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

    @property
    def map(self) -> float:
        return float(np.mean(self.per_query_ap))

    @property
    def num_valid_queries(self) -> int:
        return len(self.per_query_ap)

    def to_dict(self) -> dict:
        return {
            "mAP": self.map,
            "cmc": [float(v) for v in self.cmc],
            "per_query_ap": [float(v) for v in self.per_query_ap],
            "num_valid_queries": self.num_valid_queries,
            "protocol": asdict(self.protocol),
        }


def cmc_curve(first_hit_ranks, max_rank: int) -> np.ndarray:
    """cmc[r] = fraction of queries whose first correct match is at
    rank <= r+1; non-decreasing by construction. The curve has the
    max_rank entries asked for; evaluate clamps max_rank to the gallery."""
    ranks = np.asarray(first_hit_ranks, dtype=np.int64)
    if len(ranks) == 0:
        raise DataError("no queries to aggregate")
    if (ranks < 1).any():
        raise DataError("ranks must be >= 1")
    hits = np.bincount(ranks[ranks <= max_rank] - 1, minlength=max_rank)
    return np.cumsum(hits) / len(ranks)


def _relevant_ranks(row: np.ndarray, relevant: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Ascending 1-based ranks of the relevant items among the ``valid`` ones
    (a mask; a non-finite valid distance is an error), ranked by ascending
    distance, ties broken by ascending index. Only the valid distances up to
    the farthest relevant one, all that can rank before it, are sorted.

    rank(j) = 1 + #{valid i: d_i < d_j} + #{valid i < j: d_i == d_j}
    """
    if not (np.isfinite(row) | ~valid).all():
        raise DataError("distances must be finite")
    d = row[relevant]
    s = np.sort(row[valid & (row <= d.max())])
    ranks = np.searchsorted(s, d, "left") + 1
    for k in np.flatnonzero(np.searchsorted(s, d, "right") - ranks > 0):
        j = relevant[k]
        ranks[k] += np.count_nonzero(valid[:j] & (row[:j] == d[k]))
    ranks.sort()
    return ranks


def evaluate(
    queries: GalleryIndex,
    gallery: GalleryIndex,
    dist: DistanceMatrix | Iterable[DistanceMatrix],
    protocol: EvalProtocol = EvalProtocol(),
) -> EvalReport:
    """Full retrieval protocol over a query/gallery pair.

    dist is one DistanceMatrix, or its row blocks in query order (as
    distance.global_distance_blocks yields them), each read before the next
    is drawn. Per query, a mask holds the valid gallery items (all but the
    person's same-camera ones under the cross-camera filter), ranked by
    ascending distance, ties broken by ascending gallery index. Only the ranks
    r_1 < ... < r_R of the R relevant items are computed: AP = (1/R) * sum
    over k of k/r_k (precision at each relevant rank), and the first hit is
    r_1. The report's protocol has max_rank clamped to the gallery size, past
    which no rank lies, as in torchreid's eval_market1501.
    """
    nq, ng = len(queries), len(gallery)
    rows_of = {p: rows for (p,), rows in _groups(gallery.person_ids)}
    no_rows = np.empty(0, np.intp)
    per_query_ap = []
    first_hits = []
    rows = (row for _, block in _checked_blocks(dist, (nq, ng)) for row in block.values)
    for row, q_pid, q_cam in zip(rows, queries.person_ids, queries.camera_ids):
        relevant = rows_of.get(q_pid, no_rows)
        valid = np.ones(ng, bool)
        if protocol.cross_camera_filter:
            is_junk = gallery.camera_ids[relevant] == q_cam
            valid[relevant[is_junk]] = False
            relevant = relevant[~is_junk]
        if not relevant.size:
            continue
        ranks = _relevant_ranks(row, relevant, valid)
        r = relevant.size
        per_query_ap.append(float(np.sum(np.arange(1, r + 1) / ranks) / r))
        first_hits.append(int(ranks[0]))
    if not per_query_ap:
        raise DataError("empty evaluation: every query has zero valid positives")
    protocol = replace(protocol, max_rank=min(protocol.max_rank, ng))
    return EvalReport(cmc_curve(first_hits, protocol.max_rank), per_query_ap, protocol)
