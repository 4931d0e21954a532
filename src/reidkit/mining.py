"""PK batch sampling, batch-hard triplet mining, and the triplet loss
with analytic gradients (stopping at the embedding layer)."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .gallery import GalleryIndex, Role, _groups


@dataclass(frozen=True)
class MiningConfig:
    p: int = 4
    k: int = 4
    margin: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.p < 2 or self.k < 2:
            raise DataError("need P >= 2 and K >= 2 for valid triplets")
        if not np.isfinite(self.margin) or self.margin < 0:
            raise DataError("margin must be finite and >= 0")
        if self.seed < 0:
            raise DataError("seed must be >= 0")


@dataclass(frozen=True)
class Triplet:
    anchor: int
    positive: int
    negative: int


def pk_sample(index: GalleryIndex, cfg: MiningConfig) -> np.ndarray:
    """Sample P identities x K images from the training split.

    Identities are drawn without replacement; images per identity without
    replacement, falling back to with-replacement when an identity has
    fewer than K images. Deterministic given the seed.
    """
    train = np.flatnonzero(index.roles == Role.TRAIN)
    # each identity's train rows, in ascending person id order
    groups = [train[rows] for _, rows in _groups(index.person_ids[train])]
    if len(groups) < cfg.p:
        raise DataError(f"need {cfg.p} distinct person ids, found {len(groups)}")
    rng = np.random.default_rng(cfg.seed)
    batch = []
    for pi in rng.choice(len(groups), size=cfg.p, replace=False):
        rows = groups[pi]
        picks = rng.choice(len(rows), size=cfg.k, replace=len(rows) < cfg.k)
        batch.append(rows[picks])
    return np.concatenate(batch)


def batch_hard(d_batch: np.ndarray, labels) -> tuple[Triplet, ...]:
    """One triplet per anchor: farthest same-label positive, closest
    different-label negative; ties broken by lowest index."""
    d = np.asarray(d_batch, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(labels)
    if d.shape != (n, n):
        raise DataError(f"distance matrix shape {d.shape} != ({n}, {n})")
    same = labels[:, None] == labels[None, :]
    pos_mask = same & ~np.eye(n, dtype=bool)
    no_pos = ~pos_mask.any(axis=1)
    bad = no_pos | same.all(axis=1)
    if bad.any():
        a = int(np.argmax(bad))
        raise DataError(f"anchor {a} has no {'positive' if no_pos[a] else 'negative'} in batch")
    if n == 0:
        return ()
    pos = np.argmax(np.where(pos_mask, d, -np.inf), axis=1)
    neg = np.argmin(np.where(same, np.inf, d), axis=1)
    return tuple(map(Triplet, range(n), pos.tolist(), neg.tolist()))


def triplet_loss_grad(emb: np.ndarray, triplets: Sequence[Triplet], margin: float):
    """Mean hinge triplet loss over the set and its gradient w.r.t. the
    batch embeddings.

    loss = (1/|T|) sum max(0, d(a,p) - d(a,n) + margin), d euclidean.
    Inactive triplets contribute exactly zero gradient; for zero-length
    difference vectors the norm subgradient is taken as zero.
    """
    if len(triplets) == 0:
        raise DataError("empty triplet set")
    e = np.asarray(emb, dtype=np.float64)
    grad = np.zeros_like(e)
    total = 0.0
    scale = 1.0 / len(triplets)
    for t in triplets:
        ap = e[t.anchor] - e[t.positive]
        an = e[t.anchor] - e[t.negative]
        d_ap = np.linalg.norm(ap)
        d_an = np.linalg.norm(an)
        hinge = d_ap - d_an + margin
        if hinge <= 0:
            continue
        total += hinge
        u_ap = ap / d_ap if d_ap > 0 else np.zeros_like(ap)
        u_an = an / d_an if d_an > 0 else np.zeros_like(an)
        grad[t.anchor] += scale * (u_ap - u_an)
        grad[t.positive] -= scale * u_ap
        grad[t.negative] += scale * u_an
    return total * scale, grad
