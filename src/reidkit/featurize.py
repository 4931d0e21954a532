"""Hand-crafted per-stripe color histogram features.

Deterministic featurizer so the full retrieval pipeline runs without a
neural backbone: each image is split into horizontal stripes, each stripe
described by concatenated per-channel histograms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .gallery import EmbeddingSet
from .imaging import Image


@dataclass(frozen=True)
class FeaturizerConfig:
    stripes: int = 8
    bins: int = 8

    def __post_init__(self):
        if self.stripes < 1:
            raise DataError("stripe count must be positive")
        # bin = floor(value * B / 256) of 8-bit values leaves bins past 256 empty
        if not 2 <= self.bins <= 256:
            raise DataError(f"bins per channel must be in [2, 256], got {self.bins}")


def stripe_histogram(img: Image, cfg: FeaturizerConfig = FeaturizerConfig()):
    """Per-stripe color histograms plus their mean as a global descriptor.

    Stripe s covers rows floor(s*H/S) .. floor((s+1)*H/S)-1. Per stripe and
    channel, a B-bin histogram (bin = floor(value*B/256)) is built; the three
    channel histograms are concatenated to 3B values and L1-normalized
    jointly. The global vector is the L1-normalized mean of stripe vectors.

    Returns (global: 3B floats, local: S x 3B floats), both float32.
    """
    if img.channels != 3:
        raise DataError("featurizer requires a 3-channel image")
    s_count, bins = cfg.stripes, cfg.bins
    if img.height < s_count:
        raise DataError(f"image height {img.height} < stripe count {s_count}")
    binned = (img.pixels.astype(np.int64) * bins) // 256
    bounds = (np.arange(s_count + 1) * img.height) // s_count
    row_stripe = np.repeat(np.arange(s_count), np.diff(bounds))
    # one flat bin per (stripe, channel, value bin), counted in one pass
    cell = (row_stripe[:, None, None] * 3 + np.arange(3)) * bins + binned
    counts = np.bincount(cell.ravel(), minlength=s_count * 3 * bins)
    local = counts.reshape(s_count, 3 * bins).astype(np.float64)
    local /= local.sum(axis=1, keepdims=True)
    glob = local.mean(axis=0)
    glob /= glob.sum()
    return glob.astype(np.float32), local.astype(np.float32)


def featurize_images(images: list[Image], cfg: FeaturizerConfig = FeaturizerConfig()) -> EmbeddingSet:
    """Featurize a list of images into a row-aligned EmbeddingSet: (N, 3B)
    global and (N, S, 3B) local float32 features, N = 0 included."""
    globs = np.empty((len(images), 3 * cfg.bins), dtype=np.float32)
    locs = np.empty((len(images), cfg.stripes, 3 * cfg.bins), dtype=np.float32)
    for i, img in enumerate(images):
        globs[i], locs[i] = stripe_histogram(img, cfg)
    return EmbeddingSet(globs, locs)
