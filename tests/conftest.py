import os
import pathlib
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from reidkit import distance
from reidkit.gallery import GalleryIndex, Role
from reidkit.imaging import Image


def make_rgb(pixels) -> Image:
    """Build an Image from a nested list / array of (H, W, 3) uint8."""
    return Image(np.asarray(pixels, dtype=np.uint8))


def flat_color(h, w, rgb) -> Image:
    px = np.zeros((h, w, 3), dtype=np.uint8)
    px[:, :] = rgb
    return Image(px)


def build_index(entries) -> GalleryIndex:
    """entries: list of (pid, cam, role) tuples; paths are synthesized."""
    pids, cams, roles = zip(*entries) if entries else ((), (), ())
    paths = [f"{pid:04d}_c{cam}_{i:03d}.ppm" for i, (pid, cam, _) in enumerate(entries)]
    return GalleryIndex(pids, cams, [Role(r) for r in roles], paths)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_tiles():
    """`with small_tiles(cells):` runs its body with distance._TILE_CELLS set
    to cells, so that block edges fall inside small matrices. A factory, so
    that a hypothesis test draws the budget per example."""

    @contextmanager
    def tiles(cells):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distance, "_TILE_CELLS", cells)
            yield

    return tiles


@pytest.fixture(scope="session")
def tiny_inputs(tmp_path_factory):
    """{workload: directory} of the benchmark's seeded inputs at its TINY
    shapes (reidbench/gen.py), generated once per session."""
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "reidbench"))
    import gen
    import workloads

    cache = str(tmp_path_factory.mktemp("inputs"))
    return {w: gen.ensure_inputs(cache, w, 5, gen.TINY) for w in workloads.WORKLOADS}


def config_stage(command, inputs, out) -> list:
    """argv of one run of command (``ema`` is ``ema --init``) on the TINY
    inputs, writing out, with every flag of its config type left out."""
    m, s, a = (inputs[w] for w in ("market_global", "stripes_dp", "analysis"))
    j = os.path.join
    return {
        "embed": ["embed", "--index", j(s, "query.csv"), "--images-root", j(s, "images")],
        "eval": ["eval", "--queries", j(m, "query.csv"), "--gallery", j(m, "gallery.csv"),
                 "--emb-q", j(m, "query.remb"), "--emb-g", j(m, "gallery.remb")],
        "mine": ["mine", "--index", j(a, "train.csv"), "--emb", j(a, "train.remb")],
        "ema": ["ema", "--init", "--student", j(a, "student0")],
        "tsne": ["tsne", "--index", j(a, "tsne.csv"), "--emb", j(a, "tsne.remb")],
    }[command] + ["--out", str(out)]
