import os
import pathlib
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from reidkit import distance
from reidkit.cli import run_cli
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
    shapes (reidbench/gen.py), generated once per session. The stripes_dp
    directory also holds query.remb and gallery.remb, embedded from its
    images with the default featurizer."""
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "reidbench"))
    import gen
    import workloads

    cache = str(tmp_path_factory.mktemp("inputs"))
    inputs = {w: gen.ensure_inputs(cache, w, 5, gen.TINY) for w in workloads.WORKLOADS}
    s = inputs["stripes_dp"]
    for role in ("query", "gallery"):
        argv = ["embed", "--index", os.path.join(s, f"{role}.csv"),
                "--images-root", os.path.join(s, "images"), "--out", os.path.join(s, f"{role}.remb")]
        assert run_cli(argv) == 0
    return inputs


def config_stage(command, inputs, out) -> list:
    """argv of one run of command (``ema`` is ``ema --init``) on the TINY
    inputs, writing out, with every flag of its config type left out.
    ``dist`` and ``eval_stripes`` read the stripes_dp embeddings, which have
    a local term; ``eval`` reads the market_global ones."""
    m, s, a = (inputs[w] for w in ("market_global", "stripes_dp", "analysis"))
    j = os.path.join
    stripes_emb = ["--emb-q", j(s, "query.remb"), "--emb-g", j(s, "gallery.remb")]
    return {
        "embed": ["embed", "--index", j(s, "query.csv"), "--images-root", j(s, "images")],
        "eval": ["eval", "--queries", j(m, "query.csv"), "--gallery", j(m, "gallery.csv"),
                 "--emb-q", j(m, "query.remb"), "--emb-g", j(m, "gallery.remb")],
        "dist": ["dist", *stripes_emb],
        "eval_stripes": ["eval", "--queries", j(s, "query.csv"), "--gallery", j(s, "gallery.csv"),
                         *stripes_emb],
        "mine": ["mine", "--index", j(a, "train.csv"), "--emb", j(a, "train.remb")],
        "ema": ["ema", "--init", "--student", j(a, "student0")],
        "tsne": ["tsne", "--index", j(a, "tsne.csv"), "--emb", j(a, "tsne.remb")],
    }[command] + ["--out", str(out)]
