"""Seeded synthetic inputs for the three workloads.

Every input is a function of (workload, seed, size profile). Inputs are
written once into a cache directory, outside any timed region, and reused
by later runs with the same seed and shapes. Only the most recent entry of
each workload is kept, so the cache stays bounded.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np

import formats

WORKLOAD_TAGS = {"market_global": 1, "stripes_dp": 2, "analysis": 3}

# Shapes at which the benchmark measures. Market-1501: 3,368 queries and
# 15,913 gallery images of 750 test identities, 12,936 training images of
# 751 identities, 6 cameras; D=2048 is the pooled ResNet-50 width.
FULL = {
    "market_global": {"ids": 750, "cams": 6, "nq": 3368, "ng": 15913, "dim": 2048,
               "excluded_share": 0.02, "ap_queries": 6},
    "stripes_dp": {"ids": 25, "cams": 6, "q_per_id": 2, "g_per_id": 10,
                "height": 128, "width": 64, "stripes": 8, "bins": 8, "dp_pairs": 400},
    "analysis": {"ids": 751, "cams": 6, "rows": 12936, "dim": 2048,
                 "tsne_ids": 50, "tsne_per_id": 10, "tsne_iterations": 300,
                 "p": 16, "k": 4, "alpha": 0.99,
                 "ema_shapes": {"embed.weight": [256, 2048], "embed.bias": [256],
                                "classifier.weight": [751, 256], "classifier.bias": [751]}},
    "setup_repeats": 9,
    "startup_probes": 3,
}

# The same chains at a few-second scale, for the self-test.
TINY = {
    "market_global": {"ids": 12, "cams": 4, "nq": 40, "ng": 160, "dim": 64,
               "excluded_share": 0.2, "ap_queries": 6},
    "stripes_dp": {"ids": 6, "cams": 4, "q_per_id": 2, "g_per_id": 6,
                "height": 32, "width": 16, "stripes": 8, "bins": 8, "dp_pairs": 40},
    "analysis": {"ids": 12, "cams": 4, "rows": 150, "dim": 32,
                 "tsne_ids": 6, "tsne_per_id": 8, "tsne_iterations": 300,
                 "p": 4, "k": 4, "alpha": 0.99,
                 "ema_shapes": {"embed.weight": [8, 32], "embed.bias": [8]}},
    "setup_repeats": 1,
    "startup_probes": 1,
}


def rng_for(workload: str, seed: int, part: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, WORKLOAD_TAGS[workload], part]))


def _camera_counts(rng, ids, cams, total, low, high):
    """Cameras per identity in [low, high], summing exactly to ``total``."""
    if not low * ids <= total <= high * ids:
        raise ValueError(f"cannot spread {total} over {ids} identities")
    k = rng.integers(low, high + 1, size=ids)
    while k.sum() != total:
        i = rng.integers(ids)
        if k.sum() > total and k[i] > low:
            k[i] -= 1
        elif k.sum() < total and k[i] < high:
            k[i] += 1
    return k


def _fill_cells(rng, cells, total, floor):
    """Image count per cell: ``floor`` each, the rest spread uniformly."""
    counts = np.full(len(cells), floor, dtype=np.int64)
    counts += rng.multinomial(total - floor * len(cells), np.full(len(cells), 1.0 / len(cells)))
    pids = np.repeat([c[0] for c in cells], counts)
    cams = np.repeat([c[1] for c in cells], counts)
    return pids, cams


def _features(rng, pids, cams, ids, n_cams, dim):
    """Non-negative features shaped like pooled ResNet-50 outputs: ReLU of
    a per-dimension baseline plus an identity centre, a camera shift shared
    by all identities, and per-image noise. Float32, made in row chunks."""
    base = rng.uniform(0.1, 0.7, size=dim).astype(np.float32)
    centres = (0.11 * rng.standard_normal((ids, dim))).astype(np.float32)
    shifts = (0.06 * rng.standard_normal((n_cams, dim))).astype(np.float32)
    out = np.empty((len(pids), dim), dtype=np.float32)
    for lo in range(0, len(pids), 2048):
        hi = min(lo + 2048, len(pids))
        x = 0.3 * rng.standard_normal((hi - lo, dim), dtype=np.float32)
        x += base + centres[pids[lo:hi]] + shifts[cams[lo:hi]]
        np.maximum(x, 0.0, out=out[lo:hi])
    return out


def _names(pids, cams, offset=0):
    return [f"{p:04d}_c{c}_{offset + i:05d}.jpg" for i, (p, c) in enumerate(zip(pids, cams))]


def gen_market(out, rng, sz):
    ids, n_cams = sz["ids"], sz["cams"]
    k = _camera_counts(rng, ids, n_cams, sz["nq"], 2, n_cams)
    cam_sets = [rng.permutation(n_cams)[:kp] for kp in k]
    cells = [(p, c) for p in range(ids) for c in cam_sets[p]]
    q_pids = np.array([c[0] for c in cells], dtype=np.int64)
    q_cams = np.array([c[1] for c in cells], dtype=np.int64)
    g_pids, g_cams = _fill_cells(rng, cells, sz["ng"], 1)
    # Some identities keep gallery images in their first camera only; the
    # query from that camera then has no cross-camera positive and the
    # protocol excludes it.
    lonely = rng.choice(ids, size=max(1, round(sz["excluded_share"] * ids)), replace=False)
    for p in lonely:
        g_cams[g_pids == p] = cam_sets[p][0]
    q_order = np.lexsort((q_cams, q_pids))
    q_pids, q_cams = q_pids[q_order], q_cams[q_order]
    feats = _features(rng, np.concatenate([q_pids, g_pids]),
                      np.concatenate([q_cams, g_cams]), ids, n_cams, sz["dim"])
    formats.write_index(os.path.join(out, "query.csv"), q_pids, q_cams, "query", _names(q_pids, q_cams))
    formats.write_index(os.path.join(out, "gallery.csv"), g_pids, g_cams, "gallery",
                        _names(g_pids, g_cams, len(q_pids)))
    formats.write_remb(os.path.join(out, "query.remb"), feats[: len(q_pids)])
    formats.write_remb(os.path.join(out, "gallery.remb"), feats[len(q_pids):])


def _person_image(rng, parts, gain, height, width):
    """A figure of coloured horizontal body parts on a noisy background,
    shifted vertically so that stripes do not line up between images.
    Returns the pixels and the figure's box (top, bottom, left, right)."""
    h, w = height, width
    px = rng.integers(0, 256, size=(h, w, 3)).astype(np.float64)
    shift = int(rng.integers(-h // 10, h // 10 + 1))
    top, bottom = max(0, h // 16 + shift), min(h, h - h // 16 + shift)
    left = w // 4 + int(rng.integers(-w // 16, w // 16 + 1))
    right = 3 * w // 4 + int(rng.integers(-w // 16, w // 16 + 1))
    rows = np.arange(top, bottom)
    part = np.minimum(((rows - top) * len(parts)) // max(1, bottom - top), len(parts) - 1)
    figure = parts[part][:, None, :] * gain + rng.normal(0.0, 14.0, size=(len(rows), right - left, 3))
    px[top:bottom, left:right] = figure
    return np.clip(np.rint(px), 0, 255).astype(np.uint8), (top, bottom, left, right)


def _mask(rng, box, height, width, mh, mw):
    """PGM mask of the figure's box at a different resolution, with a ring
    of grey values around it on both sides of the 128 threshold."""
    top, bottom, left, right = box
    r0, r1 = (top * mh) // height, -(-bottom * mh // height)
    c0, c1 = (left * mw) // width, -(-right * mw // width)
    m = np.zeros((mh, mw), dtype=np.uint8)
    m[max(0, r0 - 1) : r1 + 1, max(0, c0 - 1) : c1 + 1] = rng.choice([60, 127, 128, 200])
    m[r0:r1, c0:c1] = 255
    return m


def gen_stripes(out, rng, sz):
    h, w = sz["height"], sz["width"]
    mh, mw = h // 2, w // 2
    img_dir, mask_dir = os.path.join(out, "images"), os.path.join(out, "masks")
    os.makedirs(img_dir)
    os.makedirs(mask_dir)
    gains = rng.uniform(0.75, 1.25, size=(sz["cams"], 3))
    rows = {"query": [], "gallery": []}
    n = 0
    for pid in range(sz["ids"]):
        parts = rng.uniform(20, 235, size=(5, 3))
        cam_set = rng.permutation(sz["cams"])[: int(rng.integers(3, sz["cams"] + 1))]
        shots = [("query", cam_set[i]) for i in range(sz["q_per_id"])]
        shots += [("gallery", cam_set[i % len(cam_set)]) for i in range(sz["g_per_id"])]
        for role, cam in shots:
            px, box = _person_image(rng, parts, gains[cam], h, w)
            stem = f"{pid:04d}_c{cam}_{n:05d}"
            formats.write_pnm(os.path.join(img_dir, stem + ".ppm"), px)
            formats.write_pnm(os.path.join(mask_dir, stem + ".pgm"), _mask(rng, box, h, w, mh, mw))
            rows[role].append((pid, int(cam), stem + ".ppm"))
            n += 1
    for role, recs in rows.items():
        formats.write_index(os.path.join(out, f"{role}.csv"), [r[0] for r in recs],
                            [r[1] for r in recs], role, [r[2] for r in recs])


def gen_analysis(out, rng, sz):
    ids, n_cams = sz["ids"], sz["cams"]
    k = _camera_counts(rng, ids, n_cams, int(rng.integers(3 * ids, 4 * ids)), 2, n_cams)
    cells = [(p, c) for p in range(ids) for c in rng.permutation(n_cams)[: k[p]]]
    pids, cams = _fill_cells(rng, cells, sz["rows"], 2)
    feats = _features(rng, pids, cams, ids, n_cams, sz["dim"])
    formats.write_index(os.path.join(out, "train.csv"), pids, cams, "train", _names(pids, cams))
    formats.write_remb(os.path.join(out, "train.remb"), feats)

    t_pids = np.repeat(np.arange(sz["tsne_ids"]), sz["tsne_per_id"])
    t_cams = rng.integers(0, n_cams, size=len(t_pids))
    t_feats = _features(rng, t_pids, t_cams, sz["tsne_ids"], n_cams, sz["dim"])
    formats.write_index(os.path.join(out, "tsne.csv"), t_pids, t_cams, "gallery", _names(t_pids, t_cams))
    formats.write_remb(os.path.join(out, "tsne.remb"), t_feats)

    for step in (0, 1):
        tensors = {name: rng.standard_normal(shape).astype(np.float32)
                   for name, shape in sz["ema_shapes"].items()}
        formats.write_tensor_dir(os.path.join(out, f"student{step}"), tensors)


def fsync_tree(root):
    """Write every file under ``root`` through to disk, so that writeback of
    one step's files does not run during the next timed step."""
    for dirpath, _, files in os.walk(root):
        for name in files:
            fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


GENERATORS = {"market_global": gen_market, "stripes_dp": gen_stripes, "analysis": gen_analysis}


def ensure_inputs(cache_root, workload, seed, sizes) -> str:
    """Directory holding the inputs of (workload, seed), generated if absent."""
    # the cache key covers the shapes and the generator's own code
    digest = hashlib.sha256(json.dumps(sizes[workload], sort_keys=True).encode())
    for name in ("gen.py", "formats.py"):
        with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), name), "rb") as fh:
            digest.update(fh.read())
    parent = os.path.join(cache_root, workload)
    out = os.path.join(parent, f"seed-{seed}-{digest.hexdigest()[:12]}")
    done = os.path.join(out, "DONE")
    if os.path.exists(done):
        return out
    if os.path.isdir(parent):
        shutil.rmtree(parent)
    os.makedirs(out)
    GENERATORS[workload](out, rng_for(workload, seed), sizes[workload])
    fsync_tree(out)
    with open(done, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "sizes": sizes[workload]}, fh)
    return out
