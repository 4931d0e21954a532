"""Correctness checks on the outputs of one round of a workload.

Each check either recomputes an output apart from reidkit (from the
generated inputs, with float64 direct differences and brute force) or
tests a property the method must have. ``checks(workload, ...)`` returns
(name, thunk) pairs; a thunk raises ``CheckFailed`` on a wrong output.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os

import numpy as np

import formats
import gen

F32_ULP = 2.0**-23  # one float32 unit in the last place, relative


class CheckFailed(Exception):
    pass


def _expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close_f32(got, ref, what, atol=1e-9):
    """``got`` was stored as float32: it must equal ``ref`` within one unit
    in the last place (plus ``atol`` for float64 summation order)."""
    err = np.abs(np.asarray(got, np.float64) - ref) - (F32_ULP * np.abs(ref) + atol)
    worst = int(np.argmax(err))
    _expect(err.flat[worst] <= 0, f"{what}: {np.ravel(got)[worst]!r} != {np.ravel(ref)[worst]!r}")


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _valid_queries(q_pids, q_cams, g_pids, g_cams):
    """Queries with a same-person gallery image from another camera."""
    cams_of = {}
    for p, c in zip(g_pids.tolist(), g_cams.tolist()):
        cams_of.setdefault(p, set()).add(c)
    return np.array([bool(cams_of.get(p, set()) - {c}) for p, c in zip(q_pids.tolist(), q_cams.tolist())])


def _brute_ap(dist_row, q_pid, q_cam, g_pids, g_cams):
    """AP of one query under the cross-camera protocol, by the definition:
    rank valid gallery items by distance (ties by index), then average
    precision-at-k over the ranks k of the relevant items."""
    valid = ~((g_pids == q_pid) & (g_cams == q_cam))
    idx = np.flatnonzero(valid)
    order = idx[np.argsort(dist_row[idx], kind="stable")]
    rel = g_pids[order] == q_pid
    ranks = np.flatnonzero(rel) + 1
    return float(np.mean(np.arange(1, len(ranks) + 1) / ranks))


def _check_aps(report, dist_rows, rows, q_pids, q_cams, g_pids, g_cams):
    valid = _valid_queries(q_pids, q_cams, g_pids, g_cams)
    position = np.cumsum(valid) - 1  # index of a valid query in per_query_ap
    for d, r in zip(dist_rows, rows):
        got = report["per_query_ap"][position[r]]
        ref = _brute_ap(d, q_pids[r], q_cams[r], g_pids, g_cams)
        _expect(abs(got - ref) <= 1e-9, f"query {r}: AP {got!r} != brute force {ref!r}")


def _euclid(a, b):
    """Euclidean distances of each row of ``a`` to each row of ``b`` from
    direct differences in float64 (no |a|^2 + |b|^2 - 2ab expansion)."""
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    return np.stack([np.sqrt(np.sum((b - row) ** 2, axis=-1)) for row in a])


def _market(inp, out, sizes, seed):
    sz = sizes["market_global"]
    q_pids, q_cams, _ = formats.read_index(os.path.join(inp, "query.csv"))
    g_pids, g_cams, _ = formats.read_index(os.path.join(inp, "gallery.csv"))
    report = lambda: _load_json(os.path.join(out, "report.json"))  # noqa: E731
    valid = _valid_queries(q_pids, q_cams, g_pids, g_cams)
    rows = np.sort(gen.rng_for("market_global", seed, 1).choice(
        np.flatnonzero(valid), size=sz["ap_queries"], replace=False))

    @functools.cache
    def reference():
        q, _ = formats.read_remb(os.path.join(inp, "query.remb"))
        g, _ = formats.read_remb(os.path.join(inp, "gallery.remb"))
        return _euclid(q[rows], g)

    def ap():
        _check_aps(report(), reference(), rows, q_pids, q_cams, g_pids, g_cams)

    def valid_count():
        rep = report()
        n = int(valid.sum())
        _expect(rep["num_valid_queries"] == n == len(rep["per_query_ap"]),
                f"num_valid_queries {rep['num_valid_queries']} != recount {n}")

    def rdmx():
        got = formats.read_rdmx_rows(os.path.join(out, "dist.rdmx"), rows)
        _close_f32(got, reference(), "dist.rdmx entry")

    return [("market.ap_bruteforce", ap), ("market.valid_queries", valid_count),
            ("market.rdmx_entries", rdmx)]


def monotone_paths(s: int) -> np.ndarray:
    """Flat cell indices of every right/down path through an s x s grid
    from the top-left to the bottom-right cell: C(2s-2, s-1) paths."""
    paths = []
    for downs in itertools.combinations(range(2 * s - 2), s - 1):
        i = j = 0
        cells = [0]
        for step in range(2 * s - 2):
            if step in downs:
                i += 1
            else:
                j += 1
            cells.append(i * s + j)
        paths.append(cells)
    return np.array(paths, dtype=np.int64)


def _stripes(inp, out, sizes, seed):
    sz = sizes["stripes_dp"]
    s, bins = sz["stripes"], sz["bins"]
    index = {role: formats.read_index(os.path.join(inp, f"{role}.csv")) for role in ("query", "gallery")}
    emb = lambda role: formats.read_remb(os.path.join(out, f"{role}.remb"))  # noqa: E731

    def masked_pixels():
        for name in sorted(os.listdir(os.path.join(inp, "images"))):
            px = formats.read_pnm(os.path.join(inp, "images", name))
            m = formats.read_pnm(os.path.join(inp, "masks", name[:-4] + ".pgm"))
            h, w = px.shape[:2]
            # nearest neighbour: source index = floor(target * src / dst)
            m = m[(np.arange(h) * m.shape[0]) // h][:, (np.arange(w) * m.shape[1]) // w]
            want = np.where((m >= 128)[:, :, None], px, 0)
            got = formats.read_pnm(os.path.join(out, "masked", name))
            _expect(np.array_equal(got, want), f"{name}: masked pixels differ from mask * image")

    def histograms():
        for role in ("query", "gallery"):
            glob_f, local_f = emb(role)
            for k, name in enumerate(index[role][2]):
                binned = formats.read_pnm(os.path.join(out, "masked", name)).astype(np.int64) * bins // 256
                h = binned.shape[0]
                ref = np.zeros((s, 3 * bins))
                for st in range(s):
                    stripe = binned[(st * h) // s : ((st + 1) * h) // s]
                    for ch in range(3):
                        ref[st, ch * bins : (ch + 1) * bins] = np.bincount(stripe[:, :, ch].ravel(), minlength=bins)
                ref /= ref.sum(axis=1, keepdims=True)
                g = ref.mean(axis=0)
                _close_f32(local_f[k], ref, f"{role} {name} stripe histogram")
                _close_f32(glob_f[k], g / g.sum(), f"{role} {name} global histogram")

    def dp_enumeration():
        (qg, ql), (gg, gl) = emb("query"), emb("gallery")
        rng = gen.rng_for("stripes_dp", seed, 1)
        qi = rng.integers(0, len(qg), size=sz["dp_pairs"])
        gi = rng.integers(0, len(gg), size=sz["dp_pairs"])
        paths = monotone_paths(s)
        _expect(len(paths) == math.comb(2 * s - 2, s - 1), f"{len(paths)} paths for S={s}")  # 3,432 at S=8
        rdmx = formats.read_rdmx_rows(os.path.join(out, "dist_dp.rdmx"), qi)
        for k, (a, b) in enumerate(zip(qi, gi)):
            cost = np.tanh(_euclid(ql[a], gl[b]) / 2.0).ravel()
            ref = _euclid(qg[a : a + 1], gg[b : b + 1])[0, 0] + cost[paths].sum(axis=1).min()
            _close_f32(rdmx[k, b], ref, f"dp_aligned distance ({a}, {b})")

    def one_to_one_ap():
        (qg, ql), (gg, gl) = emb("query"), emb("gallery")
        d = _euclid(qg, gg)
        for st in range(s):
            d += np.tanh(_euclid(ql[:, st], gl[:, st]) / 2.0)
        (q_pids, q_cams, _), (g_pids, g_cams, _) = index["query"], index["gallery"]
        rep = _load_json(os.path.join(out, "report_o2o.json"))
        valid = _valid_queries(q_pids, q_cams, g_pids, g_cams)
        _expect(rep["num_valid_queries"] == int(valid.sum()), "one_to_one num_valid_queries")
        rows = np.flatnonzero(valid)
        _check_aps(rep, d[rows], rows, q_pids, q_cams, g_pids, g_cams)

    return [("stripes.masked_pixels", masked_pixels), ("stripes.histograms", histograms),
            ("stripes.dp_enumeration", dp_enumeration), ("stripes.one_to_one_ap", one_to_one_ap)]


def _analysis(inp, out, sizes, seed):
    sz = sizes["analysis"]
    pids, cams, _ = formats.read_index(os.path.join(inp, "train.csv"))

    def camera_means():
        x = formats.read_remb(os.path.join(inp, "train.remb"))[0].astype(np.float64)
        offsets = _load_json(os.path.join(out, "camera.json"))["offsets"]
        for c in np.unique(cams):
            ref = x[cams == c].mean(axis=0) - x.mean(axis=0)
            got = np.array(offsets[str(c)])
            _expect(np.allclose(got, ref, rtol=1e-9, atol=1e-12), f"camera {c} offset differs from recomputed")
        y = formats.read_remb(os.path.join(out, "normalized.remb"))[0].astype(np.float64)
        tol = 2 * F32_ULP * np.abs(y).max()
        for c in np.unique(cams):
            gap = np.abs(y[cams == c].mean(axis=0) - y.mean(axis=0)).max()
            _expect(gap <= tol, f"camera {c} mean differs from the global mean by {gap!r} after normalising")

    def tsne_kl():
        with open(os.path.join(out, "tsne_kl.txt")) as fh:
            kl = [float(v) for v in fh.read().split()]
        _expect(len(kl) == sz["tsne_iterations"], f"{len(kl)} KL values for {sz['tsne_iterations']} iterations")
        # early exaggeration lasts 250 iterations (TsneParams default)
        _expect(kl[-1] < kl[250], f"final KL {kl[-1]!r} not below KL after exaggeration {kl[250]!r}")
        t_pids, t_cams, _ = formats.read_index(os.path.join(inp, "tsne.csv"))
        with open(os.path.join(out, "tsne.tsv")) as fh:
            rows = [line.split("\t") for line in fh.read().splitlines()[1:]]
        _expect([(int(r[2]), int(r[3])) for r in rows] == list(zip(t_pids.tolist(), t_cams.tolist())),
                "t-SNE rows do not follow the index")

    def batch_hard():
        doc = _load_json(os.path.join(out, "mine.json"))
        batch = np.array(doc["batch_rows"])
        _expect(len(batch) == sz["p"] * sz["k"], f"batch of {len(batch)} rows")
        feats = formats.read_remb(os.path.join(inp, "train.remb"))[0][batch]
        d = _euclid(feats, feats)
        labels = pids[batch]
        loss = 0.0
        for a, t in enumerate(doc["triplets"]):
            pos = np.flatnonzero((labels == labels[a]) & (np.arange(len(batch)) != a))
            neg = np.flatnonzero(labels != labels[a])
            want = (a, int(pos[np.argmax(d[a, pos])]), int(neg[np.argmin(d[a, neg])]))
            got = (t["anchor"], t["positive"], t["negative"])
            _expect(got == want, f"triplet {got} != brute force {want}")
            loss += max(0.0, d[a, want[1]] - d[a, want[2]] + doc["config"]["margin"])
        loss /= len(batch)
        _expect(abs(doc["loss"] - loss) <= 1e-9 * max(1.0, loss), f"loss {doc['loss']!r} != {loss!r}")

    def ema():
        _, student0 = formats.read_tensor_dir(os.path.join(inp, "student0"))
        _, student1 = formats.read_tensor_dir(os.path.join(inp, "student1"))
        _, state0 = formats.read_tensor_dir(os.path.join(out, "ema0"))
        manifest, state1 = formats.read_tensor_dir(os.path.join(out, "ema1"))
        _expect(manifest["step"] == 1 and manifest["alpha"] == sz["alpha"], "EMA manifest step/alpha")
        a = sz["alpha"]
        for name in student0:
            _expect(np.array_equal(state0[name], student0[name]), f"EMA init {name} differs from the student")
            _close_f32(state1[name], a * state0[name] + (1 - a) * student1[name], f"EMA teacher {name}", atol=0)

    return [("analysis.camera_means", camera_means), ("analysis.tsne_kl", tsne_kl),
            ("analysis.batch_hard", batch_hard), ("analysis.ema_teacher", ema)]


_CHECKS = {"market_global": _market, "stripes_dp": _stripes, "analysis": _analysis}


def checks(workload: str, inp: str, out: str, sizes: dict, seed: int) -> list:
    return _CHECKS[workload](inp, out, sizes, seed)
