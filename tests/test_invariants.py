"""Exact metamorphic invariants: transformations of the inputs whose effect
on the output bytes is known exactly, checked bit for bit.

- local distances follow a row permutation of queries and gallery;
- ``evaluate`` on a given distance matrix, and ``run_cli eval`` on
  embeddings: permuting the queries permutes the per-query APs and keeps
  the CMC curve; mAP is a mean summed in another order, so it is compared
  within one ulp;
- a same-person, same-camera gallery column is junk to that query, so
  appending one leaves the query's AP as it was;
- through ``run_cli dist``: scaling both embedding files by 2^k scales the
  euclidean ``.rdmx`` payload by 2^k and leaves the cosine one unchanged.

Global distances are not exact under a gallery permutation, aliasing (x, x
against x, x.copy()) or query blocking: BLAS rounds them apart. There each
cell is checked within the sum of the two sides' stated error bounds.
"""

import json

import numpy as np
import pytest

from reidkit import distance, gallery, metrics
from reidkit.cli import run_cli
from reidkit.distance import DistanceMatrix, LocalMode, Metric
from reidkit.gallery import EmbeddingSet, GalleryIndex

from conftest import build_index


def stripes(rng, n, s, dl=24):
    """n stacks of s stripe histograms, with duplicate and zero rows."""
    x = rng.dirichlet(np.ones(dl), (n, s)).astype(np.float32)
    x[n - 3 :] = x[:3]
    x[n // 2] = 0.0
    return EmbeddingSet(np.zeros((n, 1)), x)


@pytest.mark.parametrize("cells", [1 << 16, 300], ids=["default_tiles", "small_tiles"])
@pytest.mark.parametrize(
    "mode, s_g",
    [(LocalMode.DP_ALIGNED, 8), (LocalMode.DP_ALIGNED, 6), (LocalMode.ONE_TO_ONE, 8)],
    ids=["dp_aligned", "dp_aligned_unequal", "one_to_one"],
)
def test_local_distances_follow_a_row_permutation(small_tiles, mode, s_g, cells):
    rng = np.random.default_rng(11)
    q, g = stripes(rng, 30, 8), stripes(rng, 200, s_g)
    pq, pg = rng.permutation(q.n), rng.permutation(g.n)
    with small_tiles(cells):
        want = distance.local_distance_matrix(q, g, mode).values
        got = distance.local_distance_matrix(
            EmbeddingSet(q.global_[pq], q.local[pq]), EmbeddingSet(g.global_[pg], g.local[pg]), mode
        ).values
    assert got.tobytes() == want[pq][:, pg].tobytes()


def retrieval_setup(nq=300, ng=5000, ids=250, cams=6):
    """A query/gallery split with some queries that have no cross-camera
    match, and distances on a 0.01 grid, so that most rows hold ties."""
    rng = np.random.default_rng(2022)
    q_ids, q_cams = rng.integers(0, ids + 20, nq), rng.integers(0, cams, nq)
    g_ids, g_cams = rng.integers(0, ids, ng), rng.integers(0, cams, ng)
    queries = build_index([(int(p), int(c), "query") for p, c in zip(q_ids, q_cams)])
    gal = build_index([(int(p), int(c), "gallery") for p, c in zip(g_ids, g_cams)])
    return queries, gal, np.round(rng.random((nq, ng)), 2)


def scored_rows(queries, gal):
    """Query rows with a cross-camera match: the rows per_query_ap lists, in order."""
    return [i for i, (p, c) in enumerate(zip(queries.person_ids, queries.camera_ids))
            if ((gal.person_ids == p) & (gal.camera_ids != c)).any()]


def test_evaluate_follows_a_query_permutation():
    queries, gal, d = retrieval_setup()
    perm = np.random.default_rng(3).permutation(len(queries))
    permuted = build_index([(queries.person_ids[i], queries.camera_ids[i], "query") for i in perm])
    want = metrics.evaluate(queries, gal, DistanceMatrix(d))
    got = metrics.evaluate(permuted, gal, DistanceMatrix(d[perm]))
    ap_of = dict(zip(scored_rows(queries, gal), want.per_query_ap))
    assert 0 < len(ap_of) < len(queries)
    assert got.per_query_ap == [ap_of[i] for i in perm if i in ap_of]
    assert got.cmc.tobytes() == want.cmc.tobytes()
    assert abs(got.map - want.map) <= np.spacing(want.map)


def save_index(path, index):
    """Write index in the metadata CSV format that load_index reads."""
    rows = zip(index.person_ids, index.camera_ids, index.roles, index.paths)
    lines = [",".join(gallery.METADATA_HEADER)]
    lines += [f"{i},{p},{c},{r},{name}" for i, (p, c, r, name) in enumerate(rows)]
    path.write_text("\n".join(lines) + "\n")


def eval_report(tmp_path, queries, gal, q, g):
    """The report of `run_cli eval` on the index pair and their embeddings."""
    for name, index, x in (("q", queries, q), ("g", gal, g)):
        save_index(tmp_path / f"{name}.csv", index)
        gallery.save_embeddings(EmbeddingSet(x), tmp_path / f"{name}.remb")
    out = tmp_path / "report.json"
    argv = ["eval", "--queries", str(tmp_path / "q.csv"), "--gallery", str(tmp_path / "g.csv"),
            "--emb-q", str(tmp_path / "q.remb"), "--emb-g", str(tmp_path / "g.remb"), "--out", str(out)]
    assert run_cli(argv) == 0
    return json.loads(out.read_text())


def test_eval_chain_follows_a_query_permutation(tmp_path):
    queries, gal, _ = retrieval_setup(nq=200, ng=2000, ids=100)
    rng = np.random.default_rng(1501)
    # identity centres weak against the noise, so that the APs spread over (0, 1)
    centres = 0.25 * rng.standard_normal((120, 2048))
    q, g = ((centres[index.person_ids] + rng.standard_normal((len(index), 2048))).astype(np.float32)
            for index in (queries, gal))
    perm = rng.permutation(len(queries))
    permuted = GalleryIndex(queries.person_ids[perm], queries.camera_ids[perm], queries.roles[perm],
                            [queries.paths[i] for i in perm])
    want = eval_report(tmp_path, queries, gal, q, g)
    got = eval_report(tmp_path, permuted, gal, q[perm], g)
    ap_of = dict(zip(scored_rows(queries, gal), want["per_query_ap"]))
    assert 0 < len(ap_of) < len(queries)
    assert 0 < want["mAP"] < 1
    assert got["per_query_ap"] == [ap_of[i] for i in perm if i in ap_of]
    assert got["cmc"] == want["cmc"]
    assert abs(got["mAP"] - want["mAP"]) <= np.spacing(want["mAP"])


def test_same_camera_column_of_the_query_person_leaves_its_ap():
    queries, gal, d = retrieval_setup(nq=60)
    want = metrics.evaluate(queries, gal, DistanceMatrix(d))
    want = dict(zip(scored_rows(queries, gal), want.per_query_ap))
    rows = [(int(p), int(c), "gallery") for p, c in zip(gal.person_ids, gal.camera_ids)]
    for i in list(want)[:8]:
        # distance 0 ranks the column first, were it not junk to query i
        more = build_index(rows + [(int(queries.person_ids[i]), int(queries.camera_ids[i]), "gallery")])
        report = metrics.evaluate(queries, more, DistanceMatrix(np.hstack([d, np.zeros((len(queries), 1))])))
        got = dict(zip(scored_rows(queries, more), report.per_query_ap))
        assert got[i] == want[i]


def dist_payload(tmp_path, q, g, metric):
    """The float32 payload of the .rdmx that `run_cli dist` writes for q and g."""
    for name, x in (("q", q), ("g", g)):
        gallery.save_embeddings(EmbeddingSet(x), tmp_path / f"{name}.remb")
    out = tmp_path / "d.rdmx"
    argv = ["dist", "--emb-q", str(tmp_path / "q.remb"), "--emb-g", str(tmp_path / "g.remb"),
            "--metric", metric, "--out", str(out)]
    assert run_cli(argv) == 0
    return distance.decode_distance_matrix(out.read_bytes()).values.astype(np.float32)


@pytest.mark.parametrize("offset", [0.0, 50.0])
@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_dist_chain_scales_with_a_power_of_two(tmp_path, metric, offset):
    rng = np.random.default_rng(2048)
    x = (offset + rng.uniform(0, 0.8, (340, 2048))).astype(np.float32)
    x[300:305] = x[:5]  # gallery rows equal to query rows
    x[[7, 320]] = 0.0
    x[200:203] = x[100]  # duplicate gallery rows
    q, g = x[:40], x[40:]
    want = dist_payload(tmp_path, q, g, metric)
    for k in range(-8, 9):
        s = np.float32(2.0**k)
        factor = s if metric == "euclidean" else np.float32(1.0)
        assert dist_payload(tmp_path, s * q, s * g, metric).tobytes() == (factor * want).tobytes(), k


def float32_rows(offset, n=340, dim=2048):
    """n float32-valued rows (as a .remb holds them) in float64, offset from
    0: rows 300-304 repeat rows 0-4, rows 200-202 repeat row 100, and rows 7
    and 320 are zero."""
    rng = np.random.default_rng(2048)
    x = (offset + rng.uniform(0, 0.8, (n, dim))).astype(np.float32).astype(np.float64)
    x[300:305] = x[:5]
    x[200:203] = x[100]
    x[[7, 320]] = 0.0
    return x


def stated_tolerance(a, b, metric):
    """(len(a), len(b)) cells: the sum of the stated bounds of two
    computations of distance_matrix(a, b, metric). Cosine: tau_c each.
    Euclidean: tau * (|a|^2 + |b|^2) each on the squared value, and
    |d1 - d2| <= sqrt(|d1^2 - d2^2|) for d1, d2 >= 0."""
    dim = a.shape[1]
    if metric is Metric.COSINE:
        return np.full((len(a), len(b)), 2 * distance._twice_gamma(dim + 4))
    an, bn = (np.sum(v.astype(np.longdouble) ** 2, axis=1) for v in (a, b))
    return np.sqrt(2 * distance._twice_gamma(dim + 2) * (an[:, None] + bn)).astype(np.float64)


@pytest.mark.parametrize("change", ["gallery_permutation", "aliasing", "query_blocks"])
@pytest.mark.parametrize("offset", [0.0, 50.0, 1e3])
@pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.COSINE])
def test_global_distances_agree_within_the_stated_bound(metric, offset, change):
    x = float32_rows(offset)
    q, g = x[:40], x[40:]
    if change == "aliasing":
        q, g = x, x
    want = distance.distance_matrix(q, g, metric).values
    tol = stated_tolerance(q, g, metric)
    if change == "gallery_permutation":
        perm = np.random.default_rng(7).permutation(len(g))
        got, want, tol = distance.distance_matrix(q, g[perm], metric).values, want[:, perm], tol[:, perm]
    elif change == "aliasing":
        got = distance.distance_matrix(x, x.copy(), metric).values
    else:
        got = [np.vstack([b.values.copy() for b in distance.global_distance_blocks(q, g, metric, rows=k)])
               for k in (1, 7, 16)]
    assert (abs(np.asarray(got) - want) <= tol).all()
