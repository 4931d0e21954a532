import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidkit.errors import DataError
from reidkit.distance import DistanceMatrix, _checked_blocks, combine_distances, encode_distance_matrix
from reidkit.gallery import _groups, _write_file
from reidkit.metrics import EvalProtocol, EvalReport, _relevant_ranks, cmc_curve, evaluate
from conftest import build_index
from test_acceptance import ap_brute_force, average_precision, rank_gallery


def evaluate_oracle(queries, gallery, dist, protocol):
    """Reference protocol: a full stable ranking of every query row, then
    average_precision and the first hit read off the ranked relevance; the
    CMC stops at the gallery's last rank."""
    g_pids, g_cams = gallery.person_ids, gallery.camera_ids
    aps, first_hits = [], []
    for qi, (q_pid, q_cam) in enumerate(zip(queries.person_ids, queries.camera_ids)):
        valid = np.ones(len(gallery), dtype=bool)
        if protocol.cross_camera_filter:
            valid = ~((g_pids == q_pid) & (g_cams == q_cam))
        if not (valid & (g_pids == q_pid)).any():
            continue
        rel_ranked = g_pids[rank_gallery(dist.values[qi], valid)] == q_pid
        aps.append(average_precision(rel_ranked))
        first_hits.append(int(np.argmax(rel_ranked)) + 1)
    if not aps:
        raise DataError("empty evaluation: every query has zero valid positives")
    protocol = dataclasses.replace(protocol, max_rank=min(protocol.max_rank, len(gallery)))
    return EvalReport(cmc_curve(first_hits, protocol.max_rank), aps, protocol).to_dict()


# Row blocks that do not fill a (3, 4) matrix, and the shape they reach
WRONG_BLOCK_SHAPES = pytest.mark.parametrize(
    "shapes, message",
    [([(2, 4), (2, 4)], r"\(4, 4\) != \(3, 4\)"), ([(2, 4)], r"\(2, 4\) != \(3, 4\)"),
     ([(2, 4), (1, 5)], r"\(3, 5\) != \(3, 4\)"), ([(3, 3)], r"\(3, 3\) != \(3, 4\)")],
    ids=["extra_rows", "missing_rows", "wider_block", "narrower_block"],
)


def outcome(fn, *args):
    """JSON text of a report (exact float reprs), or the error it raised."""
    try:
        return json.dumps(fn(*args))
    except DataError as e:
        return f"DataError: {e}"


def random_problem(seed, nq, ng, n_pids, n_cams, levels):
    """Index pair and distances quantised to `levels` values (0 = continuous),
    with about a third of the zero entries stored as -0.0. Query identities
    range over about a tenth more values than gallery identities, so some
    queries have no match in the gallery."""
    rng = np.random.default_rng(seed)
    q_pids = rng.integers(0, n_pids + n_pids // 10 + 1, nq)
    queries = build_index(
        [(int(p), int(c), "query") for p, c in zip(q_pids, rng.integers(0, n_cams, nq))]
    )
    gallery = build_index(
        [(int(p), int(c), "gallery") for p, c in
         zip(rng.integers(0, n_pids, ng), rng.integers(0, n_cams, ng))]
    )
    v = rng.integers(0, levels, (nq, ng)) / 4.0 if levels else rng.random((nq, ng))
    v[(v == 0) & (rng.random((nq, ng)) < 0.3)] = -0.0
    return queries, gallery, DistanceMatrix(v)


# The ranking before the valid mask, kept verbatim as a reference: the
# caller sets the filtered-out items of a copy of the row to +inf, and the
# sort of the whole row is checked for finiteness at two slots.
def reference_relevant_ranks(row: np.ndarray, relevant: np.ndarray, n_valid: int) -> np.ndarray:
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


def reference_evaluate(queries, gallery, dist, protocol=EvalProtocol()) -> EvalReport:
    nq, ng = len(queries), len(gallery)
    rows_of = {p: rows for (p,), rows in _groups(gallery.person_ids)}
    no_rows = np.empty(0, np.intp)
    per_query_ap = []
    first_hits = []
    rows = (row for _, block in _checked_blocks(dist, (nq, ng)) for row in block.values)
    for row, q_pid, q_cam in zip(rows, queries.person_ids, queries.camera_ids):
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
        ranks = reference_relevant_ranks(row, relevant, n_valid)
        r = relevant.size
        per_query_ap.append(float(np.sum(np.arange(1, r + 1) / ranks) / r))
        first_hits.append(int(ranks[0]))
    if not per_query_ap:
        raise DataError("empty evaluation: every query has zero valid positives")
    protocol = dataclasses.replace(protocol, max_rank=min(protocol.max_rank, ng))
    return EvalReport(cmc_curve(first_hits, protocol.max_rank), per_query_ap, protocol)


def reference_ranks(row, relevant, junk):
    """reference_relevant_ranks behind reference_evaluate's +inf fill."""
    n_valid = len(row) - junk.size
    if junk.size:
        row = row.copy()
        row[junk] = np.inf
    return reference_relevant_ranks(row, relevant, n_valid)


class TestRankingReference:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(1, 15913),
        levels=st.integers(0, 8),
        n_relevant=st.integers(1, 40),
        n_junk=st.integers(0, 40),
        relevant_at_max=st.booleans(),
        bad_junk=st.sampled_from([None, np.nan, np.inf, -np.inf]),
        bad_valid=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    )
    def test_ranks_match_the_inf_fill_reference(
        self, seed, width, levels, n_relevant, n_junk, relevant_at_max, bad_junk, bad_valid
    ):
        # a coarse grid (levels > 0) makes exact ties common; about half the
        # zeros are -0.0
        rng = np.random.default_rng(seed)
        row = rng.integers(0, levels, width) / 4.0 if levels else rng.random(width)
        row[(row == 0) & (rng.random(width) < 0.5)] = -0.0
        cells = rng.permutation(width)
        relevant = np.sort(cells[:n_relevant])
        junk = np.sort(cells[n_relevant : n_relevant + n_junk])
        if relevant_at_max:
            row[rng.choice(relevant)] = row.max()
        if bad_junk is not None and junk.size:
            row[rng.choice(junk, rng.integers(1, junk.size + 1), replace=False)] = bad_junk
        if bad_valid is not None:
            row[rng.choice(np.setdiff1d(cells, junk))] = bad_valid
        valid = np.ones(width, bool)
        valid[junk] = False
        got = outcome(lambda: _relevant_ranks(row, relevant, valid).tolist())
        assert got == outcome(lambda: reference_ranks(row, relevant, junk).tolist())

    @pytest.mark.parametrize("cross_camera_filter", [True, False])
    @pytest.mark.parametrize("levels", [0, 64])
    def test_report_matches_the_reference_at_market_width(self, cross_camera_filter, levels):
        # 300 x 15,913 with 750 identities over 6 cameras, given as row blocks
        queries, gallery, d = random_problem(1501 + levels, 300, 15913, 750, 6, levels)
        protocol = EvalProtocol(cross_camera_filter)
        blocks = (DistanceMatrix(v) for v in np.split(d.values, [64, 128, 256]))
        report = evaluate(queries, gallery, blocks, protocol)
        assert 0 < report.num_valid_queries < 300
        assert report.to_dict() == reference_evaluate(queries, gallery, d, protocol).to_dict()


class TestEvaluateOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nq=st.integers(1, 8),
        ng=st.integers(1, 60),
        n_pids=st.integers(1, 6),
        n_cams=st.integers(1, 4),
        levels=st.integers(0, 6),
        cross_camera_filter=st.booleans(),
        max_rank=st.integers(1, 30),
    )
    def test_matches_full_ranking_oracle(
        self, seed, nq, ng, n_pids, n_cams, levels, cross_camera_filter, max_rank
    ):
        queries, gallery, d = random_problem(seed, nq, ng, n_pids, n_cams, levels)
        protocol = EvalProtocol(cross_camera_filter, max_rank)
        got = outcome(lambda *a: evaluate(*a).to_dict(), queries, gallery, d, protocol)
        assert got == outcome(evaluate_oracle, queries, gallery, d, protocol)

    @pytest.mark.parametrize("cross_camera_filter", [True, False])
    @pytest.mark.parametrize("levels", [0, 64])
    def test_matches_oracle_at_realistic_width(self, cross_camera_filter, levels):
        # 50 x 5,000 with 300 identities over 6 cameras: about 17 gallery
        # images per identity; with 64 levels every row is full of ties
        queries, gallery, d = random_problem(7 + levels, 50, 5000, 300, 6, levels)
        protocol = EvalProtocol(cross_camera_filter, 30)
        report = evaluate(queries, gallery, d, protocol)
        assert 0 < report.num_valid_queries < 50
        assert json.dumps(report.to_dict()) == outcome(
            evaluate_oracle, queries, gallery, d, protocol
        )


@pytest.mark.parametrize("cross_camera_filter", [True, False])
def test_person_slices_match_oracle_on_edge_queries(cross_camera_filter):
    # gallery persons out of order, so each person's rows are a slice of a
    # sort; query 0's person has no gallery rows, and query 1's only
    # positives share its camera (junk under the filter)
    queries = build_index(
        [(9, 0, "query"), (1, 0, "query"), (2, 1, "query"), (2, 0, "query"), (3, 2, "query")]
    )
    gallery = build_index(
        [(pid, cam, "gallery") for pid, cam in
         [(3, 1), (2, 0), (1, 0), (3, 0), (2, 1), (1, 0), (2, 2), (3, 2), (2, 1)]]
    )
    d = DistanceMatrix(np.random.default_rng(5).integers(0, 4, (5, 9)) / 4.0)
    protocol = EvalProtocol(cross_camera_filter, 9)
    report = evaluate(queries, gallery, d, protocol)
    assert report.num_valid_queries == (3 if cross_camera_filter else 4)
    assert report.to_dict() == evaluate_oracle(queries, gallery, d, protocol)


class TestEvaluateFiniteInput:
    def _setup(self):
        queries = build_index([(1, 1, "query"), (2, 1, "query")])
        gallery = build_index(
            [(1, 1, "gallery"), (1, 2, "gallery"), (2, 2, "gallery"), (3, 1, "gallery")]
        )
        d = DistanceMatrix(np.array([[0.4, 0.3, 0.2, 0.1], [0.1, 0.5, 0.2, 0.9]]))
        return queries, gallery, d

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cell", [(0, 1), (0, 3), (1, 0), (1, 2)])
    def test_non_finite_valid_entry_rejected(self, bad, cell):
        queries, gallery, d = self._setup()
        d.values[cell] = bad
        with pytest.raises(DataError, match="^distances must be finite$"):
            evaluate(queries, gallery, d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_filtered_entry_ignored(self, bad):
        queries, gallery, d = self._setup()
        expected = evaluate(queries, gallery, d).to_dict()
        d.values[0, 0] = bad  # same person, same camera as query 0
        assert evaluate(queries, gallery, d).to_dict() == expected
        with pytest.raises(DataError, match="^distances must be finite$"):
            evaluate(queries, gallery, d, EvalProtocol(cross_camera_filter=False))


class TestRankGallery:
    def test_stable_tie_break(self):
        order = rank_gallery(np.array([0.3, 0.1, 0.3]), np.ones(3, bool))
        assert order.tolist() == [1, 0, 2]

    def test_single_valid(self):
        order = rank_gallery(np.array([0.5, 0.1, 0.9]), np.array([False, False, True]))
        assert order.tolist() == [2]

    def test_full_tie_identity_order(self):
        order = rank_gallery(np.full(4, 0.7), np.ones(4, bool))
        assert order.tolist() == [0, 1, 2, 3]


class TestAveragePrecision:
    def test_single_hit(self):
        assert average_precision([True]) == 1.0

    def test_mixed(self):
        assert average_precision([1, 0, 1, 0]) == pytest.approx(5 / 6)

    def test_late_hit(self):
        assert average_precision([0, 0, 1]) == pytest.approx(1 / 3)

    def test_no_relevant_rejected(self):
        with pytest.raises(DataError):
            average_precision([0, 0, 0])

    def test_matches_oracle_exhaustively(self):
        for n in range(1, 8):
            for bits in itertools.product([0, 1], repeat=n):
                if not any(bits):
                    continue
                assert average_precision(list(bits)) == pytest.approx(
                    ap_brute_force(list(bits)), abs=1e-12
                )


class TestCmcCurve:
    def test_immediate_hit(self):
        np.testing.assert_allclose(cmc_curve([1], 5), np.ones(5))

    def test_rank_two(self):
        np.testing.assert_allclose(cmc_curve([2], 3), [0, 1, 1])

    def test_two_queries(self):
        np.testing.assert_allclose(cmc_curve([1, 3], 3), [0.5, 0.5, 1.0])

    @pytest.mark.parametrize("ranks, message", [([], "no queries to aggregate"), ([1, 0], "ranks must be >= 1")])
    def test_rejected_ranks(self, ranks, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            cmc_curve(ranks, 3)

    def test_non_decreasing(self, rng):
        ranks = rng.integers(1, 30, size=50)
        curve = cmc_curve(ranks, 20)
        assert (np.diff(curve) >= 0).all()


    @given(
        st.lists(st.integers(1, 60), min_size=1, max_size=200),
        st.integers(1, 30),
    )
    def test_matches_loop_oracle(self, ranks, max_rank):
        expected = np.zeros(max_rank)
        for r in ranks:
            if r <= max_rank:
                expected[r - 1 :] += 1.0
        expected /= len(ranks)
        assert cmc_curve(ranks, max_rank).tobytes() == expected.tobytes()


class TestEvaluate:
    def test_perfect_retrieval(self):
        queries = build_index([(1, 1, "query")])
        gallery = build_index([(1, 2, "gallery"), (2, 2, "gallery")])
        d = DistanceMatrix(np.array([[0.1, 0.9]]))
        report = evaluate(queries, gallery, d)
        assert report.map == 1.0
        assert report.cmc[0] == 1.0

    def test_same_camera_positive_filtered(self):
        queries = build_index([(1, 1, "query")])
        gallery = build_index([(1, 1, "gallery"), (1, 2, "gallery"), (2, 1, "gallery")])
        d = DistanceMatrix(np.array([[0.0, 0.5, 0.2]]))
        report = evaluate(queries, gallery, d, EvalProtocol(max_rank=2))
        # same-pid same-cam item removed; ranking [pid2, pid1-cam2]
        assert report.map == pytest.approx(0.5)
        assert report.cmc[0] == 0.0
        assert report.cmc[1] == 1.0

    def test_filter_off_keeps_same_camera(self):
        queries = build_index([(1, 1, "query")])
        gallery = build_index([(1, 1, "gallery"), (2, 1, "gallery")])
        d = DistanceMatrix(np.array([[0.0, 0.5]]))
        report = evaluate(
            queries, gallery, d, EvalProtocol(cross_camera_filter=False, max_rank=2)
        )
        assert report.map == 1.0

    def test_queries_without_positives_excluded(self):
        queries = build_index([(1, 1, "query"), (9, 1, "query")])
        gallery = build_index([(1, 2, "gallery"), (2, 2, "gallery")])
        d = DistanceMatrix(np.array([[0.1, 0.9], [0.5, 0.5]]))
        report = evaluate(queries, gallery, d)
        assert report.num_valid_queries == 1
        assert report.map == 1.0

    def test_all_queries_excluded_errors(self):
        queries = build_index([(9, 1, "query")])
        gallery = build_index([(1, 2, "gallery")])
        d = DistanceMatrix(np.array([[0.1]]))
        with pytest.raises(DataError, match="empty evaluation"):
            evaluate(queries, gallery, d)

    @pytest.mark.parametrize("max_rank", [10**15, 2**63, 4])
    def test_max_rank_clamped_to_the_gallery_size(self, max_rank):
        # the CMC of the rank asked for, 10^15 entries, cannot be allocated
        queries, gallery, d = random_problem(3, 5, 4, 2, 2, 0)
        report = evaluate(queries, gallery, d, EvalProtocol(max_rank=max_rank))
        assert len(report.cmc) == report.protocol.max_rank == len(gallery)
        clamped = evaluate(queries, gallery, d, EvalProtocol(max_rank=len(gallery)))
        assert json.dumps(report.to_dict()) == json.dumps(clamped.to_dict())

    def test_shape_mismatch(self):
        queries = build_index([(1, 1, "query")])
        gallery = build_index([(1, 2, "gallery")])
        d = DistanceMatrix(np.zeros((2, 2)))
        with pytest.raises(DataError, match="shape"):
            evaluate(queries, gallery, d)

    @pytest.mark.parametrize("cuts", [[], [1], [2, 3], [1, 2, 3, 4]])
    def test_row_blocks_give_the_whole_matrix_report(self, cuts):
        queries, gallery, d = random_problem(11, 5, 40, 6, 3, 4)
        blocks = (DistanceMatrix(v) for v in np.split(d.values, cuts))
        got = outcome(lambda *a: evaluate(*a).to_dict(), queries, gallery, blocks, EvalProtocol())
        assert got == outcome(lambda *a: evaluate(*a).to_dict(), queries, gallery, d, EvalProtocol())

    @WRONG_BLOCK_SHAPES
    def test_row_blocks_of_the_wrong_shape(self, shapes, message):
        queries = build_index([(1, 1, "query")] * 3)
        gallery = build_index([(1, 2, "gallery")] * 4)
        blocks = [DistanceMatrix(np.zeros(shape)) for shape in shapes]
        with pytest.raises(DataError, match=rf"^distance shape {message}$"):
            evaluate(queries, gallery, blocks)

    @WRONG_BLOCK_SHAPES
    def test_row_blocks_of_the_wrong_shape_write_no_rdmx(self, tmp_path, shapes, message):
        # the .rdmx encoder checks its blocks with evaluate's rule, as it draws them
        blocks = (DistanceMatrix(np.zeros(shape)) for shape in shapes)
        with pytest.raises(DataError, match=rf"^distance shape {message}$"):
            _write_file(tmp_path / "d.rdmx", encode_distance_matrix(blocks, (3, 4)))
        assert list(tmp_path.iterdir()) == []

    @WRONG_BLOCK_SHAPES
    def test_row_blocks_of_the_wrong_shape_combine_and_write_nothing(self, tmp_path, shapes, message):
        # the local term's rows are matched to each block by the same rule
        blocks = (DistanceMatrix(np.zeros(shape)) for shape in shapes)
        combined = combine_distances(blocks, DistanceMatrix(np.ones((3, 4))), 0.5)
        with pytest.raises(DataError, match=rf"^distance shape {message}$"):
            _write_file(tmp_path / "d.rdmx", encode_distance_matrix(combined, (3, 4)))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("heights", [(1, 2), (2, 1), (1, 1, 1)], ids=["1+2", "2+1", "1+1+1"])
    def test_row_blocks_of_any_height_write_and_join_to_the_whole_rdmx(self, tmp_path, heights):
        # each block is cast to its own float32 part: a block may be taller
        # than the first, and the parts joined are the file's bytes
        d = DistanceMatrix(np.arange(12.0).reshape(3, 4))
        whole = b"".join(encode_distance_matrix(d))

        def blocks():
            return (DistanceMatrix(v) for v in np.split(d.values, np.cumsum(heights)[:-1]))

        _write_file(tmp_path / "d.rdmx", encode_distance_matrix(blocks(), d.shape))
        assert (tmp_path / "d.rdmx").read_bytes() == whole
        assert b"".join(encode_distance_matrix(blocks(), d.shape)) == whole


class TestProperties:
    def _random_setup(self, rng, nq=6, ng=15):
        queries = build_index(
            [(int(p), int(c), "query") for p, c in
             zip(rng.integers(0, 4, nq), rng.integers(0, 3, nq))]
        )
        gallery = build_index(
            [(int(p), int(c), "gallery") for p, c in
             zip(rng.integers(0, 4, ng), rng.integers(0, 3, ng))]
        )
        d = rng.uniform(0.1, 1.0, (nq, ng))
        return queries, gallery, d

    def test_monotone_transform_invariance(self, rng):
        queries, gallery, d = self._random_setup(rng)
        r1 = evaluate(queries, gallery, DistanceMatrix(d))
        r2 = evaluate(queries, gallery, DistanceMatrix(np.expm1(3 * d)))
        assert r1.map == pytest.approx(r2.map, abs=1e-12)
        np.testing.assert_allclose(r1.cmc, r2.cmc)

    def test_gallery_permutation_invariance(self, rng):
        queries, gallery, d = self._random_setup(rng)
        perm = rng.permutation(len(gallery))
        permuted = build_index(
            [(gallery.person_ids[i], gallery.camera_ids[i], "gallery") for i in perm]
        )
        r1 = evaluate(queries, gallery, DistanceMatrix(d))
        r2 = evaluate(queries, permuted, DistanceMatrix(d[:, perm]))
        assert r1.map == pytest.approx(r2.map, abs=1e-12)
        np.testing.assert_allclose(r1.cmc, r2.cmc)

    def test_report_rejects_decreasing_cmc(self):
        with pytest.raises(DataError, match="non-decreasing"):
            EvalReport(np.array([0.9, 0.5]), [0.5], EvalProtocol(max_rank=2))

    def test_report_rejects_cmc_values_out_of_range(self):
        with pytest.raises(DataError, match=r"^CMC values must lie in \[0, 1\]$"):
            EvalReport(np.array([0.5, 1.5]), [0.5], EvalProtocol(max_rank=2))

    def test_report_serialization_keys(self):
        report = EvalReport(np.array([0.5, 1.0]), [0.5], EvalProtocol(max_rank=2))
        doc = report.to_dict()
        assert set(doc) == {"mAP", "cmc", "per_query_ap", "num_valid_queries", "protocol"}

    @pytest.mark.parametrize("aps", [[1.5], [0.5, -0.7]])
    def test_report_rejects_per_query_aps_whose_mean_is_out_of_range(self, aps):
        with pytest.raises(DataError, match=r"^mAP must lie in \[0, 1\]$"):
            EvalReport(np.array([0.5, 1.0]), aps, EvalProtocol(max_rank=2))

    def test_report_derives_map_and_count_from_per_query_ap(self):
        report = EvalReport(np.array([0.5, 1.0]), [0.25, 1.0], EvalProtocol(max_rank=2))
        assert (report.map, report.num_valid_queries) == (0.625, 2)
        doc = report.to_dict()
        assert (doc["mAP"], doc["num_valid_queries"]) == (0.625, 2)
