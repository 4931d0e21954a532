import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reidkit import distance, gallery
from reidkit.errors import DataError
from reidkit.distance import (
    DistanceMatrix,
    LocalMode,
    Metric,
    aligned_distance,
    combine_distances,
    decode_distance_matrix,
    distance_matrix,
    encode_distance_matrix,
    local_distance_matrix,
    one_to_one_distance,
)
from reidkit.gallery import EmbeddingSet
from test_acceptance import min_monotone_path_oracle


class TestGlobalDistance:
    def test_345_triangle(self):
        d = distance_matrix(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
        assert d.values[0, 0] == pytest.approx(5.0)

    def test_cosine_identical(self):
        v = np.array([[1.0, 2.0, 3.0]])
        d = distance_matrix(v, 2 * v, Metric.COSINE)
        assert d.values[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_cosine_orthogonal(self):
        d = distance_matrix(
            np.array([[1.0, 0.0]]), np.array([[0.0, 5.0]]), Metric.COSINE
        )
        assert d.values[0, 0] == pytest.approx(1.0)

    def test_cosine_zero_vector_is_one(self):
        d = distance_matrix(
            np.zeros((1, 3)), np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), Metric.COSINE
        )
        assert d.values[0, 0] == pytest.approx(1.0)
        assert d.values[0, 1] == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DataError, match="mismatch"):
            distance_matrix(np.zeros((1, 2)), np.zeros((1, 3)))

    def test_inputs_must_be_matrices(self):
        with pytest.raises(DataError, match="^inputs must be 2-D matrices$"):
            distance_matrix(np.zeros(3), np.zeros((1, 3)))

    def test_euclidean_triangle_inequality(self, rng):
        x = rng.standard_normal((12, 6))
        d = distance_matrix(x, x).values
        for a, b, c in rng.integers(0, 12, size=(200, 3)):
            assert d[a, c] <= d[a, b] + d[b, c] + 1e-6

    def test_self_distance_symmetric_zero_diag(self, rng):
        x = rng.standard_normal((6, 4))
        d = distance_matrix(x, x).values
        np.testing.assert_allclose(d, d.T, atol=1e-9)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-6)


def _reference_distance(q, g, metric):
    """The whole-matrix expressions the blocked global kernel replaced."""
    q, g = np.asarray(q, np.float64), np.asarray(g, np.float64)
    if metric is Metric.EUCLIDEAN:
        sq = np.sum(q * q, axis=1)[:, None] + np.sum(g * g, axis=1)[None, :]
        sq -= 2.0 * (q @ g.T)
        return np.sqrt(np.maximum(sq, 0.0))
    qn = np.linalg.norm(q, axis=1)
    gn = np.linalg.norm(g, axis=1)
    denom = qn[:, None] * gn[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.where(denom > 0, (q @ g.T) / np.where(denom > 0, denom, 1.0), 0.0)
    return np.clip(1.0 - cos, 0.0, 2.0)


def _direct_reference(x, metric):
    """Long-double distances between the rows of x from direct differences,
    a block of rows at a time: squared euclidean, or cosine as half the
    squared difference of the unit rows (1 where either row is zero)."""
    x = x.astype(np.longdouble)
    norms = np.sqrt(np.sum(x * x, axis=1))
    if metric is Metric.COSINE:
        x /= np.where(norms > 0, norms, 1)[:, None]
    out = np.empty((len(x), len(x)), np.longdouble)
    step = max(1, (1 << 20) // x.size)
    for i in range(0, len(x), step):
        diff = x[i : i + step, None, :] - x[None, :, :]
        out[i : i + step] = np.sum(diff * diff, axis=2)
    if metric is Metric.COSINE:
        out /= 2
        out[norms == 0] = out[:, norms == 0] = 1
    return out


def finish_sq_euclidean_reference(a, b, sq, bn, bn_tau):
    """The euclidean finish of sq = a @ b.T in place, as the kernel ran it
    before the two metrics shared one finish (distance._finish)."""
    an, an_tau = distance._side_terms(a, Metric.EUCLIDEAN)
    for rows in distance._blocks(*sq.shape):
        blk = sq[rows]
        blk *= 2.0
        np.subtract(an[rows, None] + bn, blk, out=blk)
        distance._exact_near_zero(a[rows], b, blk, an_tau[rows], bn_tau)
        np.maximum(blk, 0.0, out=blk)
    return sq


def finish_cosine_reference(q, g, d, gn, g_tau):
    """The cosine finish of d = q @ g.T in place, as the kernel ran it then:
    a zero norm product read as cos 0, hence distance 1."""
    qn, q_tau = distance._side_terms(q, Metric.COSINE)
    for rows in distance._blocks(*d.shape):
        blk = d[rows]
        denom = qn[rows, None] * gn
        pos = denom > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(blk, denom, out=blk, where=pos)
        blk[~pos] = 0.0
        np.subtract(1.0, blk, out=blk)
        np.clip(blk, 0.0, 2.0, out=blk)
        distance._exact_near_zero(q[rows], g, blk, q_tau[rows], g_tau, qn[rows], gn)
    return d


def global_blocks_reference(q, g, metric, rows):
    """global_distance_blocks(q, g, metric, rows) through the two finishes
    above, each block its own array."""
    g = np.ascontiguousarray(g, dtype=np.float64)
    terms = distance._side_terms(g, metric)
    blocks = []
    for i in range(0, len(q), rows):
        qb = np.ascontiguousarray(q[i : i + rows], dtype=np.float64)
        if metric is Metric.EUCLIDEAN:
            blocks.append(np.sqrt(finish_sq_euclidean_reference(qb, g, qb @ g.T, *terms)))
        else:
            blocks.append(finish_cosine_reference(qb, g, qb @ g.T, *terms))
    return blocks


def assert_same_bytes(got, want):
    np.testing.assert_array_equal(got, want, strict=True)
    assert got.tobytes() == want.tobytes()  # and the sign of each zero


# _side_terms' error for a row with a NaN or inf, or too large a squared norm
NO_SQUARED_NORM = "^feature row with a NaN, an inf or a squared norm past float64's max / 4$"


class TestBlockedGlobalKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        nq=st.integers(1, 16),
        ng=st.integers(1, 64),
        dim=st.sampled_from([1, 7, 300, 2048]),
        offset=st.sampled_from([0.0, 50.0, 1e3, 1e4]),
        duplicates=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 63)), max_size=5),
        zeros=st.lists(st.integers(0, 79), max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_within_the_stated_error_bound(self, nq, ng, dim, offset, duplicates, zeros, seed):
        # float32-valued rows, as a .remb holds them, in one float64 array:
        # gallery rows that duplicate a query row, and zero rows
        rng = np.random.default_rng(seed)
        x = (offset + rng.uniform(0, 0.8, (nq + ng, dim))).astype(np.float32).astype(np.float64)
        for i, j in duplicates:
            x[nq + j % ng] = x[i % nq]
        x[[i % len(x) for i in zeros]] = 0.0
        q, g = x[:nq], x[nq:]
        cross = np.s_[:nq, nq:]
        # euclidean: tau * (|a|^2 + |b|^2) per entry of _sq_euclidean
        want = _direct_reference(x, Metric.EUCLIDEAN)
        sq = np.sum(x.astype(np.longdouble) ** 2, axis=1)
        bound = distance._twice_gamma(dim + 2) * (sq[:, None] + sq)
        # the aliased x, x (syrk) and a pair of arrays (gemm) round apart
        for got, part in [(distance._sq_euclidean(x, x), np.s_[:, :]),
                          (distance._sq_euclidean(q, g), cross)]:
            assert (abs(got - want[part]) <= bound[part]).all()
        # cosine: tau_c per entry of distance_matrix
        want = _direct_reference(x, Metric.COSINE)
        tau_c = distance._twice_gamma(dim + 4)
        for got, part in [(distance_matrix(x, x, Metric.COSINE).values, np.s_[:, :]),
                          (distance_matrix(q, g, Metric.COSINE).values, cross)]:
            assert (abs(got - want[part]) <= tau_c).all()

    @settings(max_examples=80, deadline=None)
    @given(
        nq=st.integers(1, 12),
        ng=st.integers(1, 20),
        dim=st.sampled_from([1, 3, 16, 64]),
        dtype=st.sampled_from([np.float32, np.float64]),
        metric=st.sampled_from([Metric.EUCLIDEAN, Metric.COSINE]),
        offset=st.sampled_from([0.0, 50.0, 1e3]),
        # (source, target, scale): duplicate, scaled and opposite rows
        copies=st.lists(
            st.tuples(st.integers(0, 31), st.integers(0, 31), st.sampled_from([1.0, 2.0, -1.0, -2.0])),
            max_size=6,
        ),
        zeros=st.lists(st.integers(0, 31), max_size=2),
        # rows whose squared norm underflows to 0 (zero rows in float32)
        tiny=st.lists(st.integers(0, 31), max_size=2),
        cells=st.integers(1, 400) | st.just(1 << 16),
        seed=st.integers(0, 2**32 - 1),
    )
    # six rows and their opposites: at this seed 1 - cos of one pair rounds
    # above 2 before the clamp
    @example(nq=6, ng=6, dim=16, dtype=np.float64, metric=Metric.COSINE, offset=0.0,
             copies=[(i, 6 + i, -1.0) for i in range(6)], zeros=[], tiny=[], cells=1 << 16, seed=1)
    def test_one_finish_has_the_bytes_of_the_two_it_replaced(
        self, small_tiles, nq, ng, dim, dtype, metric, offset, copies, zeros, tiny, cells, seed
    ):
        rng = np.random.default_rng(seed)
        n = nq + ng
        x = offset + rng.standard_normal((n, dim))
        for i, j, scale in copies:
            x[j % n] = scale * x[i % n]
        x[[i % n for i in zeros]] = 0.0
        for i in tiny:
            x[i % n] = 1e-170 * rng.standard_normal(dim)
        x = x.astype(dtype)
        q, g = x[:nq], x[nq:]
        x64 = x.astype(np.float64)
        with small_tiles(cells):
            for rows in (1, 7, nq):
                got = [b.values.copy() for b in distance.global_distance_blocks(q, g, metric, rows)]
                want = global_blocks_reference(q, g, metric, rows)
                assert len(got) == len(want)
                for b, w in zip(got, want):
                    assert_same_bytes(b, w)
            [whole] = global_blocks_reference(q, g, metric, nq)
            assert_same_bytes(distance_matrix(q, g, metric).values, whole)
            terms = distance._side_terms(x64, Metric.EUCLIDEAN)
            want = finish_sq_euclidean_reference(x64, x64, x64 @ x64.T, *terms)
            assert_same_bytes(distance._sq_euclidean(x64, x64), want)

    @pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.COSINE])
    def test_a_nan_row_is_rejected(self, metric):
        # a NaN norm is no zero norm: the row does not read as cosine distance 1
        q = np.array([[np.nan, 1.0, 2.0], [1.0, 0.0, 0.0]])
        g = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]])
        for a, b in ((q, g), (g, q)):
            with pytest.raises(DataError, match=NO_SQUARED_NORM):
                distance_matrix(a, b, metric)
            with pytest.raises(DataError, match=NO_SQUARED_NORM):
                list(distance.global_distance_blocks(a, b, metric, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e160, 1e154])
    @pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.COSINE])
    def test_a_bad_row_raises_before_any_product(self, metric, bad):
        # no numpy warning (an error under the suite's filterwarnings) comes
        # first: a bad gallery row raises at the call, a bad query row when
        # its block is drawn, and the blocks before it are finished. 1e154
        # squares to no inf, but past float64's max / 4.
        good = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]])
        bad_rows = np.array([[bad, 1.0, 2.0], [1.0, 0.0, 0.0]])
        with pytest.raises(DataError, match=NO_SQUARED_NORM):
            distance.global_distance_blocks(good, bad_rows, metric)
        blocks = distance.global_distance_blocks(np.vstack([good, bad_rows]), good, metric, 2)
        assert_same_bytes(next(blocks).values, distance_matrix(good, good, metric).values)
        with pytest.raises(DataError, match=NO_SQUARED_NORM):
            next(blocks)
        for a, b in ((bad_rows, good), (good, bad_rows)):
            with pytest.raises(DataError, match=NO_SQUARED_NORM):
                distance_matrix(a, b, metric)

    @pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.COSINE])
    def test_rows_just_below_the_norm_limit_are_finished_without_overflow(self, metric):
        # squared norms below float64's max / 4: the norm sum, the doubled
        # product and their difference stay finite
        x = np.array([[5e153, 0.0], [-5e153, 0.0], [0.0, 5e153]])
        d = distance_matrix(x, x, metric).values
        want = [[0, 1e154, 5e153 * 2**0.5], [1e154, 0, 5e153 * 2**0.5], [5e153 * 2**0.5] * 2 + [0]]
        if metric is Metric.COSINE:
            want = [[0, 2, 1], [2, 0, 1], [1, 1, 0]]
        np.testing.assert_allclose(d, want, rtol=1e-15)

    @pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.COSINE])
    def test_no_result_block_is_allocated_before_the_first_draw(self, metric):
        # the call builds the gallery's norms (2 x 32 KiB); the 4 MiB result
        # buffer waits for the first draw, so a caller can free its own
        # copy of the gallery first
        rng = np.random.default_rng(7)
        q, g = rng.standard_normal((256, 4)), rng.standard_normal((4096, 4))
        tracemalloc.start()
        try:
            blocks = distance.global_distance_blocks(q, g, metric, 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 128 * 4096 / 8
        assert [b.shape for b in blocks] == [(128, 4096)] * 2

    @pytest.mark.parametrize("offset", [0.0, 50.0])
    @pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.COSINE])
    def test_scaling_by_a_power_of_two_is_exact(self, metric, offset):
        # every product, norm, bound and direct difference scales exactly,
        # so euclidean distances scale with the rows and cosine ones stay
        rng = np.random.default_rng(2048)
        x = offset + rng.uniform(0, 0.8, (340, 2048))
        x[300:305] = x[:5]
        x[[7, 320]] = 0.0
        q, g = x[:40], x[40:]
        want = [distance_matrix(q, g, metric).values, distance_matrix(x, x, metric).values]
        for k in range(-8, 9):
            s = 2.0**k
            factor = s if metric is Metric.EUCLIDEAN else 1.0
            xs = s * x
            got = [distance_matrix(s * q, s * g, metric).values, distance_matrix(xs, xs, metric).values]
            for d, w in zip(got, want):
                assert d.tobytes() == (factor * w).tobytes()

    @settings(max_examples=120, deadline=None)
    @given(
        nq=st.sampled_from([1, 63, 64, 65, 130]),
        ng=st.integers(1, 40),
        dim=st.integers(2, 96),
        dtype=st.sampled_from([np.float32, np.float64]),
        metric=st.sampled_from([Metric.EUCLIDEAN, Metric.COSINE]),
        offset=st.sampled_from([0.0, 0.4, 3.0]),
        zero_q=st.lists(st.integers(0, 129), max_size=4),
        zero_g=st.lists(st.integers(0, 39), max_size=3),
        layout=st.sampled_from(["C", "F", "strided", "same"]),
        # block edges inside the result, the norm squares and the chunks of
        # direct differences, or the default budget
        cells=st.integers(1, 400) | st.just(1 << 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_byte_identical_to_whole_matrix_expressions(
        self, small_tiles, nq, ng, dim, dtype, metric, offset, zero_q, zero_g, layout, cells, seed
    ):
        rng = np.random.default_rng(seed)
        q = (offset + rng.standard_normal((nq, dim))).astype(dtype)
        g = (offset + rng.standard_normal((ng, dim))).astype(dtype)
        q[[i for i in zero_q if i < nq]] = 0.0
        g[[j for j in zero_g if j < ng]] = 0.0
        if layout == "F":
            q, g = np.asfortranarray(q), np.asfortranarray(g)
        elif layout == "strided":
            q, g = (x.repeat(2, axis=0).repeat(2, axis=1)[::2, ::2] for x in (q, g))
        elif layout == "same":
            # one array on both sides, as perplexity_affinities passes it:
            # float64 keeps it one array, and its diagonal is recomputed like
            # any duplicate pair
            g = q
        with small_tiles(cells):
            got = distance_matrix(q, g, metric).values
        # any layout gives the bytes of its C-ordered copy
        want = _reference_distance(np.ascontiguousarray(q), np.ascontiguousarray(g), metric)
        if g is q:
            # a row's distance to itself is exactly 0 (a zero row's cosine
            # distance stays 1), every other entry the expression's
            want[np.diag_indices(nq)] = np.where(q.any(axis=1), 0.0, np.diag(want))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "metric, duplicates, bound",
        [
            (Metric.EUCLIDEAN, False, 1.3),
            (Metric.COSINE, False, 1.3),
            # every entry recomputed from direct differences: the indices of
            # one block's flagged cells, 8 bytes each, come on top
            (Metric.EUCLIDEAN, True, 1.5),
            (Metric.COSINE, True, 1.5),
        ],
    )
    def test_peak_memory_is_one_result(self, rng, metric, duplicates, bound):
        # one (nq, ng) buffer finished in place; each block's temporaries are
        # at most _TILE_CELLS cells, here 10 rows of the result
        q = rng.standard_normal((300, 64))
        g = rng.standard_normal((6_000, 64))
        if duplicates:
            q[:], g[:] = q[0], q[0]
        tracemalloc.start()
        try:
            d = distance_matrix(q, g, metric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.shape == (300, 6_000)
        assert peak < bound * d.values.nbytes
        if duplicates:
            np.testing.assert_array_equal(d.values, 0.0)

    @pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.COSINE])
    def test_few_queries_peak_is_not_a_gallery_square(self, rng, metric):
        # the row norms are squared a block of rows at a time: no temporary
        # the size of g, which dwarfs the result when queries are few
        q = rng.standard_normal((8, 512))
        g = rng.standard_normal((4_000, 512))
        tracemalloc.start()
        try:
            d = distance_matrix(q, g, metric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.shape == (8, 4_000)
        assert peak < 0.1 * g.nbytes + 2 * d.values.nbytes

    @settings(max_examples=30, deadline=None)
    @given(
        offset=st.floats(1e1, 1e3) | st.floats(-1e3, -1e1),
        n=st.integers(1, 8),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_self_distance_exactly_zero_with_offset(self, offset, n, dtype, seed):
        x = (offset + np.random.default_rng(seed).standard_normal((n, 2048))).astype(dtype)
        np.testing.assert_array_equal(np.diag(distance_matrix(x, x).values), 0.0)
        # a copy takes the same path
        np.testing.assert_array_equal(np.diag(distance_matrix(x, x.copy()).values), 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        offset=st.floats(1e1, 1e3) | st.floats(-1e3, -1e1),
        n=st.integers(1, 8),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cosine_self_distance_exactly_zero_with_offset(self, offset, n, dtype, seed):
        x = (offset + np.random.default_rng(seed).standard_normal((n, 2048))).astype(dtype)
        for g in (x, x.copy(), 2 * x):
            np.testing.assert_array_equal(np.diag(distance_matrix(x, g, Metric.COSINE).values), 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        offset=st.floats(1e1, 1e3),
        steps=st.lists(st.integers(1, 1000), min_size=2, max_size=8, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cosine_near_parallel_rows_rank_by_angle(self, offset, steps, seed):
        rng = np.random.default_rng(seed)
        base = offset + rng.standard_normal(2048)
        # each gallery row turns away from the query by its own angle, in a
        # direction orthogonal to the query; the last row is the query itself
        dirs = rng.standard_normal((len(steps), 2048))
        dirs -= np.outer(dirs @ base, base) / (base @ base)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        angles = 1e-10 * np.asarray(steps, np.float64)
        g = base + (np.tan(angles) * np.linalg.norm(base))[:, None] * dirs
        got = distance_matrix(base[None, :], np.vstack([g, base]), Metric.COSINE).values[0]
        assert got[-1] == 0.0
        np.testing.assert_array_equal(np.argsort(got[:-1]), np.argsort(angles))
        # 1 - cos(a) = 2 sin^2(a / 2); constructing g rounds each angle by ~1e-6 relative
        np.testing.assert_allclose(got[:-1], 2 * np.sin(angles / 2) ** 2, rtol=1e-4, atol=0)

    @settings(max_examples=30, deadline=None)
    @given(
        offset=st.floats(1e1, 1e3),
        scales=st.lists(st.floats(1e-8, 1e-5), min_size=2, max_size=8, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_near_duplicates_rank_by_direct_differences(self, offset, scales, seed):
        rng = np.random.default_rng(seed)
        base = offset + rng.standard_normal(2048)
        # each gallery item moves away from the query along its own direction
        dirs = rng.standard_normal((len(scales), 2048))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        g = base + np.asarray(scales)[:, None] * dirs
        direct = np.sqrt(((g - base) ** 2).sum(axis=1))
        got = distance_matrix(base[None, :], g).values[0]
        np.testing.assert_array_equal(
            np.argsort(got, kind="stable"), np.argsort(direct, kind="stable")
        )
        np.testing.assert_allclose(got, direct, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 130])
    def test_self_distances_of_one_array(self, rng, n):
        # the same array on both sides: the diagonal and a duplicate pair off
        # it are recomputed to 0, every other entry is the expansion's
        x = 50.0 + rng.standard_normal((n, 32))
        x[n - 1] = x[0]
        got = distance._sq_euclidean(x, x)
        norms = np.sum(x * x, axis=1)
        expansion = np.maximum(norms[:, None] + norms[None, :] - 2.0 * (x @ x.T), 0.0)
        exact = np.eye(n, dtype=bool)
        exact[0, n - 1] = exact[n - 1, 0] = True
        assert (got[exact] == 0.0).all()
        assert got[~exact].tobytes() == expansion[~exact].tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 70),
        dim=st.integers(1, 40),
        offset=st.sampled_from([0.0, 0.4, 50.0]),
        duplicates=st.lists(st.tuples(st.integers(0, 69), st.integers(0, 69)), max_size=6),
        zeros=st.lists(st.integers(0, 69), max_size=3),
        cells=st.integers(1, 400) | st.just(1 << 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_array_takes_the_path_of_a_copy(
        self, small_tiles, n, dim, offset, duplicates, zeros, cells, seed
    ):
        x = offset + np.random.default_rng(seed).standard_normal((n, dim))
        for i, j in duplicates:
            x[j % n] = x[i % n]
        x[[i % n for i in zeros]] = 0.0
        same = x @ x.T
        with small_tiles(cells):
            got = [distance._sq_euclidean(x, x), distance._sq_euclidean(x, x.copy())]
        # numpy runs a matrix times its own transpose through BLAS syrk and a
        # copy through gemm, whose products differ in the last bits; each
        # result is the same function of its own product
        norms = np.sum(x * x, axis=1)
        tau = distance._twice_gamma(dim + 2)
        equal_rows = (x[:, None, :] == x[None, :, :]).all(axis=2)
        for d, prod in zip(got, [same, x @ x.copy().T]):
            want = norms[:, None] + norms - 2.0 * prod
            r, c = np.nonzero(want <= tau * norms[:, None] + tau * norms)
            diff = x[r] - x[c]
            want[r, c] = np.einsum("ij,ij->i", diff, diff)
            assert d.tobytes() == np.maximum(want, 0.0).tobytes()
            assert (d[equal_rows] == 0.0).all()

    def test_flagged_pairs_run_in_chunks(self, rng, small_tiles):
        # every pair a duplicate, a few pairs per chunk of direct differences
        row = 50.0 + rng.standard_normal((1, 16))
        x = np.repeat(row, 70, axis=0)
        with small_tiles(16 * 7):
            d = distance_matrix(x, x[:50]).values
        np.testing.assert_array_equal(d, 0.0)


class TestSquash:
    """The stripe cost tanh(d/2), read off the one-to-one kernel on one-stripe
    inputs [[0]] and [[d]]."""

    def test_zero(self):
        assert one_to_one_distance([[0.0]], [[0.0]]) == 0.0

    def test_ln3_gives_half(self):
        assert one_to_one_distance([[0.0]], [[math.log(3)]]) == pytest.approx(0.5)

    def test_monotone(self, rng):
        xs = np.sort(rng.uniform(0, 10, size=50))
        ys = np.array([one_to_one_distance([[0.0]], [[x]]) for x in xs])
        assert (np.diff(ys) > 0).all()
        assert (ys >= 0).all() and (ys < 1).all()


class TestAlignedDistance:
    def test_identical_stripes_zero(self):
        a = np.ones((3, 2))
        assert aligned_distance(a, a) == 0.0

    def test_two_by_two_grid_hand_case(self):
        # down-then-right path wins: 0.1 + 0.2 + 0.3
        cost = np.array([[0.1, 0.9], [0.2, 0.3]])
        assert distance._min_path_costs(cost[:, :, None])[0] == pytest.approx(0.6, abs=1e-12)
        assert min_monotone_path_oracle(cost) == pytest.approx(0.6, abs=1e-12)

    def test_matches_path_enumeration(self, rng):
        for _ in range(200):
            s1 = int(rng.integers(1, 7))
            s2 = int(rng.integers(1, 7))
            a = rng.standard_normal((s1, 3))
            b = rng.standard_normal((s2, 3))
            diff = a[:, None, :] - b[None, :, :]
            cost = np.tanh(np.linalg.norm(diff, axis=2) / 2)
            assert aligned_distance(a, b) == pytest.approx(
                min_monotone_path_oracle(cost), abs=1e-9
            )

    def test_symmetric_in_arguments(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((5, 3))
        assert aligned_distance(a, b) == pytest.approx(aligned_distance(b, a), abs=1e-12)

    def test_upper_bounded_by_border_path(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((4, 3))
        diff = a[:, None, :] - b[None, :, :]
        cost = np.tanh(np.linalg.norm(diff, axis=2) / 2)
        border = cost[0, :].sum() + cost[1:, -1].sum()
        assert aligned_distance(a, b) <= border + 1e-12


class TestOneToOne:
    def test_identical_zero(self, rng):
        a = rng.standard_normal((5, 3))
        assert one_to_one_distance(a, a) == 0.0

    def test_diagonal_sum(self):
        inv = lambda c: 2 * np.arctanh(c)
        a = np.array([[0.0], [10.0]])
        b = np.array([[inv(0.1)], [10.0 + inv(0.3)]])
        assert one_to_one_distance(a, b) == pytest.approx(0.4, abs=1e-9)

    def test_stripe_count_mismatch(self):
        with pytest.raises(DataError, match="stripe count"):
            one_to_one_distance(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_stripe_sequences_must_be_matrices(self):
        with pytest.raises(DataError, match=r"^stripe sequences must be 2-D \(S x Dl\)$"):
            one_to_one_distance(np.zeros(3), np.zeros((1, 3)))


class TestLocalDistanceMatrix:
    def test_zero_diagonal_both_modes(self, rng):
        local = rng.standard_normal((3, 4, 2)).astype(np.float32)
        e = EmbeddingSet(rng.standard_normal((3, 5)).astype(np.float32), local)
        for mode in (LocalMode.DP_ALIGNED, LocalMode.ONE_TO_ONE):
            d = local_distance_matrix(e, e, mode).values
            if mode is LocalMode.ONE_TO_ONE:
                np.testing.assert_array_equal(np.diag(d), 0.0)
            else:
                # a monotone path leaves the diagonal unless all stripes are
                # equal, so d(x, x) is the scalar self-distance, not 0
                self_d = [aligned_distance(local[i], local[i]) for i in range(3)]
                np.testing.assert_allclose(np.diag(d), self_d, rtol=0, atol=1e-12)
                np.testing.assert_allclose(d, d.T, rtol=0, atol=1e-12)

    def test_matches_scalar_ops(self, rng):
        la = rng.standard_normal((2, 3, 2)).astype(np.float32)
        lb = rng.standard_normal((2, 3, 2)).astype(np.float32)
        ea = EmbeddingSet(np.zeros((2, 1), np.float32), la)
        eb = EmbeddingSet(np.zeros((2, 1), np.float32), lb)
        d_dp = local_distance_matrix(ea, eb, LocalMode.DP_ALIGNED).values
        d_oo = local_distance_matrix(ea, eb, LocalMode.ONE_TO_ONE).values
        for i in range(2):
            for j in range(2):
                assert d_dp[i, j] == aligned_distance(la[i], lb[j])
                assert d_oo[i, j] == one_to_one_distance(la[i], lb[j])

    def test_modes_agree_single_stripe(self, rng):
        l = rng.standard_normal((3, 1, 4)).astype(np.float32)
        e = EmbeddingSet(np.zeros((3, 2), np.float32), l)
        d1 = local_distance_matrix(e, e, LocalMode.DP_ALIGNED).values
        d2 = local_distance_matrix(e, e, LocalMode.ONE_TO_ONE).values
        np.testing.assert_allclose(d1, d2, atol=1e-9)

    def test_missing_local_features(self, rng):
        e = EmbeddingSet(np.zeros((2, 3), np.float32))
        with pytest.raises(DataError, match="local"):
            local_distance_matrix(e, e, LocalMode.DP_ALIGNED)


class TestBatchedKernel:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_tiled_dp_matches_path_enumeration(self, data):
        s1 = data.draw(st.integers(1, 6), label="s1")
        s2 = data.draw(st.integers(1, 6).filter(lambda s: s != s1), label="s2")
        nq = data.draw(st.integers(2, 4), label="nq")
        ng = data.draw(st.integers(3, 6), label="ng")
        dl = data.draw(st.integers(1, 4), label="dl")
        # fewer pairs per tile than gallery rows: tiles split both axes
        per_tile = data.draw(st.integers(1, ng - 1), label="per_tile")
        elems = st.floats(-3, 3, width=32)
        ql = data.draw(hnp.arrays(np.float32, (nq, s1, dl), elements=elems), label="ql")
        gl = data.draw(hnp.arrays(np.float32, (ng, s2, dl), elements=elems), label="gl")
        q = EmbeddingSet(np.zeros((nq, 1), np.float32), ql)
        g = EmbeddingSet(np.zeros((ng, 1), np.float32), gl)
        tiles = []
        stripe_costs = distance._stripe_costs
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distance, "_TILE_CELLS", s1 * s2 * per_tile)
            mp.setattr(
                distance, "_stripe_costs", lambda a, b: tiles.append(1) or stripe_costs(a, b)
            )
            d = local_distance_matrix(q, g, LocalMode.DP_ALIGNED).values
        assert len(tiles) == nq * math.ceil(ng / per_tile)
        for i in range(nq):
            for j in range(ng):
                a = ql[i].astype(np.float64)
                b = gl[j].astype(np.float64)
                cost = np.tanh(np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2) / 2)
                assert d[i, j] == pytest.approx(min_monotone_path_oracle(cost), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_tiled_one_to_one_matches_direct_differences(self, data):
        s = data.draw(st.integers(1, 6), label="s")
        nq = data.draw(st.integers(2, 4), label="nq")
        ng = data.draw(st.integers(3, 6), label="ng")
        dl = data.draw(st.integers(1, 4), label="dl")
        # each single-stripe grid is one cell: fewer cells per tile than
        # gallery rows splits both axes
        per_tile = data.draw(st.integers(1, ng - 1), label="per_tile")
        elems = st.floats(-3, 3, width=32)
        ql = data.draw(hnp.arrays(np.float32, (nq, s, dl), elements=elems), label="ql")
        gl = data.draw(hnp.arrays(np.float32, (ng, s, dl), elements=elems), label="gl")
        q = EmbeddingSet(np.zeros((nq, 1), np.float32), ql)
        g = EmbeddingSet(np.zeros((ng, 1), np.float32), gl)
        tiles = []
        stripe_costs = distance._stripe_costs
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distance, "_TILE_CELLS", per_tile)
            mp.setattr(
                distance, "_stripe_costs", lambda a, b: tiles.append(1) or stripe_costs(a, b)
            )
            d = local_distance_matrix(q, g, LocalMode.ONE_TO_ONE).values
        assert len(tiles) == s * nq * math.ceil(ng / per_tile)
        for i in range(nq):
            for j in range(ng):
                a = ql[i].astype(np.float64)
                b = gl[j].astype(np.float64)
                oracle = np.tanh(np.linalg.norm(a - b, axis=1) / 2).sum()
                assert d[i, j] == pytest.approx(oracle, rel=0, abs=1e-12)
                assert d[i, j] == one_to_one_distance(ql[i], gl[j])

    @settings(max_examples=30, deadline=None)
    @given(
        offset=st.sampled_from([0.0, 0.4, 50.0, 1e3]),
        noise=hnp.arrays(np.float32, st.tuples(st.integers(1, 12), st.just(8), st.just(24)),
                         elements=st.floats(-1, 1, width=32)),
    )
    def test_one_to_one_matrix_self_distance_exactly_zero(self, offset, noise):
        local = (offset + noise).astype(np.float32)
        e = EmbeddingSet(np.zeros((len(local), 1), np.float32), local)
        d = local_distance_matrix(e, e, LocalMode.ONE_TO_ONE).values
        np.testing.assert_array_equal(np.diag(d), 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        offset=st.floats(1e3, 1e7) | st.floats(-1e7, -1e3),
        noise=hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.just(24)),
                         elements=st.floats(-1, 1)),
    )
    def test_self_distance_exactly_zero_with_large_offset(self, offset, noise):
        a = offset + noise
        assert one_to_one_distance(a, a) == 0.0
        # every monotone path leaves the diagonal, so the DP cost is 0 only
        # when all stripes are equal
        same = np.repeat(a[:1], len(a), axis=0)
        assert aligned_distance(same, same) == 0.0

    def test_one_to_one_keeps_one_result_matrix(self, rng):
        # the stripes add into one (nq, ng) output tile by tile; a full
        # matrix per stripe would double the peak
        q = EmbeddingSet(np.zeros((200, 1), np.float32), rng.standard_normal((200, 2, 1)))
        g = EmbeddingSet(np.zeros((10_000, 1), np.float32), rng.standard_normal((10_000, 2, 1)))
        tracemalloc.start()
        try:
            d = local_distance_matrix(q, g, LocalMode.ONE_TO_ONE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.shape == (200, 10_000)
        assert peak < 1.5 * d.values.nbytes


class TestCombine:
    def test_lambda_zero(self, rng):
        dg = DistanceMatrix(rng.uniform(0, 1, (3, 3)))
        dl = DistanceMatrix(rng.uniform(0, 1, (3, 3)))
        [combined] = combine_distances(dg, dl, 0.0)
        np.testing.assert_allclose(combined.values, dg.values)

    def test_linearity(self, rng):
        dg = DistanceMatrix(rng.uniform(0, 1, (3, 3)))
        [combined] = combine_distances(dg, dg, 1.0)
        np.testing.assert_allclose(combined.values, 2 * dg.values)

    def test_rowwise_argmin_invariant_to_constant_local(self, rng):
        dg = DistanceMatrix(rng.uniform(0, 1, (4, 6)))
        dl = DistanceMatrix(np.tile(rng.uniform(0, 1, (4, 1)), (1, 6)))
        for lam in (0.0, 0.5, 3.0):
            [combined] = combine_distances(dg, dl, lam)
            np.testing.assert_array_equal(
                combined.values.argmin(axis=1), dg.values.argmin(axis=1)
            )

    def test_shape_mismatch(self, rng):
        dg = DistanceMatrix(np.zeros((2, 2)))
        dl = DistanceMatrix(np.zeros((2, 3)))
        with pytest.raises(DataError, match=r"^distance shape \(2, 2\) != \(2, 3\)$"):
            [_] = combine_distances(dg, dl, 1.0)

    @pytest.mark.parametrize("dg_rows", [2, 4])
    def test_row_count_mismatch(self, dg_rows):
        # one matrix is drawn to its end, so one short of dl's rows fails too
        dg, dl = DistanceMatrix(np.zeros((dg_rows, 3))), DistanceMatrix(np.zeros((3, 3)))
        with pytest.raises(DataError, match=rf"^distance shape \({dg_rows}, 3\) != \(3, 3\)$"):
            [_] = combine_distances(dg, dl, 1.0)

    @pytest.mark.parametrize("rows", [1, 3, 6])
    def test_row_blocks_combine_as_each_block_whole(self, rng, rows):
        dg = DistanceMatrix(rng.uniform(0, 1, (6, 9)))
        dl = DistanceMatrix(rng.uniform(0, 1, (6, 9)))
        blocks = (DistanceMatrix(dg.values[i : i + rows]) for i in range(0, 6, rows))
        got = [d.values.tobytes() for d in combine_distances(blocks, dl, 0.37)]
        want = [d.values.tobytes() for i in range(0, 6, rows)
                for d in combine_distances(DistanceMatrix(dg.values[i : i + rows]),
                                           DistanceMatrix(dl.values[i : i + rows]), 0.37)]
        assert got == want
        [whole] = combine_distances(dg, dl, 0.37)
        assert b"".join(got) == whole.values.tobytes()

    def test_row_blocks_checked_for_lambda_at_the_call(self):
        with pytest.raises(DataError, match=r"^lambda must be finite and >= 0$"):
            combine_distances(iter([]), DistanceMatrix(np.zeros((2, 2))), -1.0)

    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
    def test_bad_lambda(self, lam):
        d = DistanceMatrix(np.zeros((2, 2)))
        with pytest.raises(DataError, match=r"^lambda must be finite and >= 0$"):
            combine_distances(d, d, lam)


def test_distance_matrix_serialization_round_trip(rng):
    d = DistanceMatrix(rng.uniform(0, 2, (3, 5)).astype(np.float32))
    back = decode_distance_matrix(b"".join(encode_distance_matrix(d)))
    np.testing.assert_array_equal(back.values, d.values)


@pytest.mark.parametrize(
    "bad, fault", [(np.nan, "non-finite"), (np.inf, "non-finite"), (-0.5, "negative")], ids=["nan", "inf", "negative"]
)
def test_distance_matrix_decode_checks_values_once(monkeypatch, bad, fault):
    # DistanceMatrix's float64 cast and min/max are the one value pass: the
    # float32 check of the writer never runs on a decode
    def second_pass(*args):
        raise AssertionError("_payload called during a decode")

    monkeypatch.setattr(gallery, "_payload", second_pass)
    v = np.ones((3, 4), "<f4")
    header = struct.pack("<4s5I", b"RDMX", 1, 3, 4, 0, 0)
    assert decode_distance_matrix(header + v.tobytes()).values.tolist() == v.tolist()
    v[2, 1] = bad
    with pytest.raises(DataError, match=f"^distance matrix contains {fault} entries$"):
        decode_distance_matrix(header + v.tobytes())


@pytest.mark.parametrize("shape", [(0, 4), (1, 1), (6, 9)])
def test_distance_matrix_container_layout(rng, shape):
    v = rng.uniform(0, 3, shape)
    v[:, :1] = -0.0
    v[1:2, 1:2] = 1e-40  # rounds to a float32 subnormal
    v = v.T.copy().T  # column-major input
    expected = struct.pack("<4s5I", b"RDMX", 1, *shape, 0, 0)
    expected += np.ascontiguousarray(v, "<f4").tobytes()
    assert b"".join(encode_distance_matrix(DistanceMatrix(v))) == expected


def test_distance_matrix_float32_overflow_named_by_cell():
    v = np.ones((3, 4))
    v[2, 1] = 1e39  # finite as float64, inf as float32
    # the error names the cell, and no overflow warning comes with it
    # (filterwarnings = error would raise one)
    with pytest.raises(DataError, match=r"^non-finite value at \(2, 1\)$"):
        list(encode_distance_matrix(DistanceMatrix(v)))


def test_distance_matrix_float32_overflow_named_by_first_cell():
    v = np.ones((3, 6))
    v[2, 3] = 1e39
    v[1, 5] = 2e39
    with pytest.raises(DataError, match=r"^non-finite value at \(1, 5\)$"):
        list(encode_distance_matrix(DistanceMatrix(v)))


def test_distance_matrix_encode_holds_no_mask():
    # the float32 buffer is the only full-size allocation; a boolean mask
    # of the payload would add a quarter of it. The parts are drawn while
    # traced: the encoder does its work as they are drawn, not at the call
    d = DistanceMatrix(np.random.default_rng(0).uniform(0, 2, (400, 2_000)))
    tracemalloc.start()
    try:
        parts = encode_distance_matrix(d)
        drawn = sum(memoryview(part).nbytes for part in parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert drawn == len(parts)
    assert peak < 1.05 * len(parts)


@pytest.mark.parametrize("nq, rows", [(0, 1), (7, 1), (7, 3), (7, 7), (0, None)])
def test_block_parts_length_is_the_bytes_written(tmp_path, rng, nq, rows):
    # reidbench's traced run reads len() as the size of the .rdmx written;
    # rows None is a stream of no blocks, which still writes its header
    q, g = rng.standard_normal((nq, 5)), rng.standard_normal((3, 5))
    blocks = iter([]) if rows is None else distance.global_distance_blocks(q, g, rows=rows)
    parts = encode_distance_matrix(blocks, (nq, 3))
    size = len(parts)
    gallery._write_file(tmp_path / "d.rdmx", parts)
    assert (tmp_path / "d.rdmx").stat().st_size == size
    assert decode_distance_matrix((tmp_path / "d.rdmx").read_bytes()).shape == (nq, 3)


@pytest.mark.parametrize("rows", [1, 3, 7])
def test_whole_matrix_and_its_row_blocks_encode_alike(tmp_path, rng, rows):
    d = DistanceMatrix(rng.uniform(0, 2, (7, 5)))
    blocks = (DistanceMatrix(d.values[i : i + rows]) for i in range(0, 7, rows))
    gallery._write_file(tmp_path / "whole.rdmx", encode_distance_matrix(d))
    gallery._write_file(tmp_path / "blocks.rdmx", encode_distance_matrix(blocks, d.shape))
    assert (tmp_path / "whole.rdmx").read_bytes() == (tmp_path / "blocks.rdmx").read_bytes()


class TestDistanceMatrixValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cell", [(0, 0), (1, 2), (2, 4)])
    def test_non_finite_rejected(self, rng, bad, cell):
        v = rng.uniform(0, 1, (3, 5))
        v[cell] = bad
        with pytest.raises(DataError, match="^distance matrix contains non-finite entries$"):
            DistanceMatrix(v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_reported_before_negative(self, bad):
        v = np.array([[-1.0, 0.5], [bad, 0.0]])
        with pytest.raises(DataError, match="^distance matrix contains non-finite entries$"):
            DistanceMatrix(v)

    @pytest.mark.parametrize("cell", [(0, 0), (2, 4)])
    def test_negative_rejected(self, rng, cell):
        v = rng.uniform(0, 1, (3, 5))
        v[cell] = -1e-300
        with pytest.raises(DataError, match="^distance matrix contains negative entries$"):
            DistanceMatrix(v)

    def test_negative_zero_accepted(self):
        v = np.full((2, 3), -0.0)
        assert np.signbit(DistanceMatrix(v).values).all()

    @pytest.mark.parametrize("shape", [(3,), (1, 2, 3)])
    def test_non_matrix_rejected(self, shape):
        with pytest.raises(DataError, match="^distance matrix must be 2-D$"):
            DistanceMatrix(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (3, 0)])
    def test_empty_accepted(self, shape):
        assert DistanceMatrix(np.zeros(shape)).shape == shape

    def test_float64_checked_without_copy_or_mask(self, rng):
        v = rng.uniform(0, 1, (500, 1_000))
        tracemalloc.start()
        try:
            d = DistanceMatrix(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.values is v
        assert peak < 0.01 * v.nbytes
