import itertools
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reidkit import distance
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
    min_path_cost,
    one_to_one_distance,
    squash,
)
from reidkit.gallery import EmbeddingSet


def enumerate_monotone_paths(s1, s2):
    """All right/down paths from (0,0) to (s1-1,s2-1), as cell lists."""
    paths = []
    n_moves = s1 + s2 - 2
    for down_at in itertools.combinations(range(n_moves), s1 - 1):
        cells = [(0, 0)]
        i = j = 0
        for step in range(n_moves):
            if step in down_at:
                i += 1
            else:
                j += 1
            cells.append((i, j))
        paths.append(cells)
    return paths


def min_path_cost_oracle(cost):
    s1, s2 = cost.shape
    best = math.inf
    for path in enumerate_monotone_paths(s1, s2):
        best = min(best, sum(cost[i, j] for i, j in path))
    return best


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


class TestSquash:
    def test_zero(self):
        assert squash(0.0) == 0.0

    def test_ln3_gives_half(self):
        assert squash(math.log(3)) == pytest.approx(0.5)

    def test_monotone(self, rng):
        xs = np.sort(rng.uniform(0, 10, size=50))
        ys = squash(xs)
        assert (np.diff(ys) > 0).all()
        assert (ys >= 0).all() and (ys < 1).all()

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            squash(-0.1)


class TestAlignedDistance:
    def test_identical_stripes_zero(self):
        a = np.ones((3, 2))
        assert aligned_distance(a, a) == 0.0

    def test_two_by_two_grid_hand_case(self):
        # down-then-right path wins: 0.1 + 0.2 + 0.3
        cost = np.array([[0.1, 0.9], [0.2, 0.3]])
        assert min_path_cost(cost) == pytest.approx(0.6, abs=1e-12)

    def test_matches_path_enumeration(self, rng):
        for _ in range(200):
            s1 = int(rng.integers(1, 7))
            s2 = int(rng.integers(1, 7))
            a = rng.standard_normal((s1, 3))
            b = rng.standard_normal((s2, 3))
            diff = a[:, None, :] - b[None, :, :]
            cost = np.tanh(np.linalg.norm(diff, axis=2) / 2)
            assert aligned_distance(a, b) == pytest.approx(
                min_path_cost_oracle(cost), abs=1e-9
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
                assert d[i, j] == pytest.approx(min_path_cost_oracle(cost), abs=1e-9)

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
        np.testing.assert_allclose(combine_distances(dg, dl, 0.0).values, dg.values)

    def test_linearity(self, rng):
        dg = DistanceMatrix(rng.uniform(0, 1, (3, 3)))
        np.testing.assert_allclose(
            combine_distances(dg, dg, 1.0).values, 2 * dg.values
        )

    def test_rowwise_argmin_invariant_to_constant_local(self, rng):
        dg = DistanceMatrix(rng.uniform(0, 1, (4, 6)))
        dl = DistanceMatrix(np.tile(rng.uniform(0, 1, (4, 1)), (1, 6)))
        for lam in (0.0, 0.5, 3.0):
            combined = combine_distances(dg, dl, lam).values
            np.testing.assert_array_equal(
                combined.argmin(axis=1), dg.values.argmin(axis=1)
            )

    def test_shape_mismatch(self, rng):
        dg = DistanceMatrix(np.zeros((2, 2)))
        dl = DistanceMatrix(np.zeros((2, 3)))
        with pytest.raises(DataError):
            combine_distances(dg, dl, 1.0)

    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
    def test_bad_lambda(self, lam):
        d = DistanceMatrix(np.zeros((2, 2)))
        with pytest.raises(DataError, match=r"^lambda must be finite and >= 0$"):
            combine_distances(d, d, lam)


def test_distance_matrix_serialization_round_trip(rng):
    d = DistanceMatrix(rng.uniform(0, 2, (3, 5)).astype(np.float32))
    back = decode_distance_matrix(encode_distance_matrix(d))
    np.testing.assert_array_equal(back.values, d.values)


@pytest.mark.parametrize("shape", [(0, 4), (1, 1), (6, 9)])
def test_distance_matrix_container_layout(rng, shape):
    v = rng.uniform(0, 3, shape)
    v[:, :1] = -0.0
    v[1:2, 1:2] = 1e-40  # rounds to a float32 subnormal
    v = v.T.copy().T  # column-major input
    expected = struct.pack("<4s5I", b"RDMX", 1, *shape, 0, 0)
    expected += np.ascontiguousarray(v, "<f4").tobytes()
    assert encode_distance_matrix(DistanceMatrix(v)) == expected


def test_distance_matrix_float32_overflow_named_by_cell():
    v = np.ones((3, 4))
    v[2, 1] = 1e39  # finite as float64, inf as float32
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(DataError, match=r"^non-finite value at \(2, 1\)$"):
            encode_distance_matrix(DistanceMatrix(v))
