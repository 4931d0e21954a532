import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidkit.errors import DataError, FormatError
from reidkit.gallery import EmbeddingSet
from reidkit.camera import (
    CONSISTENCY_EPS,
    CameraOffsets,
    CameraResidualParams,
    apply_camera_residual,
    camera_normalize,
    camera_offsets,
    load_residual_params,
)


def ring_data(rng, n_persons=6, n_cams=4, dim=8, noise=0.0):
    """Person centroid + fixed per-camera shift (+ optional noise)."""
    centroids = rng.standard_normal((n_persons, dim)) * 5
    shifts = rng.standard_normal((n_cams, dim))
    rows, pids, cams = [], [], []
    for p in range(n_persons):
        for c in range(n_cams):
            for _ in range(2):
                rows.append(centroids[p] + shifts[c] + noise * rng.standard_normal(dim))
                pids.append(p)
                cams.append(c)
    return np.array(rows), np.array(pids), np.array(cams), shifts


def reference_offsets(emb, camids, pids=None):
    """camera_offsets as a mask per camera, per person and per (camera,
    person) cell, looping over every pair and skipping empty cells."""
    e = np.asarray(emb, dtype=np.float64)
    camids = np.asarray(camids, dtype=np.int64)
    global_mean = e.mean(axis=0)
    offsets, counts = {}, {}
    for c in sorted(int(c) for c in np.unique(camids)):
        rows = e[camids == c]
        offsets[c] = rows.mean(axis=0) - global_mean
        counts[c] = rows.shape[0]
    score = 0.0
    if pids is not None:
        pids = np.asarray(pids)
        person_means = {p: e[pids == p].mean(axis=0) for p in np.unique(pids)}
        cell_scores = []
        for c in offsets:
            off = offsets[c]
            denom = np.linalg.norm(off) + CONSISTENCY_EPS
            for p, pmean in person_means.items():
                cell = (camids == c) & (pids == p)
                if not cell.any():
                    continue
                disp = e[cell].mean(axis=0) - pmean
                cell_scores.append(np.linalg.norm(disp - off) / denom)
        score = float(np.mean(cell_scores))
    return CameraOffsets(offsets, counts, score)


class TestCameraOffsets:
    def test_hand_example(self):
        e = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
        cams = np.array([0, 0, 1])
        off = camera_offsets(e, cams)
        np.testing.assert_allclose(off.offsets[0], [-1.0, 0.0])
        np.testing.assert_allclose(off.offsets[1], [2.0, 0.0])
        weighted = 2 * np.asarray(off.offsets[0]) + 1 * np.asarray(off.offsets[1])
        np.testing.assert_allclose(weighted, 0.0, atol=1e-9)

    def test_single_camera_zero_offset(self, rng):
        e = rng.standard_normal((5, 3))
        off = camera_offsets(e, np.zeros(5, dtype=int))
        np.testing.assert_allclose(off.offsets[0], 0.0, atol=1e-12)

    def test_weighted_offsets_sum_zero(self, rng):
        e = rng.standard_normal((40, 6))
        cams = rng.integers(0, 5, size=40)
        off = camera_offsets(e, cams)
        total = sum(off.counts[c] * np.asarray(off.offsets[c]) for c in off.offsets)
        np.testing.assert_allclose(total, 0.0, atol=1e-9)

    def test_consistency_score_identity_agnostic(self, rng):
        e, pids, cams, _ = ring_data(rng)
        off = camera_offsets(e, cams, pids)
        assert off.consistency_score <= 1e-6

    def test_consistency_score_person_specific_shifts(self, rng):
        # per-person camera shifts drawn independently break the hypothesis
        n_persons, n_cams, dim = 6, 4, 8
        centroids = rng.standard_normal((n_persons, dim)) * 5
        rows, pids, cams = [], [], []
        for p in range(n_persons):
            for c in range(n_cams):
                shift = rng.standard_normal(dim)
                rows.append(centroids[p] + shift)
                pids.append(p)
                cams.append(c)
        off = camera_offsets(np.array(rows), np.array(cams), np.array(pids))
        assert off.consistency_score >= 0.5

    def test_empty_input(self):
        with pytest.raises(DataError):
            camera_offsets(np.zeros((0, 3)), np.array([]))

    @pytest.mark.parametrize(
        "cams, pids, message",
        [([[0], [1], [0]], None, "camera id"), ([0, 1], None, "camera id"), ([0, 1, 0], [1, 2], "person id")],
    )
    def test_id_counts_must_match_the_rows(self, cams, pids, message):
        with pytest.raises(DataError, match=f"^{message} count != row count$"):
            camera_offsets(np.zeros((3, 2)), cams, pids)

    @pytest.mark.parametrize("with_pids", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_cell_loop(self, rng, dtype, with_pids):
        seen_empty_cell = seen_single_row = False
        for _ in range(40):
            n = int(rng.integers(1, 120))
            # unsorted, non-contiguous ids; few rows per id leave (camera,
            # person) cells empty and some groups with a single row
            cam_ids = rng.choice([40, 7, 2, 11, 0, 3], size=int(rng.integers(1, 7)), replace=False)
            pid_ids = rng.choice(100_000, size=int(rng.integers(1, 40)), replace=False)
            cams, pids = rng.choice(cam_ids, n), rng.choice(pid_ids, n)
            e = (rng.standard_normal((n, int(rng.integers(1, 20)))) * 3 + 40).astype(dtype)
            p = pids if with_pids else None
            got = camera_offsets(e, cams, p).to_dict()
            assert json.dumps(got) == json.dumps(reference_offsets(e, cams, p).to_dict())
            cells = len(set(zip(cams, pids)))
            seen_empty_cell |= cells < len(set(cams)) * len(set(pids))
            seen_single_row |= 1 in np.unique(pids, return_counts=True)[1]
        assert seen_empty_cell and seen_single_row


class TestCameraNormalize:
    def test_zero_offsets_identity(self, rng):
        e = rng.standard_normal((6, 3))
        cams = np.zeros(6, dtype=int)
        off = camera_offsets(e[:1] * 0, np.array([0]))  # zero offsets for camera 0
        np.testing.assert_allclose(camera_normalize(e, off, cams), e)

    def test_hand_example_means_align(self):
        e = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
        cams = np.array([0, 0, 1])
        off = camera_offsets(e, cams)
        out = camera_normalize(e, off, cams)
        np.testing.assert_allclose(out[:2].mean(axis=0), [2.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(out[2], [2.0, 0.0], atol=1e-9)

    def test_idempotent_at_fixed_point(self, rng):
        e, pids, cams, _ = ring_data(rng, noise=0.3)
        off = camera_offsets(e, cams)
        once = camera_normalize(e, off, cams)
        off2 = camera_offsets(once, cams)
        twice = camera_normalize(once, off2, cams)
        np.testing.assert_allclose(twice, once, atol=1e-9)

    def test_per_camera_means_equal_global(self, rng):
        e, _, cams, _ = ring_data(rng, noise=0.5)
        out = camera_normalize(e, camera_offsets(e, cams), cams)
        gm = out.mean(axis=0)
        for c in np.unique(cams):
            np.testing.assert_allclose(out[cams == c].mean(axis=0), gm, atol=1e-9)

    def test_preserves_within_camera_distances(self, rng):
        e, _, cams, _ = ring_data(rng, noise=0.5)
        out = camera_normalize(e, camera_offsets(e, cams), cams)
        idx = np.flatnonzero(cams == 1)
        for i in idx[:3]:
            for j in idx[:3]:
                assert np.linalg.norm(e[i] - e[j]) == pytest.approx(
                    np.linalg.norm(out[i] - out[j]), abs=1e-12
                )

    def test_unknown_camera(self, rng):
        e = rng.standard_normal((3, 2))
        off = camera_offsets(e, np.zeros(3, dtype=int))
        with pytest.raises(DataError, match="camera"):
            camera_normalize(e, off, np.array([0, 0, 7]))


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_row_loop(self, rng, dtype):
        e, pids, cams, _ = ring_data(rng, n_cams=5, noise=0.3)
        e = (e * 7 + 40).astype(dtype)
        off = camera_offsets(e, cams, pids)
        expected = np.asarray(e, dtype=np.float64).copy()
        for i, c in enumerate(cams):
            expected[i] -= off.offsets[int(c)]
        out = camera_normalize(e, off, cams)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, expected)

    def test_unknown_camera_names_first_offending_row(self, rng):
        e = rng.standard_normal((5, 2))
        off = camera_offsets(e[:2], [0, 1])
        with pytest.raises(DataError, match="unknown camera id 9$"):
            camera_normalize(e, off, [0, 9, 1, 4, 9])

    @pytest.mark.parametrize("width", [1, 2])
    def test_offset_dimension_mismatch(self, width):
        # a 1-wide offset used to broadcast over the row and a 2-wide one to
        # escape as numpy's ValueError; the first camera in row order is named
        off = CameraOffsets({0: np.zeros(3), 1: np.zeros(width)}, {0: 2, 1: 2}, 0.0)
        with pytest.raises(DataError, match=rf"^camera 1: offset dimension {width} != embedding dim 3$"):
            camera_normalize(np.ones((4, 3)), off, [1, 0, 1, 0])


class TestCameraResidual:
    def test_zero_params_identity(self, rng):
        e = rng.standard_normal((4, 3))
        params = CameraResidualParams(
            {0: np.zeros((3, 3))}, {0: np.zeros(3)}
        )
        np.testing.assert_allclose(
            apply_camera_residual(e, params, np.zeros(4, dtype=int)), e
        )

    def test_bias_shift_recovered_by_offsets(self, rng):
        e, pids, cams, _ = ring_data(rng, n_cams=3, noise=0.0)
        dim = e.shape[1]
        biases = {c: rng.standard_normal(dim) for c in range(3)}
        params = CameraResidualParams(
            {c: np.zeros((dim, dim)) for c in range(3)}, biases
        )
        shifted = apply_camera_residual(e, params, cams)
        off_before = camera_offsets(e, cams)
        off_after = camera_offsets(shifted, cams)
        counts = np.array([off_after.counts[c] for c in range(3)], dtype=float)
        mean_bias = sum(counts[c] * biases[c] for c in range(3)) / counts.sum()
        for c in range(3):
            np.testing.assert_allclose(
                np.asarray(off_after.offsets[c]) - np.asarray(off_before.offsets[c]),
                biases[c] - mean_bias,
                atol=1e-9,
            )

    def test_general_affine(self, rng):
        e = rng.standard_normal((2, 3))
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal(3)
        params = CameraResidualParams({0: a}, {0: b})
        out = apply_camera_residual(e, params, np.zeros(2, dtype=int))
        np.testing.assert_allclose(out[0], e[0] + a @ e[0] + b, atol=1e-12)

    def test_three_cameras_match_per_row_reference(self, rng):
        dim = 6
        e = rng.standard_normal((40, dim)) * 3
        cams = rng.integers(0, 3, 40)
        params = CameraResidualParams(
            {c: rng.standard_normal((dim, dim)) for c in range(3)},
            {c: rng.standard_normal(dim) for c in range(3)},
        )
        expected = np.array(
            [row + params.matrices[int(c)] @ row + params.biases[int(c)] for row, c in zip(e, cams)]
        )
        np.testing.assert_allclose(apply_camera_residual(e, params, cams), expected, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        params = CameraResidualParams({0: np.zeros((2, 2))}, {0: np.zeros(2)})
        with pytest.raises(DataError, match="dimension"):
            apply_camera_residual(rng.standard_normal((2, 3)), params, [0, 0])

    def test_missing_camera(self, rng):
        params = CameraResidualParams({0: np.zeros((2, 2))}, {0: np.zeros(2)})
        with pytest.raises(DataError, match="camera 1"):
            apply_camera_residual(rng.standard_normal((2, 2)), params, [0, 1])

    def test_params_hold_float64_arrays(self):
        params = CameraResidualParams({3: [[1, 0], [0, 2]]}, {3: [1, -1]})
        for value in (params.matrices[3], params.biases[3]):
            assert type(value) is np.ndarray and value.dtype == np.float64
        np.testing.assert_array_equal(params.matrices[3], [[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(params.biases[3], [1.0, -1.0])

    @pytest.mark.parametrize(
        "matrices,biases,message",
        [
            # each case also breaks every check after the one it names
            ({0: [[1.0, np.nan]], 1: [[1.0]]}, {0: [np.inf]}, "matrix and bias camera ids differ"),
            ({0: [[1.0, np.nan]]}, {0: [0.0, 0.0, np.inf]}, "camera 0: matrix must be square"),
            ({0: [[np.nan]], 1: [[1.0, 2.0]]}, {0: [0.0, np.inf], 1: [0.0]}, "camera 0: bias dimension mismatch"),
            ({0: [[1.0]], 1: [[np.nan]]}, {0: [0.0], 1: [np.inf]}, "camera 1: matrix must be finite"),
            ({0: [[1.0]], 1: [[0.0]]}, {0: [-np.inf], 1: [np.nan]}, "camera 0: bias must be finite"),
        ],
    )
    def test_param_errors_in_order(self, matrices, biases, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            CameraResidualParams(matrices, biases)

    def test_params_file_round_trip(self, tmp_path, rng):
        params = CameraResidualParams(
            {0: rng.standard_normal((2, 2)), 1: rng.standard_normal((2, 2))},
            {0: rng.standard_normal(2), 1: rng.standard_normal(2)},
        )
        path = tmp_path / "params.json"
        doc = {str(c): {"matrix": params.matrices[c].tolist(), "bias": params.biases[c].tolist()} for c in (0, 1)}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        back = load_residual_params(path)
        for c in (0, 1):
            np.testing.assert_allclose(back.matrices[c], params.matrices[c])
            np.testing.assert_allclose(back.biases[c], params.biases[c])

    @pytest.mark.parametrize(
        "keys, message",
        [
            (['"1"', '"01"'], "keys '1' and '01' name one camera"),
            (['"1"', '"1"'], "key '1' written twice"),
            (['"+2"'], "camera id '+2' is not a decimal integer"),
            (['" 3_0"'], "camera id ' 3_0' is not a decimal integer"),
            (['"-1"'], "camera id '-1' is not a decimal integer"),
            (['"\\u0663"'], "camera id '\u0663' is not a decimal integer"),
        ],
    )
    def test_params_file_rejects_camera_keys(self, tmp_path, keys, message):
        # int() reads every one of these keys; with the first two a camera was lost
        path = tmp_path / "params.json"
        entry = '{"matrix": [[0.0]], "bias": [0.0]}'
        path.write_text("{" + ", ".join(f"{k}: {entry}" for k in keys) + "}")
        prefix = f"{path}: malformed residual parameters (ValueError: "
        with pytest.raises(FormatError, match=re.escape(prefix + message + ")")):
            load_residual_params(path)


def reference_normalize(emb, offsets, camids):
    """camera_normalize as a float64 copy of the rows and a masked subtract
    per camera, in order of first appearance."""
    out = np.array(emb, dtype=np.float64)
    camids = np.asarray(camids, dtype=np.int64)
    for c in dict.fromkeys(camids.tolist()):
        if c not in offsets.offsets:
            raise DataError(f"unknown camera id {c}")
        np.subtract(out, offsets.offsets[c], out=out, where=(camids == c)[:, None])
    return out


def reference_residual(emb, params, camids):
    """apply_camera_residual as a new float64 result, one camera's masked
    rows at a time, in order of first appearance."""
    e = np.asarray(emb)
    camids = np.asarray(camids, dtype=np.int64)
    out = np.empty(e.shape, dtype=np.float64)
    for c in dict.fromkeys(camids.tolist()):
        if c not in params.matrices:
            raise DataError(f"no residual parameters for camera {c}")
        x = e[camids == c]
        out[camids == c] = x + x @ params.matrices[c].T + params.biases[c]
    return out


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 60),
    dim=st.integers(1, 40),
    dtype=st.sampled_from([np.float32, np.float64]),
    cams=st.lists(st.integers(0, 50), min_size=1, max_size=6, unique=True),
    unknown=st.lists(st.integers(0, 59), max_size=2, unique=True),
    # block edges inside the rows and blocks of one row, or the default budget
    cells=st.integers(1, 200) | st.just(1 << 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_float32_out_is_the_cast_float64_result(small_tiles, n, dim, dtype, cams, unknown, cells, seed):
    rng = np.random.default_rng(seed)
    e = (rng.standard_normal((n, dim)) * 3 + 40).astype(dtype)
    camids = rng.choice(cams, n)
    # every camera has an offset, also with no rows
    offsets = camera_offsets(np.vstack([e, rng.standard_normal((len(cams), dim))]), [*camids, *cams])
    params = CameraResidualParams(
        {c: 0.1 * rng.standard_normal((dim, dim)) for c in cams},
        {c: rng.standard_normal(dim) for c in cams},
    )
    rows = sorted(i for i in unknown if i < n)
    camids[rows] = [90 + k for k in range(len(rows))]  # unknown cameras 90, 91
    for fn, ref, args in [(camera_normalize, reference_normalize, offsets),
                          (apply_camera_residual, reference_residual, params)]:
        out = np.empty((n, dim), dtype=np.float32)
        with small_tiles(cells):
            if rows:
                # the first offending row's camera is named, as before
                with pytest.raises(DataError, match=r" 90$"):
                    ref(e, args, camids)
                with pytest.raises(DataError, match=r" 90$"):
                    fn(e, args, camids, out=out)
                continue
            got64 = fn(e, args, camids)
            got32 = fn(e, args, camids, out=out)
            # in place, as the CLI runs it on a .remb's float32 rows
            in_place = e.copy()
            fn(in_place, args, camids, out=in_place)
        want = ref(e, args, camids)
        assert got64.dtype == np.float64 and got64.tobytes() == want.tobytes()
        assert got32 is out and out.tobytes() == EmbeddingSet(want).global_.tobytes()
        assert in_place.tobytes() == (out if dtype == np.float32 else got64).tobytes()


@pytest.mark.parametrize("fn", [camera_normalize, apply_camera_residual])
def test_out_of_another_shape_rejected(fn):
    args = {camera_normalize: CameraOffsets({0: np.zeros(2)}, {0: 3}, 0.0),
            apply_camera_residual: CameraResidualParams({0: np.zeros((2, 2))}, {0: np.zeros(2)})}[fn]
    with pytest.raises(ValueError, match=r"^out has shape \(2, 3\), expected \(3, 2\)$"):
        fn(np.ones((3, 2), np.float32), args, [0, 0, 0], out=np.empty((2, 3), np.float32))


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_camera_offsets_peak_is_under_one_feature_copy():
    # rows are gathered as stored (float32) and summed in float64: no float64
    # copy of the features; a copy and one of 2 cameras' gathers was 3.0
    n, dim = 6_000, 512
    e = np.random.default_rng(0).standard_normal((n, dim)).astype(np.float32)
    assert traced_peak(camera_offsets, e, np.arange(n) % 2, np.arange(n) // 8) < 1.0 * e.nbytes


def test_apply_camera_residual_peak_is_under_three_feature_copies():
    # the float64 result (2) and one camera's float64 temporaries; with a
    # float64 copy of the features it was 5.05
    n, dim = 6_000, 512
    rng = np.random.default_rng(0)
    e = rng.standard_normal((n, dim)).astype(np.float32)
    params = CameraResidualParams(
        {c: 0.1 * rng.standard_normal((dim, dim)) for c in range(6)},
        {c: rng.standard_normal(dim) for c in range(6)},
    )
    assert traced_peak(apply_camera_residual, e, params, np.arange(n) % 6) < 3.2 * e.nbytes
