import struct

import numpy as np
import pytest

from reidkit.errors import (
    DataError,
    FormatError,
    MagicError,
    TruncationError,
    VersionError,
)
from reidkit.gallery import (
    EmbeddingSet,
    Role,
    decode_embeddings,
    encode_embeddings,
    load_embeddings,
    load_index,
    save_embeddings,
    save_index,
)
from conftest import build_index


class TestIndexIO:
    def test_round_trip(self, tmp_path):
        index = build_index([(1, 1, "query"), (1, 2, "gallery"), (2, 1, "train")])
        path = tmp_path / "meta.csv"
        save_index(index, path)
        loaded = load_index(path)
        for column in ("person_ids", "camera_ids", "roles", "paths"):
            np.testing.assert_array_equal(getattr(loaded, column), getattr(index, column))

    def test_two_line_file(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text(
            "index,person_id,camera_id,role,path\n"
            "0,1,1,query,a.ppm\n"
            "1,1,2,gallery,b.ppm\n"
        )
        index = load_index(path)
        assert len(index) == 2
        assert index.roles[0] == Role.QUERY
        assert index.camera_ids[1] == 2

    def test_header_only(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("index,person_id,camera_id,role,path\n")
        assert len(load_index(path)) == 0

    def test_bad_camera_id_reports_line(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text(
            "index,person_id,camera_id,role,path\n0,1,oops,query,a.ppm\n"
        )
        with pytest.raises(FormatError, match=":2"):
            load_index(path)

    def test_out_of_order_index(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text(
            "index,person_id,camera_id,role,path\n"
            "0,1,1,query,a.ppm\n"
            "5,1,2,gallery,b.ppm\n"
        )
        with pytest.raises(FormatError, match="out of order"):
            load_index(path)


class TestEmbeddingContainer:
    def test_header_plus_payload_size(self):
        emb = EmbeddingSet(np.zeros((2, 3), dtype=np.float32))
        assert len(encode_embeddings(emb)) == 24 + 24

    def test_empty_set(self):
        emb = EmbeddingSet(np.zeros((0, 5), dtype=np.float32))
        assert len(encode_embeddings(emb)) == 24

    def test_nan_rejected_with_position(self):
        g = np.zeros((2, 3), dtype=np.float32)
        g[0, 1] = np.nan
        with pytest.raises(DataError, match=r"\(0, 1\)"):
            encode_embeddings(EmbeddingSet(g))

    def test_round_trip_bit_exact(self, rng):
        g = rng.standard_normal((7, 16)).astype(np.float32)
        l = rng.standard_normal((7, 8, 4)).astype(np.float32)
        emb = EmbeddingSet(g, l)
        back = decode_embeddings(encode_embeddings(emb))
        assert back.global_.tobytes() == g.tobytes()
        assert back.local.tobytes() == l.tobytes()

    def test_encode_of_decode_identity(self, rng):
        emb = EmbeddingSet(rng.standard_normal((3, 5)).astype(np.float32))
        data = encode_embeddings(emb)
        assert encode_embeddings(decode_embeddings(data)) == data

    def test_wrong_magic(self):
        data = b"XXXX" + b"\0" * 20
        with pytest.raises(MagicError):
            decode_embeddings(data)

    def test_unknown_version(self):
        data = encode_embeddings(EmbeddingSet(np.zeros((1, 1), dtype=np.float32)))
        data = data[:4] + b"\x09\0\0\0" + data[8:]
        with pytest.raises(VersionError):
            decode_embeddings(data)

    def test_truncated_payload(self):
        data = encode_embeddings(EmbeddingSet(np.zeros((2, 3), dtype=np.float32)))
        with pytest.raises(TruncationError, match="expected 48.*got 44"):
            decode_embeddings(data[:-4])

    def test_file_round_trip(self, tmp_path, rng):
        emb = EmbeddingSet(rng.standard_normal((4, 6)).astype(np.float32))
        path = tmp_path / "e.remb"
        save_embeddings(emb, path)
        assert np.array_equal(load_embeddings(path).global_, emb.global_)

    def test_load_decodes_views_of_one_writable_buffer(self, tmp_path, rng):
        emb = EmbeddingSet(
            rng.standard_normal((5, 6)).astype(np.float32),
            rng.standard_normal((5, 2, 3)).astype(np.float32),
        )
        path = tmp_path / "e.remb"
        save_embeddings(emb, path)
        back = load_embeddings(path)
        assert back.global_.tobytes() == emb.global_.tobytes()
        assert back.local.tobytes() == emb.local.tobytes()
        assert back.global_.base is not None and back.global_.flags.writeable
        assert back.local.flags.writeable

    def test_decode_of_bytes_owns_its_arrays(self, rng):
        emb = EmbeddingSet(
            rng.standard_normal((3, 4)).astype(np.float32),
            rng.standard_normal((3, 2, 2)).astype(np.float32),
        )
        back = decode_embeddings(bytes(encode_embeddings(emb)))
        for arr in (back.global_, back.local):
            assert arr.flags.owndata and arr.flags.writeable

    @pytest.mark.parametrize(
        "cut, message",
        [(-4, r"^payload length mismatch: expected 48 bytes, got 44$"),
         (-30, r"^header truncated: expected at least 24 bytes, got 18$")],
    )
    def test_load_of_truncated_file(self, tmp_path, cut, message):
        data = encode_embeddings(EmbeddingSet(np.zeros((2, 3), dtype=np.float32)))
        path = tmp_path / "e.remb"
        path.write_bytes(bytes(data[:cut]))
        with pytest.raises(TruncationError, match=message):
            load_embeddings(path)


def reference_container(magic, main, local=None):
    """The container layout spelled out: header, then each array as
    contiguous little-endian float32."""
    n, d = main.shape
    s, dl = (0, 0) if local is None else local.shape[1:]
    parts = [struct.pack("<4s5I", magic, 1, n, d, s, dl)]
    parts += [np.ascontiguousarray(a, "<f4").tobytes() for a in (main, local) if a is not None]
    return b"".join(parts)


class TestContainerLayout:
    @pytest.mark.parametrize("n", [0, 1, 7])
    @pytest.mark.parametrize("with_local", [False, True])
    def test_bytes_match_reference_layout(self, rng, n, with_local):
        g = rng.standard_normal((n, 5)).astype(np.float32)
        g[:, 0] = -0.0
        g[:, 1] = np.float32(1e-42)  # subnormal
        local = rng.standard_normal((n, 3, 4)).astype(np.float32) if with_local else None
        emb = EmbeddingSet(np.asfortranarray(g), local)
        assert encode_embeddings(emb) == reference_container(b"REMB", g, local)

    def test_non_finite_local_named_by_cell(self):
        local = np.zeros((2, 3, 4), dtype=np.float32)
        local[1, 2, 3] = -np.inf
        with pytest.raises(DataError, match=r"^non-finite local value at \(1, 2, 3\)$"):
            encode_embeddings(EmbeddingSet(np.zeros((2, 2), dtype=np.float32), local))

    def test_decode_rejects_non_finite_named_by_cell(self):
        # the reader runs the writer's check: global before local
        g, local = np.zeros((2, 2), np.float32), np.zeros((2, 2, 1), np.float32)
        local[0, 1, 0] = np.nan
        with pytest.raises(DataError, match=r"^non-finite local value at \(0, 1, 0\)$"):
            decode_embeddings(reference_container(b"REMB", g, local))
        g[1, 0] = np.inf
        with pytest.raises(DataError, match=r"^non-finite value at \(1, 0\)$"):
            decode_embeddings(reference_container(b"REMB", g, local))

    def test_global_error_reported_before_local(self):
        g = np.zeros((2, 2), dtype=np.float32)
        g[1, 0] = np.nan
        local = np.full((2, 1, 1), np.nan, dtype=np.float32)
        with pytest.raises(DataError, match=r"^non-finite value at \(1, 0\)$"):
            encode_embeddings(EmbeddingSet(g, local))


class TestEmbeddingSetInvariants:
    def test_local_row_count_must_match(self):
        with pytest.raises(DataError):
            EmbeddingSet(np.zeros((2, 3)), np.zeros((3, 2, 2)))

    def test_degenerate_local_rejected(self):
        with pytest.raises(DataError):
            EmbeddingSet(np.zeros((2, 3)), np.zeros((2, 0, 2)))
