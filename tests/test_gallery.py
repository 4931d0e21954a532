import csv
import io
import math
import os
import stat
import struct
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reidkit import gallery
from reidkit.errors import (
    DataError,
    FormatError,
    MagicError,
    TruncationError,
    VersionError,
)
from reidkit.gallery import (
    METADATA_HEADER,
    EmbeddingSet,
    GalleryIndex,
    Role,
    decode_embeddings,
    encode_embeddings,
    load_embeddings,
    load_index,
    save_embeddings,
)
from conftest import build_index


class TestIndexIO:
    def test_round_trip(self, tmp_path):
        index = build_index([(1, 1, "query"), (1, 2, "gallery"), (2, 1, "train")])
        path = tmp_path / "meta.csv"
        path.write_text(
            "index,person_id,camera_id,role,path\n"
            "0,1,1,query,0001_c1_000.ppm\n"
            "1,1,2,gallery,0001_c2_001.ppm\n"
            "2,2,1,train,0002_c1_002.ppm\n"
        )
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


def reference_load_index(metadata_file) -> GalleryIndex:
    """load_index as one loop over the rows, checking and converting each
    in turn: the reader the column-wise load_index must agree with."""
    try:
        with open(metadata_file, newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as e:
        raise FormatError(
            f"{metadata_file}: malformed metadata CSV ({type(e).__name__}: {e})"
        ) from None
    if not rows:
        raise FormatError(f"{metadata_file}: empty file, header line required")
    if [h.strip() for h in rows[0]] != METADATA_HEADER:
        raise FormatError(
            f"{metadata_file}: bad header {rows[0]!r}, "
            f"expected {','.join(METADATA_HEADER)}"
        )
    entries = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 5:
            raise FormatError(f"{metadata_file}:{lineno}: expected 5 fields, got {len(row)}")
        idx_s, pid_s, cam_s, role_s, path = map(str.strip, row)
        ids = idx_s + pid_s + cam_s
        try:
            # int() would also read "+3", "1_000" and non-ASCII digits
            if "+" in ids or "_" in ids or not ids.isascii():
                raise ValueError
            idx, pid, cam = int(idx_s), int(pid_s), int(cam_s)
        except ValueError:
            raise FormatError(
                f"{metadata_file}:{lineno}: index, person_id and camera_id must be "
                f"decimal integers, got {idx_s!r}, {pid_s!r}, {cam_s!r}"
            ) from None
        if idx != len(entries):
            fault = f"index {idx} out of order, expected {len(entries)}"
        elif role_s not in {"query", "gallery", "train"}:
            fault = f"unknown role {role_s!r}"
        elif pid < 0 or cam < 0:
            fault = "person_id and camera_id must be non-negative"
        elif pid >= 2**63 or cam >= 2**63:
            fault = "person_id and camera_id must be below 2^63 (int64)"
        elif not path:
            fault = "path must be non-empty"
        else:
            entries.append((pid, cam, role_s, path))
            continue
        raise FormatError(f"{metadata_file}:{lineno}: {fault}")
    return GalleryIndex(*zip(*entries)) if entries else GalleryIndex((), (), (), ())


# Accepted spellings of each field, and spellings that break a rule.
INDEX_OK = ["{k}", " {k} ", "0{k}", "{m}"]  # m: -0 on the first row
ID_OK = ["{v}", " {v} ", "\t{v}", "00{v}", "-0", "0" * 40 + "{v}", str(2**63 - 1)]
ROLE_OK = ["query", "gallery", "train", " gallery ", "\ttrain"]
PATH_OK = ["a.ppm", "dir,with,commas.ppm", ' b "x".ppm ', "é.ppm", "\u3000c.ppm"]
ID_BAD = ["-3", "+{v}", "1_000", "{v}٣", "٣", "", "-", "1 2", str(2**63), "9" * 4301, "0" * 4300 + "7"]
BAD = [["{k1}", "+{k}", "{k}_0", "", "٣"], ID_BAD, ID_BAD, ["Query", "probe", ""], ["", "  ", "\u3000"]]


@st.composite
def metadata_rows(draw):
    """Rows of a metadata CSV, each a list of fields: accepted spellings of
    every field, blank rows, and up to three faults on rows drawn at random
    (a field spelt to break a rule, or a row of 4 or 6 fields)."""
    rows = []
    for k in range(draw(st.integers(0, 10))):
        v = draw(st.integers(0, 3))
        spell = lambda spellings: draw(st.sampled_from(spellings)).format(k=k, m=k or "-0", v=v)  # noqa: E731
        rows.append([spell(INDEX_OK), spell(ID_OK), spell(ID_OK), spell(ROLE_OK), spell(PATH_OK)])
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        k, field = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 5))
        if field == 5:
            rows[k][4:] = ["a.ppm", "extra"][: draw(st.sampled_from([0, 2]))]
        elif field < len(rows[k]):
            rows[k][field] = draw(st.sampled_from(BAD[field])).format(k=k, k1=k + 1, v=1)
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [])
    return rows


def _outcome(load, path):
    """load(path)'s columns with their dtypes, or its exception's class and
    message."""
    try:
        index = load(path)
    except Exception as e:  # compared with the reference's, whatever they are
        return type(e), str(e)
    return [(a.dtype, a.tolist()) for a in (index.person_ids, index.camera_ids, index.roles)] + [index.paths]


class TestIndexColumns:
    """load_index checks and converts whole columns; on a fault it bisects
    for the shortest failing prefix, whose last row is the first faulty row.
    It must agree with reference_load_index."""

    @pytest.fixture(scope="class")
    def csv_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("index") / "meta.csv"

    @settings(max_examples=400, deadline=None)
    @given(rows=metadata_rows())
    @example(rows=[["0", str(2**63 - 1), "0", "query", "a"], ["1", "1", str(2**63), "query", "a"]])
    @example(rows=[["0", "-0", "007", " train ", '"q"'], [], ["1", "1", "2", "gallery", "a,b"]])
    @example(rows=[["0", "1", "0", "query", "a"], [], ["1", "1", "0", "probe", "a"]])
    @example(rows=[["5", "1", "0", "query", "a"], ["1", "1", "0", "query", "a"]])
    @example(rows=[["0", "1", "0", "query", ""], ["1", "1", "0", "query"]])
    @example(rows=[["0", str(2**63), "0", "probe", "a"]])
    def test_agrees_with_the_row_loop(self, csv_path, rows):
        buf = io.StringIO()
        csv.writer(buf).writerows([METADATA_HEADER] + rows)
        csv_path.write_text(buf.getvalue())
        expected = _outcome(reference_load_index, csv_path)
        with mock.patch.object(gallery, "_index_columns", wraps=gallery._index_columns) as columns:
            assert _outcome(load_index, csv_path) == expected
        if isinstance(expected, list):
            assert columns.call_count == 1  # an accepted file takes one column pass

    def test_accepted_spellings_give_the_same_columns(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text(
            "index,person_id,camera_id,role,path\n"
            "\n"
            ' 0 ,007,-0,"gallery"," x,y.ppm "\n'
            f"1,{2**63 - 1},3, train ,b.ppm\n"
        )
        index = load_index(path)
        assert index.person_ids.dtype == np.int64 and index.person_ids.tolist() == [7, 2**63 - 1]
        assert index.camera_ids.tolist() == [0, 3]
        assert index.roles.dtype == np.dtype("<U7") and index.roles.tolist() == ["gallery", "train"]
        assert index.paths == ("x,y.ppm", "b.ppm")

    @pytest.mark.parametrize(
        "row, fault",
        [("1,+3,0,query,a", "index, person_id and camera_id must be decimal integers, got '1', '+3', '0'"),
         ("1,1_000,0,query,a", "must be decimal integers"),
         ("1,٣,0,query,a", "must be decimal integers"),
         (f"1,{'9' * 4301},0,query,a", "must be decimal integers"),
         (f"1,{2**63},0,query,a", "person_id and camera_id must be below 2^63 (int64)"),
         ("1,-3,0,query,a", "person_id and camera_id must be non-negative"),
         ("1,1,0,probe,a", "unknown role 'probe'"),
         ("1,1,0,query,  ", "path must be non-empty"),
         ("2,1,0,query,a", "index 2 out of order, expected 1"),
         ("1,1,0,query", "expected 5 fields, got 4"),
         ("1,1,0,query,a,b", "expected 5 fields, got 6"),
         ("x,1,0,query", "expected 5 fields, got 4"),
         ("5,x,0,query,a", "must be decimal integers"),
         ("5,1,0,probe,a", "index 5 out of order, expected 1"),
         (f"1,-3,{2**63},probe,a", "unknown role 'probe'"),
         (f"1,-3,{2**63},query,", "person_id and camera_id must be non-negative"),
         (f"1,1,{2**63},query,", "person_id and camera_id must be below 2^63 (int64)")],
    )
    def test_first_faulty_row_named(self, tmp_path, row, fault):
        # the faulty row is the third line; a later row breaks another rule.
        # A row that breaks two rules is named by the first in the loop's order.
        path = tmp_path / "meta.csv"
        path.write_text(f"index,person_id,camera_id,role,path\n0,1,0,query,a\n{row}\n2,x,0,query,a\n")
        with pytest.raises(FormatError) as err:
            load_index(path)
        assert str(err.value).startswith(f"{path}:3: ") and fault in str(err.value)

    def test_fault_located_in_logarithmic_passes(self, tmp_path):
        n = 16_384
        path = tmp_path / "meta.csv"
        path.write_text(
            "index,person_id,camera_id,role,path\n"
            + "".join(f"{k},{k % 750},{k % 6},gallery,{k}.ppm\n" for k in range(n - 1))
            + f"{n - 1},1,1,probe,x.ppm\n"
        )
        with mock.patch.object(gallery, "_index_columns", wraps=gallery._index_columns) as columns:
            with pytest.raises(FormatError) as err:
                load_index(path)
        assert str(err.value) == f"{path}:{n + 1}: unknown role 'probe'"
        assert columns.call_count <= math.ceil(math.log2(n)) + 2


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

    def test_decode_returns_views_of_its_input(self, rng):
        emb = EmbeddingSet(
            rng.standard_normal((3, 4)).astype(np.float32),
            rng.standard_normal((3, 2, 2)).astype(np.float32),
        )
        data = bytes(encode_embeddings(emb))
        back = decode_embeddings(data)
        for arr in (back.global_, back.local):
            assert not arr.flags.owndata and not arr.flags.writeable
        assert back.global_.tobytes() == emb.global_.tobytes()
        assert back.local.tobytes() == emb.local.tobytes()
        # a writable buffer gives writable views of that same memory
        buf = encode_embeddings(emb)
        back = decode_embeddings(buf)
        back.global_[0, 0] = 7.0
        assert decode_embeddings(buf).global_[0, 0] == 7.0

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

    @staticmethod
    def _fstat_reporting(monkeypatch, size_of):
        """Make os.fstat report st_size = size_of(real size), as a FIFO (0) or
        a file read while it is still being written does."""
        real_fstat = gallery.os.fstat

        def fstat(fd):
            st = real_fstat(fd)
            return os.stat_result((*st[:6], size_of(st.st_size), *st[7:]))

        monkeypatch.setattr(gallery.os, "fstat", fstat)

    @pytest.mark.parametrize("size_of", [lambda n: 0, lambda n: n // 2], ids=["zero", "half"])
    def test_load_reads_past_the_fstat_size(self, tmp_path, rng, monkeypatch, size_of):
        emb = EmbeddingSet(
            rng.standard_normal((5, 6)).astype(np.float32),
            rng.standard_normal((5, 2, 3)).astype(np.float32),
        )
        path = tmp_path / "e.remb"
        save_embeddings(emb, path)
        plain = load_embeddings(path)
        self._fstat_reporting(monkeypatch, size_of)
        back = load_embeddings(path)
        assert back.global_.tobytes() == plain.global_.tobytes()
        assert back.local.tobytes() == plain.local.tobytes()

    def test_load_of_file_grown_after_fstat(self, tmp_path, monkeypatch):
        data = encode_embeddings(EmbeddingSet(np.zeros((2, 3), dtype=np.float32)))
        path = tmp_path / "e.remb"
        path.write_bytes(bytes(data) + b"\0" * 4)
        # fstat saw the file before its last 4 bytes were written
        self._fstat_reporting(monkeypatch, lambda n: n - 4)
        with pytest.raises(TruncationError, match=r"^payload length mismatch: expected 48 bytes, got 52$"):
            load_embeddings(path)


class _TrickleFile:
    """An open file whose readinto returns at most step bytes per call, as a
    pipe or a network file system may."""

    def __init__(self, fh, step):
        self.fh, self.step = fh, step

    def readinto(self, b):
        return self.fh.readinto(memoryview(b)[: self.step])

    def __getattr__(self, name):  # read, fileno
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestChunkedLoad:
    """load_embeddings reads a container a chunk at a time and checks each
    chunk's whole float32 values as they arrive; a non-finite value must
    still be named as decode_embeddings names it, after the length check."""

    @staticmethod
    def _data(rng):
        emb = EmbeddingSet(
            rng.standard_normal((3, 5)).astype(np.float32),
            rng.standard_normal((3, 2, 3)).astype(np.float32),
        )
        return bytes(encode_embeddings(emb)), emb.global_.size, emb.global_.size + emb.local.size

    @staticmethod
    def _with_value(data, i, value) -> bytes:
        buf = bytearray(data)
        struct.pack_into("<f", buf, 24 + 4 * i, value)
        return bytes(buf)

    @pytest.mark.parametrize("chunk", [16, 20, 6])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_value_named_at_every_position(self, tmp_path, rng, monkeypatch, chunk, bad):
        # every value, so the first and the last of each chunk, in main and in local
        monkeypatch.setattr(gallery, "_READ_CHUNK", chunk)
        data, n_main, n_values = self._data(rng)
        path = tmp_path / "e.remb"
        for i in range(n_values):
            path.write_bytes(self._with_value(data, i, bad))
            with pytest.raises(DataError) as want:
                decode_embeddings(path.read_bytes())
            with pytest.raises(DataError) as got:
                load_embeddings(path)
            assert str(got.value) == str(want.value)
            assert str(got.value).startswith("non-finite local value" if i >= n_main else "non-finite value")

    def test_a_non_finite_file_is_named_by_decode_embeddings(self, tmp_path, rng, monkeypatch):
        # the chunk check decides; the bytes-whole decoder alone names the cell
        calls = []

        def decode(buf):
            calls.append(len(buf))
            return decode_embeddings(buf)

        monkeypatch.setattr(gallery, "decode_embeddings", decode)
        data, _, _ = self._data(rng)
        path = tmp_path / "e.remb"
        path.write_bytes(data)
        assert load_embeddings(path).global_.tobytes() == decode_embeddings(data).global_.tobytes()
        assert calls == []
        path.write_bytes(self._with_value(data, 7, np.nan))
        with pytest.raises(DataError, match=r"^non-finite value at \(1, 2\)$"):
            load_embeddings(path)
        assert calls == [len(data)]

    @pytest.mark.parametrize("cut", [-4, -1, 3], ids=["short", "short-by-a-byte", "long"])
    def test_truncation_reported_before_non_finite(self, tmp_path, rng, cut):
        data, _, _ = self._data(rng)
        data = self._with_value(data, 0, np.nan)
        path = tmp_path / "e.remb"
        path.write_bytes(data[:cut] if cut < 0 else data + b"\0" * cut)
        with pytest.raises(TruncationError, match="^payload length mismatch"):
            load_embeddings(path)

    @pytest.mark.parametrize("step", [1, 3, 5, 7, 4097])
    def test_short_reads_give_the_same_arrays(self, tmp_path, rng, monkeypatch, step):
        monkeypatch.setattr(gallery, "_READ_CHUNK", 64)
        data, n_main, _ = self._data(rng)
        path = tmp_path / "e.remb"
        path.write_bytes(data)
        plain = load_embeddings(path)
        monkeypatch.setattr(gallery, "open", lambda p, mode: _TrickleFile(open(p, mode), step), raising=False)
        back = load_embeddings(path)
        assert back.global_.tobytes() == plain.global_.tobytes()
        assert back.local.tobytes() == plain.local.tobytes()
        path.write_bytes(self._with_value(data, n_main + 1, np.inf))
        with pytest.raises(DataError, match=r"^non-finite local value at \(0, 0, 1\)$"):
            load_embeddings(path)

    @pytest.mark.parametrize("size_of", [lambda n: 0, lambda n: n // 2], ids=["zero", "half"])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_bytes_past_the_fstat_size_are_checked(self, tmp_path, rng, monkeypatch, size_of, where):
        # the value lies in what the read past fstat's size returns
        data, _, n_values = self._data(rng)
        i = n_values - 1 if where == "last" else (len(data) // 2 - 24) // 4 + 1
        path = tmp_path / "e.remb"
        path.write_bytes(self._with_value(data, i, np.nan))
        TestEmbeddingContainer._fstat_reporting(monkeypatch, size_of)
        with pytest.raises(DataError) as got:
            load_embeddings(path)
        with pytest.raises(DataError) as want:
            decode_embeddings(path.read_bytes())
        assert str(got.value) == str(want.value)

    def test_peak_memory_is_the_file(self, tmp_path, rng):
        path = tmp_path / "e.remb"
        save_embeddings(EmbeddingSet(rng.standard_normal((2048, 1024)).astype(np.float32)), path)
        tracemalloc.start()
        try:
            back = load_embeddings(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.n == 2048
        assert peak <= 1.05 * os.path.getsize(path)


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

    @pytest.mark.parametrize(
        "main_shape, local_shape, field",
        [((2**32, 0), None, "N"), ((0, 2**32), None, "D"),
         ((0, 1), (0, 2**32, 1), "S"), ((0, 1), (0, 1, 2**33), "Dl")],
    )
    def test_size_beyond_u32_header_rejected(self, main_shape, local_shape, field):
        # zero-size arrays: no test allocates the sizes it names
        local = None if local_shape is None else np.zeros(local_shape, np.float32)
        size = max(main_shape + (local_shape or ()))
        with pytest.raises(DataError, match=rf"^{field} = {size} does not fit the container header's u32 field$"):
            encode_embeddings(EmbeddingSet(np.zeros(main_shape, np.float32), local))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "local, message",
        [(None, r"^non-finite value at \(0, 1\)$"),
         (np.array([[[0.0, 1e300]]]), r"^non-finite local value at \(0, 0, 1\)$")],
        ids=["global", "local"],
    )
    def test_float64_beyond_float32_named_without_a_numpy_warning(self, tmp_path, local, message):
        g = np.array([[0.0, 1e300 if local is None else 0.0]])
        with pytest.raises(DataError, match=message):
            save_embeddings(EmbeddingSet(g, local), tmp_path / "e.remb")
        assert not (tmp_path / "e.remb").exists()

    def test_global_error_reported_before_local(self):
        g = np.zeros((2, 2), dtype=np.float32)
        g[1, 0] = np.nan
        local = np.full((2, 1, 1), np.nan, dtype=np.float32)
        with pytest.raises(DataError, match=r"^non-finite value at \(1, 0\)$"):
            encode_embeddings(EmbeddingSet(g, local))


class TestWriteFile:
    def test_parts_of_any_iterable_written_in_order(self, tmp_path):
        out = tmp_path / "f"
        gallery._write_file(out, (p for p in (b"ab", bytearray(b"cd"), np.arange(2, dtype="<u2"))))
        assert out.read_bytes() == b"abcd\x00\x00\x01\x00"
        assert os.listdir(tmp_path) == ["f"]

    def test_parts_go_to_a_temporary_file_beside_the_target(self, tmp_path):
        seen = []

        def parts():
            yield b"a"
            seen.extend(os.listdir(tmp_path))
            yield b"b"

        (tmp_path / "f").write_bytes(b"old")
        gallery._write_file(tmp_path / "f", parts())
        assert sorted(seen) == [f".f.tmp-{os.getpid()}", "f"]
        assert (tmp_path / "f").read_bytes() == b"ab"

    @pytest.mark.parametrize("old", [None, b"old bytes"], ids=["absent", "existing"])
    def test_a_part_that_raises_leaves_the_old_file_and_no_temporary(self, tmp_path, old):
        def parts():
            yield b"new"
            raise DataError("late block")

        out = tmp_path / "f"
        if old is not None:
            out.write_bytes(old)
        with pytest.raises(DataError, match="late block"):
            gallery._write_file(out, parts())
        assert os.listdir(tmp_path) == ([] if old is None else ["f"])
        assert old is None or out.read_bytes() == old

    def test_a_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        gallery._write_file(fifo, [b"ab", b"cd"])
        reader.join(10)
        assert got == [b"abcd"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    def test_a_pipe_named_through_a_magic_link_is_written_in_place(self):
        # /dev/fd/N, as /dev/stdout, resolves to no path: the stat goes through the link
        r, w = os.pipe()
        try:
            gallery._write_file(f"/dev/fd/{w}", [b"ab", b"cd"])
            assert os.read(r, 16) == b"abcd"
        finally:
            os.close(r)
            os.close(w)

    def test_a_hard_linked_file_is_written_in_place(self, tmp_path):
        # every name of the file reads the new bytes, and it keeps its mode
        out, other = tmp_path / "f", tmp_path / "g"
        out.write_bytes(b"old")
        out.chmod(0o604)
        os.link(out, other)
        gallery._write_file(out, [b"ne", b"w"])
        assert out.read_bytes() == other.read_bytes() == b"new"
        assert os.stat(out).st_nlink == 2
        assert os.stat(out).st_mode & 0o777 == 0o604
        assert sorted(os.listdir(tmp_path)) == ["f", "g"]


class TestEmbeddingSetInvariants:
    def test_local_row_count_must_match(self):
        with pytest.raises(DataError):
            EmbeddingSet(np.zeros((2, 3)), np.zeros((3, 2, 2)))

    def test_degenerate_local_rejected(self):
        with pytest.raises(DataError):
            EmbeddingSet(np.zeros((2, 3)), np.zeros((2, 0, 2)))

    @pytest.mark.parametrize(
        "main, local, message",
        [((6,), None, "global features must be an N x D matrix"),
         ((2, 3), (2, 3), "local features must be an N x S x Dl tensor")],
    )
    def test_feature_arrays_of_the_wrong_rank_rejected(self, main, local, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            EmbeddingSet(np.zeros(main), None if local is None else np.zeros(local))
