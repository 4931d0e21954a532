"""Identity/camera/image data model and binary persistence of embedding sets.

The embedding container is a little-endian binary format:

    magic (4 bytes) | version u32 | N u32 | D u32 | S u32 | Dl u32
    N*D float32 (row-major) | N*S*Dl float32 (row, stripe, dim)

S = Dl = 0 means no local stripe features.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Optional

import numpy as np

from .errors import DataError, FormatError, MagicError, TruncationError, VersionError

EMBEDDING_MAGIC = b"REMB"
CONTAINER_VERSION = 1
_HEADER = struct.Struct("<4s5I")
_READ_CHUNK = 1 << 20  # bytes per read of a container: each chunk is checked while in cache

METADATA_HEADER = ["index", "person_id", "camera_id", "role", "path"]


class Role(str, Enum):
    QUERY = "query"
    GALLERY = "gallery"
    TRAIN = "train"

    def __str__(self):  # numpy reads a str subclass through str()
        return self.value


_ROLE_VALUES = frozenset(r.value for r in Role)


@dataclass(frozen=True, eq=False)
class GalleryIndex:
    """Row-aligned columns of an index; row order is the canonical row order
    of any aligned EmbeddingSet. load_index checks every row; an index built
    in code has its columns coerced, not checked."""

    person_ids: np.ndarray
    camera_ids: np.ndarray
    roles: np.ndarray
    paths: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "person_ids", np.asarray(self.person_ids, dtype=np.int64))
        object.__setattr__(self, "camera_ids", np.asarray(self.camera_ids, dtype=np.int64))
        object.__setattr__(self, "roles", np.asarray(self.roles, dtype=str))
        object.__setattr__(self, "paths", tuple(self.paths))

    def __len__(self):
        return len(self.paths)


@dataclass(frozen=True)
class EmbeddingSet:
    """N x D global feature matrix, optionally with N x S x Dl local
    stripe features, row-aligned with a GalleryIndex."""

    global_: np.ndarray
    local: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        g = np.asarray(self.global_, dtype=np.float32)
        object.__setattr__(self, "global_", g)
        if g.ndim != 2:
            raise DataError("global features must be an N x D matrix")
        if self.local is not None:
            l = np.asarray(self.local, dtype=np.float32)
            object.__setattr__(self, "local", l)
            if l.ndim != 3:
                raise DataError("local features must be an N x S x Dl tensor")
            if l.shape[0] != g.shape[0]:
                raise DataError(
                    f"local row count {l.shape[0]} != global row count {g.shape[0]}"
                )
            if l.shape[1] < 1 or l.shape[2] < 1:
                raise DataError("local features need S >= 1 and Dl >= 1")

    @property
    def n(self) -> int:
        return self.global_.shape[0]


def _groups(*keys):
    """(key values, row indices) per group of equal keys, ascending with the last
    key primary: slices of one stable np.lexsort, so rows stay in index order."""
    order = np.lexsort(keys)
    if not order.size:
        return
    edge = np.any([k[order[1:]] != k[order[:-1]] for k in keys], axis=0)
    bounds = np.flatnonzero(np.r_[True, edge, True])
    for start, stop in zip(bounds[:-1], bounds[1:]):
        yield tuple(k[order[start]] for k in keys), order[start:stop]


def _object_once(pairs) -> dict:
    """A JSON object as a dict; json.load would keep the last of a repeated key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} written twice")
        doc[key] = value
    return doc


def load_index(metadata_file) -> GalleryIndex:
    """Read a GalleryIndex from the comma-separated metadata format.

    Expected header: ``index,person_id,camera_id,role,path``. Row index
    must equal line order (0-based) so embeddings stay row-aligned.
    """
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
    index = _index_columns(rows[1:])
    if index is None:
        raise FormatError(_first_row_fault(metadata_file, rows))
    return index


def _index_columns(body: list) -> Optional[GalleryIndex]:
    """The index of the rows body, checked and converted a column at a time
    by the rules of _first_row_fault; None when a rule fails anywhere, so
    that _first_row_fault names the first faulty row."""
    if not set(map(len, body)) <= {0, 5}:  # a blank line is a row of no fields
        return None
    fields = list(chain.from_iterable(body))
    if not fields:
        return GalleryIndex((), (), (), ())
    idx_s, paths = (list(map(str.strip, fields[k::5])) for k in (0, 4))
    try:
        if not _is_decimal("".join(idx_s)) or list(map(int, idx_s)) != list(range(len(idx_s))):
            return None
        # ids and roles repeat: each distinct field is checked and converted once
        pid, cam, roles = (
            _by_distinct(fields[k::5], read) for k, read in ((1, _id), (2, _id), (3, _role))
        )
    except ValueError:
        return None
    return GalleryIndex(pid, cam, roles, paths) if all(paths) else None


def _by_distinct(col: list, read) -> np.ndarray:
    """read(field) for each field of col, called once per distinct field."""
    position = {field: i for i, field in enumerate(dict.fromkeys(col))}
    codes = np.fromiter(map(position.__getitem__, col), np.intp, len(col))
    return np.array(list(map(read, position)))[codes]


def _id(field: str) -> int:
    """A person or camera id field as its int; ValueError if
    _first_row_fault would name it. The range is checked on the Python int:
    np.array of 2^63 or more is not int64."""
    if _is_decimal(field := field.strip()) and 0 <= (value := int(field)) < 2**63:
        return value
    raise ValueError


def _role(field: str) -> str:
    """A role field, stripped; ValueError if it is unknown."""
    if (field := field.strip()) not in _ROLE_VALUES:
        raise ValueError
    return field


def _is_decimal(ids: str) -> bool:
    """Whether ids holds nothing that int() reads beyond ASCII digits and
    "-": int() would also read "+3", "1_000" and non-ASCII digits."""
    return "+" not in ids and "_" not in ids and ids.isascii()


def _first_row_fault(metadata_file, rows: list) -> str:
    """The message naming the first faulty row of a parsed metadata CSV and
    its fault, by the rules that _index_columns applies a column at a time;
    load_index asks for it only when a column check has failed."""
    expected = 0
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 5:
            return f"{metadata_file}:{lineno}: expected 5 fields, got {len(row)}"
        idx_s, pid_s, cam_s, role_s, path = map(str.strip, row)
        try:
            if not _is_decimal(idx_s + pid_s + cam_s):
                raise ValueError
            idx, pid, cam = int(idx_s), int(pid_s), int(cam_s)
        except ValueError:
            return (
                f"{metadata_file}:{lineno}: index, person_id and camera_id must be "
                f"decimal integers, got {idx_s!r}, {pid_s!r}, {cam_s!r}"
            )
        if idx != expected:
            fault = f"index {idx} out of order, expected {expected}"
        elif role_s not in _ROLE_VALUES:
            fault = f"unknown role {role_s!r}"
        elif pid < 0 or cam < 0:
            fault = "person_id and camera_id must be non-negative"
        elif pid >= 2**63 or cam >= 2**63:
            fault = "person_id and camera_id must be below 2^63 (int64)"
        elif not path:
            fault = "path must be non-empty"
        else:
            expected += 1
            continue
        return f"{metadata_file}:{lineno}: {fault}"


def _payload_views(buf, n: int, d: int, s: int, dl: int):
    """(main, local) float32 views of a container's payload; no local if S or Dl is 0."""
    main = np.frombuffer(buf, "<f4", n * d, _HEADER.size).reshape(n, d)
    local = np.frombuffer(buf, "<f4", n * s * dl, _HEADER.size + 4 * n * d).reshape(n, s, dl)
    return main, local if s and dl else None


def _finite(arr: np.ndarray) -> bool:
    """Whether every value of arr is finite, by one min and one max: NaN
    propagates through both."""
    return not arr.size or bool(np.isfinite([arr.min(), arr.max()]).all())


def _check_finite(main: np.ndarray, local: Optional[np.ndarray]) -> None:
    """Reject a non-finite payload value, naming its cell: two reductions per
    array, and a mask only on failure."""
    for arr, what in ((main, "value"), (local, "local value")):
        if arr is not None and not _finite(arr):
            cell = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
            raise DataError(f"non-finite {what} at {cell}")


def _container_sizes(main: np.ndarray, local: Optional[np.ndarray]) -> tuple[int, int, int, int]:
    """N, D, S, Dl of a container's header, each checked to fit its u32 field."""
    n, d = main.shape
    s, dl = (0, 0) if local is None else local.shape[1:]
    for name, size in (("N", n), ("D", d), ("S", s), ("Dl", dl)):
        if size >= 2**32:
            raise DataError(f"{name} = {size} does not fit the container header's u32 field")
    return n, d, s, dl


def _encode_container(magic: bytes, main: np.ndarray) -> bytearray:
    """Header and float32 payload of a container without local features, in
    one buffer: main is cast straight into its place, so the payload is
    copied once. Non-finite values are rejected as float32, so a float64
    value that overflows float32 is too, and a size the u32 header cannot
    hold is rejected before the buffer."""
    n, d, _, _ = _container_sizes(main, None)
    buf = bytearray(_HEADER.size + 4 * n * d)
    _HEADER.pack_into(buf, 0, magic, CONTAINER_VERSION, n, d, 0, 0)
    view, _ = _payload_views(buf, n, d, 0, 0)
    with np.errstate(over="ignore"):  # the check below names an overflow to inf
        view[...] = main
    _check_finite(view, None)
    return buf


def _container_views(data, magic: bytes) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(main, local) payload arrays of a container, as float32 views of data,
    after the header and length checks. The values are not checked:
    _check_finite checks them as the writer does."""
    if len(data) < _HEADER.size:
        raise TruncationError(
            f"header truncated: expected at least {_HEADER.size} bytes, got {len(data)}"
        )
    got_magic, version, n, d, s, dl = _HEADER.unpack_from(data)
    if got_magic != magic:
        raise MagicError(f"bad magic {got_magic!r}, expected {magic!r}")
    if version != CONTAINER_VERSION:
        raise VersionError(f"unsupported container version {version}")
    expected = _HEADER.size + 4 * (n * d + n * s * dl)
    if len(data) != expected:
        raise TruncationError(
            f"payload length mismatch: expected {expected} bytes, got {len(data)}"
        )
    return _payload_views(data, n, d, s, dl)


def _embedding_parts(emb: EmbeddingSet) -> list:
    """An embedding container as its header and its payload arrays, checked
    finite. The arrays are emb's own when they are little-endian float32
    and C-contiguous, as EmbeddingSet's are on a little-endian host, so
    nothing is copied."""
    main = np.ascontiguousarray(emb.global_, dtype="<f4")
    local = None if emb.local is None else np.ascontiguousarray(emb.local, dtype="<f4")
    header = _HEADER.pack(EMBEDDING_MAGIC, CONTAINER_VERSION, *_container_sizes(main, local))
    _check_finite(main, local)
    return [header, main] + ([] if local is None else [local])


def encode_embeddings(emb: EmbeddingSet) -> bytearray:
    """Serialize an EmbeddingSet; deterministic byte layout, the bytes
    save_embeddings writes."""
    return bytearray().join(_embedding_parts(emb))


def decode_embeddings(data: bytes) -> EmbeddingSet:
    """Inverse of encode_embeddings; bit-exact round trip. The arrays are
    views of data, read-only where data is (bytes)."""
    views = _container_views(data, EMBEDDING_MAGIC)
    _check_finite(*views)
    return EmbeddingSet(*views)


def _json_report(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"  # the one JSON output form


def _write_file(path, data) -> None:
    """The one writer of every file reidkit writes, called as gallery._write_file:
    data is the whole encoded output, one bytes-like object or a list of them
    written in order, so a rejected output creates no file."""
    with open(path, "wb") as fh:
        fh.writelines(data if isinstance(data, list) else [data])


def save_embeddings(emb: EmbeddingSet, path) -> None:
    """Write an embedding set's container: the header, then the float32
    arrays as they are, with no copy of the payload."""
    _write_file(path, _embedding_parts(emb))


def load_embeddings(path) -> EmbeddingSet:
    """Read an embedding set. The file is read into one uninitialised buffer,
    sized by fstat, and the arrays are views of it, so the payload is copied
    once and never zero-filled first. The whole float32 values of each
    chunk read are checked finite while they are in cache; only when one
    is not does _check_finite, after the length check, name its cell."""
    with open(path, "rb") as fh:
        buf = np.empty(os.fstat(fh.fileno()).st_size, np.uint8)
        size, checked, finite = 0, _HEADER.size, True
        while size < buf.size and (got := fh.readinto(buf[size : size + _READ_CHUNK])):
            size += got
            if finite:
                checked, finite = _check_chunk(buf, checked, size)
        tail = fh.read()  # whatever the file gained since fstat (a FIFO reports 0)
    buf = buf[:size]
    if tail:
        buf = np.concatenate((buf, np.frombuffer(tail, np.uint8)))
        if finite:
            checked, finite = _check_chunk(buf, checked, buf.size)
    views = _container_views(buf, EMBEDDING_MAGIC)
    if not finite:
        _check_finite(*views)
    return EmbeddingSet(*views)


def _check_chunk(buf: np.ndarray, start: int, stop: int) -> tuple[int, bool]:
    """(end, finite) for the payload values read so far from byte start on:
    end is where the last whole float32 value before stop ends, and finite
    whether the values in buf[start:end] all are."""
    end = start + max(stop - start, 0) // 4 * 4
    return end, _finite(buf[start:end].view("<f4"))
