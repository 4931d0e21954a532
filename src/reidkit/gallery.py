"""Identity/camera/image data model and binary persistence of embedding sets.

The embedding container is a little-endian binary format:

    magic (4 bytes) | version u32 | N u32 | D u32 | S u32 | Dl u32
    N*D float32 (row-major) | N*S*Dl float32 (row, stripe, dim)

S = Dl = 0 means no local stripe features.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import stat
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


def _real(x) -> np.ndarray:
    """x as an array that is not complex: numpy casts one to float with a ComplexWarning."""
    if np.iscomplexobj(x := np.asarray(x)):
        raise DataError("values must be real, not complex")
    return x


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
        # a value beyond float32's range casts to inf, which the writer names
        with np.errstate(over="ignore"):
            g = np.asarray(_real(self.global_), dtype=np.float32)
            l = None if self.local is None else np.asarray(_real(self.local), dtype=np.float32)
        object.__setattr__(self, "global_", g)
        if g.ndim != 2:
            raise DataError("global features must be an N x D matrix")
        if l is not None:
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
    must equal line order (0-based) so embeddings stay row-aligned. The
    FormatError of a faulty file names its first faulty line.
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
    body = rows[1:]
    try:
        return _index_columns(body)
    except ValueError as e:
        fault = e
    # every rule is prefix-monotone: the shortest failing prefix ends at the
    # first faulty row, and the pass over it names that row's fault
    good, bad = 0, len(body)
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _index_columns(body[:mid])
            good = mid
        except ValueError as e:
            bad, fault = mid, e
    raise FormatError(f"{metadata_file}:{bad + 1}: {fault}") from None


def _index_columns(body: list) -> GalleryIndex:
    """The index of the rows body, checked and converted a column at a time.
    The row rules are checked in turn, each over every row before the next;
    the first that some row breaks raises ValueError with its fault worded
    for the last row, which load_index's bisection makes the faulty one."""
    if not set(map(len, body)) <= {0, 5}:  # a blank line is a row of no fields
        raise ValueError(f"expected 5 fields, got {len(body[-1])}")
    fields = list(chain.from_iterable(body))
    if not fields:
        return GalleryIndex((), (), (), ())
    last = [f.strip() for f in fields[-5:]]
    idx_s = list(map(str.strip, fields[::5]))
    # ids and roles repeat: each distinct field is checked and converted once
    (pid_s, pid_at), (cam_s, cam_at), (role_s, role_at) = (
        _distinct(fields[k::5]) for k in (1, 2, 3)
    )
    try:
        if not _is_decimal("".join(idx_s + pid_s + cam_s)):
            raise ValueError
        in_order = list(map(int, idx_s)) == list(range(len(idx_s)))  # n ints, not kept
        pid, cam = (list(map(int, col)) for col in (pid_s, cam_s))
    except ValueError:
        raise ValueError(
            "index, person_id and camera_id must be decimal integers, "
            "got {!r}, {!r}, {!r}".format(*last[:3])
        ) from None
    if not in_order:
        raise ValueError(f"index {int(last[0])} out of order, expected {len(idx_s) - 1}")
    if not _ROLE_VALUES.issuperset(role_s):
        raise ValueError(f"unknown role {last[3]!r}")
    if min(pid + cam) < 0:
        raise ValueError("person_id and camera_id must be non-negative")
    if max(pid + cam) >= 2**63:  # np.array of 2^63 or more is not int64
        raise ValueError("person_id and camera_id must be below 2^63 (int64)")
    if not all(paths := list(map(str.strip, fields[4::5]))):
        raise ValueError("path must be non-empty")
    if "\0" in "".join(paths):  # open() rejects it
        raise ValueError("path must not contain a NUL character")
    pid, cam = (np.array(v, np.int64)[at] for v, at in ((pid, pid_at), (cam, cam_at)))
    return GalleryIndex(pid, cam, np.array(role_s)[role_at], paths)


def _distinct(col: list) -> tuple[list, np.ndarray]:
    """The distinct fields of col, stripped, and the position of each
    field of col among them."""
    position = {field: i for i, field in enumerate(dict.fromkeys(col))}
    codes = np.fromiter(map(position.__getitem__, col), np.intp, len(col))
    return list(map(str.strip, position)), codes


def _is_decimal(ids: str) -> bool:
    """Whether ids holds nothing that int() reads beyond ASCII digits and
    "-": int() would also read "+3", "1_000" and non-ASCII digits."""
    return "+" not in ids and "_" not in ids and ids.isascii()


def _finite(arr: np.ndarray) -> bool:
    """Whether every value of arr is finite, by one min and one max: NaN
    propagates through both."""
    return not arr.size or bool(np.isfinite([arr.min(), arr.max()]).all())


def _payload(arr, what: str = "value", row0: int = 0) -> np.ndarray:
    """arr as a C-ordered little-endian float32 payload part, arr itself when
    it is one, checked finite by two reductions; a mask is built only to name
    the first non-finite cell (an overflow to inf too), its row counted from
    row0, a block's first row in the whole matrix."""
    with np.errstate(over="ignore"):
        part = np.ascontiguousarray(arr, "<f4")
    if not _finite(part):
        row, *rest = (int(i) for i in np.argwhere(~np.isfinite(part))[0])
        raise DataError(f"non-finite {what} at {(row0 + row, *rest)}")
    return part


def _container_header(magic: bytes, n: int, d: int, s: int = 0, dl: int = 0) -> bytes:
    """A container's header, each size checked to fit its u32 field."""
    for name, size in (("N", n), ("D", d), ("S", s), ("Dl", dl)):
        if size >= 2**32:
            raise DataError(f"{name} = {size} does not fit the container header's u32 field")
    return _HEADER.pack(magic, CONTAINER_VERSION, n, d, s, dl)


def _container_views(data, magic: bytes) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(main, local) payload arrays of a container, as float32 views of data,
    after the header and length checks; no local if S or Dl is 0. The values
    are not checked: the caller checks them (_payload, or DistanceMatrix
    for an .rdmx)."""
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
    main = np.frombuffer(data, "<f4", n * d, _HEADER.size).reshape(n, d)
    local = np.frombuffer(data, "<f4", n * s * dl, _HEADER.size + 4 * n * d).reshape(n, s, dl)
    return main, local if s and dl else None


def _embedding_parts(emb: EmbeddingSet) -> list:
    """An embedding container as its header and its _payload arrays, checked
    whole before any is written. The arrays are emb's own when they are
    little-endian float32 and C-contiguous, as EmbeddingSet's are on a
    little-endian host, so nothing is copied."""
    main = _payload(emb.global_)
    local = None if emb.local is None else _payload(emb.local, "local value")
    header = _container_header(EMBEDDING_MAGIC, *main.shape, *(() if local is None else local.shape[1:]))
    return [header, main] + ([] if local is None else [local])


class _BlockParts:
    """A container of a known shape and no local part, from (first row,
    values) pairs of row blocks of any heights, as _write_file's parts: the
    header, then each block's _payload, made as it is drawn, so one part is
    alive at a time. Joined, they are the file's bytes; len() is its size."""

    def __init__(self, magic: bytes, shape, blocks):
        self.header, self.shape, self.blocks = _container_header(magic, *shape), shape, blocks

    def __len__(self):
        return len(self.header) + 4 * self.shape[0] * self.shape[1]

    def __iter__(self):
        yield self.header
        for row0, values in self.blocks:
            yield _payload(values, row0=row0)  # held by no frame here: freed before the next cast


def encode_embeddings(emb: EmbeddingSet) -> bytearray:
    """Serialize an EmbeddingSet; deterministic byte layout, the bytes
    save_embeddings writes."""
    return bytearray().join(_embedding_parts(emb))


def decode_embeddings(data: bytes) -> EmbeddingSet:
    """Inverse of encode_embeddings; bit-exact round trip. The arrays are
    views of data, read-only where data is (bytes)."""
    main, local = _container_views(data, EMBEDDING_MAGIC)
    return EmbeddingSet(_payload(main), None if local is None else _payload(local, "local value"))


def _json_report(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"  # the one JSON output form


def _write_file(path, data) -> None:
    """The one writer of every file reidkit writes, called as gallery._write_file.
    data is the encoded output: one bytes-like object, or any iterable of
    them written in order, such as a generator that encodes one block at a
    time and may raise part-way. The target is the file path names once its
    symlinks are resolved. The parts go to .<name>.tmp-<pid> in the target's
    directory, which os.replace puts in place, with the permission bits of
    the file it replaces, only once every part is written; on any exception
    the temporary file is removed. So an output rejected or cut part-way
    leaves the old file with its bytes, or no file. Nothing is fsynced: the
    replace guards against a failed run, not against a power loss. A device,
    a FIFO (/dev/null, a pipe) or a hard-linked file is written in place.
    So is a path with no last part ("", "sub/") or whose directory is none
    ("missing/../x"), which open() rejects and its realpath would not: the
    OSError is open()'s, and nothing is written."""
    parts = [data] if isinstance(data, (bytes, bytearray, memoryview)) else data
    path = os.fspath(path)
    # the path, not its realpath: /dev/stdout on a pipe resolves to no file
    st = os.stat(path) if os.path.exists(path) else None
    named = os.path.basename(path) and os.path.isdir(os.path.dirname(path) or ".")
    if not named or st and (st.st_nlink > 1 or not stat.S_ISREG(st.st_mode)):
        with open(path, "wb") as fh:
            fh.writelines(parts)
        return
    target = os.path.realpath(path)
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(parts)
        if st:  # a new file keeps the umask's bits
            os.chmod(tmp, st.st_mode & 0o777)
        os.replace(tmp, target)
    except BaseException as e:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(e, OSError) and e.filename == tmp:  # name the target, as open(path) would
            raise type(e)(e.errno, e.strerror, path) from None
        raise


def save_embeddings(emb: EmbeddingSet, path) -> None:
    """Write an embedding set's container: the header, then the float32
    arrays as they are, with no copy of the payload."""
    _write_file(path, _embedding_parts(emb))


def load_embeddings(path) -> EmbeddingSet:
    """Read an embedding set. The file is read into one uninitialised buffer,
    sized by fstat, and the arrays are views of it, so the payload is copied
    once and never zero-filled first. Each chunk's whole float32 values are
    checked finite while in cache; bytes gained since fstat (a FIFO reports
    0) or a non-finite value send the whole buffer to decode_embeddings."""
    with open(path, "rb") as fh:
        buf = np.empty(os.fstat(fh.fileno()).st_size, np.uint8)
        size, checked, finite = 0, _HEADER.size, True
        while size < buf.size and (got := fh.readinto(buf[size : size + _READ_CHUNK])):
            size += got
            if finite:
                checked, finite = _check_chunk(buf, checked, size)
        tail = fh.read()  # whatever the file gained since fstat
    buf = np.concatenate((buf[:size], np.frombuffer(tail, np.uint8))) if tail else buf[:size]
    if tail or not finite:  # checked whole: decode_embeddings names a faulty cell
        return decode_embeddings(buf)
    return EmbeddingSet(*_container_views(buf, EMBEDDING_MAGIC))


def _check_chunk(buf: np.ndarray, start: int, stop: int) -> tuple[int, bool]:
    """(end, finite) for the payload values read so far from byte start on:
    end is where the last whole float32 value before stop ends, and finite
    whether the values in buf[start:end] all are."""
    end = start + max(stop - start, 0) // 4 * 4
    return end, _finite(buf[start:end].view("<f4"))
