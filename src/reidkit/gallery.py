"""Identity/camera/image data model and binary persistence of embedding sets.

The embedding container is a little-endian binary format:

    magic (4 bytes) | version u32 | N u32 | D u32 | S u32 | Dl u32
    N*D float32 (row-major) | N*S*Dl float32 (row, stripe, dim)

S = Dl = 0 means no local stripe features.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DataError, FormatError, MagicError, TruncationError, VersionError

EMBEDDING_MAGIC = b"REMB"
CONTAINER_VERSION = 1
_HEADER = struct.Struct("<4s5I")

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
        elif role_s not in _ROLE_VALUES:
            fault = f"unknown role {role_s!r}"
        # range checks on the Python ints: np.asarray of 2^63 or more goes through float64
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


def save_index(index: GalleryIndex, metadata_file) -> None:
    with open(metadata_file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METADATA_HEADER)
        ids = index.person_ids.tolist(), index.camera_ids.tolist()
        writer.writerows(zip(range(len(index)), *ids, index.roles.tolist(), index.paths))


def _payload_views(buf, n: int, d: int, s: int, dl: int):
    """(main, local) float32 views of a container's payload; no local if S or Dl is 0."""
    main = np.frombuffer(buf, "<f4", n * d, _HEADER.size).reshape(n, d)
    local = np.frombuffer(buf, "<f4", n * s * dl, _HEADER.size + 4 * n * d).reshape(n, s, dl)
    return main, local if s and dl else None


def _check_finite(main: np.ndarray, local: Optional[np.ndarray]) -> None:
    """Reject a non-finite payload value, naming its cell: two reductions per
    array (NaN propagates through both), and a mask only on failure."""
    for arr, what in ((main, "value"), (local, "local value")):
        if arr is not None and arr.size and not np.isfinite([arr.min(), arr.max()]).all():
            cell = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
            raise DataError(f"non-finite {what} at {cell}")


def _encode_container(magic: bytes, main: np.ndarray, local: Optional[np.ndarray]) -> bytearray:
    """Header and float32 payload in one buffer: each array is cast straight
    into its place, so the payload is copied once. Non-finite values are
    rejected as float32, so a float64 value that overflows float32 is too."""
    n, d = main.shape
    s, dl = (0, 0) if local is None else local.shape[1:]
    buf = bytearray(_HEADER.size + 4 * (n * d + n * s * dl))
    _HEADER.pack_into(buf, 0, magic, CONTAINER_VERSION, n, d, s, dl)
    views = _payload_views(buf, n, d, s, dl)
    with np.errstate(over="ignore"):  # the check below names an overflow to inf
        for view, arr in zip(views, (main, local)):
            if view is not None:
                view[...] = arr
    _check_finite(*views)
    return buf


def _decode_container(data: bytes, magic: bytes) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(main, local) payload arrays of a container, as float32 views of data,
    checked finite as the writer checks them."""
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
    views = _payload_views(data, n, d, s, dl)
    _check_finite(*views)
    return views


def encode_embeddings(emb: EmbeddingSet) -> bytearray:
    """Serialize an EmbeddingSet; deterministic byte layout."""
    return _encode_container(EMBEDDING_MAGIC, emb.global_, emb.local)


def decode_embeddings(data: bytes) -> EmbeddingSet:
    """Inverse of encode_embeddings; bit-exact round trip. The arrays are
    copies that own their memory."""
    main, local = _decode_container(data, EMBEDDING_MAGIC)
    return EmbeddingSet(main.copy(), None if local is None else local.copy())


def save_embeddings(emb: EmbeddingSet, path) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_embeddings(emb))


def load_embeddings(path) -> EmbeddingSet:
    """Read an embedding set. The file is read into one buffer, sized by
    fstat, and the arrays are views of it, so the payload is copied once."""
    with open(path, "rb") as fh:
        buf = bytearray(os.fstat(fh.fileno()).st_size)
        del buf[fh.readinto(buf) :]
        buf += fh.read()  # whatever the file gained since fstat
    main, local = _decode_container(buf, EMBEDDING_MAGIC)
    return EmbeddingSet(main, local)
