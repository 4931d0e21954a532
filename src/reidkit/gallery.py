"""Identity/camera/image data model and binary persistence of embedding sets.

The embedding container is a little-endian binary format:

    magic (4 bytes) | version u32 | N u32 | D u32 | S u32 | Dl u32
    N*D float32 (row-major) | N*S*Dl float32 (row, stripe, dim)

S = Dl = 0 means no local stripe features.
"""

from __future__ import annotations

import csv
import re
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DataError, FormatError, MagicError, TruncationError, VersionError

EMBEDDING_MAGIC = b"REMB"
CONTAINER_VERSION = 1
_HEADER = struct.Struct("<4s5I")

DEFAULT_FILENAME_PATTERN = r"^(?P<person>\d+)_c(?P<camera>\d+)_\d+\.\w+$"

METADATA_HEADER = ["index", "person_id", "camera_id", "role", "path"]


class Role(str, Enum):
    QUERY = "query"
    GALLERY = "gallery"
    TRAIN = "train"


@dataclass(frozen=True)
class GalleryRecord:
    person_id: int
    camera_id: int
    path: str
    role: Role

    def __post_init__(self):
        if self.person_id < 0 or self.camera_id < 0:
            raise DataError("person_id and camera_id must be non-negative")
        if not self.path:
            raise DataError("path must be non-empty")


@dataclass(frozen=True)
class GalleryIndex:
    """Ordered list of records; record order is the canonical row order of
    any aligned EmbeddingSet."""

    records: tuple[GalleryRecord, ...]

    def __len__(self):
        return len(self.records)

    def __getitem__(self, i):
        return self.records[i]

    def person_ids(self) -> np.ndarray:
        return np.array([r.person_id for r in self.records], dtype=np.int64)

    def camera_ids(self) -> np.ndarray:
        return np.array([r.camera_id for r in self.records], dtype=np.int64)


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


def parse_record(
    filename: str,
    pattern: str = DEFAULT_FILENAME_PATTERN,
    role: Role = Role.GALLERY,
) -> GalleryRecord:
    """Parse person and camera ids out of an image filename.

    The pattern must expose named captures ``person`` and ``camera``;
    the default matches names like ``0001_c3_017.png``.
    """
    m = re.match(pattern, filename)
    if m is None:
        raise DataError(f"filename {filename!r} does not match pattern {pattern!r}")
    return GalleryRecord(
        person_id=int(m.group("person"), 10),
        camera_id=int(m.group("camera"), 10),
        path=filename,
        role=role,
    )


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
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 5:
            raise FormatError(f"{metadata_file}:{lineno}: expected 5 fields, got {len(row)}")
        idx_s, pid_s, cam_s, role_s, path = [c.strip() for c in row]
        try:
            idx = int(idx_s, 10)
            pid = int(pid_s, 10)
            cam = int(cam_s, 10)
        except ValueError as e:
            raise FormatError(f"{metadata_file}:{lineno}: {e}") from None
        if idx != len(records):
            raise FormatError(
                f"{metadata_file}:{lineno}: index {idx} out of order, "
                f"expected {len(records)}"
            )
        try:
            records.append(GalleryRecord(pid, cam, path, Role(role_s)))
        except ValueError:
            raise FormatError(f"{metadata_file}:{lineno}: unknown role {role_s!r}") from None
        except DataError as e:
            raise FormatError(f"{metadata_file}:{lineno}: {e}") from None
    return GalleryIndex(tuple(records))


def save_index(index: GalleryIndex, metadata_file) -> None:
    with open(metadata_file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METADATA_HEADER)
        for i, r in enumerate(index.records):
            writer.writerow([i, r.person_id, r.camera_id, r.role.value, r.path])


def _encode_container(magic: bytes, main: np.ndarray, local: Optional[np.ndarray]) -> bytearray:
    """Header and float32 payload in one buffer: each array is cast straight
    into its place, so the payload is copied once. Non-finite values are
    rejected as float32, so a float64 value that overflows float32 is too."""
    n, d = main.shape
    s, dl = (0, 0) if local is None else local.shape[1:]
    buf = bytearray(_HEADER.size + 4 * (n * d + n * s * dl))
    _HEADER.pack_into(buf, 0, magic, CONTAINER_VERSION, n, d, s, dl)
    off = _HEADER.size
    for arr, what in ((main, "value"), (local, "local value")):
        if arr is None:
            continue
        view = np.frombuffer(buf, "<f4", arr.size, off).reshape(arr.shape)
        view[...] = arr
        finite = np.isfinite(view)
        if not finite.all():
            cell = tuple(int(i) for i in np.argwhere(~finite)[0])
            raise DataError(f"non-finite {what} at {cell}")
        off += 4 * arr.size
    return buf


def _decode_container(data: bytes, magic: bytes) -> tuple[np.ndarray, Optional[np.ndarray]]:
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
    off = _HEADER.size
    main = np.frombuffer(data, dtype="<f4", count=n * d, offset=off).reshape(n, d).copy()
    local = None
    if s and dl:
        off += 4 * n * d
        local = (
            np.frombuffer(data, dtype="<f4", count=n * s * dl, offset=off)
            .reshape(n, s, dl)
            .copy()
        )
    return main, local


def encode_embeddings(emb: EmbeddingSet) -> bytearray:
    """Serialize an EmbeddingSet; deterministic byte layout."""
    return _encode_container(EMBEDDING_MAGIC, emb.global_, emb.local)


def decode_embeddings(data: bytes) -> EmbeddingSet:
    """Inverse of encode_embeddings; bit-exact round trip."""
    main, local = _decode_container(data, EMBEDDING_MAGIC)
    return EmbeddingSet(main, local)


def save_embeddings(emb: EmbeddingSet, path) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_embeddings(emb))


def load_embeddings(path) -> EmbeddingSet:
    with open(path, "rb") as fh:
        return decode_embeddings(fh.read())
