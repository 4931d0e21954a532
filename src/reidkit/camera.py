"""Camera-context analysis: per-camera offset estimation, the
identity-agnosticism consistency score, camera normalization, and the
per-camera residual forward transform.

The working hypothesis is that the displacement of embeddings between
camera orientations is the same for every identity. The consistency score
measures how far the data is from that: 0 means per-(camera, person)
displacements match the global per-camera offsets exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .distance import _blocks
from .errors import DataError, FormatError
from .gallery import _groups, _object_once

CONSISTENCY_EPS = 1e-8


@dataclass(frozen=True)
class CameraOffsets:
    offsets: dict          # camera id -> D-vector (mean displacement)
    counts: dict           # camera id -> sample count
    consistency_score: float

    def to_dict(self) -> dict:
        return {
            "offsets": {str(c): [float(x) for x in v] for c, v in sorted(self.offsets.items())},
            "counts": {str(c): int(n) for c, n in sorted(self.counts.items())},
            "consistency_score": float(self.consistency_score),
        }


@dataclass(frozen=True)
class CameraResidualParams:
    """Per-camera affine residual: row -> row + A_c @ row + b_c.

    The same parameter set is shared by every person; zero parameters
    give the identity transform.
    """

    matrices: dict  # camera id -> D x D
    biases: dict    # camera id -> D

    def __post_init__(self):
        if set(self.matrices) != set(self.biases):
            raise DataError("matrix and bias camera ids differ")
        matrices, biases = {}, {}
        for c, a in self.matrices.items():
            a = matrices[c] = np.asarray(a, dtype=np.float64)
            b = biases[c] = np.asarray(self.biases[c], dtype=np.float64)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise DataError(f"camera {c}: matrix must be square")
            if b.shape != (a.shape[0],):
                raise DataError(f"camera {c}: bias dimension mismatch")
            if not np.isfinite(a).all():
                raise DataError(f"camera {c}: matrix must be finite")
            if not np.isfinite(b).all():
                raise DataError(f"camera {c}: bias must be finite")
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "biases", biases)


def _row_cameras(camids, n: int):
    """Row camera ids as int64, and the distinct ids in order of first appearance
    (a per-camera check then fails on the first offending row's camera)."""
    camids = np.asarray(camids, dtype=np.int64)
    if camids.shape != (n,):
        raise DataError("camera id count != row count")
    cams, first = np.unique(camids, return_index=True)
    return camids, [int(c) for c in cams[np.argsort(first)]]


def camera_offsets(emb: np.ndarray, camids, pids=None) -> CameraOffsets:
    """Per-camera mean displacement from the global mean.

    The consistency score averages, over every (camera, person) cell with
    at least one sample, the relative deviation of that cell's displacement
    from the camera's global offset. It needs person ids; without them the
    score is reported as 0.0 for degenerate single-group data.
    """
    e = np.asarray(emb)
    if e.ndim != 2 or e.shape[0] == 0:
        raise DataError("need a non-empty N x D embedding matrix")
    camids, _ = _row_cameras(camids, e.shape[0])
    # means of the rows as stored, summed in float64: a float64 copy's bits
    global_mean = e.mean(axis=0, dtype=np.float64)
    cams = {int(c): rows for (c,), rows in _groups(camids)}
    offsets = {c: e[rows].mean(axis=0, dtype=np.float64) - global_mean for c, rows in cams.items()}
    counts = {c: rows.size for c, rows in cams.items()}
    if pids is None:
        return CameraOffsets(offsets, counts, 0.0)
    pids = np.asarray(pids)
    if len(pids) != e.shape[0]:
        raise DataError("person id count != row count")
    person_means = {p: e[rows].mean(axis=0, dtype=np.float64) for (p,), rows in _groups(pids)}
    cell_scores = [
        np.linalg.norm(e[rows].mean(axis=0, dtype=np.float64) - person_means[p] - offsets[c])
        / (np.linalg.norm(offsets[c]) + CONSISTENCY_EPS)
        for (p, c), rows in _groups(pids, camids)
    ]
    return CameraOffsets(offsets, counts, float(np.mean(cell_scores)))


def camera_normalize(emb: np.ndarray, offsets: CameraOffsets, camids, out=None) -> np.ndarray:
    """Subtract each row's camera offset; afterwards every per-camera mean
    equals the global mean.

    The difference is taken in float64 (float32 rows upcast exactly) and
    stored in out, an array of the rows' shape that may be emb itself, or
    in a new float64 array when out is None. A float32 out receives the
    float64 difference rounded to nearest, the bits of casting the float64
    result afterwards, without holding that result."""
    e = np.asarray(emb)
    camids, cams = _row_cameras(camids, e.shape[0])
    for c in cams:
        if c not in offsets.offsets:
            raise DataError(f"unknown camera id {c}")
        shape = np.shape(offsets.offsets[c])
        if shape != e.shape[1:]:
            dim = shape[0] if len(shape) == 1 else shape
            raise DataError(f"camera {c}: offset dimension {dim} != embedding dim {e.shape[1]}")
    # one float64 offset row per camera, gathered a block of rows at a time
    keys, which = np.unique(camids, return_inverse=True)
    table = np.array([offsets.offsets[int(c)] for c in keys], dtype=np.float64)
    table = table.reshape(len(keys), e.shape[1])  # (0, D) when there are no rows
    out = _destination(e, out)
    for rows in _blocks(e.shape[0], e.shape[1]):
        np.subtract(e[rows], table[which[rows]], out=out[rows], casting="unsafe")
    return out


def apply_camera_residual(
    emb: np.ndarray, params: CameraResidualParams, camids, out=None
) -> np.ndarray:
    """row -> row + A_c @ row + b_c per row's camera, in float64 (float32 rows
    upcast exactly), stored in out, an array of the rows' shape that may be
    emb itself, or in a new float64 array when out is None. A float32 out
    receives each camera's float64 rows rounded to nearest."""
    e = np.asarray(emb)
    camids, cams = _row_cameras(camids, e.shape[0])
    out = _destination(e, out)
    for c in cams:
        if c not in params.matrices:
            raise DataError(f"no residual parameters for camera {c}")
        a, b = params.matrices[c], params.biases[c]
        if a.shape[0] != e.shape[1]:
            raise DataError(
                f"camera {c}: parameter dimension {a.shape[0]} != embedding dim {e.shape[1]}"
            )
        rows = camids == c
        x = e[rows]
        out[rows] = x + x @ a.T + b
    return out


def _destination(e: np.ndarray, out):
    """out, checked to have the rows' shape, or a new float64 array."""
    if out is None:
        return np.empty(e.shape, dtype=np.float64)
    if out.shape != e.shape:
        raise ValueError(f"out has shape {out.shape}, expected {e.shape}")
    return out


def load_residual_params(path) -> CameraResidualParams:
    """Read {camera id: {"matrix": D x D, "bias": D}}, keyed by decimal camera id."""
    with open(path) as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_object_once)
            keys = {}  # camera id -> its key
            for key in doc:
                # gallery.load_index's id rule: int() would also read "+2", " 3_0" and non-ASCII digits
                if not (key.isascii() and key.isdigit()):
                    raise ValueError(f"camera id {key!r} is not a decimal integer")
                if keys.setdefault(int(key), key) != key:
                    raise ValueError(f"keys {keys[int(key)]!r} and {key!r} name one camera")
            matrices = {c: np.array(doc[k]["matrix"], dtype=np.float64) for c, k in keys.items()}
            biases = {c: np.array(doc[k]["bias"], dtype=np.float64) for c, k in keys.items()}
        except (KeyError, TypeError, AttributeError, ValueError) as e:
            msg = f"{path}: malformed residual parameters ({type(e).__name__}: {e})"
            raise FormatError(msg) from e
    return CameraResidualParams(matrices, biases)
