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

from .errors import DataError, FormatError

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
        for c, a in self.matrices.items():
            a = np.asarray(a, dtype=np.float64)
            b = np.asarray(self.biases[c], dtype=np.float64)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise DataError(f"camera {c}: matrix must be square")
            if b.shape != (a.shape[0],):
                raise DataError(f"camera {c}: bias dimension mismatch")


def _row_cameras(camids, n: int):
    """Row camera ids as int64, and the distinct ids in order of first appearance
    (a per-camera check then fails on the first offending row's camera)."""
    camids = np.asarray(camids, dtype=np.int64)
    if camids.shape != (n,):
        raise DataError("camera id count != row count")
    cams, first = np.unique(camids, return_index=True)
    return camids, [int(c) for c in cams[np.argsort(first)]]


def _groups(*keys):
    """(key values, row indices) per group of equal keys, ascending with the last
    key primary: slices of one stable np.lexsort, so rows stay in index order."""
    order = np.lexsort(keys)
    edge = np.any([k[order[1:]] != k[order[:-1]] for k in keys], axis=0)
    bounds = np.flatnonzero(np.r_[True, edge, True])
    for start, stop in zip(bounds[:-1], bounds[1:]):
        yield tuple(k[order[start]] for k in keys), order[start:stop]


def camera_offsets(emb: np.ndarray, camids, pids=None) -> CameraOffsets:
    """Per-camera mean displacement from the global mean.

    The consistency score averages, over every (camera, person) cell with
    at least one sample, the relative deviation of that cell's displacement
    from the camera's global offset. It needs person ids; without them the
    score is reported as 0.0 for degenerate single-group data.
    """
    e = np.asarray(emb, dtype=np.float64)
    if e.ndim != 2 or e.shape[0] == 0:
        raise DataError("need a non-empty N x D embedding matrix")
    camids, _ = _row_cameras(camids, e.shape[0])
    global_mean = e.mean(axis=0)
    cams = {int(c): rows for (c,), rows in _groups(camids)}
    offsets = {c: e[rows].mean(axis=0) - global_mean for c, rows in cams.items()}
    counts = {c: rows.size for c, rows in cams.items()}
    if pids is None:
        return CameraOffsets(offsets, counts, 0.0)
    pids = np.asarray(pids)
    if len(pids) != e.shape[0]:
        raise DataError("person id count != row count")
    person_means = {p: e[rows].mean(axis=0) for (p,), rows in _groups(pids)}
    cell_scores = [
        np.linalg.norm(e[rows].mean(axis=0) - person_means[p] - offsets[c])
        / (np.linalg.norm(offsets[c]) + CONSISTENCY_EPS)
        for (p, c), rows in _groups(pids, camids)
    ]
    return CameraOffsets(offsets, counts, float(np.mean(cell_scores)))


def camera_normalize(emb: np.ndarray, offsets: CameraOffsets, camids) -> np.ndarray:
    """Subtract each row's camera offset; afterwards every per-camera mean
    equals the global mean."""
    out = np.array(emb, dtype=np.float64)
    camids, cams = _row_cameras(camids, out.shape[0])
    for c in cams:
        if c not in offsets.offsets:
            raise DataError(f"unknown camera id {c}")
        np.subtract(out, offsets.offsets[c], out=out, where=(camids == c)[:, None])
    return out


def apply_camera_residual(emb: np.ndarray, params: CameraResidualParams, camids) -> np.ndarray:
    """row -> row + A_c @ row + b_c per row's camera."""
    e = np.asarray(emb, dtype=np.float64)
    camids, cams = _row_cameras(camids, e.shape[0])
    out = np.empty_like(e)
    for c in cams:
        if c not in params.matrices:
            raise DataError(f"no residual parameters for camera {c}")
        a = np.asarray(params.matrices[c], dtype=np.float64)
        b = np.asarray(params.biases[c], dtype=np.float64)
        if a.shape[0] != e.shape[1]:
            raise DataError(
                f"camera {c}: parameter dimension {a.shape[0]} != embedding dim {e.shape[1]}"
            )
        rows = camids == c
        x = e[rows]
        out[rows] = x + x @ a.T + b
    return out


def save_residual_params(params: CameraResidualParams, path) -> None:
    doc = {
        str(c): {
            "matrix": np.asarray(params.matrices[c], dtype=np.float64).tolist(),
            "bias": np.asarray(params.biases[c], dtype=np.float64).tolist(),
        }
        for c in sorted(params.matrices)
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_residual_params(path) -> CameraResidualParams:
    with open(path) as fh:
        try:
            doc = json.load(fh)
            matrices = {int(c): np.array(v["matrix"], dtype=np.float64) for c, v in doc.items()}
            biases = {int(c): np.array(v["bias"], dtype=np.float64) for c, v in doc.items()}
        except (KeyError, TypeError, AttributeError, ValueError) as e:
            msg = f"{path}: malformed residual parameters ({type(e).__name__}: {e})"
            raise FormatError(msg) from e
    return CameraResidualParams(matrices, biases)
