"""Readers and writers for reidkit's file formats, written from the format
descriptions in the README and not from reidkit's code, so that the
benchmark's inputs and checks do not depend on the code they measure."""

from __future__ import annotations

import csv
import json
import os
import struct

import numpy as np

# magic (4 bytes) | version u32 | N u32 | D u32 | S u32 | Dl u32, little-endian
_HEADER = struct.Struct("<4s5I")
METADATA_HEADER = ["index", "person_id", "camera_id", "role", "path"]


def write_index(path, pids, cams, role, names):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(METADATA_HEADER)
        for i, (p, c, n) in enumerate(zip(pids, cams, names)):
            w.writerow([i, int(p), int(c), role, n])


def read_index(path):
    """(person ids, camera ids, paths) of a metadata CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    pids = np.array([int(r[1]) for r in rows], dtype=np.int64)
    cams = np.array([int(r[2]) for r in rows], dtype=np.int64)
    return pids, cams, [r[4] for r in rows]


def write_remb(path, main: np.ndarray):
    """An embedding container of global features only (S = Dl = 0)."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(b"REMB", 1, *main.shape, 0, 0))
        fh.write(np.ascontiguousarray(main, dtype="<f4").tobytes())


def read_container(path, magic: bytes, rows=None):
    """(global N x D, local N x S x Dl or None) as float32; with ``rows``,
    only those rows of the global matrix are read."""
    with open(path, "rb") as fh:
        got, version, n, d, s, dl = _HEADER.unpack(fh.read(_HEADER.size))
        if got != magic or version != 1:
            raise ValueError(f"{path}: bad header {got!r} v{version}")
        if os.path.getsize(path) != _HEADER.size + 4 * (n * d + n * s * dl):
            raise ValueError(f"{path}: payload length does not match its header")
        if rows is not None:
            out = np.empty((len(rows), d), dtype=np.float32)
            for k, r in enumerate(rows):
                fh.seek(_HEADER.size + 4 * d * int(r))
                out[k] = np.frombuffer(fh.read(4 * d), dtype="<f4")
            return out, None
        main = np.frombuffer(fh.read(4 * n * d), dtype="<f4").reshape(n, d)
        local = None
        if s and dl:
            local = np.frombuffer(fh.read(4 * n * s * dl), dtype="<f4").reshape(n, s, dl)
    return main, local


def read_remb(path):
    return read_container(path, b"REMB")


def read_rdmx_rows(path, rows):
    return read_container(path, b"RDMX", rows)[0]


def write_pnm(path, pixels: np.ndarray):
    """Binary PPM (H x W x 3) or PGM (H x W), maxval 255."""
    h, w = pixels.shape[:2]
    magic = b"P6" if pixels.ndim == 3 else b"P5"
    with open(path, "wb") as fh:
        fh.write(b"%s\n%d %d\n255\n" % (magic, w, h))
        fh.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def read_pnm(path) -> np.ndarray:
    """Pixels of a binary PPM/PGM whose header carries no comments."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, w, h, maxval = data.split(maxsplit=4)[:4]
    if magic not in (b"P5", b"P6") or maxval != b"255":
        raise ValueError(f"{path}: unexpected header")
    w, h = int(w), int(h)
    ch = 3 if magic == b"P6" else 1
    payload = data[len(data) - w * h * ch :]
    px = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, ch)
    return px if ch == 3 else px[:, :, 0]


def write_tensor_dir(directory, tensors: dict, alpha: float = 0.999):
    """A named-tensor directory: one 1 x n ``.remb`` per tensor plus a
    ``manifest.json`` giving each tensor's file and shape."""
    os.makedirs(directory, exist_ok=True)
    manifest = {"alpha": alpha, "step": 0, "warmup": False, "tensors": {}}
    for name, t in sorted(tensors.items()):
        write_remb(os.path.join(directory, f"{name}.remb"), t.reshape(1, -1))
        manifest["tensors"][name] = {"file": f"{name}.remb", "shape": list(t.shape)}
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def read_tensor_dir(directory):
    """(manifest, {name: float64 tensor}) of a named-tensor directory."""
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    tensors = {}
    for name, info in manifest["tensors"].items():
        main, _ = read_remb(os.path.join(directory, info["file"]))
        tensors[name] = main.astype(np.float64).reshape(info["shape"])
    return manifest, tensors
