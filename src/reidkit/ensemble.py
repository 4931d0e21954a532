"""Mean-teacher self-ensembling: EMA weight averaging and the
teacher-student consistency loss."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import gallery
from .errors import DataError, FormatError
from .gallery import EmbeddingSet, _object_once, load_embeddings, save_embeddings


def _check_tensor_name(name) -> None:
    # a tensor is stored as <name>.remb inside its state directory
    if not isinstance(name, str) or name in ("", ".", "..") or not set(name).isdisjoint("/\\\0"):
        raise DataError(f"tensor name {name!r} is not a plain file name")


@dataclass(frozen=True)
class EmaState:
    """Teacher parameters as a named tensor collection plus decay.

    Single-writer contract: exactly one updater at a time; readers may
    snapshot between updates.
    """

    tensors: dict
    alpha: float = 0.999
    step: int = 0
    warmup: bool = False

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise DataError("alpha must be in [0, 1)")
        if isinstance(self.step, bool) or not isinstance(self.step, int) or self.step < 0:
            raise DataError(f"step must be a non-negative integer, got {self.step!r}")
        if not isinstance(self.warmup, bool):
            raise DataError(f"warmup must be true or false, got {self.warmup!r}")
        for name in self.tensors:
            _check_tensor_name(name)
        object.__setattr__(
            self,
            "tensors",
            {k: np.asarray(v, dtype=np.float64) for k, v in self.tensors.items()},
        )


def ema_update(state: EmaState, student: dict) -> EmaState:
    """teacher <- a*teacher + (1-a)*student elementwise, step incremented.

    With warm-up enabled the effective decay is min(alpha, 1 - 1/(step+1)),
    so early teachers track the student closely.
    """
    if set(student) != set(state.tensors):
        missing = set(state.tensors) ^ set(student)
        raise DataError(f"tensor name mismatch: {sorted(missing)}")
    if state.warmup:
        a = min(state.alpha, 1.0 - 1.0 / (state.step + 1))
    else:
        a = state.alpha
    new = {}
    for name, teacher in state.tensors.items():
        s = np.asarray(student[name], dtype=np.float64)
        if s.shape != teacher.shape:
            raise DataError(
                f"shape mismatch for tensor {name!r}: {teacher.shape} vs {s.shape}"
            )
        new[name] = a * teacher + (1.0 - a) * s
    return EmaState(new, alpha=state.alpha, step=state.step + 1, warmup=state.warmup)


def consistency_loss_grad(teacher_emb: np.ndarray, student_emb: np.ndarray):
    """MSE between teacher and student embeddings; gradient flows only to
    the student (teacher treated as constant)."""
    t = np.asarray(teacher_emb, dtype=np.float64)
    s = np.asarray(student_emb, dtype=np.float64)
    if t.shape != s.shape:
        raise DataError(f"shape mismatch: {t.shape} vs {s.shape}")
    diff = s - t
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


def save_ema_state(state: EmaState, directory) -> None:
    """One binary tensor file per name plus a JSON manifest, removed first and
    written last: a save that fails part-way leaves a state that fails to load."""
    path = os.path.join(directory, "manifest.json")
    os.makedirs(directory, exist_ok=True)
    if os.path.lexists(path):
        os.remove(path)
    manifest = {"alpha": state.alpha, "step": state.step, "warmup": state.warmup, "tensors": {}}
    for name, tensor in sorted(state.tensors.items()):
        fname = f"{name}.remb"
        save_embeddings(EmbeddingSet(tensor.reshape(1, -1)), os.path.join(directory, fname))
        manifest["tensors"][name] = {"file": fname, "shape": list(tensor.shape)}
    gallery._write_file(path, gallery._json_report(manifest).encode("ascii"))


def load_ema_state(directory) -> EmaState:
    path = os.path.join(directory, "manifest.json")
    try:
        with open(path) as fh:
            manifest = json.load(fh, object_pairs_hook=_object_once)
        tensors = {}
        for name, info in manifest["tensors"].items():
            _check_tensor_name(name)
            if info["file"] != f"{name}.remb":
                raise DataError(f"tensor {name!r} is stored in {info['file']!r}, not {name}.remb")
            emb = load_embeddings(os.path.join(directory, info["file"]))
            tensors[name] = emb.global_.reshape(info["shape"])
        return EmaState(
            tensors,
            alpha=manifest["alpha"],
            step=manifest["step"],
            warmup=manifest["warmup"],
        )
    except (KeyError, TypeError, AttributeError, ValueError, DataError) as e:
        raise FormatError(f"{path}: malformed EMA manifest ({type(e).__name__}: {e})") from e
