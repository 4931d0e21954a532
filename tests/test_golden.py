"""Golden digests: each chain of the benchmark's workloads, at its TINY
shapes, run in-process through ``run_cli``; the sha256 of every output file
must equal the one recorded in ``golden.json``.

The digests hold for the environment recorded with them (numpy, BLAS and
Python versions); a mismatch names the recorded and the running one. A
change that moves output bytes on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and names each output that moved.
"""

import hashlib
import json
import os
import pathlib
import platform
import sys
import tempfile

import numpy as np

from reidkit.cli import run_cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "reidbench"))
import gen  # noqa: E402
import workloads  # noqa: E402

GOLDEN = pathlib.Path(__file__).with_name("golden.json")
SEED = 11


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 only prints its configuration
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "python": platform.python_version()}


def output_digests(root) -> dict:
    """{workload/relative path: sha256} of every file one round of each
    workload's chain writes, with inputs generated under root."""
    digests = {}
    for w in workloads.WORKLOADS:
        inp = gen.ensure_inputs(os.path.join(root, "inputs"), w, SEED, gen.TINY)
        out = pathlib.Path(root, "out", w)
        out.mkdir(parents=True)
        for name, argv in workloads.chain(w, inp, str(out), gen.TINY, SEED):
            assert run_cli(argv) == 0, f"{w}: stage {name} failed"
        for path in out.rglob("*"):
            if path.is_file():
                key = f"{w}/{path.relative_to(out).as_posix()}"
                digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return dict(sorted(digests.items()))


def test_every_output_keeps_its_digest(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = output_digests(tmp_path)
    want = golden["digests"]
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not moved, (
        f"{len(moved)} of {len(want)} outputs differ from {GOLDEN.name}: {moved}; "
        f"recorded with {golden['environment']}, run with {environment()}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"seed": SEED, "environment": environment(), "digests": output_digests(tmp)}
    GOLDEN.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {len(doc['digests'])} digests to {GOLDEN}")
