"""The benchmark's set-up probe, ``reidbench/probe_setup.py``, run as the
benchmark runs it: a fresh process that imports reidkit and loads one
workload's inputs through its public loaders. ``setup_s`` times this path.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "reidbench"))
import workloads  # noqa: E402

PROBE = ROOT / "reidbench" / "probe_setup.py"


def _probe(items):
    return subprocess.run(
        [sys.executable, str(PROBE), *items],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_probe_loads_every_input(tiny_inputs, workload):
    items = [f"{kind}:{path}" for kind, path in workloads.setup_inputs(workload, tiny_inputs[workload])]
    proc = _probe(items)
    assert proc.returncode == 0, proc.stderr


def test_probe_fails_on_a_bad_input(tiny_inputs, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("index,person_id,camera_id,role,path\n0,1,1,probe,a.ppm\n")
    proc = _probe([f"emb:{os.path.join(tiny_inputs['market_global'], 'query.remb')}", f"index:{bad}"])
    assert proc.returncode != 0 and "unknown role 'probe'" in proc.stderr
