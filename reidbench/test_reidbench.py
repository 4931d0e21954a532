"""Self-test of the benchmark at tiny shapes: every workload's chain and
every check run in a few seconds, the checks reject wrong outputs, and the
benchmark refuses to run without reidkit's sources."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import formats
import gen
import run
import spans

SEED = 7
HEADER = formats._HEADER


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One traced in-process pass over all three chains at tiny shapes."""
    mp = pytest.MonkeyPatch()
    mp.setattr(run, "WORK", str(tmp_path_factory.mktemp("reidbench")))
    try:
        tally = run.Tally()
        yield run.traced("stripes_dp", SEED, gen.TINY, tally), tally, run.WORK
    finally:
        mp.undo()


def _benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_traced_run_passes_every_check_and_reports_every_layer(traced_run):
    metrics, tally, work = traced_run
    assert tally.failed == 0 and set(tally.kinds) == {"probes", "stages", "checks"}
    expected = [(m["name"], m["unit"]) for m in _benchmark_json()["per_layer"]]
    assert [(k, v["unit"]) for k, v in metrics.items()] == expected == spans.PER_LAYER
    for name, m in metrics.items():
        if name != "trace.overhead_pct":
            assert m["value"] > 0, name
    assert os.path.isfile(os.path.join(work, "trace", f"spans-stripes_dp-seed{SEED}.json"))


def test_untraced_run_reports_every_end_to_end_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    tally = run.Tally()
    metrics = run.untraced("market_global", SEED, 0, gen.TINY, tally)
    assert tally.failed == 0 and tally.kinds["checks"] == [3, 0]
    expected = [(m["name"], m["unit"]) for m in _benchmark_json()["end_to_end"]]
    assert [(k, v["unit"]) for k, v in metrics.items()] == expected
    assert all(m["value"] > 0 for m in metrics.values())


def _corrupt_json(path, key, fn):
    with open(path) as fh:
        doc = json.load(fh)
    doc[key] = fn(doc[key])
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _scale_f32(path, start=0, count=None):
    """Scale ``count`` float32 entries (all by default) from entry ``start``
    of a container's payload by 1 + 1e-5."""
    with open(path, "r+b") as fh:
        fh.seek(HEADER.size + 4 * start)
        v = np.frombuffer(fh.read() if count is None else fh.read(4 * count), "<f4")
        fh.seek(HEADER.size + 4 * start)
        fh.write((v * np.float32(1 + 1e-5)).astype("<f4").tobytes())


def _scale_first_local_row(path):
    with open(path, "rb") as fh:
        _, _, n, d, s, dl = HEADER.unpack(fh.read(HEADER.size))
    _scale_f32(path, start=n * d, count=s * dl)


def _shift_offset(offsets):
    first = sorted(offsets)[0]
    offsets[first][0] += 1e-6
    return offsets


def _swap_kl_lines(path):
    """Swap the KL after early exaggeration with the final KL."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[250], lines[-1] = lines[-1], lines[250]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


CORRUPTIONS = [
    ("market_global", "market.ap_bruteforce",
     lambda out: _corrupt_json(os.path.join(out, "report.json"), "per_query_ap", lambda ap: [a * 0.999 for a in ap])),
    ("market_global", "market.valid_queries",
     lambda out: _corrupt_json(os.path.join(out, "report.json"), "num_valid_queries", lambda n: n - 1)),
    ("market_global", "market.rdmx_entries", lambda out: _scale_f32(os.path.join(out, "dist.rdmx"))),
    ("stripes_dp", "stripes.masked_pixels",
     lambda out: shutil.copy(os.path.join(out, "masked", sorted(os.listdir(os.path.join(out, "masked")))[1]),
                             os.path.join(out, "masked", sorted(os.listdir(os.path.join(out, "masked")))[0]))),
    ("stripes_dp", "stripes.histograms", lambda out: _scale_first_local_row(os.path.join(out, "query.remb"))),
    ("stripes_dp", "stripes.dp_enumeration", lambda out: _scale_f32(os.path.join(out, "dist_dp.rdmx"))),
    ("stripes_dp", "stripes.one_to_one_ap",
     lambda out: _corrupt_json(os.path.join(out, "report_o2o.json"), "per_query_ap",
                               lambda ap: [ap[0] * 0.999] + ap[1:])),
    ("analysis", "analysis.camera_means",
     lambda out: _corrupt_json(os.path.join(out, "camera.json"), "offsets", _shift_offset)),
    ("analysis", "analysis.tsne_kl", lambda out: _swap_kl_lines(os.path.join(out, "tsne_kl.txt"))),
    ("analysis", "analysis.batch_hard",
     lambda out: _corrupt_json(os.path.join(out, "mine.json"), "loss", lambda v: v + 1e-6)),
    ("analysis", "analysis.ema_teacher",
     lambda out: shutil.copy(os.path.join(out, "ema0", "embed.bias.remb"), os.path.join(out, "ema1", "embed.bias.remb"))),
]


@pytest.mark.parametrize("workload,check,corrupt", CORRUPTIONS, ids=[c[1] for c in CORRUPTIONS])
def test_checks_reject_a_wrong_output(traced_run, tmp_path, workload, check, corrupt):
    _, _, work = traced_run
    out = shutil.copytree(os.path.join(work, "out", workload), tmp_path / "out")
    inp = gen.ensure_inputs(os.path.join(work, "inputs"), workload, SEED, gen.TINY)
    found = dict(checks.checks(workload, inp, str(out), gen.TINY, SEED))
    found[check]()
    corrupt(str(out))
    with pytest.raises(checks.CheckFailed):
        found[check]()


def test_every_check_has_a_corruption(traced_run):
    _, _, work = traced_run
    names = {name for w in run.workloads.WORKLOADS
             for name, _ in checks.checks(w, gen.ensure_inputs(os.path.join(work, "inputs"), w, SEED, gen.TINY),
                                          os.path.join(work, "out", w), gen.TINY, SEED)}
    assert names == {c[1] for c in CORRUPTIONS}


# Runs the traced benchmark at tiny shapes with SIGALRM delivered inside an
# in-process CLI stage or inside a check, as the deadline would be.
_ALARM_SCRIPT = """
import os, signal, sys
import checks, gen, run
sys.path.insert(0, run.SRC)
import reidkit.cli
gen.FULL = gen.TINY
run.WORK = sys.argv[1]
alarm = lambda *args: os.kill(os.getpid(), signal.SIGALRM)
if sys.argv[2] == "stage":
    reidkit.cli.run_cli = alarm
else:
    checks.checks = lambda *args: [("alarm", alarm)]
sys.exit(run.main(["--workload", "analysis", "--seed", "1", "--seconds", "1", "--trace", "1"]))
"""


@pytest.mark.parametrize("where", ["stage", "check"])
def test_deadline_stops_an_in_process_run(tmp_path, where):
    res = subprocess.run([sys.executable, "-c", _ALARM_SCRIPT, str(tmp_path), where], cwd=run.HERE,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode != 0 and res.stdout == ""
    assert "Stopped: stopped by signal" in res.stderr


def test_dp_oracle_path_count():
    assert len(checks.monotone_paths(8)) == 3432


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "reidbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    res = subprocess.run([sys.executable, "reidbench/run.py", "--workload", "analysis", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode != 0 and res.stdout == ""
