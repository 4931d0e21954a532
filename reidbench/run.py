"""reidkit benchmark: three workloads run as chains of ``reidkit`` CLI
stages on seeded synthetic inputs, with every stage's outputs checked.

    python3 reidbench/run.py --workload market_global --seed 1 --seconds 20 --trace 0

``--trace 0`` runs each stage as its own child process, one at a time,
and prints the end-to-end metrics. ``--trace 1`` runs the chains of all
three workloads in-process with spans around every call into a reidkit
module and prints the per-layer metrics; it makes one pass and does not
use ``--seconds``. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory.
"""

import os
import sys

# One BLAS thread in every child and, when run as a script, here too (the
# traced run computes in-process); it must be set before numpy is imported.
BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")}
if __name__ == "__main__":
    os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".reidbench")
DEADLINE_S = 170  # every run ends within 180 s


class Stopped(BaseException):
    """The deadline passed or SIGTERM came: a BaseException, so that the
    ``except Exception`` around a stage or a check does not swallow it."""


class Tally:
    """Operations attempted and failed, by kind: start-up probes, CLI
    stages and checks."""

    def __init__(self):
        self.kinds = {}

    def add(self, kind, attempted, failed):
        counts = self.kinds.setdefault(kind, [0, 0])
        counts[0] += attempted
        counts[1] += failed

    @property
    def attempted(self):
        return sum(a for a, _ in self.kinds.values())

    @property
    def failed(self):
        return sum(f for _, f in self.kinds.values())

    def __str__(self):
        return "; ".join(f"{kind}: {a} attempted, {f} failed" for kind, (a, f) in self.kinds.items())


def _stop(signum, frame):
    """SIGALRM after DEADLINE_S, or SIGTERM: unwind, so that the running
    child is killed and reaped (see ``spawn``)."""
    raise Stopped(f"stopped by signal {signum}")


def _log(msg):
    print(f"reidbench: {msg}", file=sys.stderr, flush=True)


def spawn(args, log_prefix):
    """Run ``python3 <args>`` as a child with reidkit's sources on its
    path and wait for it. Returns (wall s, user+system CPU s, peak RSS MB,
    exit code); stdout and stderr go to ``<log_prefix>.out/.err``."""
    env = dict(os.environ, PYTHONPATH=SRC, **BLAS_ENV)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, log_prefix + ".out", flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, log_prefix + ".err", flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        with open(log_prefix + ".err") as fh:
            _log(f"{' '.join(args[:3])} exited {code}: {fh.read()[-2000:]}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code


def run_checks(workload, inp, out, sizes, seed, tally):
    """Run the workload's checks of the outputs in ``out``."""
    found = checks.checks(workload, inp, out, sizes, seed)
    failed = 0
    for name, check in found:
        try:
            check()
        except Exception as e:  # a check that cannot read its output fails too
            failed += 1
            _log(f"check {name} failed: {type(e).__name__}: {e}")
    tally.add("checks", len(found), failed)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Probe:
    """Fresh processes ``python3 <args>``, timed one at a time; the first
    is a warm-up and is not timed."""

    def __init__(self, args, name, tally):
        self.args, self.tally, self.walls = args, tally, []
        self.log = os.path.join(fresh_dir(os.path.join(WORK, name)), "probe")
        self._run()

    def _run(self):
        wall, _, _, code = spawn(self.args, self.log)
        self.tally.add("probes", 1, code != 0)
        return wall

    def sample(self):
        self.walls.append(self._run())

    def median(self, at_least):
        """Median wall time, after timing more probes if fewer than
        ``at_least`` have been timed."""
        while len(self.walls) < at_least:
            self.sample()
        return statistics.median(self.walls)


def untraced(workload, seed, seconds, sizes, tally):
    """End-to-end metrics of ``workload`` from child processes."""
    inp = gen.ensure_inputs(os.path.join(WORK, "inputs"), workload, seed, sizes)
    # ``setup_s``: processes that import reidkit and load the workload's
    # inputs through its public loaders
    setup = Probe([os.path.join(HERE, "probe_setup.py")]
                  + [f"{kind}:{path}" for kind, path in workloads.setup_inputs(workload, inp)], "setup", tally)
    out = os.path.join(WORK, "out", workload)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        # one set-up probe per round, so that set-up is sampled across the
        # whole run as the rounds are; the VM's speed shifts within seconds
        setup.sample()
        fresh_dir(out)
        stages = []
        for k, (name, argv) in enumerate(workloads.chain(workload, inp, out, sizes, seed)):
            wall, cpu, rss, code = spawn(["-m", "reidkit.cli", *argv], os.path.join(out, f"{k}-{name}"))
            stages.append((wall, cpu, rss))
            tally.add("stages", 1, code != 0)
            gen.fsync_tree(out)
            _log(f"{workload} stage {k} {name}: wall {wall:.3f} s, cpu {cpu:.3f} s, rss {rss:.0f} MB")
        run_checks(workload, inp, out, sizes, seed, tally)
        rounds.append((sum(s[0] for s in stages), sum(s[1] for s in stages), max(s[2] for s in stages)))
    setup_s = setup.median(sizes["setup_repeats"])
    median = lambda k: statistics.median(r[k] for r in rounds)  # noqa: E731
    metrics = {
        "wall_s": {"value": median(0), "unit": "s"},
        "cpu_s": {"value": median(1), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": median(2), "unit": "MB"},
    }
    _log(f"{workload}: {len(rounds)} rounds, wall {[round(r[0], 3) for r in rounds]}")
    return metrics


def _import_reidkit():
    sys.path.insert(0, SRC)
    import reidkit
    from reidkit import camera, cli, distance, ensemble, featurize, gallery, imaging, metrics, mining, tsne

    if not os.path.abspath(reidkit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"reidkit imported from {reidkit.__file__}, not from {SRC}")
    modules = dict(camera=camera, distance=distance, ensemble=ensemble, featurize=featurize,
                   gallery=gallery, imaging=imaging, metrics=metrics, mining=mining, tsne=tsne)
    return cli, modules


def _run_cli(cli, argv):
    try:
        return cli.run_cli(argv)
    except Exception:  # a traceback fails the stage, as it does in a child process
        _log(f"{argv[0]} raised:\n{traceback.format_exc()}")
        return 1


def run_chain_inprocess(cli, workload, inp, out, sizes, seed, tally, tracer=None):
    """Run one round in this process; returns the stages' summed seconds."""
    fresh_dir(out)
    total = 0.0
    for name, argv in workloads.chain(workload, inp, out, sizes, seed):
        t0 = time.perf_counter()
        if tracer is None:
            code = _run_cli(cli, argv)
        else:
            with tracer.span(f"cli.{name}", f"cli.{name}_s"):
                code = _run_cli(cli, argv)
        total += time.perf_counter() - t0
        tally.add("stages", 1, code != 0)
        gen.fsync_tree(out)
    return total


def traced(workload, seed, sizes, tally):
    """Per-layer metrics from a traced in-process pass over all three
    chains, and the tracing overhead on ``workload``'s chain."""
    cli, modules = _import_reidkit()
    startup_s = Probe(["-c", "import reidkit.cli as c; c.build_parser()"], "startup", tally).median(
        sizes["startup_probes"])
    inputs = {w: gen.ensure_inputs(os.path.join(WORK, "inputs"), w, seed, sizes) for w in workloads.WORKLOADS}
    out = {w: os.path.join(WORK, "out", w) for w in workloads.WORKLOADS}

    def one(w, tracer=None):
        seconds = run_chain_inprocess(cli, w, inputs[w], out[w], sizes, seed, tally, tracer)
        run_checks(w, inputs[w], out[w], sizes, seed, tally)
        return seconds

    # the untraced chain runs before and after the traced pass, so that
    # neither side alone pays for a cold start
    plain_s = one(workload)
    tracer = spans.Tracer()
    with tracer.patched(modules):
        for w in workloads.WORKLOADS:
            tracer.trace_id = w
            one(w, tracer)
    plain_s = (plain_s + one(workload)) / 2
    traced_s = sum(s["end"] - s["start"] for s in tracer.spans
                   if s["trace"] == workload and s["parent"] is None)
    path = os.path.join(WORK, "trace", f"spans-{workload}-seed{seed}.json")
    tracer.write(path)
    _log(f"span file: {path}")
    overhead = 100.0 * (traced_s - plain_s) / plain_s
    return spans.layer_metrics(tracer, startup_s, overhead)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0, help="run whole rounds until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "reidkit", "cli.py")):
        _log(f"no reidkit sources under {SRC}")
        return 2
    sizes = gen.FULL
    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(DEADLINE_S)
    tally = Tally()
    if args.trace:
        metrics = traced(args.workload, args.seed, sizes, tally)
    else:
        metrics = untraced(args.workload, args.seed, args.seconds, sizes, tally)
    signal.alarm(0)
    _log(str(tally))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
