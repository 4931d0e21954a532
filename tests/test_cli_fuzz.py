"""Boundary values for every config flag, and for ``--lam`` of ``dist`` and
``eval`` with each local term, run in-process through ``run_cli`` on the
benchmark's TINY inputs: each case ends in exit 0 with nothing on stderr,
or in exit 1 or 2 with one line, and nothing escapes ``run_cli``. A value
whose arithmetic overflows float64 (``--lam 1e308``, ``mine --margin
1e308``) ends in exit 2, not in a numpy warning or an infinite output.
The same holds for every subcommand that reads a file when one of its
TINY input files is mutated as the decoder fuzz mutates bytes.

``tsne --iterations`` has no upper bound by design (each iteration costs
O(N^2)), so it draws no value above 2.
"""

import os
import shutil
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reidkit.cli import run_cli

from conftest import config_stage
from test_decoder_fuzz import mutate, mutations

CONFIG_FLAGS = {
    "embed": ["stripes", "bins"],
    "eval": ["max-rank"],
    "mine": ["p", "k", "margin", "seed"],
    "tsne": ["perplexity", "iterations", "learning-rate", "seed"],
    "ema": ["alpha"],
}
HUGE = [str(2**31), str(2**32), str(2**63), "1e15"]
BOUNDARY_VALUES = ["0", "-1", "1", "2", *HUGE, "1e308", "1.7e308", "nan", "inf", "-inf", ""]
CASES = [
    (command, flag, value)
    for command, flags in CONFIG_FLAGS.items()
    for flag in flags
    for value in BOUNDARY_VALUES
    if (command, flag) != ("tsne", "iterations") or value not in HUGE
]


def assert_documented_exit(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(argv)
    err = capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]  # a warning would print to stderr
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("usage error: " if code == 1 else "error: ")
        assert err.count("\n") == 1
    return code


@pytest.mark.parametrize("command, flag, value", CASES, ids=lambda v: v or "empty")
def test_boundary_value_ends_in_a_documented_exit(tiny_inputs, tmp_path, capsys, command, flag, value):
    # a short descent for every tsne case; the flag drawn comes last, so it wins
    short = ["--iterations", "2"] if command == "tsne" else []
    argv = config_stage(command, tiny_inputs, tmp_path / "out") + short + [f"--{flag}={value}"]
    assert_documented_exit(argv, capsys)


@pytest.mark.parametrize("value", BOUNDARY_VALUES, ids=lambda v: v or "empty")
@pytest.mark.parametrize("mode", ["dp_aligned", "one_to_one"])
@pytest.mark.parametrize("command", ["dist", "eval_stripes"])
def test_lam_boundary_value_ends_in_a_documented_exit(tiny_inputs, tmp_path, capsys, command, mode, value):
    argv = config_stage(command, tiny_inputs, tmp_path / "out") + ["--local-mode", mode, f"--lam={value}"]
    assert_documented_exit(argv, capsys)


@pytest.mark.parametrize(
    "command, flags",
    [("dist", ["--local-mode", "dp_aligned", "--lam", "1e308"]),
     ("eval_stripes", ["--local-mode", "one_to_one", "--lam", "1.7e308"]),
     ("mine", ["--margin", "1e308"])],
    ids=["dist_lam", "eval_lam", "mine_margin"],
)
def test_float64_overflow_is_a_data_error(tiny_inputs, tmp_path, capsys, command, flags):
    out = tmp_path / "out"
    assert assert_documented_exit(config_stage(command, tiny_inputs, out) + flags, capsys) == 2
    assert not out.exists()


def reading_stage(command, inputs, out) -> list:
    """argv of one run of command on the TINY inputs, writing under out;
    tsne runs a two-step descent."""
    s, a = inputs["stripes_dp"], inputs["analysis"]
    j = os.path.join
    if command == "mask":
        return ["mask", "--images", j(s, "images"), "--masks", j(s, "masks"), "--out", out]
    if command == "camera":
        return ["camera", "--index", j(a, "train.csv"), "--emb", j(a, "train.remb"), "--normalize",
                "--out-emb", j(out, "normalized.remb"), "--out", j(out, "camera.json")]
    return config_stage(command, inputs, out) + (["--iterations", "2"] if command == "tsne" else [])


def input_files(argv) -> list:
    """The files argv names, and those in the directories it names."""
    files = [a for a in argv if os.path.isfile(a)]
    for d in filter(os.path.isdir, argv):
        files += [os.path.join(d, n) for n in sorted(os.listdir(d))]
    return files


def with_mutated_copy(argv, target, ops, tmp) -> list:
    """argv reading a mutated copy of target in tmp: of the file itself, or
    of the directory argv names that holds it."""
    i = argv.index(target) if target in argv else argv.index(os.path.dirname(target))
    copy = mutated = os.path.join(tmp, os.path.basename(argv[i]))
    if argv[i] != target:
        shutil.copytree(argv[i], copy)
        mutated = os.path.join(copy, os.path.basename(target))
    with open(target, "rb") as fh, open(mutated, "wb") as out:
        out.write(mutate(fh.read(), ops))
    return argv[:i] + [copy] + argv[i + 1 :]


@pytest.mark.parametrize("command", ["embed", "mask", "dist", "eval", "mine", "tsne", "camera", "ema"])
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), ops=mutations)
def test_mutated_input_ends_in_a_documented_exit(tiny_inputs, capsys, command, data, ops):
    with tempfile.TemporaryDirectory() as tmp:
        argv = reading_stage(command, tiny_inputs, os.path.join(tmp, "out"))
        target = data.draw(st.sampled_from(input_files(argv)))
        assert_documented_exit(with_mutated_copy(argv, target, ops, tmp), capsys)
