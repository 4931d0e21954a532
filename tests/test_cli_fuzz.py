"""Boundary values for every config flag, and for ``--lam`` of ``dist`` and
``eval`` with each local term, run in-process through ``run_cli`` on the
benchmark's TINY inputs: each case ends in exit 0 with nothing on stderr,
or in exit 1 or 2 with one line, and nothing escapes ``run_cli``. A value
whose arithmetic overflows float64 (``--lam 1e308``, ``mine --margin
1e308``) ends in exit 2, not in a numpy warning or an infinite output.
The same holds for every subcommand that reads a file when one of its
TINY input files is mutated as the decoder fuzz mutates bytes, and for
every path flag of every subcommand given an empty path, a NUL byte (exit
1), a directory, a path under a missing directory or a trailing separator.

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


PATH_FLAGS = {
    "embed": ["index", "images-root", "out"],
    "mask": ["images", "masks", "out"],
    "dist": ["emb-q", "emb-g", "out"],
    "eval": ["queries", "gallery", "emb-q", "emb-g", "out"],
    "mine": ["index", "emb", "out"],
    "ema": ["state", "student", "out"],
    "camera": ["index", "emb", "residual", "out-emb", "out"],
    "tsne": ["index", "emb", "trace", "out"],
}
PATH_CASES = [(command, flag) for command, flags in PATH_FLAGS.items() for flag in flags]
PATH_VALUES = ["empty", "nul", "directory", "missing-parent", "trailing-separator"]


def with_flag(argv, flag, value) -> list:
    """argv with --flag set to value, in place of its own value or appended;
    --state takes the place of ema's --init, --residual that of camera's
    --normalize."""
    argv = [a for a in argv if a != {"--state": "--init", "--residual": "--normalize"}.get(flag)]
    if flag not in argv:
        return argv + [flag, value]
    i = argv.index(flag)
    return argv[: i + 1] + [value] + argv[i + 2 :]


@pytest.mark.parametrize("value", PATH_VALUES)
@pytest.mark.parametrize("command, flag", PATH_CASES, ids=[f"{c}-{f}" for c, f in PATH_CASES])
def test_path_value_ends_in_a_documented_exit(tiny_inputs, tmp_path, monkeypatch, capsys, command, flag, value):
    # a relative path resolves in an empty directory
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    if command == "camera":  # its two outputs go inside out
        out.mkdir()
    argv = reading_stage(command, tiny_inputs, str(out))
    flag = f"--{flag}"
    own = argv[argv.index(flag) + 1] if flag in argv else str(tmp_path / "new")
    path = {
        "empty": "",
        "nul": "a\0b",
        "directory": str(tmp_path),
        "missing-parent": str(tmp_path / "missing" / "x"),
        "trailing-separator": own + os.sep,
    }[value]
    existed = os.path.isfile(own)
    code = assert_documented_exit(with_flag(argv, flag, path), capsys)
    if value == "nul":
        assert code == 1
    if value == "trailing-separator":  # it names no file, and never becomes one
        assert existed or not os.path.isfile(own)


@pytest.mark.parametrize("command", ["embed", "mask", "dist", "eval", "mine", "tsne", "camera", "ema"])
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), ops=mutations)
def test_mutated_input_ends_in_a_documented_exit(tiny_inputs, capsys, command, data, ops):
    with tempfile.TemporaryDirectory() as tmp:
        argv = reading_stage(command, tiny_inputs, os.path.join(tmp, "out"))
        target = data.draw(st.sampled_from(input_files(argv)))
        assert_documented_exit(with_mutated_copy(argv, target, ops, tmp), capsys)
