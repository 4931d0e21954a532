"""Boundary values for every config flag, run in-process through ``run_cli``
on the benchmark's TINY inputs: each case ends in exit 0 with nothing on
stderr, or in exit 1 or 2 with one line, and nothing escapes ``run_cli``.

``tsne --iterations`` has no upper bound by design (each iteration costs
O(N^2)), so it draws no value above 2.
"""

import warnings

import pytest

from reidkit.cli import run_cli

from conftest import config_stage

CONFIG_FLAGS = {
    "embed": ["stripes", "bins"],
    "eval": ["max-rank"],
    "mine": ["p", "k", "margin", "seed"],
    "tsne": ["perplexity", "iterations", "learning-rate", "seed"],
    "ema": ["alpha"],
}
HUGE = [str(2**31), str(2**32), str(2**63), "1e15"]
BOUNDARY_VALUES = ["0", "-1", "1", "2", *HUGE, "nan", "inf", "-inf", ""]
CASES = [
    (command, flag, value)
    for command, flags in CONFIG_FLAGS.items()
    for flag in flags
    for value in BOUNDARY_VALUES
    if (command, flag) != ("tsne", "iterations") or value not in HUGE
]


@pytest.mark.parametrize("command, flag, value", CASES, ids=lambda v: v or "empty")
def test_boundary_value_ends_in_a_documented_exit(tiny_inputs, tmp_path, capsys, command, flag, value):
    # a short descent for every tsne case; the flag drawn comes last, so it wins
    short = ["--iterations", "2"] if command == "tsne" else []
    argv = config_stage(command, tiny_inputs, tmp_path / "out") + short + [f"--{flag}={value}"]
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
