"""The falsifier's counter-based stream: trial t reads its scalar row at its
own counter origin, a report depends only on (seed, trials, config), not on
the process, and no trial reads past its scalar row. Also the integer-only
falsifier inputs, and CLI overflows that end as a typed error rather than a
numpy warning."""

import importlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mixdiv as M
from mixdiv import INEQUALITY_IDS, FalsifyConfig, falsify
from mixdiv.cli import main
from mixdiv.errors import InvalidParameter

# the module, which the package's `falsify` function shadows as an attribute
falsify_module = importlib.import_module("mixdiv.falsify")


def test_a_trial_draws_the_same_wherever_its_block_starts():
    def trial(t, trials):
        for i, draws in enumerate(falsify_module._trial_draws(9, trials, 13)):
            if i == t:
                return list(draws.row), list(draws.exponential(1.0, 5))

    expected = trial(300, 301)
    assert trial(300, 1000) == expected


@pytest.mark.parametrize("seed, t, width", [(0, 0, 13), (9, 300, 13), (2**64, 7, 196)])
def test_a_trial_reads_its_row_at_its_counter_origin(seed, t, width):
    bits = np.random.Philox(np.random.SeedSequence(seed))
    state = bits.state
    state["state"]["counter"][:] = (0, 0, t + 1, 0)
    bits.state = state
    generator = np.random.Generator(bits)
    expected = generator.random(width).tolist(), generator.exponential(1.0, 5).tolist()
    draws = next(itertools.islice(falsify_module._trial_draws(seed, t + 1, width), t, None))
    assert (draws.row, draws.exponential(1.0, 5).tolist()) == expected


def test_cli_falsify_output_does_not_depend_on_the_hash_seed(tmp_path):
    spec = tmp_path / "falsify.json"
    spec.write_text(json.dumps({"tasks": [
        {"inequality": iq, "seed": 17, "trials": 30} for iq in INEQUALITY_IDS
    ]}))
    src = str(Path(M.__file__).resolve().parent.parent)
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "mixdiv.cli", "falsify", "--spec", str(spec)],
            env=env, capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("seed", [0, 2**64, 10**300])
def test_every_nonnegative_seed_runs(seed):
    report = falsify("jensen_bound", seed, 5)
    assert report["seed"] == seed and report["violations"] == 0


def test_a_negative_seed_still_raises():
    with pytest.raises(InvalidParameter):
        falsify("jensen_bound", -1, 5)


@pytest.mark.parametrize("inequality", INEQUALITY_IDS)
def test_no_trial_reads_past_its_row_at_the_largest_n(monkeypatch, inequality):
    reads = []
    trial_draws = falsify_module._trial_draws

    def recording(seed, trials, width):
        for draws in trial_draws(seed, trials, width):
            yield draws
            reads.append((draws.k, len(draws.row), width))

    monkeypatch.setattr(falsify_module, "_trial_draws", recording)
    falsify(inequality, 12, 200, FalsifyConfig(max_n=falsify_module.MAX_N))
    assert len(reads) == 200
    assert all(k <= length == width for k, length, width in reads)


@pytest.mark.parametrize("max_n", [1, 4, falsify_module.MAX_N])
def test_the_row_holds_exactly_the_most_scalars_a_trial_draws(max_n):
    # 0.99 steers every draw to its most scalars: n = max_n, m = n, and each
    # generator a linear one, behind every branch pick
    width = falsify_module._row_width(max_n)
    draws = falsify_module._Draws(np.random.default_rng(0))
    reads = []
    for run in falsify_module._TRIALS.values():
        draws.row, draws.k = [0.99] * width, 0
        run(draws, FalsifyConfig(max_n=max_n))
        reads.append(draws.k)
    assert max(reads) == width


def test_a_read_past_the_row_raises():
    draws = falsify_module._Draws(None)
    draws.row, draws.k = [0.25, 0.5], 0
    assert (draws.integers(4), draws.uniform(1.0, 3.0)) == (1, 2.0)
    with pytest.raises(IndexError):
        draws.random()


# -- integer-only falsifier inputs -------------------------------------------


NOT_INTEGERS = [1.5, 2.0, True, False, "3", None, np.float64(3.0), np.bool_(True)]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("call", [
    lambda value: falsify("jensen_bound", value, 3),
    lambda value: falsify("jensen_bound", 3, value),
    lambda value: FalsifyConfig(max_atoms=value),
    lambda value: FalsifyConfig(max_n=value),
], ids=["seed", "trials", "max_atoms", "max_n"])
def test_falsify_inputs_must_be_integers(call, value):
    with pytest.raises(InvalidParameter):
        call(value)


@pytest.mark.parametrize("value", [np.int64(3), np.uint8(3), np.int32(3)], ids=repr)
def test_numpy_integers_are_integers(value):
    report = falsify("jensen_bound", value, value, FalsifyConfig(max_atoms=value, max_n=value))
    assert (report["seed"], report["trials"]) == (3, 3)
    assert report == falsify("jensen_bound", 3, 3, FalsifyConfig(3, 3))


# -- CLI overflows -------------------------------------------------------------


def _overflow_spec(task):
    return {"space": {"weights": [0.5, 0.5]},
            "densities": {"p": [0.5, 1.5], "q": [1.5, 0.5]},
            "tasks": [task]}


OVERFLOWS = {
    "renyi_alpha_2000": {"type": "named", "family": "mixed_renyi", "ps": ["p"], "qs": ["q"],
                         "alpha": 2000},
    "renyi_alpha_-2000": {"type": "named", "family": "mixed_renyi", "ps": ["p"], "qs": ["q"],
                          "alpha": -2000},
    "ith_i_-1e5": {"type": "ith", "f1": {"kind": "power", "alpha": 0.5},
                   "f2": {"kind": "linear", "a": 1, "b": 0.5},
                   "p1": "p", "q1": "q", "p2": "q", "q2": "p", "i": -1e5, "n": 2},
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", OVERFLOWS)
def test_cli_overflow_exits_2_with_a_typed_error(tmp_path, capsys, name):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_overflow_spec(OVERFLOWS[name])))
    assert main(["compute", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "NonFiniteValue"
