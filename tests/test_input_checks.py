"""Density sizes checked before any integrand is formed, a zero linear
generator in the concave chain, and flags only on the subcommands that read
them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mixdiv as M
from mixdiv.cli import main
from mixdiv.divergences import (
    classical_f_divergence,
    ith_mixed,
    ith_mixed_reference,
    named_divergence,
)
from mixdiv.errors import LengthMismatch, SpaceMismatch
from mixdiv.ffunctions import FVector, make_builtin
from mixdiv.inequalities import concave_chain_check, corollary_bound_check, interpolation_check
from mixdiv.measures import Density, DensityBundle, make_space

SPACE = make_space([0.25, 0.25, 0.5])  # a probability space, for the reference forms
ONE = Density(np.ones(3))
F = make_builtin("power", alpha=0.5)

CALLS = {
    "classical": lambda d: classical_f_divergence(F, d, ONE, SPACE),
    "ith": lambda d: ith_mixed(F, F, ONE, ONE, ONE, d, 1.0, 2, SPACE),
    "ith_reference": lambda d: ith_mixed_reference(F, ONE, d, 1.0, F, SPACE, 2),
    "interpolation": lambda d: interpolation_check(
        F, F, ONE, ONE, d, ONE, 1.0, 0.5, 1.5, 2, SPACE),
    "concave_band": lambda d: corollary_bound_check(
        "concave_band", F, F, d, ONE, 1.0, 2, SPACE, P2=ONE, Q2=ONE),
    "reference_concave": lambda d: corollary_bound_check(
        "reference_concave", F, F, ONE, d, 1.0, 2, SPACE),
}


@pytest.mark.parametrize("size", [1, 4])
@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_a_density_of_another_size_raises_space_mismatch(call, size):
    with pytest.raises(SpaceMismatch):
        call(Density(np.ones(size)))


@pytest.mark.parametrize("orientation", ["pq", "qp"])
def test_mixed_kl_checks_bundle_spaces_and_lengths(orientation):
    P = DensityBundle(SPACE, (ONE, ONE))
    other = DensityBundle(make_space([0.5, 0.5]), (Density(np.ones(2)),) * 2)
    with pytest.raises(SpaceMismatch):
        named_divergence("mixed_kl", P, other, kl_orientation=orientation)
    for n in (1, 3):
        with pytest.raises(LengthMismatch):
            named_divergence("mixed_kl", P, DensityBundle(SPACE, (ONE,) * n),
                             kl_orientation=orientation)


def _linear(a, b):
    return {"kind": "linear", "a": a, "b": b}


def test_verify_concave_chain_with_a_zero_linear_generator_warns_nothing(tmp_path):
    spec = {"space": {"weights": [0.25, 0.25, 0.5]},
            "densities": {"p": [0.8, 1.2, 1.0], "q": [1.6, 1.6, 0.4]},
            "tasks": [{"type": "concave_chain", "fs": [_linear(0, 0), _linear(1.0, 2.0)],
                       "ps": ["p", "p"], "qs": ["q", "q"]}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    src = str(Path(M.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "mixdiv.cli", "verify",
         "--spec", str(path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    left = json.loads(proc.stdout)["results"][0]
    assert left["diagnosis"] == {"convex_combinations_equal": True}


@pytest.mark.parametrize("second, equal", [
    (make_builtin("power", alpha=1.0), True),  # t, as linear(1, 0)
    (make_builtin("power", alpha=0.0), False),  # 1, as linear(0, 1)
    (make_builtin("linear", a=0.0, b=0.0), True),  # zero: both sides 0
])
def test_concave_chain_reads_each_linear_generator_as_a_t_plus_b(second, equal):
    p, q = Density([0.8, 1.2, 1.0]), Density([1.6, 1.6, 0.4])
    fv = FVector([make_builtin("linear", a=1.0, b=0.0), second])
    P, Q = DensityBundle(SPACE, (p, p)), DensityBundle(SPACE, (q, q))
    left, _ = concave_chain_check(fv, P, Q)
    # the Hoelder step is diagnosed only at equality, which p != q breaks
    assert left.equality == equal
    assert left.diagnosis == ({"convex_combinations_equal": True} if equal else None)


@pytest.mark.parametrize("command, flag", [
    ("compute", ["--seed", "1"]), ("compute", ["--trials", "3"]),
    ("verify", ["--seed", "1"]), ("verify", ["--emit-integrand"]),
    ("geometry", ["--trials", "3"]), ("falsify", ["--emit-integrand"]),
])
def test_a_flag_is_rejected_by_subcommands_that_do_not_read_it(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--spec", "spec.json", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
