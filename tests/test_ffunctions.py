import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixdiv import adjoint, eval_f, from_spec, make_builtin, weighted_term
from mixdiv.errors import DomainError, IndeterminateValue, InvalidParameter
from mixdiv.ffunctions import _KINDS

GRID = np.logspace(-6, 6, 1000)

BUILTINS = [
    make_builtin("tv"),
    make_builtin("klplus"),
    make_builtin("power", alpha=0.5),
    make_builtin("power", alpha=2.0),
    make_builtin("power", alpha=-1.0),
    make_builtin("linear", a=1.0, b=0.5),
    make_builtin("scaled", lam=2.0, inner=make_builtin("power", alpha=0.5)),
]


def test_eval_examples():
    assert eval_f(make_builtin("tv"), 1.0) == 0.0
    assert eval_f(make_builtin("power", alpha=0.5), 4.0) == pytest.approx(2.0)
    assert eval_f(make_builtin("klplus"), 0.5) == 0.0


@pytest.mark.parametrize("t", [0.0, -1.0, float("inf"), float("nan")])
def test_eval_domain(t):
    with pytest.raises(DomainError):
        eval_f(make_builtin("tv"), t)


def test_adjoint_closed_forms():
    assert adjoint(make_builtin("power", alpha=0.3)).describe() == {
        "kind": "power", "alpha": 0.7,
    }
    assert adjoint(make_builtin("tv")).describe() == {"kind": "tv"}
    assert adjoint(make_builtin("linear", a=1.0, b=2.0)).describe() == {
        "kind": "linear", "a": 2.0, "b": 1.0,
    }


@pytest.mark.parametrize("f", BUILTINS)
def test_adjoint_identity_on_grid(f):
    fa = adjoint(f)
    expected = GRID * f(1.0 / GRID)
    got = fa(GRID)
    assert np.all(np.abs(got - expected) <= 1e-12 * (1.0 + np.abs(expected)))


@pytest.mark.parametrize("f", BUILTINS)
def test_adjoint_involution(f):
    faa = adjoint(adjoint(f))
    assert np.all(
        np.abs(faa(GRID) - f(GRID)) <= 1e-12 * (1.0 + np.abs(f(GRID)))
    )


@pytest.mark.parametrize("f", BUILTINS)
def test_nonnegative_on_grid(f):
    assert np.all(f(GRID) >= 0.0)


@pytest.mark.parametrize("f", BUILTINS)
def test_adjoint_preserves_tag(f):
    assert adjoint(f).convexity_tag == f.convexity_tag


@pytest.mark.parametrize("f", BUILTINS)
def test_convexity_tag_sound(f):
    rng = np.random.default_rng(7)
    lam = rng.uniform(0, 1, 1000)
    x = rng.uniform(0.01, 10.0, 1000)
    y = rng.uniform(0.01, 10.0, 1000)
    mid = f(lam * x + (1 - lam) * y)
    chord = lam * f(x) + (1 - lam) * f(y)
    if f.is_convex:
        assert np.all(mid <= chord + 1e-12)
    if f.is_concave:
        assert np.all(mid >= chord - 1e-12)


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (3, 3), (5, 4)])
def test_mixed_term_concavity_for_concave_f(n, k):
    # (x, y) -> [y f(x/y)]^(k/n) is concave when f is concave
    f = make_builtin("power", alpha=0.5)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x1, y1, x2, y2 = rng.uniform(0.01, 10.0, 4)
        lam = rng.uniform()
        xl = lam * x1 + (1 - lam) * x2
        yl = lam * y1 + (1 - lam) * y2
        g = lambda x, y: (y * f(x / y)) ** (k / n)
        assert g(xl, yl) >= lam * g(x1, y1) + (1 - lam) * g(x2, y2) - 1e-12


def test_tags():
    assert make_builtin("power", alpha=0.5).convexity_tag == "strictly_concave"
    assert make_builtin("power", alpha=2).convexity_tag == "strictly_convex"
    assert make_builtin("power", alpha=-1).convexity_tag == "strictly_convex"
    assert make_builtin("power", alpha=1).convexity_tag == "linear"
    assert make_builtin("power", alpha=0).convexity_tag == "linear"
    assert make_builtin("tv").convexity_tag == "convex"
    assert make_builtin("linear", a=1, b=0).convexity_tag == "linear"


def test_value_at_one():
    assert make_builtin("power", alpha=0.5).value_at_one == 1.0
    assert make_builtin("linear", a=1, b=0).value_at_one == 1.0
    assert make_builtin("tv").value_at_one == 0.0


def test_invalid_parameters():
    with pytest.raises(InvalidParameter):
        make_builtin("linear", a=1.0, b=-2.0)
    with pytest.raises(InvalidParameter):
        make_builtin("scaled", lam=-1.0, inner=make_builtin("tv"))
    with pytest.raises(InvalidParameter):
        make_builtin("nope")


def test_weighted_term_basic():
    f = make_builtin("tv")
    assert weighted_term(f, 0.5, 0.25) == pytest.approx(0.25)


@pytest.mark.parametrize("f", BUILTINS)
def test_weighted_term_zero_zero(f):
    assert weighted_term(f, 0.0, 0.0) == 0.0


def test_weighted_term_limits():
    # limit at zero is 0 for sqrt, so q * f(0+) = 0
    assert weighted_term(make_builtin("power", alpha=0.5), 0.0, 0.3) == 0.0
    # tv has limit 1 at 0 and slope 1 at infinity
    assert weighted_term(make_builtin("tv"), 0.0, 0.3) == pytest.approx(0.3)
    assert weighted_term(make_builtin("tv"), 0.4, 0.0) == pytest.approx(0.4)


def test_weighted_term_indeterminate():
    with pytest.raises(IndeterminateValue):
        weighted_term(make_builtin("klplus"), 0.4, 0.0)  # infinite slope
    with pytest.raises(IndeterminateValue):
        weighted_term(make_builtin("power", alpha=-1.0), 0.0, 0.4)


@given(st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=200)
def test_klplus_adjoint_pointwise(t):
    f = make_builtin("klplus")
    fa = adjoint(f)
    expected = t * f(1.0 / t)
    assert abs(fa(t) - expected) <= 1e-12 * (1.0 + abs(expected))


def test_json_spec_round_trip():
    specs = [
        {"kind": "tv"},
        {"kind": "klplus"},
        {"kind": "power", "alpha": 0.5},
        {"kind": "linear", "a": 1.0, "b": 0.0},
        {"kind": "scaled", "lambda": 2.0, "inner": {"kind": "power", "alpha": 2.0}},
    ]
    for spec in specs:
        assert from_spec(spec).describe() == spec


def test_adjoint_spec_collapses_to_closed_form():
    f = from_spec({"kind": "adjoint", "inner": {"kind": "power", "alpha": 0.25}})
    assert f.describe() == {"kind": "power", "alpha": 0.75}


def test_scaled_generator_evaluates_at_a_scalar():
    f = make_builtin("scaled", lam=2.0, inner=make_builtin("power", alpha=0.5))
    assert eval_f(f, 4.0) == 4.0
    assert weighted_term(f, 1.0, 4.0) == 4.0
    assert adjoint(f)(4.0) == 4.0


@pytest.mark.parametrize("kind,params", [
    ("power", {}),
    ("power", {"alpha": "x"}),
    ("linear", {"a": [1.0]}),
    ("scaled", {"inner": make_builtin("tv")}),
    ("scaled", {"lam": 1.0}),
    ("adjoint", {}),
])
def test_make_builtin_bad_parameters_raise(kind, params):
    with pytest.raises(InvalidParameter):
        make_builtin(kind, **params)


def test_readme_lists_the_generator_kinds_and_spec_keys():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.search(r"Generator kinds and their spec keys:(.*?)\n\n", readme, re.S).group(1)
    entries = [re.findall(r"`([^`]+)`", part) for part in listed.split(";")]
    registry = [(kind, tuple(entry.spec)) for kind, entry in _KINDS.items()]
    assert [(names[0], tuple(names[1:])) for names in entries] == registry
