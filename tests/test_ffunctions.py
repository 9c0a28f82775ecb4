import math
import re
from fractions import Fraction
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
    make_builtin("logplus"),
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
    # any numbers.Real that is not a bool, numpy scalars too
    assert eval_f(make_builtin("tv"), np.int64(2)) == eval_f(make_builtin("tv"), 2.0)
    assert eval_f(make_builtin("tv"), np.float32(2.0)) == eval_f(make_builtin("tv"), 2.0)


@pytest.mark.parametrize("t", [
    0.0, -1.0, float("inf"), float("nan"), True, np.True_,
    # reals beyond the float range
    pytest.param(10 ** 400, id="huge"), pytest.param(-10 ** 400, id="-huge"),
    pytest.param(Fraction(10 ** 400, 3), id="huge_fraction"),
])
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
    # [ln t]_+ is flat on (0, 1] and concave beyond: neither
    logplus = make_builtin("logplus")
    assert logplus.convexity_tag == "neither"
    assert not logplus.is_convex and not logplus.is_concave and not logplus.is_strict


def test_logplus_limits():
    f = make_builtin("logplus")
    assert (f.value_at_one, f.limit_at_zero, f.slope_at_infinity) == (0.0, 0.0, 0.0)
    assert eval_f(f, math.e) == 1.0 and eval_f(f, 0.5) == 0.0
    # q * f(p/q) at q = 0 is p * f'(inf) = 0; at p = 0, q * f(0+) = 0
    assert weighted_term(f, 0.4, 0.0) == 0.0 and weighted_term(f, 0.0, 0.4) == 0.0


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
        {"kind": "logplus"},
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
    ("power", {"alpha": math.inf}),
])
def test_make_builtin_bad_parameters_raise(kind, params):
    with pytest.raises(InvalidParameter):
        make_builtin(kind, **params)


@pytest.mark.parametrize("spec, key", [
    ({"kind": "linear", "a": 1.0, "B": 0.5}, "'B'"),
    ({"kind": "power", "alpha": 2, "alpah": 0.5}, "'alpah'"),
    ({"kind": "tv", "alpha": 2}, "'alpha'"),
    ({"kind": "scaled", "lambda": 2.0, "lam": 2.0, "inner": {"kind": "tv"}}, "'lam'"),
    # a nested spec is held to its own kind's keys
    ({"kind": "adjoint", "inner": {"kind": "linear", "a": 1.0, "B": 0.5}}, "'B'"),
])
def test_from_spec_refuses_a_key_its_kind_does_not_name(spec, key):
    with pytest.raises(InvalidParameter, match=key):
        from_spec(spec)


def test_readme_lists_the_generator_kinds_and_spec_keys():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.search(r"Generator kinds and their spec keys:(.*?)\n\n", readme, re.S).group(1)
    entries = [re.findall(r"`([^`]+)`", part) for part in listed.split(";")]
    registry = [(kind, tuple(entry.spec)) for kind, entry in _KINDS.items()]
    assert [(names[0], tuple(names[1:])) for names in entries] == registry
