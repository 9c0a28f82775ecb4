"""Inputs that have no finite answer raise a typed MixdivError (CLI exit 2)
instead of returning NaN or inf, or escaping as a Python exception."""

import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from mixdiv import (
    INEQUALITY_IDS,
    CircleGrid,
    ConvexBody2D,
    Density,
    DensityBundle,
    FVector,
    FalsifyConfig,
    af_check,
    apply_linear_map,
    corollary_bound_check,
    ellipse,
    factor_decomposition,
    falsify,
    from_spec,
    interpolation_check,
    ith_mixed,
    ith_mixed_reference,
    make_builtin,
    make_bundle,
    make_space,
    mixed_body_divergence,
    mixed_k_form,
    named_divergence,
    probability_density,
)
from mixdiv import errors
from mixdiv.cli import main
from mixdiv.errors import (
    DegenerateExponent,
    IndexOutOfRange,
    InvalidParameter,
    LengthMismatch,
    LogOfZero,
    NonFiniteValue,
    NonPositiveWeight,
    NormalizationFailure,
    RangeMismatch,
    ZeroDensityAtom,
)

# numpy warns on the overflows these inputs are built to provoke
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

P_VALUES = [0.2, 0.3, 0.5]
Q_VALUES = [0.5, 0.4, 0.1]


@pytest.fixture
def pair():
    return make_space([1.0, 1.0, 1.0]), Density(P_VALUES), Density(Q_VALUES)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _verify_spec(task):
    return {
        "space": {"weights": [1, 1, 1]},
        "densities": {"p": P_VALUES, "q": Q_VALUES},
        "tasks": [task],
    }


# -- NaN and inf are never values or verdicts -------------------------------


def test_interpolation_overflow_raises(pair):
    s, p, q = pair
    f1, f2 = make_builtin("power", alpha=0.5), make_builtin("power", alpha=2.0)
    with pytest.raises(NonFiniteValue):
        interpolation_check(f1, f2, p, q, q, p, 300, -300, 900, 2, s)


def test_interpolation_overflow_exits_2(tmp_path, capsys):
    spec = _write(tmp_path, "v.json", _verify_spec({
        "type": "interpolation", "f1": {"kind": "power", "alpha": 0.5},
        "f2": {"kind": "power", "alpha": 2.0}, "p1": "p", "q1": "q", "p2": "q", "q2": "p",
        "i": 300, "j": -300, "k": 900, "n": 2,
    }))
    assert main(["verify", "--spec", spec]) == 2
    assert "NonFiniteValue" in capsys.readouterr().err


@pytest.mark.parametrize("i", [1e5, -1e5])
def test_ith_mixed_nan_raises(pair, i):
    s, p, q = pair
    f1, f2 = make_builtin("power", alpha=0.5), make_builtin("power", alpha=2.0)
    with pytest.raises(NonFiniteValue):
        ith_mixed(f1, f2, p, q, q, p, i, 2, s)


@pytest.mark.parametrize("alpha", [2000.0, -2000.0])
def test_mixed_renyi_extreme_alpha_raises(pair, alpha):
    s, p, q = pair
    P, Q = DensityBundle(s, (p, q)), DensityBundle(s, (q, p))
    with pytest.raises(NonFiniteValue):
        named_divergence("mixed_renyi", P, Q, alpha=alpha)


def test_af_check_power_overflow_raises():
    s = make_space([1.0, 1.0])
    P = DensityBundle(s, (Density([1.0, 1.0]),) * 2)
    Q = DensityBundle(s, (Density([1e-100, 1.0]),) * 2)
    fv = FVector([make_builtin("power", alpha=3.0)] * 2)  # D(P, Q) ~ 1e200
    with pytest.raises(NonFiniteValue):
        af_check(fv, P, Q, 2)


def test_corollary_bound_overflow_raises_at_the_verdict():
    # each w_i is finite and their mixed product is 0, but f1(1) f2(1) = 1e600
    s, f = make_space([0.5, 0.5]), make_builtin("linear", a=1e300, b=0.0)
    one = Density([1.0, 1.0])
    with pytest.raises(NonFiniteValue, match="rhs=inf"):
        corollary_bound_check("concave_band", f, f, Density([2.0, 0.0]), one, 1, 2, s,
                              P2=Density([0.0, 2.0]), Q2=one)


# -- f(1) = 0 against a negative exponent -----------------------------------


ZERO_AT_ONE = make_builtin("linear", a=0.0, b=0.0)


def test_corollary_low_zero_f1_negative_exponent(pair):
    s, p, q = pair
    with pytest.raises(DegenerateExponent):
        corollary_bound_check("concave_convex_low", ZERO_AT_ONE, make_builtin("power", alpha=2.0),
                              p, q, -1.0, 2, s, P2=q, Q2=p)


def test_corollary_high_zero_f2_negative_exponent(pair):
    s, p, q = pair
    with pytest.raises(DegenerateExponent):
        corollary_bound_check("convex_concave_high", make_builtin("power", alpha=2.0), ZERO_AT_ONE,
                              p, q, 3.0, 2, s, P2=q, Q2=p)


def test_ith_reference_zero_f2_negative_exponent():
    s = make_space([0.5, 0.5])
    p, q = Density([0.8, 1.2]), Density([1.5, 0.5])
    with pytest.raises(DegenerateExponent):
        ith_mixed_reference(make_builtin("power", alpha=2.0), p, q, 3.0, ZERO_AT_ONE, s, 2)


@pytest.mark.parametrize("case,f1,f2,i", [
    ("concave_convex_low", {"kind": "linear", "a": 0, "b": 0}, {"kind": "power", "alpha": 2}, -1),
    ("convex_concave_high", {"kind": "power", "alpha": 2}, {"kind": "linear", "a": 0, "b": 0}, 3),
])
def test_corollary_degenerate_exponent_exits_2(tmp_path, capsys, case, f1, f2, i):
    spec = _write(tmp_path, "v.json", _verify_spec({
        "type": "corollary", "case": case, "f1": f1, "f2": f2,
        "p1": "p", "q1": "q", "p2": "q", "q2": "p", "i": i, "n": 2,
    }))
    assert main(["verify", "--spec", spec]) == 2
    assert "DegenerateExponent" in capsys.readouterr().err


def test_corollary_checks_range_before_bound(pair):
    # the bound 0^(-1) is never formed: i = -1 is outside concave_band's range
    s, p, q = pair
    with pytest.raises(RangeMismatch):
        corollary_bound_check("concave_band", ZERO_AT_ONE, make_builtin("power", alpha=0.5),
                              p, q, -1.0, 2, s, P2=q, Q2=p)


# -- named families ----------------------------------------------------------


BAD_NAMED = [
    ("mixed_kl", {"kl_orientation": "pp"}),
    ("mixed_hellinger", {}),
    ("mixed_renyi", {}),
    ("mixed_chi2", {}),
]


@pytest.mark.parametrize("family,kwargs", BAD_NAMED)
def test_named_divergence_bad_input_raises(pair, family, kwargs):
    s, p, q = pair
    P, Q = DensityBundle(s, (p, q)), DensityBundle(s, (q, p))
    with pytest.raises(InvalidParameter):
        named_divergence(family, P, Q, **kwargs)


@pytest.mark.parametrize("family,kwargs", BAD_NAMED)
def test_named_divergence_bad_input_exits_2(tmp_path, capsys, family, kwargs):
    spec = _write(tmp_path, "c.json", {
        "space": {"weights": [1, 1, 1]},
        "densities": {"p": P_VALUES, "q": Q_VALUES},
        "tasks": [{"type": "named", "family": family, "ps": ["p"], "qs": ["q"]} | kwargs],
    })
    assert main(["compute", "--spec", spec]) == 2
    assert "InvalidParameter" in capsys.readouterr().err


# -- falsifier trial count ---------------------------------------------------


def test_falsify_negative_trials_raises():
    with pytest.raises(InvalidParameter):
        falsify("af_check", 0, -3)


# the module, which the package's `falsify` function shadows as an attribute
falsify_module = importlib.import_module("mixdiv.falsify")


def _no_trial(*args, **kwargs):
    raise AssertionError("a trial started")


def test_falsify_above_max_trials_raises_before_any_trial(monkeypatch):
    # every trial draws its space first
    monkeypatch.setattr(falsify_module, "_random_space", _no_trial)
    with pytest.raises(InvalidParameter, match=r"0 <= trials <= 10000000"):
        falsify("jensen_bound", 0, falsify_module.MAX_TRIALS + 1)
    with pytest.raises(AssertionError, match="a trial started"):
        falsify("jensen_bound", 0, falsify_module.MAX_TRIALS)


def test_falsify_cli_1e18_trials_exits_2_before_any_trial(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(falsify_module, "_random_space", _no_trial)
    spec = _write(tmp_path, "f.json", {"tasks": [{"inequality": "af_check", "trials": 1e18}]})
    assert main(["falsify", "--spec", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "InvalidParameter"


def test_falsify_zero_trials_is_empty():
    assert falsify("af_check", 0, 0)["min_slack"] is None


def test_cli_falsify_negative_trials_exits_2(tmp_path, capsys):
    spec = _write(tmp_path, "f.json", {"tasks": [{"inequality": "af_check", "seed": 1}]})
    assert main(["falsify", "--spec", spec, "--trials", "-3"]) == 2
    assert "InvalidParameter" in capsys.readouterr().err


# -- documented ids ----------------------------------------------------------


def test_readme_lists_the_registered_inequality_ids():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.search(r"Registered inequality ids:(.*?)\n\n", readme, re.S).group(1)
    assert tuple(re.findall(r"`([^`]+)`", listed)) == INEQUALITY_IDS


# -- malformed specs ---------------------------------------------------------


MALFORMED_SPECS = {
    "grid_not_object": ("geometry", {"grid": 5, "tasks": []}),
    "densities_not_object": ("compute", {
        "space": {"weights": [1, 1, 1]}, "densities": [1, 2], "tasks": [],
    }),
    "power_without_alpha": ("compute", _verify_spec(
        {"type": "classical", "f": {"kind": "power"}, "p": "p", "q": "q"})),
    "scaled_without_lambda": ("compute", _verify_spec({
        "type": "classical", "f": {"kind": "scaled", "inner": {"kind": "tv"}}, "p": "p", "q": "q",
    })),
    "classical_without_p": ("compute", _verify_spec(
        {"type": "classical", "f": {"kind": "tv"}, "q": "q"})),
    "corollary_p2_without_q2": ("verify", _verify_spec({
        "type": "corollary", "case": "concave_band", "f1": {"kind": "power", "alpha": 0.5},
        "f2": {"kind": "power", "alpha": 0.5}, "p1": "p", "q1": "q", "p2": "p", "i": 1, "n": 2,
    })),
    "tasks_not_list": ("compute", {"space": {"weights": [1, 1, 1]}, "tasks": 5}),
    "fs_not_list": ("compute", _verify_spec(
        {"type": "mixed", "fs": 5, "ps": ["p"], "qs": ["q"]})),
    "task_not_object": ("verify", {"space": {"weights": [1, 1, 1]}, "tasks": [5]}),
    "trials_not_integer": ("falsify", {"tasks": [{"inequality": "af_check", "trials": "x"}]}),
    "unknown_density_name": ("compute", _verify_spec(
        {"type": "classical", "f": {"kind": "tv"}, "p": "nope", "q": "q"})),
    "unknown_task_type": ("verify", _verify_spec({"type": "nope"})),
    "norm_tolerance_zero": ("compute", _verify_spec(
        {"type": "classical", "f": {"kind": "tv"}, "p": "p", "q": "q"})
        | {"tolerances": {"norm": 0}}),
}


@pytest.mark.parametrize("name", MALFORMED_SPECS)
def test_malformed_spec_exits_2_with_a_typed_error(tmp_path, capsys, name):
    command, payload = MALFORMED_SPECS[name]
    spec = _write(tmp_path, "s.json", payload)
    assert main([command, "--spec", spec]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert issubclass(getattr(errors, error), errors.MixdivError)


def test_falsify_negative_seed_raises():
    with pytest.raises(InvalidParameter):
        falsify("af_check", -1, 3)


@pytest.mark.parametrize("config", [{"max_atoms": 1}, {"max_n": 0}])
def test_falsify_config_too_small_raises(config):
    with pytest.raises(InvalidParameter):
        FalsifyConfig(**config)


def test_ith_reference_n_zero_raises():
    s = make_space([0.5, 0.5])
    p, q = Density([0.8, 1.2]), Density([1.5, 0.5])
    f = make_builtin("power", alpha=0.5)
    with pytest.raises(IndexOutOfRange):
        ith_mixed_reference(f, p, q, 0.0, f, s, 0)


# -- geometry inputs and report output ---------------------------------------


def _geometry_spec(body):
    return {"grid": {"nodes": 256}, "bodies": {"K": body},
            "tasks": [{"type": "functionals", "body": "K"}]}


@pytest.mark.parametrize("body", [
    {"family": "ellipse", "a": float("nan"), "b": 1.0},
    {"family": "ellipse", "a": 1.0, "b": float("inf")},
    {"family": "ellipse", "a": 2.0, "b": 1.0, "phi": float("nan")},
    {"family": "trigball", "eps": float("nan"), "k": 3},
])
def test_geometry_non_finite_body_exits_2(tmp_path, capsys, body):
    # json.dumps writes NaN and Infinity, which json.load reads back
    spec = _write(tmp_path, "g.json", _geometry_spec(body))
    assert main(["geometry", "--spec", spec]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidParameter"


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    spec = _write(tmp_path, "g.json", _geometry_spec({"family": "ellipse", "a": 2.0, "b": 1.0}))
    out = str(tmp_path / "missing" / "report.json")
    assert main(["geometry", "--spec", spec, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "OutputError"


# -- falsifier bounds ----------------------------------------------------------


ABOVE_BOUNDS = [{"max_atoms": 2**16 + 1}, {"max_n": 65}, {"max_atoms": 2**62}, {"max_n": 2**62}]


@pytest.mark.parametrize("config", ABOVE_BOUNDS)
def test_falsify_config_above_its_bound_raises(config):
    with pytest.raises(InvalidParameter, match=r"max_atoms <= 65536 and 1 <= max_n <= 64"):
        FalsifyConfig(**config)


def test_falsify_config_accepts_its_bounds():
    cfg = FalsifyConfig(max_atoms=2**16, max_n=64)
    assert (cfg.max_atoms, cfg.max_n) == (65536, 64)


@pytest.mark.parametrize("config", ABOVE_BOUNDS)
def test_falsify_cli_above_a_bound_exits_2_before_any_trial(tmp_path, capsys, monkeypatch, config):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial started")

    # every trial draws its space first
    monkeypatch.setattr(importlib.import_module("mixdiv.falsify"), "_random_space", no_trial)
    task = {"inequality": "jensen_bound", "seed": 1, "trials": 2} | config
    spec = _write(tmp_path, "f.json", {"tasks": [task]})
    assert main(["falsify", "--spec", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "InvalidParameter"


# -- typed errors at the library's entry points ----------------------------------


HALVES = make_space([0.5, 0.5])
P_HALF, Q_HALF = Density([0.8, 1.2]), Density([1.5, 0.5])
ROOT = make_builtin("power", alpha=0.5)
ROOTS = FVector([ROOT, ROOT])
P_PAIR, Q_PAIR = DensityBundle(HALVES, (P_HALF, Q_HALF)), DensityBundle(HALVES, (Q_HALF, P_HALF))

TYPED_RAISES = {
    # ill-typed names and configs, refused where they enter
    "inequality_id_list": (lambda: falsify(["af_check"], 0, 1), RangeMismatch),
    "config_dict": (lambda: falsify("af_check", 0, 1, {"max_n": 2}), InvalidParameter),
    "generator_kind_list": (lambda: make_builtin(["tv"]), InvalidParameter),
    "body_family_list": (lambda: ConvexBody2D(["ellipse"]), InvalidParameter),
    "ragged_linear_map": (lambda: apply_linear_map(ellipse(2.0, 1.0), [[1, 2], [3]]),
                          InvalidParameter),
    # each atom has a zero P density in one of the two pairs: the Hellinger integral is 0
    "renyi_of_a_zero_hellinger_integral": (lambda: named_divergence(
        "mixed_renyi", DensityBundle(HALVES, (Density([2.0, 0.0]), Density([0.0, 2.0]))),
        DensityBundle(HALVES, (Density([1.0, 1.0]),) * 2), alpha=0.5), LogOfZero),
    "ith_mixed_n_zero": (lambda: ith_mixed(ROOT, ROOT, P_HALF, Q_HALF, Q_HALF, P_HALF, 0.5, 0,
                                           HALVES), IndexOutOfRange),
    "two_bodies_one_generator": (lambda: mixed_body_divergence(
        FVector([ROOT]), [ellipse(2.0, 1.0), ellipse(1.0, 2.0)], "PQ", CircleGrid(64)),
        InvalidParameter),
    "empty_fvector": (lambda: FVector([]), InvalidParameter),
    "generator_spec_string": (lambda: from_spec("tv"), InvalidParameter),
    "af_check_m_zero": (lambda: af_check(FVector([ROOT]), DensityBundle(HALVES, (P_HALF,)),
                                         DensityBundle(HALVES, (Q_HALF,)), 0), RangeMismatch),
    # counts that are not integers, refused before any slot is evaluated
    "af_check_m_non_integer": (lambda: af_check(ROOTS, P_PAIR, Q_PAIR, 1.5), RangeMismatch),
    "factor_decomposition_m_float": (lambda: factor_decomposition(ROOTS, P_PAIR, Q_PAIR, 2.0),
                                     RangeMismatch),
    "mixed_k_form_k_non_integer": (lambda: mixed_k_form(ROOTS, P_PAIR, Q_PAIR, 1.5),
                                   IndexOutOfRange),
    "mixed_k_form_k_bool": (lambda: mixed_k_form(ROOTS, P_PAIR, Q_PAIR, True), IndexOutOfRange),
    # a bool is not a Renyi order, though True == 1
    "renyi_alpha_bool": (lambda: named_divergence("mixed_renyi", P_PAIR, Q_PAIR, alpha=True),
                         InvalidParameter),
    "renyi_alpha_numpy_bool": (lambda: named_divergence("mixed_renyi", P_PAIR, Q_PAIR,
                                                        alpha=np.True_), InvalidParameter),
    "unknown_corollary_case": (lambda: corollary_bound_check(
        "nope", ROOT, ROOT, P_HALF, Q_HALF, 1.0, 2, HALVES), RangeMismatch),
    "concave_band_without_second_pair": (lambda: corollary_bound_check(
        "concave_band", ROOT, ROOT, P_HALF, Q_HALF, 1.0, 2, HALVES), RangeMismatch),
    "normalize_zero_mass": (lambda: probability_density([0.0, 0.0], HALVES, normalize=True),
                            NormalizationFailure),
    "empty_bundle": (lambda: DensityBundle(HALVES, ()), LengthMismatch),
    # values that numpy cannot read as reals, refused by the class they enter
    "string_weights": (lambda: make_space("ab"), NonPositiveWeight),
    "ragged_weights": (lambda: make_space([[1], [1, 2]]), NonPositiveWeight),
    "string_density": (lambda: Density(["a"]), ZeroDensityAtom),
    "ragged_density": (lambda: Density([[1], [1, 2]]), ZeroDensityAtom),
    "string_probability_density": (lambda: probability_density(["a"], HALVES), ZeroDensityAtom),
    "string_bundle_member": (lambda: make_bundle(HALVES, [["a"]]), ZeroDensityAtom),
    "string_body_axis": (lambda: ConvexBody2D("ellipse", a="x"), InvalidParameter),
    "string_trigball_frequency": (lambda: ConvexBody2D("trigball", eps=0.01, k="3"),
                                  InvalidParameter),
    "normalize_wrong_length": (lambda: probability_density([1.0, 2.0, 3.0], HALVES,
                                                           normalize=True), LengthMismatch),
}


@pytest.mark.parametrize("call, error", TYPED_RAISES.values(), ids=TYPED_RAISES.keys())
def test_a_bad_input_raises_its_typed_error(call, error):
    with pytest.raises(error):
        call()
