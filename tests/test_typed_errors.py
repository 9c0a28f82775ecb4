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
    classical_f_divergence,
    concave_chain_check,
    corollary_bound_check,
    effective_proportionality,
    ellipse,
    factor_decomposition,
    falsify,
    from_spec,
    interpolation_check,
    ith_mixed,
    ith_mixed_reference,
    jensen_bound_check,
    make_builtin,
    make_bundle,
    make_space,
    mixed_body_divergence,
    mixed_f_divergence,
    mixed_k_form,
    named_divergence,
    probability_density,
)
from mixdiv import cli, errors
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
    SpaceMismatch,
    TagMismatch,
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


# name -> (command, spec, the error it exits 2 with)
MALFORMED_SPECS = {
    "grid_not_object": ("geometry", {"grid": 5, "tasks": []}, "SpecError"),
    "densities_not_object": ("compute", {
        "space": {"weights": [1, 1, 1]}, "densities": [1, 2], "tasks": [],
    }, "SpecError"),
    "power_without_alpha": ("compute", _verify_spec(
        {"type": "classical", "f": {"kind": "power"}, "p": "p", "q": "q"}), "InvalidParameter"),
    "scaled_without_lambda": ("compute", _verify_spec({
        "type": "classical", "f": {"kind": "scaled", "inner": {"kind": "tv"}}, "p": "p", "q": "q",
    }), "InvalidParameter"),
    "classical_without_p": ("compute", _verify_spec(
        {"type": "classical", "f": {"kind": "tv"}, "q": "q"}), "SpecError"),
    "corollary_p2_without_q2": ("verify", _verify_spec({
        "type": "corollary", "case": "concave_band", "f1": {"kind": "power", "alpha": 0.5},
        "f2": {"kind": "power", "alpha": 0.5}, "p1": "p", "q1": "q", "p2": "p", "i": 1, "n": 2,
    }), "SpecError"),
    "tasks_not_list": ("compute", {"space": {"weights": [1, 1, 1]}, "tasks": 5}, "SpecError"),
    "fs_not_list": ("compute", _verify_spec(
        {"type": "mixed", "fs": 5, "ps": ["p"], "qs": ["q"]}), "SpecError"),
    "task_not_object": ("verify", {"space": {"weights": [1, 1, 1]}, "tasks": [5]}, "SpecError"),
    "trials_not_integer": ("falsify", {"tasks": [{"inequality": "af_check", "trials": "x"}]},
                           "SpecError"),
    "unknown_density_name": ("compute", _verify_spec(
        {"type": "classical", "f": {"kind": "tv"}, "p": "nope", "q": "q"}), "SpecError"),
    "unknown_task_type": ("verify", _verify_spec({"type": "nope"}), "SpecError"),
    "norm_tolerance_zero": ("compute", _verify_spec(
        {"type": "classical", "f": {"kind": "tv"}, "p": "p", "q": "q"})
        | {"tolerances": {"norm": 0}}, "SpecError"),
    # a reference corollary integrates against mu: it has no second pair to read
    "reference_with_second_pair": ("verify", {
        "space": {"weights": [0.5, 0.5]}, "densities": {"p": [0.8, 1.2], "q": [1.5, 0.5]},
        "tasks": [{"type": "corollary", "case": "reference_concave",
                   "f1": {"kind": "power", "alpha": 0.5}, "f2": {"kind": "power", "alpha": 0.5},
                   "p1": "p", "q1": "q", "p2": "p", "q2": "q", "i": 1, "n": 2}],
    }, "RangeMismatch"),
    # a task field that no row reads: misspelt, or not a field of the task type
    "kl_orientation_misspelt": ("compute", _verify_spec({
        "type": "named", "family": "mixed_kl", "ps": ["p"], "qs": ["q"], "kl_orientaton": "qp",
    }), "SpecError"),
    "af_with_n": ("verify", _verify_spec({
        "type": "af", "fs": [{"kind": "power", "alpha": 0.5}], "ps": ["p"], "qs": ["q"], "m": 1,
        "n": 5,
    }), "SpecError"),
    "falsify_trials_misspelt": ("falsify", {"tasks": [{"inequality": "af_check", "trails": 5}]},
                                "SpecError"),
    # a parameter that the task's family does not take is a field no row reads
    "mixed_kl_with_alpha": ("compute", _verify_spec({
        "type": "named", "family": "mixed_kl", "ps": ["p"], "qs": ["q"], "alpha": 0.5,
    }), "SpecError"),
    "mixed_tv_with_kl_orientation": ("compute", _verify_spec({
        "type": "named", "family": "mixed_tv", "ps": ["p"], "qs": ["q"], "kl_orientation": "qp",
    }), "SpecError"),
    "mixed_hellinger_with_alpha": ("compute", _verify_spec({
        "type": "named", "family": "mixed_hellinger", "ps": ["p"], "qs": ["q"], "alphas": [0.5],
        "alpha": 0.5,
    }), "SpecError"),
    # without its own parameter the family refuses to run, before any field is checked
    "mixed_hellinger_alpha_for_alphas": ("compute", _verify_spec({
        "type": "named", "family": "mixed_hellinger", "ps": ["p"], "qs": ["q"], "alpha": 0.5,
    }), "InvalidParameter"),
    # a key that the generator kind, the spec, its section or its body family does not name
    "linear_with_B": ("compute", _verify_spec({
        "type": "classical", "f": {"kind": "linear", "a": 1.0, "B": 0.5}, "p": "p", "q": "q",
    }), "InvalidParameter"),
    "inner_power_with_alpah": ("compute", _verify_spec({
        "type": "classical", "p": "p", "q": "q", "f": {
            "kind": "scaled", "lambda": 2.0, "inner": {"kind": "power", "alpha": 2, "alpah": 0.5}},
    }), "InvalidParameter"),
    "tolerance_singular": ("compute", _verify_spec(
        {"type": "classical", "f": {"kind": "tv"}, "p": "p", "q": "q"})
        | {"tolerance": {"norm": 1e-3}}, "SpecError"),
    "tolerances_with_nrom": ("verify", _verify_spec(
        {"type": "jensen", "f": {"kind": "tv"}, "p": "p", "q": "q"})
        | {"tolerances": {"norm": 1e-3, "nrom": 1e-3}}, "SpecError"),
    "space_with_wieghts": ("verify", _verify_spec(
        {"type": "jensen", "f": {"kind": "tv"}, "p": "p", "q": "q"})
        | {"space": {"weights": [1, 1, 1], "wieghts": [1, 1, 1]}}, "SpecError"),
    "grid_with_node": ("geometry", {"grid": {"node": 300}, "tasks": []}, "SpecError"),
    "body_with_ph": ("geometry", {
        "bodies": {"E": {"family": "ellipse", "a": 2, "b": 1, "ph": 0.5}},
        "tasks": [{"type": "functionals", "body": "E"}],
    }, "SpecError"),
    "falsify_spec_with_seed": ("falsify", {"seed": 3, "tasks": [{"inequality": "af_check"}]},
                               "SpecError"),
    # [ln t]_+ is neither convex nor concave: Jensen's bound has no direction
    "jensen_of_logplus": ("verify", _verify_spec(
        {"type": "jensen", "f": {"kind": "logplus"}, "p": "p", "q": "q"}), "TagMismatch"),
}


@pytest.mark.parametrize("name", MALFORMED_SPECS)
def test_malformed_spec_exits_2_with_a_typed_error(tmp_path, capsys, name):
    command, payload, error = MALFORMED_SPECS[name]
    spec = _write(tmp_path, "s.json", payload)
    assert main([command, "--spec", spec]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == error


@pytest.mark.parametrize("name, field", [("kl_orientation_misspelt", "'kl_orientaton'"),
                                         ("af_with_n", "'n'"),
                                         ("falsify_trials_misspelt", "'trails'"),
                                         ("mixed_kl_with_alpha", "'alpha'"),
                                         ("linear_with_B", "'B'"),
                                         ("inner_power_with_alpah", "'alpah'")])
def test_an_unread_task_field_is_named_and_no_trial_runs(tmp_path, capsys, monkeypatch, name,
                                                          field):
    monkeypatch.setattr(cli, "run_falsify_trials", lambda *args: pytest.fail("a trial ran"))
    command, payload, _ = MALFORMED_SPECS[name]
    assert main([command, "--spec", _write(tmp_path, "s.json", payload)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and field in json.loads(err)["message"]


class _NoTask(dict):
    """A task table whose every entry fails the test."""

    def get(self, key, default=None):
        return lambda r: pytest.fail("a task ran")


@pytest.mark.parametrize("name, key", [("tolerance_singular", "'tolerance'"),
                                       ("tolerances_with_nrom", "'nrom'"),
                                       ("space_with_wieghts", "'wieghts'"),
                                       ("grid_with_node", "'node'"),
                                       ("body_with_ph", "'ph'"),
                                       ("falsify_spec_with_seed", "'seed'")])
def test_an_unread_spec_key_is_named_before_any_task_runs(tmp_path, capsys, monkeypatch, name,
                                                           key):
    for table in ("_COMPUTE", "_VERIFY", "_GEOMETRY"):
        monkeypatch.setattr(cli, table, _NoTask())
    monkeypatch.setattr(cli, "run_falsify_trials", lambda *args: pytest.fail("a trial ran"))
    command, payload, _ = MALFORMED_SPECS[name]
    assert main([command, "--spec", _write(tmp_path, "s.json", payload)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and key in json.loads(err)["message"]


def test_jensen_refuses_a_generator_neither_convex_nor_concave(pair):
    s, p, q = pair
    with pytest.raises(TagMismatch):
        jensen_bound_check(make_builtin("logplus"), p, q, s)
    with pytest.raises(TagMismatch):  # its adjoint carries the same tag
        jensen_bound_check(from_spec({"kind": "adjoint", "inner": {"kind": "logplus"}}), p, q, s)


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
# Q_PAIR's densities on a space of as many atoms, whose weights differ from HALVES'
Q_ON_FIVES = DensityBundle(make_space([5.0, 5.0]), Q_PAIR.densities)

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
    # containers refuse what they cannot hold where they are built
    "bundle_member_list": (lambda: DensityBundle(HALVES, ([0.5, 0.5],)), InvalidParameter),
    "bundle_space_list": (lambda: DensityBundle([1.0, 1.0], (P_HALF,)), SpaceMismatch),
    # a space that is not a MeasureSpace, refused where it enters
    "make_bundle_space_list": (lambda: make_bundle([1.0, 1.0], [[0.5, 0.5]]), SpaceMismatch),
    "probability_density_space_list": (lambda: probability_density([0.5, 0.5], [1.0, 1.0]),
                                       SpaceMismatch),
    "classical_f_divergence_space_list": (lambda: classical_f_divergence(
        ROOT, P_HALF, Q_HALF, [1.0, 1.0]), SpaceMismatch),
    "ith_mixed_space_list": (lambda: ith_mixed(ROOT, ROOT, P_HALF, Q_HALF, Q_HALF, P_HALF, 0.5, 2,
                                               [1.0, 1.0]), SpaceMismatch),
    "ith_mixed_reference_space_list": (lambda: ith_mixed_reference(
        ROOT, P_HALF, Q_HALF, 0.5, ROOT, [1.0, 1.0], 2), SpaceMismatch),
    "effective_proportionality_space_list": (lambda: effective_proportionality(
        [1.0, 2.0], [2.0, 4.0], [1.0, 1.0]), SpaceMismatch),
    "fvector_entry_string": (lambda: FVector(["tv"]), InvalidParameter),
    # P and Q bundles on two spaces whose weights differ
    "mixed_f_divergence_spaces_differ": (lambda: mixed_f_divergence(ROOTS, P_PAIR, Q_ON_FIVES),
                                         SpaceMismatch),
    "mixed_k_form_spaces_differ": (lambda: mixed_k_form(ROOTS, P_PAIR, Q_ON_FIVES, 1),
                                   SpaceMismatch),
    "af_check_spaces_differ": (lambda: af_check(ROOTS, P_PAIR, Q_ON_FIVES, 1), SpaceMismatch),
    "concave_chain_check_spaces_differ": (lambda: concave_chain_check(ROOTS, P_PAIR, Q_ON_FIVES),
                                          SpaceMismatch),
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


def test_bundles_on_two_spaces_of_equal_weights_are_on_one_space():
    """Only the weights are compared: a second MeasureSpace object with
    HALVES' weights is the same space, and D_tv stays symmetric."""
    tv = FVector([make_builtin("tv")] * 2)
    copy = DensityBundle(make_space([0.5, 0.5]), Q_PAIR.densities)
    value = mixed_f_divergence(tv, P_PAIR, Q_PAIR).value
    assert mixed_f_divergence(tv, P_PAIR, copy).value == value
    assert mixed_f_divergence(tv, copy, P_PAIR).value == value
    with pytest.raises(SpaceMismatch):
        mixed_f_divergence(tv, Q_ON_FIVES, P_PAIR)


@pytest.mark.parametrize("second", [{"P2": Density([1.0, 1.0]), "Q2": P_HALF}, {"P2": P_HALF},
                                    {"Q2": Q_HALF}], ids=["both", "P2", "Q2"])
def test_a_reference_corollary_refuses_a_second_pair(second):
    args = ("reference_concave", ROOT, ROOT, P_HALF, Q_HALF, 1.0, 2, HALVES)
    assert corollary_bound_check(*args).satisfied  # the same case without it holds
    with pytest.raises(RangeMismatch):
        corollary_bound_check(*args, **second)


# n of the i-th mixed forms is a count, as m and k are: a bool, a fraction or 0 is refused
N_CALLS = {
    "ith_mixed": lambda n: ith_mixed(ROOT, ROOT, P_HALF, Q_HALF, Q_HALF, P_HALF, 0.0, n, HALVES),
    "ith_mixed_reference": lambda n: ith_mixed_reference(ROOT, P_HALF, Q_HALF, 0.0, ROOT,
                                                         HALVES, n),
    "interpolation_check": lambda n: interpolation_check(
        ROOT, ROOT, P_HALF, Q_HALF, Q_HALF, P_HALF, 0.5, 0.0, 1.0, n, HALVES),
    "corollary_bound_check": lambda n: corollary_bound_check(
        "concave_band", ROOT, ROOT, P_HALF, Q_HALF, 0.0, n, HALVES, Q_HALF, P_HALF),
}


@pytest.mark.parametrize("n", [True, 2.5, 0])
@pytest.mark.parametrize("call", N_CALLS.values(), ids=N_CALLS.keys())
def test_a_non_count_n_raises_index_out_of_range(call, n):
    with pytest.raises(IndexOutOfRange):
        call(n)
    call(2)
    call(np.int64(2))


# i, j and k of the i-th mixed forms, and alphas, are reals: a bool, a string,
# None or a complex is refused before any use
REAL_CALLS = {
    "ith_mixed_i": (lambda x: ith_mixed(ROOT, ROOT, P_HALF, Q_HALF, Q_HALF, P_HALF, x, 2, HALVES),
                    1),
    "ith_mixed_reference_i": (lambda x: ith_mixed_reference(ROOT, P_HALF, Q_HALF, x, ROOT,
                                                            HALVES, 2), 1),
    "interpolation_check_i": (lambda x: interpolation_check(
        ROOT, ROOT, P_HALF, Q_HALF, Q_HALF, P_HALF, x, 0.0, 2.0, 2, HALVES), 1),
    "interpolation_check_j": (lambda x: interpolation_check(
        ROOT, ROOT, P_HALF, Q_HALF, Q_HALF, P_HALF, 1.5, x, 2.0, 2, HALVES), 1),
    "interpolation_check_k": (lambda x: interpolation_check(
        ROOT, ROOT, P_HALF, Q_HALF, Q_HALF, P_HALF, 0.5, 0.0, x, 2, HALVES), 1),
    "corollary_bound_check_i": (lambda x: corollary_bound_check(
        "concave_band", ROOT, ROOT, P_HALF, Q_HALF, x, 2, HALVES, Q_HALF, P_HALF), 1),
    "named_divergence_alphas": (lambda x: named_divergence("mixed_hellinger", P_PAIR, Q_PAIR,
                                                           alphas=x), [0.5, 2.0]),
}


@pytest.mark.parametrize("value", ["1", None, 1j, True, np.True_],
                         ids=["str", "none", "complex", "bool", "numpy_bool"])
@pytest.mark.parametrize("call, good", REAL_CALLS.values(), ids=REAL_CALLS.keys())
def test_a_non_real_parameter_raises_invalid_parameter(call, good, value):
    with pytest.raises(InvalidParameter):
        call(value)
    call(good)
