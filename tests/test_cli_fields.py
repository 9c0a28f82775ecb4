"""CLI reads of integer fields, the geometry `densities` and `ith` tasks, and
bodies whose support function would leave the float range."""

import json
import math
import warnings

import numpy as np
import pytest

import mixdiv as M
from mixdiv.cli import main
from mixdiv.errors import InvalidParameter


def _write(tmp_path, payload):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _run(tmp_path, capsys, command, payload, *flags):
    code = main([command, "--spec", _write(tmp_path, payload), *flags])
    out, err = capsys.readouterr()
    return code, out, err


# a probability space, so the reference forms run too
DENSITIES = {
    "space": {"weights": [0.25, 0.25, 0.5]},
    "densities": {"p": [0.8, 1.2, 1.0], "q": [1.6, 1.6, 0.4]},
}
TV = {"kind": "tv"}
POWER = {"kind": "power", "alpha": 0.5}


def _compute(**task):
    return "compute", DENSITIES | {"tasks": [task]}


def _verify(**task):
    return "verify", DENSITIES | {"tasks": [task]}


def _geometry(nodes=256, k=3):
    return "geometry", {
        "grid": {"nodes": nodes},
        "bodies": {"T": {"family": "trigball", "eps": 0.05, "k": k}},
        "tasks": [{"type": "functionals", "body": "T"}],
    }


def _falsify(**fields):
    return "falsify", {"tasks": [{"inequality": "jensen_bound", "seed": 1, "trials": 2} | fields]}


# One spec per integer field; `value` goes into that field.
INTEGER_FIELDS = {
    "grid nodes": lambda value: _geometry(nodes=value),
    "trigball k": lambda value: _geometry(k=value),
    "k_form k": lambda value: _compute(
        type="k_form", fs=[TV, TV], ps=["p", "p"], qs=["q", "q"], k=value),
    "ith n": lambda value: _compute(
        type="ith", f1=POWER, f2=TV, p1="p", q1="q", p2="q", q2="p", i=1.0, n=value),
    "ith_reference n": lambda value: _compute(
        type="ith_reference", f1=POWER, f2=TV, p1="p", q1="q", i=1.0, n=value),
    "af m": lambda value: _verify(type="af", fs=[TV, TV], ps=["p", "p"], qs=["q", "q"], m=value),
    "interpolation n": lambda value: _verify(
        type="interpolation", f1=POWER, f2=POWER, p1="p", q1="q", p2="q", q2="p",
        i=1.0, j=0.5, k=1.5, n=value),
    "corollary n": lambda value: _verify(
        type="corollary", case="reference_concave", f1=POWER, f2=POWER,
        p1="p", q1="q", i=1.0, n=value),
    "falsify seed": lambda value: _falsify(seed=value),
    "falsify trials": lambda value: _falsify(trials=value),
    "falsify max_atoms": lambda value: _falsify(max_atoms=value),
    "falsify max_n": lambda value: _falsify(max_n=value),
}
# A value each field accepts, written as a JSON integer.
VALID = {"grid nodes": 256, "trigball k": 3, "k_form k": 1, "falsify seed": 1,
         "falsify trials": 2, "falsify max_atoms": 4, "falsify max_n": 2,
         "af m": 2, "ith n": 2, "ith_reference n": 2, "interpolation n": 2, "corollary n": 2}


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
@pytest.mark.parametrize("value", [300.7, "2", True])
def test_non_integer_field_exits_2(tmp_path, capsys, field, value):
    code, out, err = _run(tmp_path, capsys, *INTEGER_FIELDS[field](value))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "SpecError"


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_integral_float_reads_as_the_integer(tmp_path, capsys, field):
    value = VALID[field]
    code, out, _ = _run(tmp_path, capsys, *INTEGER_FIELDS[field](value))
    as_float = _run(tmp_path, capsys, *INTEGER_FIELDS[field](float(value)))
    assert code in (0, 1)
    assert as_float == (code, out, "")


def test_fractional_node_count_is_not_truncated(tmp_path, capsys):
    code, _, err = _run(tmp_path, capsys, *_geometry(nodes=300.7))
    assert code == 2
    assert "nodes" in json.loads(err)["message"]


# -- geometry tasks ----------------------------------------------------------


BODIES = {
    "E": {"family": "ellipse", "a": 1.3, "b": 0.8, "phi": 0.4},
    "T": {"family": "trigball", "eps": 0.05, "k": 3},
}


def _body_spec(*tasks):
    return {"grid": {"nodes": 256}, "bodies": BODIES, "tasks": list(tasks)}


@pytest.mark.parametrize("emit", [False, True])
def test_geometry_densities_task(tmp_path, capsys, emit):
    flags = ["--emit-integrand"] if emit else []
    code, out, _ = _run(tmp_path, capsys, "geometry",
                        _body_spec({"type": "densities", "body": "E"}), *flags)
    assert code == 0
    entry = json.loads(out)["results"][0]
    assert entry["task"] == "densities" and entry["body"] == "E"
    assert entry["p_mass"] == pytest.approx(1.0, rel=1e-12)
    assert entry["q_mass"] == pytest.approx(1.0, rel=1e-12)
    if not emit:
        assert "p" not in entry and "q" not in entry
        return
    grid = M.CircleGrid(256)
    p, q = M.body_densities(M.ellipse(1.3, 0.8, 0.4), grid)
    assert entry["p"] == p.values.tolist()
    assert entry["q"] == q.values.tolist()
    assert float(np.dot(entry["p"], grid.weights)) == pytest.approx(1.0, rel=1e-12)


def test_geometry_ith_task(tmp_path, capsys):
    f1 = {"kind": "power", "alpha": 0.4}
    f2 = {"kind": "linear", "a": 0.7, "b": 1.1}
    task = {"type": "ith", "f1": f1, "f2": f2, "bodies": ["E", "T"], "i": 0.7}
    code, out, _ = _run(tmp_path, capsys, "geometry", _body_spec(task), "--emit-integrand")
    assert code == 0
    entry = json.loads(out)["results"][0]
    expected = M.ith_mixed_body_divergence(
        M.from_spec(f1), M.from_spec(f2), M.ellipse(1.3, 0.8, 0.4), M.trigball(0.05, 3),
        0.7, "PQ", M.CircleGrid(256))
    assert entry["value"] == expected.value
    assert entry["integrand"] == expected.integrand.tolist()
    assert entry["convention_hits"] == 0


def test_geometry_ith_task_needs_two_bodies(tmp_path, capsys):
    task = {"type": "ith", "f1": POWER, "f2": TV, "bodies": ["E"], "i": 1.0}
    code, out, err = _run(tmp_path, capsys, "geometry", _body_spec(task))
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "SpecError"
    assert "two bodies" in error["message"]


# -- ellipses outside the float range ----------------------------------------


OUT_OF_RANGE = [(1e200, 1.0), (1e120, 1.0), (1e-170, 1.0), (1.0, 1e200), (1e-102, 1e-102)]


@pytest.mark.parametrize("a, b", OUT_OF_RANGE)
def test_out_of_range_ellipse_is_invalid(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameter, match="float range"):
            M.ellipse(a, b)


@pytest.mark.parametrize("a, b", OUT_OF_RANGE[:3])
def test_out_of_range_ellipse_exits_2(tmp_path, capsys, a, b):
    spec = {"bodies": {"E": {"family": "ellipse", "a": a, "b": b}},
            "tasks": [{"type": "functionals", "body": "E"}]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(tmp_path, capsys, "geometry", spec)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidParameter"


@pytest.mark.parametrize("a", [5e102, 3e-103, 1e-60, 1e60])
def test_ellipse_inside_the_range_is_accepted(a):
    K = M.ellipse(a, 1.0)
    h, _, hpp = K.support_derivatives(np.linspace(0.0, 2 * math.pi, 16))
    assert np.isfinite(h).all() and np.isfinite(hpp).all()


# -- real fields -------------------------------------------------------------


def _body_field(family, **fields):
    base = {"ellipse": {"family": "ellipse", "a": 1.3, "b": 0.8, "phi": 0.4},
            "trigball": {"family": "trigball", "eps": 0.05, "k": 3}}[family]
    return "geometry", {"grid": {"nodes": 256}, "bodies": {"K": base | fields},
                        "tasks": [{"type": "functionals", "body": "K"}]}


# One spec per real field; `value` goes into that field (or list entry).
REAL_FIELDS = {
    "ith i": lambda value: _compute(
        type="ith", f1=POWER, f2=TV, p1="p", q1="q", p2="q", q2="p", i=value, n=2),
    "interpolation i": lambda value: _verify(
        type="interpolation", f1=POWER, f2=POWER, p1="p", q1="q", p2="q", q2="p",
        i=value, j=0.5, k=3.0, n=2),
    "interpolation j": lambda value: _verify(
        type="interpolation", f1=POWER, f2=POWER, p1="p", q1="q", p2="q", q2="p",
        i=2.5, j=value, k=3.0, n=2),
    "interpolation k": lambda value: _verify(
        type="interpolation", f1=POWER, f2=POWER, p1="p", q1="q", p2="q", q2="p",
        i=1.0, j=0.5, k=value, n=2),
    "named alpha": lambda value: _compute(
        type="named", family="mixed_renyi", alpha=value, ps=["p"], qs=["q"]),
    "named alphas entry": lambda value: _compute(
        type="named", family="mixed_hellinger", alphas=[value, 0.5], ps=["p", "q"], qs=["q", "p"]),
    "ellipse a": lambda value: _body_field("ellipse", a=value),
    "ellipse b": lambda value: _body_field("ellipse", b=value),
    "ellipse phi": lambda value: _body_field("ellipse", phi=value),
    "trigball eps": lambda value: _body_field("trigball", eps=value),
    "tolerances norm": lambda value: ("compute", DENSITIES | {
        "tolerances": {"norm": value},
        "tasks": [{"type": "classical", "f": TV, "p": "p", "q": "q"}]}),
    "weights entry": lambda value: ("compute", {
        "space": {"weights": [value, 1, 1]},
        "densities": {"p": [0.5, 0.25, 0.25], "q": [0.25, 0.5, 0.25]},
        "tasks": [{"type": "classical", "f": TV, "p": "p", "q": "q"}]}),
    "densities entry": lambda value: ("compute", DENSITIES | {
        "densities": {"p": [value, 1, 1], "q": [1.6, 1.6, 0.4]},
        "tasks": [{"type": "classical", "f": TV, "p": "p", "q": "q"}]}),
}
# A value each field accepts that is an integer, so it can be written as a JSON integer.
REAL_VALID = {"ith i": 2, "interpolation i": 2, "interpolation j": 2, "interpolation k": 2,
              "named alpha": 2, "named alphas entry": 2, "ellipse a": 2, "ellipse b": 2,
              "ellipse phi": 2, "trigball eps": 0, "tolerances norm": 1, "weights entry": 1,
              "densities entry": 1}


@pytest.mark.parametrize("field", sorted(REAL_FIELDS))
@pytest.mark.parametrize("value", ["2", True])
def test_non_number_real_field_exits_2(tmp_path, capsys, field, value):
    code, out, err = _run(tmp_path, capsys, *REAL_FIELDS[field](value))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "SpecError"


@pytest.mark.parametrize("field", sorted(REAL_FIELDS))
def test_json_integer_reads_as_the_real(tmp_path, capsys, field):
    value = REAL_VALID[field]
    code, out, _ = _run(tmp_path, capsys, *REAL_FIELDS[field](value))
    as_float = _run(tmp_path, capsys, *REAL_FIELDS[field](float(value)))
    assert code in (0, 1)
    assert as_float == (code, out, "")


@pytest.mark.parametrize("value", ["2", True, False, b"2"])
def test_generator_key_refuses_strings_and_bools(tmp_path, capsys, value):
    with pytest.raises(InvalidParameter, match="'alpha' needs a real"):
        M.make_builtin("power", alpha=value)
    if isinstance(value, bytes):
        return  # not a JSON value
    code, out, err = _run(tmp_path, capsys, *_compute(
        type="classical", f={"kind": "power", "alpha": value}, p="p", q="q"))
    assert (code, out, json.loads(err)["error"]) == (2, "", "InvalidParameter")


def test_geometry_ith_task_takes_exactly_two_bodies(tmp_path, capsys):
    task = {"type": "ith", "f1": POWER, "f2": TV, "bodies": ["E", "T", "E"], "i": 1.0}
    code, out, err = _run(tmp_path, capsys, "geometry", _body_spec(task))
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "SpecError"
    assert "two bodies" in error["message"]
