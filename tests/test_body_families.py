"""Body families as rows of one registry, read by geometry and the CLI, and
the grid's node-count cap."""

import json
import math

import numpy as np
import pytest

from mixdiv import geometry
from mixdiv.cli import main
from mixdiv.errors import InvalidParameter, UnsupportedFamily
from mixdiv.geometry import (
    CircleGrid,
    ConvexBody2D,
    apply_linear_map,
    body_functionals,
    ellipse,
    trigball,
)


def _geometry(tmp_path, capsys, body, nodes=256):
    spec = {"grid": {"nodes": nodes}, "bodies": {"K": body},
            "tasks": [{"type": "functionals", "body": "K"}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["geometry", "--spec", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def test_a_family_added_as_one_row_reaches_geometry_and_the_cli(tmp_path, capsys, monkeypatch):
    # a disk of radius a: h = a, h' = 0, f = a
    disk = geometry._Family(
        checks=((lambda K: K.a > 0, "disk radius must be positive"),),
        frequency=lambda K: 1,
        kernel=lambda K, c, s: (np.full_like(c, K.a), np.zeros_like(s), np.full_like(c, K.a)),
        linear_map=None, spec={"a": (float,)},
    )
    monkeypatch.setitem(geometry._FAMILIES, "disk", disk)
    fn = body_functionals(ConvexBody2D("disk", a=2.0), CircleGrid(256))
    assert fn.volume == pytest.approx(4 * math.pi, rel=1e-14)
    code, out, _ = _geometry(tmp_path, capsys, {"family": "disk", "a": 2})
    assert code == 0
    assert json.loads(out)["results"][0]["boundary_length"] == pytest.approx(4 * math.pi, rel=1e-14)
    code, _, err = _geometry(tmp_path, capsys, {"family": "disk", "a": -1.0})
    assert (code, json.loads(err)["message"]) == (2, "disk radius must be positive")
    code, _, err = _geometry(tmp_path, capsys, {"family": "disk", "a": [2]})
    assert (code, json.loads(err)["error"]) == (2, "SpecError")
    with pytest.raises(UnsupportedFamily):
        apply_linear_map(ConvexBody2D("disk", a=2.0), np.eye(2))


@pytest.mark.parametrize("make, error, message", [
    (lambda: ConvexBody2D("disk"), InvalidParameter, "unknown body family 'disk'"),
    (lambda: ellipse(-1.0, 1.0), InvalidParameter, "ellipse semi-axes must be positive"),
    (lambda: ellipse(1e200, 1.0), InvalidParameter,
     "ellipse h^3, h^-2 or (ab)^2 would leave the float range"),
    (lambda: trigball(0.1, 1), InvalidParameter, "trigball frequency must be an integer >= 2"),
    (lambda: trigball(0.2, 3), InvalidParameter,
     "trigball needs |eps|(k^2 - 1) < 1 for positive curvature"),
    (lambda: apply_linear_map(trigball(0.05, 2), np.eye(2)), UnsupportedFamily,
     "only ellipses are closed under linear maps"),
])
def test_family_errors_keep_their_types_and_messages(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value) == message


def test_cli_unknown_family_is_a_spec_error(tmp_path, capsys):
    code, _, err = _geometry(tmp_path, capsys, {"family": "disk", "a": 1.0})
    assert (code, json.loads(err)) == (2, {"error": "SpecError",
                                           "message": "unknown body family 'disk'"})


@pytest.mark.parametrize("n", [2 ** 62, 2 ** 26 + 2])
def test_grid_rejects_node_counts_above_the_cap(n):
    with pytest.raises(InvalidParameter):
        CircleGrid(n)


def test_grid_accepts_the_cap_and_builds_no_table_on_construction():
    grid = CircleGrid(2 ** 26)
    assert not {"nodes", "weights", "_trig"} & set(vars(grid))


def test_cli_node_count_above_the_cap_exits_2(tmp_path, capsys):
    code, out, err = _geometry(tmp_path, capsys, {"family": "ellipse", "a": 1, "b": 1}, nodes=1e300)
    assert (code, out, json.loads(err)["error"]) == (2, "", "InvalidParameter")
