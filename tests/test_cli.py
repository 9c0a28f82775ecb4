import json
import math
import re
from pathlib import Path

import pytest

from mixdiv.cli import _VERIFY, main


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


COMPUTE_SPEC = {
    "space": {"weights": [1, 1]},
    "densities": {"p": [0.5, 0.5], "q": [0.25, 0.75]},
    "tasks": [
        {"type": "classical", "f": {"kind": "tv"}, "p": "p", "q": "q"},
        {"type": "named", "family": "mixed_tv", "ps": ["p"], "qs": ["q"]},
        {
            "type": "mixed",
            "fs": [{"kind": "power", "alpha": 0.5}, {"kind": "power", "alpha": 0.5}],
            "ps": ["p", "p"],
            "qs": ["p", "p"],
        },
    ],
}


def test_compute_values(tmp_path, capsys):
    spec = _write(tmp_path, "c.json", COMPUTE_SPEC)
    assert main(["compute", "--spec", spec]) == 0
    report = json.loads(capsys.readouterr().out)
    values = [r["value"] for r in report["results"]]
    assert values[0] == pytest.approx(0.5)
    assert values[1] == pytest.approx(0.5)
    assert values[2] == pytest.approx(1.0)


def test_compute_bad_density_exits_2(tmp_path, capsys):
    spec = _write(tmp_path, "bad.json", {
        "space": {"weights": [1, 1]},
        "densities": {"p": [0.5, 0.4]},
        "tasks": [],
    })
    assert main(["compute", "--spec", spec]) == 2
    err = capsys.readouterr().err
    assert "NormalizationFailure" in err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{nope")
    assert main(["compute", "--spec", str(path)]) == 2


def test_verify_af_ok(tmp_path, capsys):
    spec = _write(tmp_path, "v.json", {
        "space": {"weights": [1, 1, 1]},
        "densities": {
            "p1": [0.5, 0.3, 0.2], "q1": [0.2, 0.5, 0.3],
            "p2": [0.4, 0.4, 0.2], "q2": [0.3, 0.3, 0.4],
        },
        "tasks": [{
            "type": "af", "m": 2,
            "fs": [{"kind": "power", "alpha": 2.0}, {"kind": "power", "alpha": 2.0}],
            "ps": ["p1", "p2"], "qs": ["q1", "q2"],
        }],
    })
    assert main(["verify", "--spec", spec]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"][0]["satisfied"] is True
    assert "slack" in report["results"][0]


def test_verify_tag_mismatch_exits_2(tmp_path, capsys):
    spec = _write(tmp_path, "v2.json", {
        "space": {"weights": [1, 1]},
        "densities": {"p": [0.5, 0.5], "q": [0.25, 0.75]},
        "tasks": [{
            "type": "concave_chain",
            "fs": [{"kind": "power", "alpha": 2.0}],
            "ps": ["p"], "qs": ["q"],
        }],
    })
    assert main(["verify", "--spec", spec]) == 2
    assert "NonConcaveTag" in capsys.readouterr().err


def test_geometry_disk(tmp_path, capsys):
    spec = _write(tmp_path, "g.json", {
        "grid": {"nodes": 256},
        "bodies": {"disk": {"family": "ellipse", "a": 1, "b": 1}},
        "tasks": [
            {"type": "functionals", "body": "disk"},
            {"type": "isoperimetric", "body": "disk"},
        ],
    })
    assert main(["geometry", "--spec", spec]) == 0
    report = json.loads(capsys.readouterr().out)
    fn = report["results"][0]
    assert fn["volume"] == pytest.approx(math.pi, rel=1e-10)
    assert fn["boundary_length"] == pytest.approx(2 * math.pi, rel=1e-10)
    assert report["results"][1]["equality"] is True


def test_geometry_bad_body_exits_2(tmp_path, capsys):
    spec = _write(tmp_path, "g2.json", {
        "bodies": {"K": {"family": "trigball", "eps": 0.2, "k": 3}},
        "tasks": [{"type": "functionals", "body": "K"}],
    })
    assert main(["geometry", "--spec", spec]) == 2


def test_falsify_deterministic_reports(tmp_path, capsys):
    spec = _write(tmp_path, "f.json", {
        "tasks": [{"inequality": "concave_chain", "seed": 7, "trials": 50}],
    })
    assert main(["falsify", "--spec", spec]) == 0
    first = capsys.readouterr().out
    assert main(["falsify", "--spec", spec]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["results"][0]["violations"] == 0


def test_csv_output_round_trip(tmp_path, capsys):
    spec = _write(tmp_path, "c.json", COMPUTE_SPEC)
    out = tmp_path / "out.csv"
    assert main(["compute", "--spec", spec, "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("index,task,value")
    assert len(lines) == 4
    # 17 significant digits round-trip
    value = lines[1].split(",")[2]
    assert float(value) == 0.5


def test_emit_integrand(tmp_path, capsys):
    spec = _write(tmp_path, "c.json", COMPUTE_SPEC)
    assert main(["compute", "--spec", spec, "--emit-integrand"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"][0]["integrand"] == [0.25, 0.25]


def test_report_json_reparses(tmp_path, capsys):
    spec = _write(tmp_path, "c.json", COMPUTE_SPEC)
    out = tmp_path / "r.json"
    assert main(["compute", "--spec", spec, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["command"] == "compute"


def test_tolerance_override_spec_wins(tmp_path, capsys):
    spec = _write(tmp_path, "c.json", {
        "space": {"weights": [1, 1]},
        "densities": {"p": [0.5, 0.5000001]},
        "tolerances": {"norm": 1e-3},
        "tasks": [],
    })
    # mass 1 + 1e-7: the default tolerance 1e-12 would reject it, the spec's 1e-3 accepts it
    assert main(["compute", "--spec", spec]) == 0


README_SPECS = re.findall(r"```json\n(.*?)```",
                          (Path(__file__).resolve().parent.parent / "README.md").read_text(),
                          re.S)


def _readme_command(spec):
    """The subcommand a README spec is written for, read from its fields."""
    if "bodies" in spec:
        return "geometry"
    first = spec["tasks"][0]
    if "inequality" in first:
        return "falsify"
    return "verify" if first["type"] in _VERIFY else "compute"


def test_every_readme_spec_runs(tmp_path, capsys):
    assert README_SPECS
    for block in README_SPECS:
        spec = json.loads(block)
        command = _readme_command(spec)
        assert main([command, "--spec", _write(tmp_path, "spec.json", spec)]) == 0, command
        capsys.readouterr()
