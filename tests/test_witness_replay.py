"""The falsifier's witness is a complete verify spec: `mixdiv verify --spec`
on it reproduces the report's minimum relative slack bit for bit."""

import json

import pytest

from mixdiv import INEQUALITY_IDS, falsify
from mixdiv.cli import main


def _verify(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["verify", "--spec", str(path)])
    out, err = capsys.readouterr()
    return code, json.loads(out) if out else None, json.loads(err) if err else None


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("inequality", INEQUALITY_IDS)
def test_the_witness_replays_its_min_slack_through_verify(tmp_path, capsys, inequality, seed):
    report = falsify(inequality, seed, 300)
    code, out, _ = _verify(tmp_path, capsys, report["witness"])
    assert code == 0
    slack = min(v["slack"] / (1.0 + abs(v["rhs"])) for v in out["results"])
    assert slack.hex() == report["min_slack"].hex()


# the density fields of each id's task that holds single densities
SINGLE = {"jensen_bound": ["p", "q"], "reference_concave": ["p1", "q1"],
          "reference_convex_high": ["p1", "q1"], "reference_concave_low": ["p1", "q1"]}


@pytest.mark.parametrize("inequality", INEQUALITY_IDS)
def test_the_witness_names_each_density_after_its_field(inequality):
    witness = falsify(inequality, 3, 20)["witness"]
    task, = witness["tasks"]
    if "fs" in task:  # a bundle's members are p0, p1, ... and q0, q1, ...
        members = range(len(task["fs"]))
        assert (task["ps"], task["qs"]) == ([f"p{i}" for i in members], [f"q{i}" for i in members])
        names = task["ps"] + task["qs"]
    else:
        names = SINGLE.get(inequality, ["p1", "q1", "p2", "q2"])
        assert {key: task.get(key) for key in names} == {key: key for key in names}
    assert list(witness["densities"]) == names


def test_a_corollary_second_pair_is_given_whole_or_not_at_all(tmp_path, capsys):
    witness = falsify("concave_band", 0, 20)["witness"]
    del witness["tasks"][0]["p2"]
    code, _, err = _verify(tmp_path, capsys, witness)
    assert code == 2 and err["error"] == "SpecError" and "'p2'" in err["message"]
