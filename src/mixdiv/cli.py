"""Batch CLI: JSON problem specs in, JSON/CSV reports out.

    mixdiv compute|verify|geometry|falsify --spec FILE [--out FILE] [--format json|csv]
    compute and geometry also take [--emit-integrand]; falsify [--seed N] [--trials N]

Exit codes: 0 all checks pass, 1 at least one verdict unsatisfied,
2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

from . import divergences, geometry, inequalities
from .falsify import FalsifyConfig, falsify as run_falsify_trials
from .errors import MixdivError, OutputError, SpecError
from .ffunctions import FVector, from_spec
from .measures import Density, DensityBundle, make_space, validate_density

_CSV_COLUMNS = [
    "index", "task", "value", "lhs", "rhs", "slack",
    "satisfied", "equality", "violations", "min_slack",
]


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return "" if x is None else str(x)


def _load_spec(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SpecError(f"cannot read spec file: {exc}") from exc


_REQUIRED = object()


def _is(kind):
    """A converter that passes a value of the given type and rejects others."""
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {kind.__name__}")
        return value
    return check


_LIST, _STR = _is(list), _is(str)


def _int(value) -> int:
    """A JSON integer, or a float with an integral value; not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise TypeError("expected an integer")
    return int(value)


def _real(value) -> float:
    """A JSON number: an int or a float; not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a real")
    return float(value)


def _reals(value) -> list:
    return [_real(x) for x in _LIST(value)]


class _Reader:
    """Typed reads of one JSON object of a spec. `get` raises SpecError when
    the field is missing or when the converter `to` (_real, _int, _LIST, ...)
    rejects it; a default is returned as given."""

    def __init__(self, data, where):
        if not isinstance(data, dict):
            raise SpecError(f"{where} must be a JSON object, got {data!r}")
        self.data, self.where = data, where

    def get(self, key, to=lambda value: value, default=_REQUIRED):
        if key not in self.data:
            if default is _REQUIRED:
                raise SpecError(f"missing field {key!r} in {self.where}")
            return default
        try:
            return to(self.data[key])
        except (TypeError, ValueError, OverflowError):
            raise SpecError(
                f"field {key!r} in {self.where} has a wrong type or value: {self.data[key]!r}"
            ) from None

    def section(self, key, default=_REQUIRED) -> "_Reader":
        return _Reader(self.get(key, default=default), key)


class _Task(_Reader):
    """One compute, verify or geometry task. Names in its fields refer to the
    spec's densities or bodies (`named`); its entry computes on the space or
    the grid, and reports integrands when `emit` is set."""

    def __init__(self, data, named, space=None, grid=None, emit=False):
        super().__init__(data, "task")
        self.type = self.get("type", _STR)
        self.where = f"{self.type} task"
        self.named, self.space, self.grid, self.emit = named, space, grid, emit

    def f(self, key):
        return from_spec(self.get(key))

    def fs(self, key) -> FVector:
        return FVector(from_spec(f) for f in self.get(key, _LIST))

    def _resolve(self, name):
        if not isinstance(name, str) or name not in self.named:
            raise SpecError(f"unknown name {name!r} in {self.where}")
        return self.named[name]

    def ref(self, key):
        """The density or body that the field names."""
        return self._resolve(self.get(key))

    def refs(self, key) -> list:
        return [self._resolve(name) for name in self.get(key, _LIST)]

    def bundle(self, key) -> DensityBundle:
        return DensityBundle(self.space, tuple(self.refs(key)))

    def report(self, report) -> dict:
        entry = {"task": self.type, "value": report.value}
        if self.emit:
            entry["integrand"] = [float(x) for x in report.integrand]
            entry["convention_hits"] = report.convention_hits
        return entry

    def verdicts(self, *verdicts, **extra) -> list:
        return [{"task": self.type} | extra | dataclasses.asdict(v) for v in verdicts]


def _norm_tol(spec):
    tol = spec.section("tolerances", {}).get("norm", _real, 1e-12)
    if tol <= 0:
        raise SpecError("tolerance overrides must be positive")
    return tol


def _parse_inputs(spec) -> dict:
    space = make_space(spec.section("space").get("weights", _reals))
    tol = _norm_tol(spec)
    named = spec.section("densities", {})
    densities = {}
    for name in named.data:
        d = Density(named.get(name, _reals))
        validate_density(d, space, strictly_positive=True, probability=True, tol=tol)
        densities[name] = d
    return {"space": space, "named": densities}


def _run(command, table, spec, inputs):
    """Run each task of the spec through its entry in the command's table."""
    results = []
    for task in spec.get("tasks", _LIST):
        r = _Task(task, **inputs)
        run = table.get(r.type)
        if run is None:
            raise SpecError(f"unknown {command} task type {r.type!r}")
        out = run(r)
        results += out if isinstance(out, list) else [out]
    code = 1 if any(not entry.get("satisfied", True) for entry in results) else 0
    return {"command": command, "results": results}, code


def _named(r):
    family = r.get("family", _STR)
    out = divergences.named_divergence(
        family, r.bundle("ps"), r.bundle("qs"),
        alphas=r.get("alphas", _reals, None),
        alpha=r.get("alpha", _real, None),
        kl_orientation=r.get("kl_orientation", _STR, "pq"),
    )
    entry = {"task": r.type, "value": out} if isinstance(out, float) else r.report(out)
    return entry | {"family": family}


_COMPUTE = {
    "classical": lambda r: r.report(divergences.classical_f_divergence(
        r.f("f"), r.ref("p"), r.ref("q"), r.space,
    )),
    "mixed": lambda r: r.report(divergences.mixed_f_divergence(
        r.fs("fs"), r.bundle("ps"), r.bundle("qs"),
    )),
    "k_form": lambda r: r.report(divergences.mixed_k_form(
        r.fs("fs"), r.bundle("ps"), r.bundle("qs"), r.get("k", _int),
    )),
    "ith": lambda r: r.report(divergences.ith_mixed(
        r.f("f1"), r.f("f2"), r.ref("p1"), r.ref("q1"), r.ref("p2"), r.ref("q2"),
        r.get("i", _real), r.get("n", _int), r.space,
    )),
    "ith_reference": lambda r: r.report(divergences.ith_mixed_reference(
        r.f("f1"), r.ref("p1"), r.ref("q1"), r.get("i", _real), r.f("f2"),
        r.space, r.get("n", _int),
    )),
    "named": _named,
}


def _corollary(r):
    pair = {"P2": r.ref("p2"), "Q2": r.ref("q2")} if "p2" in r.data else {}
    return r.verdicts(inequalities.corollary_bound_check(
        r.get("case", _STR), r.f("f1"), r.f("f2"), r.ref("p1"), r.ref("q1"),
        r.get("i", _real), r.get("n", _int), r.space, **pair,
    ))


_VERIFY = {
    "af": lambda r: r.verdicts(inequalities.af_check(
        r.fs("fs"), r.bundle("ps"), r.bundle("qs"), r.get("m", _int),
    )),
    "jensen": lambda r: r.verdicts(inequalities.jensen_bound_check(
        r.f("f"), r.ref("p"), r.ref("q"), r.space,
    )),
    "concave_chain": lambda r: r.verdicts(*inequalities.concave_chain_check(
        r.fs("fs"), r.bundle("ps"), r.bundle("qs"),
    )),
    "interpolation": lambda r: r.verdicts(inequalities.interpolation_check(
        r.f("f1"), r.f("f2"), r.ref("p1"), r.ref("q1"), r.ref("p2"), r.ref("q2"),
        r.get("i", _real), r.get("j", _real), r.get("k", _real), r.get("n", _int), r.space,
    )),
    "corollary": _corollary,
}


def run_compute(spec, emit_integrand=False):
    spec = _Reader(spec, "spec")
    return _run("compute", _COMPUTE, spec, _parse_inputs(spec) | {"emit": emit_integrand})


def run_verify(spec):
    spec = _Reader(spec, "spec")
    return _run("verify", _VERIFY, spec, _parse_inputs(spec))


def run_falsify(spec, seed=None, trials=None):
    results = []
    for task in _Reader(spec, "spec").get("tasks", _LIST):
        task = _Reader(task, "falsify task")
        cfg = FalsifyConfig(
            max_atoms=task.get("max_atoms", _int, 12),
            max_n=task.get("max_n", _int, 4),
        )
        results.append(run_falsify_trials(
            task.get("inequality", _STR),
            task.get("seed", _int, seed if seed is not None else 0),
            task.get("trials", _int, trials if trials is not None else 1000),
            cfg,
        ))
    code = 1 if any(report["violations"] > 0 for report in results) else 0
    return {"command": "falsify", "results": results}, code


def _parse_body(spec):
    """A body from the fields its family's row names, read in the row's order."""
    family = spec.get("family", _STR)
    if family not in geometry._FAMILIES:
        raise SpecError(f"unknown body family {family!r}")
    return geometry.ConvexBody2D(family, **{
        name: spec.get(name, _int if kind is int else _real, *default)
        for name, (kind, *default) in geometry._FAMILIES[family].spec.items()})


def _functionals(r):
    fn = geometry.body_functionals(r.ref("body"), r.grid)
    return {"task": r.type, "body": r.get("body")} | dataclasses.asdict(fn)


def _densities(r):
    p, q = geometry.body_densities(r.ref("body"), r.grid)
    space = r.grid.space()
    entry = {
        "task": r.type, "body": r.get("body"),
        "p_mass": space.integrate(p.values),
        "q_mass": space.integrate(q.values),
    }
    if r.emit:
        entry["p"] = [float(x) for x in p.values]
        entry["q"] = [float(x) for x in q.values]
    return entry


def _geometry_ith(r):
    bodies = r.refs("bodies")
    if len(bodies) != 2:
        raise SpecError(f"field 'bodies' in {r.where} needs exactly two bodies, got {len(bodies)}")
    return r.report(geometry.ith_mixed_body_divergence(
        r.f("f1"), r.f("f2"), bodies[0], bodies[1],
        r.get("i", _real), r.get("orientation", _STR, "PQ"), r.grid,
    ))


_GEOMETRY = {
    "functionals": _functionals,
    "densities": _densities,
    "mixed": lambda r: r.report(geometry.mixed_body_divergence(
        r.fs("fs"), r.refs("bodies"), r.get("orientation", _STR, "PQ"), r.grid,
    )),
    "ith": _geometry_ith,
    "isoperimetric": lambda r: r.verdicts(
        geometry.isoperimetric_check(r.ref("body"), r.grid), body=r.get("body"),
    ),
}


def run_geometry(spec, emit_integrand=False):
    spec = _Reader(spec, "spec")
    grid = geometry.CircleGrid(spec.section("grid", {}).get("nodes", _int, 256))
    named = spec.section("bodies", {})
    bodies = {name: _parse_body(named.section(name)) for name in named.data}
    inputs = {"grid": grid, "named": bodies, "emit": emit_integrand}
    return _run("geometry", _GEOMETRY, spec, inputs)


def _to_csv(report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for idx, entry in enumerate(report["results"]):
        task = entry.get("task", entry.get("inequality", ""))
        writer.writerow([idx, task] + [_fmt(entry.get(c)) for c in _CSV_COLUMNS[2:]])
    return buf.getvalue()


_FORMATS = {
    "json": lambda report: json.dumps(report, sort_keys=True, indent=2) + "\n",
    "csv": _to_csv,
}


def _emit(report, fmt, out):
    text = _FORMATS[fmt](report)
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write report: {exc}") from exc


_EMIT = {"--emit-integrand": {"action": "store_true"}}
# subcommand -> (entry, the flags only it reads, each an entry keyword argument)
_COMMANDS = {
    "compute": (run_compute, _EMIT),
    "verify": (run_verify, {}),
    "geometry": (run_geometry, _EMIT),
    "falsify": (run_falsify, {"--seed": {"type": int}, "--trials": {"type": int}}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mixdiv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True)
        p.add_argument("--out")
        p.add_argument("--format", choices=tuple(_FORMATS), default="json")
        for flag, options in flags.items():
            p.add_argument(flag, **options)
    args = vars(parser.parse_args(argv))
    command, spec, fmt, out = (args.pop(key) for key in ("command", "spec", "format", "out"))

    try:
        report, code = _COMMANDS[command][0](_load_spec(spec), **args)
        _emit(report, fmt, out)
    except MixdivError as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True
        ) + "\n")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
