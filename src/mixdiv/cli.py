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

import numpy as np

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
    rejects it; a default is returned as given. Each key asked for is
    recorded, so that `all_read` can refuse the fields nothing read."""

    def __init__(self, data, where):
        if not isinstance(data, dict):
            raise SpecError(f"{where} must be a JSON object, got {data!r}")
        self.data, self.where, self.read = data, where, set()

    def all_read(self) -> None:
        """SpecError naming each field of the object that no `get` asked for."""
        unread = self.data.keys() - self.read
        if unread:
            names = ", ".join(repr(key) for key in sorted(unread))
            raise SpecError(f"unknown field {names} in {self.where}")

    def get(self, key, to=lambda value: value, default=_REQUIRED):
        self.read.add(key)
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

    def last(self, key, to=lambda value: value, default=_REQUIRED):
        """get, as the object's last read: a field still unread is refused."""
        value = self.get(key, to, default)
        self.all_read()
        return value

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


def _parse_inputs(spec) -> dict:
    space = make_space(spec.section("space").last("weights", _reals))
    tol = spec.section("tolerances", {}).last("norm", _real, 1e-12)
    if tol <= 0:
        raise SpecError("tolerance overrides must be positive")
    named = spec.section("densities", {})
    densities = {}
    for name in named.data:
        d = Density(named.get(name, _reals))
        validate_density(d, space, strictly_positive=True, probability=True, tol=tol)
        densities[name] = d
    return {"space": space, "named": densities}


def _run(command, table, spec, inputs):
    """Run each task of the spec through its entry in the command's table;
    a field the entry, or the spec, did not read is a SpecError."""
    results = []
    for task in spec.last("tasks", _LIST):
        r = _Task(task, **inputs)
        run = table.get(r.type)
        if run is None:
            raise SpecError(f"unknown {command} task type {r.type!r}")
        out = run(r)
        r.all_read()
        results += out if isinstance(out, list) else [out]
    code = 1 if any(not entry.get("satisfied", True) for entry in results) else 0
    return {"command": command, "results": results}, code


def _named(r):
    family = r.get("family", _STR)
    out, = _results(r, divergences._NAMED.row(family))
    entry = {"task": r.type, "value": out} if isinstance(out, float) else r.report(out)
    return entry | {"family": family}


# a task field's kind -> its typed read; _results reads the fields its row names
_READ = {"generator": _Task.f, "generators": _Task.fs, "density": _Task.ref,
         "densities": _Task.bundle, "space": lambda r, key: r.space} | {
    kind: lambda r, key, to=to: r.get(key, to)
    for kind, to in {"real": _real, "reals": _reals, "int": _int, "str": _STR}.items()}


def _results(r, row) -> list:
    """The row's function on the task's fields, each read by its kind in the
    row's order; the optional ones only when the task gives any of them."""
    left_out = () if r.data.keys() & set(row.optional) else row.optional
    return row.results(r.space, {
        key: _READ[kind](r, key) for key, kind in row.fields.items() if key not in left_out})


_COMPUTE = dict.fromkeys(divergences._FUNCTIONALS, lambda r: r.report(
    *_results(r, divergences._FUNCTIONALS[r.type]))) | {"named": _named}
_VERIFY = dict.fromkeys(inequalities._CHECKS, lambda r: r.verdicts(
    *_results(r, inequalities._CHECKS[r.type])))


def run_compute(spec, emit_integrand=False):
    spec = _Reader(spec, "spec")
    return _run("compute", _COMPUTE, spec, _parse_inputs(spec) | {"emit": emit_integrand})


def run_verify(spec):
    spec = _Reader(spec, "spec")
    return _run("verify", _VERIFY, spec, _parse_inputs(spec))


def run_falsify(spec, seed=None, trials=None):
    results = []
    for task in _Reader(spec, "spec").last("tasks", _LIST):
        task = _Reader(task, "falsify task")
        cfg = FalsifyConfig(**{key: task.get(key, _int)
                               for key in ("max_atoms", "max_n") if key in task.data})
        args = (task.get("inequality", _STR),
                task.get("seed", _int, seed if seed is not None else 0),
                task.last("trials", _int, trials if trials is not None else 1000), cfg)
        results.append(run_falsify_trials(*args))  # once every field is read
    code = 1 if any(report["violations"] > 0 for report in results) else 0
    return {"command": "falsify", "results": results}, code


def _parse_body(spec):
    """A body from the fields its family's row names, read in the row's order;
    a field the row does not name is a SpecError."""
    family = spec.get("family", _STR)
    if family not in geometry._FAMILIES:
        raise SpecError(f"unknown body family {family!r}")
    fields = {name: spec.get(name, _int if kind is int else _real, *default)
              for name, (kind, *default) in geometry._FAMILIES[family].spec.items()}
    spec.all_read()
    return geometry.ConvexBody2D(family, **fields)


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
    grid = geometry.CircleGrid(spec.section("grid", {}).last("nodes", _int, 256))
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
        # an overflow or NaN reaches the report checks, which raise NonFiniteValue
        with np.errstate(over="ignore", invalid="ignore"):
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
