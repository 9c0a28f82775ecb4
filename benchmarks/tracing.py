"""Span tracer for the traced benchmark run.

`install` wraps every public function of each `mixdiv` module, and the
constructors of the measure classes, with a span. Modules call each other
through names bound at import (`from .ffunctions import weighted_terms`), so
each wrapper is installed on every module namespace that holds the original
function object, the package namespace included. `uninstall` puts the
originals back. `src/mixdiv` itself is never edited.

A span records its name, start, end and parent span. Spans are folded into
per-name totals as they close, so memory stays flat however long the run:
a span's self time is its duration minus the time covered by its child
spans. Counters are read at the same boundaries from the call's arguments
and result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("measures", "ffunctions", "divergences", "inequalities", "falsify", "geometry", "cli")

# The scalar per-atom body of weighted_terms' fallback loop; the enclosing
# weighted_terms span already covers it, and a span per atom would swamp it.
_UNTRACED = {"ffunctions.weighted_term"}

# Measure classes whose construction is L-measures work (Density etc. are
# built per falsifier trial).
_CONSTRUCTED = ("MeasureSpace", "Density", "DensityBundle")

_CHECKS = {
    "inequalities.af_check",
    "inequalities.jensen_bound_check",
    "inequalities.concave_chain_check",
    "inequalities.interpolation_check",
    "inequalities.corollary_bound_check",
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "child_s")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.child_s = 0.0


class Tracer:
    """Collects spans and counters; one instance per traced run."""

    def __init__(self):
        self.stack = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._patches = []

    def call(self, name, layer, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, layer, parent)
        self.stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
            duration = span.end - span.start
            if parent is not None:
                parent.child_s += duration
            self.calls[name] += 1
            self.self_s[name] += duration - span.child_s
        observe = _OBSERVERS.get(name) or _LAYER_OBSERVERS.get(layer)
        if observe is not None:
            observe(self, span, args, result)
        return result

    def open(self, pred) -> bool:
        """Whether any open span satisfies pred."""
        return any(pred(s) for s in self.stack)

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, name, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs)

        return traced

    def install(self):
        import numpy as np

        package = importlib.import_module("mixdiv")
        modules = {layer: importlib.import_module(f"mixdiv.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in _UNTRACED):
                    wrappers[id(obj)] = (obj, self._wrap(name, layer, obj))
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for cls_name in _CONSTRUCTED:
            cls = getattr(modules["measures"], cls_name)
            self._patch(cls, "__init__", self._wrap(f"measures.{cls_name}", "measures", cls.__init__))
        self._patch(np.random, "default_rng",
                    self._wrap("rng.default_rng", "rng", np.random.default_rng))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def aggregate(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters)}


# -- counters read at span boundaries ---------------------------------------


def _weighted_terms(tr, span, args, result):
    hits = result[1]
    tr.counters["weighted_terms.fallback_calls"] += hits > 0
    tr.counters["convention_hits"] += hits


def _density_vectors(args):
    """(atoms, density vectors) among a divergence call's arguments."""
    atoms, vectors = 0, 0
    for a in args:
        densities = getattr(a, "densities", None)
        if densities is not None:
            vectors += len(densities)
            atoms = a.space.size
        elif hasattr(a, "values"):
            vectors += 1
            atoms = a.values.size
    return atoms, vectors


def _divergence(tr, span, args, result):
    if span.parent is not None and span.parent.layer == "divergences":
        return  # counted where the call entered the layer
    atoms, vectors = _density_vectors(args)
    tr.counters["divergences.atoms"] += atoms
    # computed, not measured: every density vector and the weights read
    # once, the integrand written once, 8 bytes per float64 atom
    tr.counters["divergences.bytes_computed"] += 8 * atoms * (vectors + 2)
    if tr.open(lambda s: s.name in _CHECKS):
        tr.counters["divergences.under_check"] += 1


def _check(tr, span, args, result):
    if span.name not in _CHECKS:
        return
    verdicts = result if isinstance(result, tuple) else (result,)
    tr.counters["inequalities.checks"] += 1
    tr.counters["inequalities.equality_flags"] += sum(bool(v.equality) for v in verdicts)


def _falsify(tr, span, args, result):
    tr.counters["falsify.trials"] += result["trials"]
    tr.counters["falsify.violations"] += result["violations"]


def _body_eval(tr, span, args, result):
    tr.counters["geometry.nodes"] += args[1].node_count
    if tr.open(lambda s: s.name == "geometry.body_densities"):
        tr.counters["geometry.body_eval_under_densities"] += 1


_OBSERVERS = {
    "ffunctions.weighted_terms": _weighted_terms,
    "falsify.falsify": _falsify,
    "geometry.body_eval": _body_eval,
}
_LAYER_OBSERVERS = {"divergences": _divergence, "inequalities": _check}


# -- per-layer metrics -------------------------------------------------------


def merge(aggregates) -> dict:
    out = {"calls": defaultdict(int), "self_s": defaultdict(float), "counters": defaultdict(float)}
    for agg in aggregates:
        for key in out:
            for name, value in agg[key].items():
                out[key][name] += value
    return out


def layer_metrics(agg: dict, ops: int) -> dict:
    """Per-op layer metrics from merged span totals over `ops` ops."""
    calls, self_s, counters = agg["calls"], agg["self_s"], agg["counters"]

    def layer_calls(layer):
        return sum(v for k, v in calls.items() if k.split(".")[0] == layer)

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.split(".")[0] == layer)

    def ratio(a, b):
        return a / b if b else 0.0

    checks = counters.get("inequalities.checks", 0)
    densities = calls.get("geometry.body_densities", 0)
    per_op = {
        "measures.calls": layer_calls("measures"),
        "measures.self_s": layer_self("measures"),
        "ffunctions.self_s": layer_self("ffunctions"),
        "ffunctions.weighted_terms.calls": calls.get("ffunctions.weighted_terms", 0),
        "ffunctions.weighted_terms.self_s": self_s.get("ffunctions.weighted_terms", 0.0),
        "ffunctions.weighted_terms.fallback_calls": counters.get("weighted_terms.fallback_calls", 0),
        "ffunctions.convention_hits": counters.get("convention_hits", 0),
        "ffunctions.make_builtin.calls": calls.get("ffunctions.make_builtin", 0),
        "ffunctions.adjoint.calls": calls.get("ffunctions.adjoint", 0),
        "divergences.calls": layer_calls("divergences"),
        "divergences.self_s": layer_self("divergences"),
        "divergences.atoms": counters.get("divergences.atoms", 0),
        "divergences.bytes_computed": counters.get("divergences.bytes_computed", 0),
        "inequalities.checks": checks,
        "inequalities.self_s": layer_self("inequalities"),
        "inequalities.equality_flags": counters.get("inequalities.equality_flags", 0),
        "falsify.trials": counters.get("falsify.trials", 0),
        "falsify.self_s": layer_self("falsify"),
        "falsify.rng_s": layer_self("rng"),
        "falsify.violations": counters.get("falsify.violations", 0),
        "geometry.calls": layer_calls("geometry"),
        "geometry.self_s": layer_self("geometry"),
        "geometry.body_eval.calls": calls.get("geometry.body_eval", 0),
        "geometry.nodes": counters.get("geometry.nodes", 0),
        "cli.calls": layer_calls("cli"),
        "cli.self_s": layer_self("cli"),
    }
    out = {name: ratio(value, ops) for name, value in per_op.items()}
    out["inequalities.divergence_calls_per_check"] = ratio(
        counters.get("divergences.under_check", 0), checks)
    out["geometry.body_eval_per_density_pair"] = ratio(
        counters.get("geometry.body_eval_under_densities", 0), densities)
    return out


def unit(name: str) -> str:
    """Unit of a per-layer metric: layer counts and self times are per op."""
    if name in ("cli.spawn_s", "cli.import_s", "cli.main_s"):
        return "s"
    if name.endswith(("_ratio", "_per_check", "_per_density_pair")):
        return "ratio"
    if name == "geometry.quad_err_est":
        return "1"
    if name.endswith("bytes_computed"):
        return "B/op"
    return "s/op" if name.endswith("_s") else "count/op"
