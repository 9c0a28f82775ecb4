"""The benchmark's five workloads.

Each workload builds its inputs from the seed (`build`), runs one op at a
time (`op`), and checks every op's output outside the timed region (`gate`,
which returns one `(position, reason)` per failed op). mixdiv receives only
the generated inputs. `checks` counts the inequality checks an op evaluates
(falsifier trials are checks), which `trials_per_s` is made of.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import mixdiv as M
import tracing

ROOT = Path(__file__).resolve().parent.parent
TRACE_CLI = Path(__file__).resolve().parent / "trace_cli.py"

REL_TOL = 1e-10


def rel_err(got, ref) -> float:
    return abs(got - ref) / max(abs(ref), 1e-300)


def digest(report) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def _compare(values: dict, ref: dict, tol=REL_TOL):
    """Reasons for each value off its reference by more than tol, relative."""
    return [f"{k}={values[k]!r} vs reference {ref[k]!r}"
            for k in ref if not rel_err(values[k], ref[k]) <= tol]


def _unsatisfied(out):
    return [f"{k} verdict unsatisfied" for k, ok in out["satisfied"].items() if not ok]


class Workload:
    name = ""
    cycle = 1  # ops in one rotation of distinct op inputs

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny

    def rng(self):
        return np.random.default_rng([self.seed, sorted(WORKLOADS).index(self.name)])

    def checks(self, inputs, k) -> int:
        raise NotImplementedError

    def record(self, out):
        """What the loop keeps of an op's output for the gate."""
        return out

    def traced_loop(self, loop):
        """Run `loop(op)` over traced ops; returns (loop result, span totals)."""
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result = loop(self.op)
        finally:
            tracer.uninstall()
        return result, tracer.aggregate()

    def layer_extras(self, inputs) -> dict:
        """Per-layer metrics measured outside the op loop."""
        return {"geometry.quad_err_est": 0.0, "cli.spawn_s": 0.0,
                "cli.import_s": 0.0, "cli.main_s": 0.0}

    def info(self, inputs, outputs) -> dict:
        return {}

    def close(self):
        pass


# -- falsify_small -----------------------------------------------------------


class FalsifySmall(Workload):
    """Ten registered ids in a fixed rotation; seeds derived from the seed."""

    name = "falsify_small"

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.trials = 2 if tiny else 20
        self.seeds_per_id = 1 if tiny else 4
        self.cycle = len(M.INEQUALITY_IDS) * self.seeds_per_id
        self.sizes = {"ids": len(M.INEQUALITY_IDS), "seeds_per_id": self.seeds_per_id,
                      "trials_per_op": self.trials, "max_atoms": M.FalsifyConfig().max_atoms}

    def build(self):
        seeds = self.rng().integers(0, 2**31, size=self.cycle)
        return [(M.INEQUALITY_IDS[j % len(M.INEQUALITY_IDS)], int(s)) for j, s in enumerate(seeds)]

    def op(self, pool, k):
        inequality, seed = pool[k % len(pool)]
        return M.falsify(inequality, seed, self.trials)

    def checks(self, pool, k):
        return self.trials

    def record(self, report):
        # Keeping thousands of witness dicts alive would make the garbage
        # collector's passes, which run inside later ops, grow with the run.
        return {"inequality": report["inequality"], "violations": report["violations"],
                "min_slack": report["min_slack"], "sha256": digest(report)}

    def _reference(self, pool):
        return [digest(M.falsify(inequality, seed, self.trials)) for inequality, seed in pool]

    def gate(self, pool, outputs):
        ref = self._reference(pool)
        failures = []
        for pos, (k, rec) in enumerate(outputs):
            if rec["violations"] != 0:
                failures.append((pos, f"{rec['inequality']}: {rec['violations']} violations"))
            if rec["sha256"] != ref[k % len(pool)]:
                failures.append((pos, f"{rec['inequality']}: report differs from a re-run"))
        return failures

    def info(self, pool, outputs):
        return {"report_sha256": digest(self._reference(pool))}


# -- atoms_dense / atoms_sparse ----------------------------------------------


def _spec_eval(spec, t):
    """Generator value at t > 0, written apart from mixdiv.ffunctions."""
    kind = spec["kind"]
    if kind == "tv":
        return np.abs(t - 1.0)
    if kind == "klplus":
        return np.maximum(t * np.log(t), 0.0)
    if kind == "power":
        return t ** spec["alpha"]
    if kind == "linear":
        return spec["a"] * t + spec["b"]
    raise ValueError(kind)


def _spec_at_zero(spec):
    """lim f(t) as t -> 0+, finite for every generator the workloads draw."""
    return {"tv": 1.0, "klplus": 0.0, "power": 0.0, "linear": spec.get("b", 0.0)}[spec["kind"]]


def _terms(spec, p, q):
    """q f(p/q) for q > 0, with q f(0+) where p = 0."""
    zero = p == 0
    return np.where(zero, q * _spec_at_zero(spec), q * _spec_eval(spec, np.where(zero, 1.0, p) / q))


def _adjoint_terms(spec, p, q):
    """Adjoint slot p f*(q/p), f*(t) = t f(1/t); p = 0 gives q f*'(inf) = q f(0+)."""
    zero = p == 0
    t = q / np.where(zero, 1.0, p)
    return np.where(zero, q * _spec_at_zero(spec), p * t * _spec_eval(spec, 1.0 / t))


class Atoms(Workload):
    """One pass over a fixed mix of L2/L3 calls on n = 4 density pairs."""

    n = 4

    def __init__(self, seed, tiny, atoms, zero_fraction):
        super().__init__(seed, tiny)
        self.atoms = atoms
        self.zeros = int(round(zero_fraction * atoms))
        self.sizes = {"atoms": atoms, "n": self.n, "zero_atoms_per_p": self.zeros,
                      "vector_bytes": 8 * atoms}

    def build(self):
        rng = self.rng()
        n, N = self.n, self.atoms
        space = M.make_space(rng.uniform(0.5, 1.5, N))

        def density(zeros):
            v = rng.exponential(1.0, N) + 1e-3
            v[rng.choice(N, zeros, replace=False)] = 0.0
            return M.Density(v / float(np.dot(v, space.weights)))

        P = M.DensityBundle(space, tuple(density(self.zeros) for _ in range(n)))
        Q = M.DensityBundle(space, tuple(density(0) for _ in range(n)))
        u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
        B = M.make_builtin
        lin = lambda: B("linear", a=u(0.1, 2.0), b=u(0.1, 2.0))  # noqa: E731
        # Every generator has a finite limit at 0, so zero atoms take the
        # 0*inf conventions and never raise; af_check and the concave chain
        # need generators of one convexity.
        i = u(0.5, n - 0.5)
        return {
            "space": space, "P": P, "Q": Q, "k": 2,
            "fv": M.FVector([B("tv"), B("klplus"), B("power", alpha=u(0.2, 0.9)), lin()]),
            "fv_convex": M.FVector([B("tv"), B("klplus"), lin(), B("tv")]),
            "fv_concave": M.FVector([B("power", alpha=u(0.1, 0.9)), B("power", alpha=u(0.1, 0.9)),
                                     lin(), B("power", alpha=1.0)]),
            "f1": B("power", alpha=u(0.2, 0.9)), "f2": B("tv"),
            "i": i, "j": u(0.0, i - 0.25), "kk": u(i + 0.25, n),
            "renyi_alpha": u(0.2, 0.8),
        }

    def op(self, x, k):
        s, P, Q, n = x["space"], x["P"], x["Q"], self.n
        f1, f2 = x["f1"], x["f2"]
        cl = M.classical_f_divergence(x["fv"][0], P[0], Q[0], s)
        mx = M.mixed_f_divergence(x["fv"], P, Q)
        kf = M.mixed_k_form(x["fv"], P, Q, x["k"])
        ith = M.ith_mixed(f1, f2, P[0], Q[0], P[1], Q[1], x["i"], n, s)
        renyi = M.named_divergence("mixed_renyi", P, Q, alpha=x["renyi_alpha"])
        af = M.af_check(x["fv_convex"], P, Q, n)
        left, right = M.concave_chain_check(x["fv_concave"], P, Q)
        interp = M.interpolation_check(f1, f2, P[0], Q[0], P[1], Q[1], x["i"], x["j"], x["kk"], n, s)
        return {
            "values": {
                "classical": cl.value, "mixed": mx.value, "k_form": kf.value, "ith": ith.value,
                "renyi": renyi, "af.lhs": af.lhs, "af.rhs": af.rhs,
                "chain.left.lhs": left.lhs, "chain.left.rhs": left.rhs,
                "chain.right.rhs": right.rhs, "interp.lhs": interp.lhs, "interp.rhs": interp.rhs,
            },
            "satisfied": {"af": af.satisfied, "chain.left": left.satisfied,
                          "chain.right": right.satisfied, "interp": interp.satisfied},
            "convention_hits": cl.convention_hits + mx.convention_hits
            + kf.convention_hits + ith.convention_hits,
        }

    def checks(self, x, k):
        return 3

    def predicted_hits(self, x):
        """Zero atoms met by the reports the op reads: classical (P0), mixed
        and k-form (every P_i), i-th (P0, P1); Q has no zero atoms."""
        z = [int(np.count_nonzero(d.values == 0)) for d in x["P"]]
        return z[0] + 2 * sum(z) + z[0] + z[1]

    def gate(self, x, outputs):
        ref = self.reference(x)
        hits = self.predicted_hits(x)
        failures = []
        for pos, (_, out) in enumerate(outputs):
            reasons = _compare(out["values"], ref) + _unsatisfied(out)
            if out["convention_hits"] != hits:
                reasons.append(f"convention_hits {out['convention_hits']} != predicted {hits}")
            failures += [(pos, r) for r in reasons]
        return failures

    def reference(self, x):
        raise NotImplementedError


def _interp_rhs(d_j, d_k, i, j, k):
    return d_j ** ((k - i) / (k - j)) * d_k ** ((i - j) / (k - j))


class AtomsDense(Atoms):
    """65,536 strictly positive atoms: vectorised L2/L3 arithmetic dominates."""

    name = "atoms_dense"

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny, 256 if tiny else 65536, 0.0)

    def reference(self, x):
        """The direct sums of tests/oracles.py, imported read-only."""
        sys.path.insert(0, str(ROOT / "tests"))
        try:
            import oracles as O
        finally:
            sys.path.remove(str(ROOT / "tests"))
        n = self.n
        w = x["space"].weights.tolist()
        ps = [d.values.tolist() for d in x["P"]]
        qs = [d.values.tolist() for d in x["Q"]]
        fv = [f.describe() for f in x["fv"]]
        cx = [f.describe() for f in x["fv_convex"]]
        cc = [f.describe() for f in x["fv_concave"]]
        f1, f2 = x["f1"].describe(), x["f2"].describe()
        a = x["renyi_alpha"]

        def ith(i):
            return O.ith_oracle(w, f1, f2, ps[0], qs[0], ps[1], qs[1], i, n)

        chain_prod = math.prod(O.classical_oracle(w, cc[i], ps[i], qs[i]) for i in range(n))
        d_i, d_j, d_k = ith(x["i"]), ith(x["j"]), ith(x["kk"])
        hellinger = O.mixed_oracle(w, [{"kind": "power", "alpha": a}] * n, ps, qs)
        return {
            "classical": O.classical_oracle(w, fv[0], ps[0], qs[0]),
            "mixed": O.mixed_oracle(w, fv, ps, qs),
            "k_form": O.k_form_oracle(w, fv, ps, qs, x["k"]),
            "ith": d_i,
            "renyi": math.log(hellinger) / (a - 1.0),
            "af.lhs": O.mixed_oracle(w, cx, ps, qs) ** n,
            # with m = n every substituted mix repeats one slot n times, and
            # the geometric mean of n equal terms is the classical term
            "af.rhs": math.prod(O.classical_oracle(w, cx[k], ps[k], qs[k]) for k in range(n)),
            "chain.left.lhs": O.mixed_oracle(w, cc, ps, qs) ** n,
            "chain.left.rhs": chain_prod,
            "chain.right.rhs": math.prod(O.f_oracle(f, 1.0) for f in cc),
            "interp.lhs": d_i,
            "interp.rhs": _interp_rhs(d_j, d_k, x["i"], x["j"], x["kk"]),
        }


class AtomsSparse(Atoms):
    """A tenth of every P density's atoms exactly zero: the 0*inf path."""

    name = "atoms_sparse"

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny, 128 if tiny else 768, 0.1)

    def reference(self, x):
        """numpy re-derivation applying the 0*inf conventions directly."""
        n, w = self.n, x["space"].weights
        ps = [d.values for d in x["P"]]
        qs = [d.values for d in x["Q"]]
        fv = [f.describe() for f in x["fv"]]
        cx = [f.describe() for f in x["fv_convex"]]
        cc = [f.describe() for f in x["fv_concave"]]
        f1, f2 = x["f1"].describe(), x["f2"].describe()
        a = x["renyi_alpha"]

        def mixed(specs):
            return float(np.dot(np.prod([_terms(f, p, q) ** (1.0 / n)
                                         for f, p, q in zip(specs, ps, qs)], axis=0), w))

        def classical(spec, p, q):
            return float(np.dot(_terms(spec, p, q), w))

        def ith(i):
            w1, w2 = _terms(f1, ps[0], qs[0]), _terms(f2, ps[1], qs[1])
            return float(np.dot(w1 ** (i / n) * w2 ** ((n - i) / n), w))

        k_slots = [_terms(fv[i], ps[i], qs[i]) if i < x["k"] else _adjoint_terms(fv[i], ps[i], qs[i])
                   for i in range(n)]
        power = {"kind": "power", "alpha": a}
        d_i, d_j, d_k = ith(x["i"]), ith(x["j"]), ith(x["kk"])
        chain_prod = math.prod(classical(cc[i], ps[i], qs[i]) for i in range(n))
        return {
            "classical": classical(fv[0], ps[0], qs[0]),
            "mixed": mixed(fv),
            "k_form": float(np.dot(np.prod([t ** (1.0 / n) for t in k_slots], axis=0), w)),
            "ith": d_i,
            "renyi": math.log(mixed([power] * n)) / (a - 1.0),
            "af.lhs": mixed(cx) ** n,
            "af.rhs": math.prod(classical(cx[k], ps[k], qs[k]) for k in range(n)),
            "chain.left.lhs": mixed(cc) ** n,
            "chain.left.rhs": chain_prod,
            "chain.right.rhs": math.prod(float(_spec_eval(f, 1.0)) for f in cc),
            "interp.lhs": d_i,
            "interp.rhs": _interp_rhs(d_j, d_k, x["i"], x["j"], x["kk"]),
        }


# -- geometry_grid -----------------------------------------------------------


def det_one_map(rng):
    """Random |det| = 1 map, conditioning drawn as in tests/conftest.py:
    a rotation, diag(s, 1/s) with s in [0.5, 2], a rotation, and a
    reflection half the time."""
    def rot(t):
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, -s], [s, c]])

    s = rng.uniform(0.5, 2.0)
    T = rot(rng.uniform(0, 2 * math.pi)) @ np.diag([s, 1.0 / s]) @ rot(rng.uniform(0, 2 * math.pi))
    if rng.random() < 0.5:
        T = T @ np.diag([1.0, -1.0])
    return T


def _functionals(fn):
    return {"volume": fn.volume, "polar_volume": fn.polar_volume,
            "boundary_length": fn.boundary_length, "affine_surface_area": fn.affine_surface_area}


class GeometryGrid(Workload):
    """Seeded ellipses, their affine image and a trigball on one grid."""

    name = "geometry_grid"
    BODIES = ("E1", "E2", "TB")

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.nodes = 256 if tiny else 65536
        self.sizes = {"nodes": self.nodes, "bodies": len(self.BODIES)}

    def build(self):
        rng = self.rng()
        # bodies and maps drawn as the acceptance tests draw them
        E1 = M.ellipse(rng.uniform(0.7, 1.5), rng.uniform(0.7, 1.5), rng.uniform(0, 2 * math.pi))
        T = det_one_map(rng)
        k = int(rng.integers(2, 6))
        TB = M.trigball(rng.uniform(-0.9, 0.9) / (k * k - 1), k)
        B = M.make_builtin
        grid = M.CircleGrid(self.nodes)
        return {
            "grid": grid, "weights": grid.weights, "E1": E1, "T": T, "TB": TB,
            "fv": M.FVector([B("power", alpha=0.5), B("power", alpha=2.0),
                             B("linear", a=1.0, b=0.5)]),
            "f1": B("power", alpha=float(rng.uniform(0.2, 0.9))),
            "f2": B("linear", a=float(rng.uniform(0.1, 2.0)), b=float(rng.uniform(0.1, 2.0))),
            "i": float(rng.uniform(0.0, 2.0)),
        }

    def op(self, x, k):
        grid, E1, TB = x["grid"], x["E1"], x["TB"]
        E2 = M.apply_linear_map(E1, x["T"])
        bodies = dict(zip(self.BODIES, (E1, E2, TB)))
        values = {"E2.a": E2.a, "E2.b": E2.b}
        for name, K in bodies.items():
            for key, v in _functionals(M.body_functionals(K, grid)).items():
                values[f"{name}.{key}"] = v
        p, q = M.body_densities(E1, grid)
        values["E1.p_mass"] = float(np.dot(p.values, x["weights"]))
        values["E1.q_mass"] = float(np.dot(q.values, x["weights"]))
        values["mixed"] = M.mixed_body_divergence(x["fv"], list(bodies.values()), "PQ", grid).value
        values["ith"] = M.ith_mixed_body_divergence(x["f1"], x["f2"], E1, TB, x["i"], "PQ", grid).value
        satisfied = {f"iso.{name}": M.isoperimetric_check(K, grid).satisfied
                     for name, K in bodies.items()}
        return {"values": values, "satisfied": satisfied}

    def checks(self, x, k):
        return len(self.BODIES)

    def gate(self, x, outputs):
        first = outputs[0][1]["values"]
        E1 = x["E1"]
        failures = []
        for pos, (_, out) in enumerate(outputs):
            v = out["values"]
            ref = {"E1.p_mass": 1.0, "E1.q_mass": 1.0}
            for name, (a, b) in (("E1", (E1.a, E1.b)), ("E2", (v["E2.a"], v["E2.b"]))):
                ref[f"{name}.volume"] = math.pi * a * b
                ref[f"{name}.polar_volume"] = math.pi / (a * b)
            reasons = _compare(v, ref)
            for name, (a, b) in (("E1", (E1.a, E1.b)), ("E2", (v["E2.a"], v["E2.b"]))):
                reasons += _compare(v, {f"{name}.affine_surface_area":
                                        2 * math.pi * (a * b) ** (1 / 3)}, 1e-8)
            # |det T| = 1 keeps the area
            reasons += _compare({"E2.volume": v["E2.volume"]}, {"E2.volume": math.pi * E1.a * E1.b})
            # no closed form for these: identical inputs must give identical values
            reasons += [f"{key} changed between ops" for key in ("mixed", "ith")
                        if v[key] != first[key]]
            failures += [(pos, r) for r in reasons + _unsatisfied(out)]
        return failures

    def layer_extras(self, x):
        E2 = M.apply_linear_map(x["E1"], x["T"])
        return super().layer_extras(x) | {
            "geometry.quad_err_est": quad_err_est((x["E1"], E2, x["TB"]), self.nodes)}


def quad_err_est(bodies, nodes) -> float:
    """Largest |Q_N - Q_N/2| over the functionals of the bodies, N = nodes."""
    full, half = M.CircleGrid(nodes), M.CircleGrid(nodes // 2)
    return max(abs(a - b) for K in bodies
               for a, b in zip(_functionals(M.body_functionals(K, full)).values(),
                               _functionals(M.body_functionals(K, half)).values()))


# -- cli_batch ---------------------------------------------------------------


def _median_runtime(argv, env, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class CliBatch(Workload):
    """`python -m mixdiv.cli` subprocesses over compute, verify, geometry
    and falsify specs written at setup."""

    name = "cli_batch"
    COMMANDS = ("compute", "verify", "geometry", "falsify")
    cycle = len(COMMANDS)

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.atoms = 10
        self.falsify_trials = 2 if tiny else 10
        self.sizes = {"jobs": list(self.COMMANDS), "atoms": self.atoms, "geometry_nodes": 256,
                      "falsify_trials_per_task": self.falsify_trials}
        self.work = ROOT / ".bench_work" / f"{self.name}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env.pop("MIXDIV_TOL_OVERRIDE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def _specs(self):
        rng = self.rng()
        N = self.atoms
        weights = rng.uniform(0.5, 1.5, N)

        def density():
            v = rng.exponential(1.0, N) + 1e-3
            return (v / float(np.dot(v, weights))).tolist()

        u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
        lin = lambda: {"kind": "linear", "a": u(0.1, 2.0), "b": u(0.1, 2.0)}  # noqa: E731
        pw = lambda lo, hi: {"kind": "power", "alpha": u(lo, hi)}  # noqa: E731
        names = ["p0", "p1", "p2", "p3", "q0", "q1", "q2", "q3"]
        header = {"space": {"weights": weights.tolist()},
                  "densities": {name: density() for name in names}}
        ps, qs = names[:4], names[4:]
        pair = {"p1": "p0", "q1": "q0", "p2": "p1", "q2": "q1"}
        compute = header | {"tasks": [
            {"type": "classical", "f": {"kind": "tv"}, "p": "p0", "q": "q0"},
            {"type": "mixed", "fs": [{"kind": "tv"}, {"kind": "klplus"}, pw(0.2, 0.9), lin()],
             "ps": ps, "qs": qs},
            {"type": "k_form", "fs": [pw(1.1, 3.0), {"kind": "klplus"}, lin(), pw(-2.0, -0.1)],
             "ps": ps, "qs": qs, "k": 2},
            {"type": "ith", "f1": pw(0.2, 0.9), "f2": lin(), "i": u(0.0, 4.0), "n": 4} | pair,
            {"type": "named", "family": "mixed_renyi", "alpha": u(0.2, 0.8), "ps": ps, "qs": qs},
            {"type": "named", "family": "mixed_kl", "ps": ps, "qs": qs},
        ]}
        i = u(0.5, 3.5)
        verify = header | {"tasks": [
            {"type": "af", "fs": [{"kind": "tv"}, {"kind": "klplus"}, pw(1.1, 3.0), lin()],
             "ps": ps, "qs": qs, "m": 2},
            {"type": "jensen", "f": pw(0.2, 0.9), "p": "p0", "q": "q0"},
            {"type": "concave_chain", "fs": [pw(0.1, 0.9), pw(0.1, 0.9), lin()],
             "ps": ps[:3], "qs": qs[:3]},
            {"type": "interpolation", "f1": pw(0.2, 0.9), "f2": lin(), "n": 4,
             "i": i, "j": u(-2.0, i - 0.25), "k": u(i + 0.25, 6.0)} | pair,
            {"type": "corollary", "case": "concave_band", "f1": pw(0.1, 0.9), "f2": lin(),
             "i": u(0.0, 4.0), "n": 4} | pair,
        ]}
        k = int(rng.integers(2, 6))
        geometry = {
            "grid": {"nodes": 256},
            "bodies": {
                "E": {"family": "ellipse", "a": u(0.7, 1.5), "b": u(0.7, 1.5), "phi": u(0, 2 * math.pi)},
                "T": {"family": "trigball", "eps": u(-0.9, 0.9) / (k * k - 1), "k": k},
            },
            "tasks": [
                {"type": "functionals", "body": "E"}, {"type": "functionals", "body": "T"},
                {"type": "densities", "body": "E"},
                {"type": "mixed", "fs": [pw(0.2, 0.9), lin()], "bodies": ["E", "T"]},
                {"type": "ith", "f1": pw(0.2, 0.9), "f2": lin(), "bodies": ["E", "T"], "i": u(0.0, 2.0)},
                {"type": "isoperimetric", "body": "E"}, {"type": "isoperimetric", "body": "T"},
            ],
        }
        ids = M.INEQUALITY_IDS
        first = int(rng.integers(len(ids)))
        falsify = {"tasks": [
            {"inequality": ids[(first + d) % len(ids)], "seed": int(rng.integers(2**31)),
             "trials": self.falsify_trials} for d in (0, 5)
        ]}
        return {"compute": compute, "verify": verify, "geometry": geometry, "falsify": falsify}

    def build(self):
        from mixdiv import cli

        self.work.mkdir(parents=True, exist_ok=True)
        run = {"compute": cli.run_compute, "verify": cli.run_verify,
               "geometry": cli.run_geometry, "falsify": cli.run_falsify}
        jobs = []
        for command, spec in self._specs().items():
            path = self.work / f"{command}.json"
            path.write_text(json.dumps(spec))
            report, code = run[command](spec)
            jobs.append({"command": command, "spec": str(path),
                         "out": str(self.work / f"{command}.out.json"),
                         "checks": self._checks(command, spec),
                         "expected": json.loads(json.dumps(report)), "code": code})
        return jobs

    @staticmethod
    def _checks(command, spec):
        """Inequality checks a job evaluates; a falsifier trial is one check."""
        if command == "verify":
            return len(spec["tasks"])
        if command == "falsify":
            return sum(t["trials"] for t in spec["tasks"])
        return sum(t["type"] == "isoperimetric" for t in spec.get("tasks", ()))

    def _args(self, job):
        return [job["command"], "--spec", job["spec"], "--out", job["out"]]

    def _run(self, job, prefix):
        out = Path(job["out"])
        out.unlink(missing_ok=True)
        proc = subprocess.run(prefix + self._args(job), env=self.env, cwd=self.work,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
        return {"code": proc.returncode, "text": out.read_text() if out.exists() else "",
                "stderr": proc.stderr.decode(errors="replace")[-500:]}

    def op(self, jobs, k):
        return self._run(jobs[k % len(jobs)], [sys.executable, "-m", "mixdiv.cli"])

    def checks(self, jobs, k):
        return jobs[k % len(jobs)]["checks"]

    def gate(self, jobs, outputs):
        failures = []
        for pos, (k, out) in enumerate(outputs):
            job = jobs[k % len(jobs)]
            if out["code"] != job["code"]:
                failures.append((pos, f"{job['command']}: exit {out['code']} != {job['code']}: "
                                      f"{out['stderr']}"))
                continue
            try:
                report = json.loads(out["text"])
            except json.JSONDecodeError as exc:
                failures.append((pos, f"{job['command']}: output is not JSON: {exc}"))
                continue
            if report != job["expected"]:
                failures.append((pos, f"{job['command']}: output differs from in-process run"))
        return failures

    def traced_loop(self, loop):
        """Traced ops are the same subprocesses, launched under the tracer."""
        dump = self.work / "trace.json"
        aggregates = []

        def traced_op(jobs, k):
            dump.unlink(missing_ok=True)
            out = self._run(jobs[k % len(jobs)], [sys.executable, str(TRACE_CLI), str(dump)])
            aggregates.append(json.loads(dump.read_text()))
            return out

        return loop(traced_op), tracing.merge(aggregates)

    def layer_extras(self, jobs):
        from mixdiv import cli

        spawn = _median_runtime([sys.executable, "-c", ""], self.env, 5)
        imported = _median_runtime([sys.executable, "-c", "import mixdiv.cli"], self.env, 5)
        per_cycle = []
        for _ in range(3):
            t0 = time.perf_counter()
            for job in jobs:
                cli.main(self._args(job))
            per_cycle.append((time.perf_counter() - t0) / len(jobs))
        geometry = next(json.loads(Path(job["spec"]).read_text())
                        for job in jobs if job["command"] == "geometry")
        bodies = [M.ellipse(b["a"], b["b"], b["phi"]) if b["family"] == "ellipse"
                  else M.trigball(b["eps"], b["k"]) for b in geometry["bodies"].values()]
        return super().layer_extras(jobs) | {
            "cli.spawn_s": spawn, "cli.import_s": imported - spawn,
            "cli.main_s": statistics.median(per_cycle),
            "geometry.quad_err_est": quad_err_est(bodies, geometry["grid"]["nodes"])}

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


WORKLOADS = {w.name: w for w in (FalsifySmall, AtomsDense, AtomsSparse, GeometryGrid, CliBatch)}
