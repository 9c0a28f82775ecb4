"""Seeded random search for counterexamples to the inequality checks.

Every trial derives its own RNG from (seed, trial index), so the report is
identical for a fixed (seed, trials) regardless of evaluation order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, RangeMismatch
from .ffunctions import FVector, make_builtin
from .inequalities import (
    _COROLLARIES,
    af_check,
    concave_chain_check,
    corollary_bound_check,
    interpolation_check,
    jensen_bound_check,
)
from .measures import Density, make_bundle, make_space


@dataclass(frozen=True)
class FalsifyConfig:
    max_atoms: int = 12
    max_n: int = 4

    def __post_init__(self):
        if self.max_atoms < 2 or self.max_n < 1:
            raise InvalidParameter("falsifier spaces need max_atoms >= 2 and max_n >= 1")


def _random_space(rng, cfg, probability=False):
    size = int(rng.integers(2, cfg.max_atoms + 1))
    w = rng.uniform(0.2, 2.0, size)
    if probability:
        w = w / w.sum()
    return make_space(w)


def _random_density(rng, space) -> Density:
    v = rng.exponential(1.0, space.size) + 1e-3
    return Density(v / float(np.dot(v, space.weights)))


def _random_linear(rng):
    return make_builtin(
        "linear", a=float(rng.uniform(0.1, 2.0)), b=float(rng.uniform(0.1, 2.0))
    )


# Draws of a convex generator; the last three have f(1) > 0.
_CONVEX_DRAWS = (
    lambda rng: make_builtin("tv"),
    lambda rng: make_builtin("klplus"),
    lambda rng: make_builtin("power", alpha=float(rng.uniform(1.1, 3.0))),
    lambda rng: make_builtin("power", alpha=float(rng.uniform(-2.0, -0.1))),
    _random_linear,
)


def _random_convex_f(rng, positive=False):
    draws = _CONVEX_DRAWS[2:] if positive else _CONVEX_DRAWS
    return draws[int(rng.integers(len(draws)))](rng)


def _random_concave_f(rng):
    if rng.random() < 0.7:
        return make_builtin("power", alpha=float(rng.uniform(0.05, 0.95)))
    return _random_linear(rng)


def _instance_dict(space, named_densities, f_specs, params):
    return {
        "weights": [float(x) for x in space.weights],
        "densities": {k: [float(x) for x in d.values] for k, d in named_densities.items()},
        "generators": f_specs,
        "params": params,
    }


def _random_bundles(rng, space, fv, params):
    """Random P and Q for the generator vector fv, and their witness."""
    n = len(fv)
    P = make_bundle(space, [_random_density(rng, space) for _ in range(n)], validate=False)
    Q = make_bundle(space, [_random_density(rng, space) for _ in range(n)], validate=False)
    witness = _instance_dict(
        space,
        {f"p{i}": P[i] for i in range(n)} | {f"q{i}": Q[i] for i in range(n)},
        [f.describe() for f in fv],
        params,
    )
    return P, Q, witness


def _trial_af(rng, cfg):
    n = int(rng.integers(1, cfg.max_n + 1))
    m = int(rng.integers(1, n + 1))
    space = _random_space(rng, cfg)
    concave = rng.random() < 0.5
    fv = FVector(
        _random_concave_f(rng) if concave else _random_convex_f(rng) for _ in range(n)
    )
    P, Q, witness = _random_bundles(rng, space, fv, {"n": n, "m": m})
    return [af_check(fv, P, Q, m)], witness


def _trial_jensen(rng, cfg):
    space = _random_space(rng, cfg)
    f = _random_concave_f(rng) if rng.random() < 0.5 else _random_convex_f(rng)
    p = _random_density(rng, space)
    q = _random_density(rng, space)
    v = jensen_bound_check(f, p, q, space)
    return [v], _instance_dict(space, {"p": p, "q": q}, [f.describe()], {})


def _trial_concave_chain(rng, cfg):
    n = int(rng.integers(1, cfg.max_n + 1))
    space = _random_space(rng, cfg)
    fv = FVector(_random_concave_f(rng) for _ in range(n))
    P, Q, witness = _random_bundles(rng, space, fv, {"n": n})
    return list(concave_chain_check(fv, P, Q)), witness


def _positive_f(rng):
    if rng.random() < 0.5:
        return _random_concave_f(rng)
    return _random_convex_f(rng, positive=True)


def _trial_interpolation(rng, cfg):
    n = int(rng.integers(1, cfg.max_n + 1))
    space = _random_space(rng, cfg)
    f1, f2 = _positive_f(rng), _positive_f(rng)
    p1, q1 = _random_density(rng, space), _random_density(rng, space)
    p2, q2 = _random_density(rng, space), _random_density(rng, space)
    j = float(rng.uniform(-2.0, n))
    k = float(rng.uniform(j + 0.1, n + 2.0))
    i = float(rng.uniform(j, k))
    v = interpolation_check(f1, f2, p1, q1, p2, q2, i, j, k, n, space)
    witness = _instance_dict(
        space,
        {"p1": p1, "q1": q1, "p2": p2, "q2": q2},
        [f1.describe(), f2.describe()],
        {"n": n, "i": i, "j": j, "k": k},
    )
    return [v], witness


# a corollary's tag rule -> the generator draw that meets it
_DRAW_F = {
    "concave": _random_concave_f,
    "convex": lambda rng: _random_convex_f(rng, positive=True),
    None: _positive_f,
}


def _trial_corollary(case, rng, cfg):
    row = _COROLLARIES[case]
    n = int(rng.integers(1, cfg.max_n + 1))
    space = _random_space(rng, cfg, probability=row.reference)
    p1, q1 = _random_density(rng, space), _random_density(rng, space)
    f1 = _DRAW_F[row.f1](rng)
    i = row.range.draw(rng, n)
    f2 = _DRAW_F[row.f2](rng)
    kwargs = {}
    named = {"p1": p1, "q1": q1}
    if not row.reference:
        p2, q2 = _random_density(rng, space), _random_density(rng, space)
        kwargs = {"P2": p2, "Q2": q2}
        named |= {"p2": p2, "q2": q2}
    v = corollary_bound_check(case, f1, f2, p1, q1, i, n, space, **kwargs)
    witness = _instance_dict(
        space, named, [f1.describe(), f2.describe()], {"n": n, "i": i, "case": case}
    )
    return [v], witness


_TRIALS = {
    "af_check": _trial_af,
    "jensen_bound": _trial_jensen,
    "concave_chain": _trial_concave_chain,
    "interpolation": _trial_interpolation,
} | {case: functools.partial(_trial_corollary, case) for case in _COROLLARIES}

INEQUALITY_IDS = tuple(_TRIALS)


def falsify(inequality_id: str, seed: int, trials: int, config: FalsifyConfig = None) -> dict:
    """Run seeded random trials of one inequality; report violations and the
    minimum-slack witness."""
    if inequality_id not in _TRIALS:
        raise RangeMismatch(f"unknown inequality id {inequality_id!r}")
    if trials < 0 or seed < 0:
        raise InvalidParameter(f"seed and trials must be >= 0, got {seed} and {trials}")
    cfg = config or FalsifyConfig()
    run = _TRIALS[inequality_id]
    violations = 0
    min_slack = None
    min_witness = None
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        verdicts, witness = run(rng, cfg)
        for v in verdicts:
            if not v.satisfied:
                violations += 1
            rel = v.slack / (1.0 + abs(v.rhs))
            if min_slack is None or rel < min_slack:
                min_slack = rel
                min_witness = witness
    return {
        "inequality": inequality_id,
        "seed": int(seed),
        "trials": int(trials),
        "violations": violations,
        "min_slack": min_slack,
        "witness": min_witness,
    }
