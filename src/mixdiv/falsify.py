"""Seeded random search for counterexamples to the inequality checks.

Every trial derives its own RNG from (seed, trial index), so the report is
identical for a fixed (seed, trials) regardless of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, RangeMismatch
from .ffunctions import FVector, make_builtin
from .inequalities import (
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


def _random_space(rng, cfg, probability=False):
    size = int(rng.integers(2, cfg.max_atoms + 1))
    w = rng.uniform(0.2, 2.0, size)
    if probability:
        w = w / w.sum()
    return make_space(w)


def _random_density(rng, space) -> Density:
    v = rng.exponential(1.0, space.size) + 1e-3
    return Density(v / float(np.dot(v, space.weights)))


def _random_convex_f(rng, positive=False):
    kinds = ["power_hi", "power_neg", "linear"] if positive else [
        "tv", "klplus", "power_hi", "power_neg", "linear"
    ]
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "tv":
        return make_builtin("tv")
    if kind == "klplus":
        return make_builtin("klplus")
    if kind == "power_hi":
        return make_builtin("power", alpha=float(rng.uniform(1.1, 3.0)))
    if kind == "power_neg":
        return make_builtin("power", alpha=float(rng.uniform(-2.0, -0.1)))
    return make_builtin(
        "linear", a=float(rng.uniform(0.1, 2.0)), b=float(rng.uniform(0.1, 2.0))
    )


def _random_concave_f(rng, strict=False):
    if strict or rng.random() < 0.7:
        return make_builtin("power", alpha=float(rng.uniform(0.05, 0.95)))
    return make_builtin(
        "linear", a=float(rng.uniform(0.1, 2.0)), b=float(rng.uniform(0.1, 2.0))
    )


def _instance_dict(space, named_densities, f_specs, params):
    return {
        "weights": [float(x) for x in space.weights],
        "densities": {k: [float(x) for x in d.values] for k, d in named_densities.items()},
        "generators": f_specs,
        "params": params,
    }


def _trial_af(rng, cfg):
    n = int(rng.integers(1, cfg.max_n + 1))
    m = int(rng.integers(1, n + 1))
    space = _random_space(rng, cfg)
    concave = rng.random() < 0.5
    fv = FVector(
        _random_concave_f(rng) if concave else _random_convex_f(rng) for _ in range(n)
    )
    P = make_bundle(space, [_random_density(rng, space) for _ in range(n)], validate=False)
    Q = make_bundle(space, [_random_density(rng, space) for _ in range(n)], validate=False)
    v = af_check(fv, P, Q, m)
    witness = _instance_dict(
        space,
        {f"p{i}": P[i] for i in range(n)} | {f"q{i}": Q[i] for i in range(n)},
        [f.describe() for f in fv],
        {"n": n, "m": m},
    )
    return [v], witness


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
    P = make_bundle(space, [_random_density(rng, space) for _ in range(n)], validate=False)
    Q = make_bundle(space, [_random_density(rng, space) for _ in range(n)], validate=False)
    left, right = concave_chain_check(fv, P, Q)
    witness = _instance_dict(
        space,
        {f"p{i}": P[i] for i in range(n)} | {f"q{i}": Q[i] for i in range(n)},
        [f.describe() for f in fv],
        {"n": n},
    )
    return [left, right], witness


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


def _trial_corollary(case):
    def trial(rng, cfg):
        n = int(rng.integers(1, cfg.max_n + 1))
        reference = case.startswith("reference")
        space = _random_space(rng, cfg, probability=reference)
        p1, q1 = _random_density(rng, space), _random_density(rng, space)
        if case in ("concave_band", "reference_concave"):
            f1 = _random_concave_f(rng)
            i = float(rng.uniform(0.0, n))
        elif case in ("convex_concave_high", "reference_convex_high"):
            f1 = _random_convex_f(rng, positive=True)
            i = float(n + rng.uniform(0.0, 3.0))
        else:
            f1 = _random_concave_f(rng)
            i = -float(rng.uniform(0.0, 3.0))
        if case == "concave_band":
            f2 = _random_concave_f(rng)
        elif case == "convex_concave_high":
            f2 = _random_concave_f(rng)
        elif case == "concave_convex_low":
            f2 = _random_convex_f(rng, positive=True)
        else:
            f2 = _positive_f(rng)
        kwargs = {}
        named = {"p1": p1, "q1": q1}
        if not reference:
            p2, q2 = _random_density(rng, space), _random_density(rng, space)
            kwargs = {"P2": p2, "Q2": q2}
            named |= {"p2": p2, "q2": q2}
        v = corollary_bound_check(case, f1, f2, p1, q1, i, n, space, **kwargs)
        witness = _instance_dict(
            space, named, [f1.describe(), f2.describe()], {"n": n, "i": i, "case": case}
        )
        return [v], witness

    return trial


_TRIALS = {
    "af_check": _trial_af,
    "jensen_bound": _trial_jensen,
    "concave_chain": _trial_concave_chain,
    "interpolation": _trial_interpolation,
    "concave_band": _trial_corollary("concave_band"),
    "convex_concave_high": _trial_corollary("convex_concave_high"),
    "concave_convex_low": _trial_corollary("concave_convex_low"),
    "reference_concave": _trial_corollary("reference_concave"),
    "reference_convex_high": _trial_corollary("reference_convex_high"),
    "reference_concave_low": _trial_corollary("reference_concave_low"),
}

INEQUALITY_IDS = tuple(_TRIALS)


def falsify(inequality_id: str, seed: int, trials: int, config: FalsifyConfig = None) -> dict:
    """Run seeded random trials of one inequality; report violations and the
    minimum-slack witness."""
    if inequality_id not in _TRIALS:
        raise RangeMismatch(f"unknown inequality id {inequality_id!r}")
    if trials < 0:
        raise InvalidParameter(f"trials must be >= 0, got {trials}")
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
