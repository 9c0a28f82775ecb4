"""Seeded random search for counterexamples to the inequality checks.

Each call draws from one Philox stream keyed from SeedSequence(seed), in which
trial t owns the counter origin (t + 1) * 2**128: its scalar row is the first
doubles there, and its arrays follow. A trial's instance depends only on
(seed, t, config), so the report is the same for every evaluation order. A
trial only draws and checks: it returns its verdicts and its instance, and the
report turns the minimum-slack instance into its witness once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .divergences import _count
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


# Bounds on FalsifyConfig: a trial holds at most 2 * MAX_N densities of MAX_ATOMS atoms.
MAX_ATOMS = 2**16
MAX_N = 64
# Bound on the trials of one falsify call: under an hour at a few hundred µs per trial.
MAX_TRIALS = 10**7


def _integer(name, value) -> int:
    """An integral value (numpy integers too, bools not) as an int."""
    if not _count(value):
        raise InvalidParameter(f"falsify needs an integer {name}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class FalsifyConfig:
    max_atoms: int = 12
    max_n: int = 4

    def __post_init__(self):
        for name in ("max_atoms", "max_n"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not (2 <= self.max_atoms <= MAX_ATOMS and 1 <= self.max_n <= MAX_N):
            raise InvalidParameter(f"falsifier spaces need 2 <= max_atoms <= {MAX_ATOMS} and 1 <="
                                   f" max_n <= {MAX_N}, got {self.max_atoms} and {self.max_n}")


class _Draws:
    """One trial's draws, under the Generator method names the draw helpers
    call: scalars are read in order from the trial's row as Python numbers
    (a read past the row raises IndexError), arrays come from `arrays`,
    the Generator that drew the row, which they continue."""

    __slots__ = ("row", "k", "arrays")

    def __init__(self, arrays):
        self.arrays = arrays

    def random(self):
        u = self.row[self.k]
        self.k += 1
        return u

    def integers(self, low, high=None):
        if high is None:
            low, high = 0, low
        return low + int(self.random() * (high - low))

    def uniform(self, low, high, size=None):
        if size is None:
            return low + (high - low) * self.random()
        return self.arrays.uniform(low, high, size)

    def exponential(self, scale, size):
        return self.arrays.exponential(scale, size)


def _trial_draws(seed, trials, width):
    """One _Draws per trial, reused: trial t sets the counter to its origin
    (t + 1) * 2**128 and reads its row as the first width doubles there."""
    bits = np.random.Philox(np.random.SeedSequence(seed))
    generator = np.random.Generator(bits)
    state = bits.state
    counter = state["state"]["counter"]
    draws = _Draws(generator)
    for t in range(trials):
        counter[:] = (0, 0, t + 1, 0)
        bits.state = state
        draws.row, draws.k = generator.random(width).tolist(), 0
        yield draws


def _random_space(rng, cfg, probability=False):
    size = int(rng.integers(2, cfg.max_atoms + 1))
    w = rng.uniform(0.2, 2.0, size)
    if probability:
        w = w / w.sum()
    return make_space(w)


def _random_densities(rng, space, k) -> list:
    """k random probability densities on the space, drawn in one call and
    normalised by one matrix-vector product."""
    v = rng.exponential(1.0, (k, space.size)) + 1e-3
    v /= (v @ space.weights)[:, None]
    return [Density(row) for row in v]


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


def _random_bundles(rng, space, n):
    """Random bundles P and Q of n densities each, and their densities by name."""
    ds = _random_densities(rng, space, 2 * n)
    P, Q = make_bundle(space, ds[:n], validate=False), make_bundle(space, ds[n:], validate=False)
    return P, Q, {f"p{i}": P[i] for i in range(n)} | {f"q{i}": Q[i] for i in range(n)}


def _trial_af(rng, cfg):
    n = int(rng.integers(1, cfg.max_n + 1))
    m = int(rng.integers(1, n + 1))
    space = _random_space(rng, cfg)
    draw = _random_concave_f if rng.random() < 0.5 else _random_convex_f
    fv = FVector(draw(rng) for _ in range(n))
    P, Q, named = _random_bundles(rng, space, n)
    return [af_check(fv, P, Q, m)], (space, named, fv, {"n": n, "m": m})


def _trial_jensen(rng, cfg):
    space = _random_space(rng, cfg)
    f = _random_concave_f(rng) if rng.random() < 0.5 else _random_convex_f(rng)
    p, q = _random_densities(rng, space, 2)
    return [jensen_bound_check(f, p, q, space)], (space, {"p": p, "q": q}, [f], {})


def _trial_concave_chain(rng, cfg):
    n = int(rng.integers(1, cfg.max_n + 1))
    space = _random_space(rng, cfg)
    fv = FVector(_random_concave_f(rng) for _ in range(n))
    P, Q, named = _random_bundles(rng, space, n)
    return concave_chain_check(fv, P, Q), (space, named, fv, {"n": n})


def _positive_f(rng):
    if rng.random() < 0.5:
        return _random_concave_f(rng)
    return _random_convex_f(rng, positive=True)


def _trial_interpolation(rng, cfg):
    n = int(rng.integers(1, cfg.max_n + 1))
    space = _random_space(rng, cfg)
    f1, f2 = _positive_f(rng), _positive_f(rng)
    p1, q1, p2, q2 = _random_densities(rng, space, 4)
    j = float(rng.uniform(-2.0, n))
    k = float(rng.uniform(j + 0.1, n + 2.0))
    i = float(rng.uniform(j, k))
    v = interpolation_check(f1, f2, p1, q1, p2, q2, i, j, k, n, space)
    named = {"p1": p1, "q1": q1, "p2": p2, "q2": q2}
    return [v], (space, named, [f1, f2], {"n": n, "i": i, "j": j, "k": k})


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
    p1, q1, *second = _random_densities(rng, space, 2 if row.reference else 4)
    pair = dict(zip(("P2", "Q2"), second))
    f1 = _DRAW_F[row.f1](rng)
    i = row.range.draw(rng, n)
    f2 = _DRAW_F[row.f2](rng)
    v = corollary_bound_check(case, f1, f2, p1, q1, i, n, space, **pair)
    named = {"p1": p1, "q1": q1} | {key.lower(): d for key, d in pair.items()}
    return [v], (space, named, [f1, f2], {"n": n, "i": i, "case": case})


def _row_width(max_n):
    """The most scalars one trial of any id draws at max_n. A convex or concave
    generator draws at most 3 (a branch and two parameters), _positive_f one
    more. af_check draws n, m, the space size, a branch and n generators:
    4 + 3 n; interpolation draws n, the size, two positive generators, j, k
    and i: 13. The other ids draw fewer."""
    return max(4 + 3 * max_n, 13)


_TRIALS = {
    "af_check": _trial_af,
    "jensen_bound": _trial_jensen,
    "concave_chain": _trial_concave_chain,
    "interpolation": _trial_interpolation,
} | {case: functools.partial(_trial_corollary, case) for case in _COROLLARIES}

INEQUALITY_IDS = tuple(_TRIALS)


def _witness(space, named, generators, params) -> dict:
    """The report's JSON form of one trial's instance."""
    return {
        "weights": [float(x) for x in space.weights],
        "densities": {k: [float(x) for x in d.values] for k, d in named.items()},
        "generators": [f.describe() for f in generators],
        "params": params,
    }


def falsify(inequality_id: str, seed: int, trials: int, config: FalsifyConfig = None) -> dict:
    """Run seeded random trials of one inequality; report violations and the
    minimum-slack witness."""
    if not isinstance(inequality_id, str) or inequality_id not in _TRIALS:
        raise RangeMismatch(f"unknown inequality id {inequality_id!r}")
    seed, trials = _integer("seed", seed), _integer("trials", trials)
    if not (0 <= trials <= MAX_TRIALS and seed >= 0):
        raise InvalidParameter(f"falsify needs seed >= 0 and 0 <= trials <= {MAX_TRIALS},"
                               f" got {seed} and {trials}")
    cfg = FalsifyConfig() if config is None else config
    if not isinstance(cfg, FalsifyConfig):
        raise InvalidParameter(f"falsify needs a FalsifyConfig, got {config!r}")
    run = _TRIALS[inequality_id]
    violations = 0
    min_slack = None
    min_instance = None
    for draws in _trial_draws(seed, trials, _row_width(cfg.max_n)):
        verdicts, instance = run(draws, cfg)
        for v in verdicts:
            if not v.satisfied:
                violations += 1
            rel = v.slack / (1.0 + abs(v.rhs))
            if min_slack is None or rel < min_slack:
                min_slack = rel
                min_instance = instance
    return {
        "inequality": inequality_id,
        "seed": seed,
        "trials": trials,
        "violations": violations,
        "min_slack": min_slack,
        "witness": None if min_instance is None else _witness(*min_instance),
    }
