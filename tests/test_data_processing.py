"""Data processing, a claim that holds for n = 1 and fails beyond it: merging
two atoms of the space (and of every density) never raises the classical D_f
of a convex f, but it can raise the mixed D of n >= 2 pairs, so mixed
f-divergences do not obey data processing."""

import numpy as np
import pytest

from mixdiv import FVector, make_builtin, make_bundle, make_space, mixed_f_divergence

from conftest import random_prob

INSTANCES = 500

# convex generators: tv, klplus and power with alpha in [1.1, 3]
CONVEX_DRAWS = (
    lambda rng: make_builtin("tv"),
    lambda rng: make_builtin("klplus"),
    lambda rng: make_builtin("power", alpha=float(rng.uniform(1.1, 3.0))),
)


def _merged(values, j):
    """The values with entries j and j + 1 summed into one."""
    return np.concatenate([values[:j], [values[j] + values[j + 1]], values[j + 2:]])


def _before_and_after(rng, n):
    """D(f; P, Q) of a random instance with n pairs, before and after merging
    two adjacent atoms: the merged atom carries their summed weight and the
    mass each density puts on them (n = 1 is the classical D_f)."""
    weights = rng.uniform(0.2, 2.0, int(rng.integers(3, 13)))
    space = make_space(weights)
    fv = FVector(CONVEX_DRAWS[int(rng.integers(len(CONVEX_DRAWS)))](rng) for _ in range(n))
    P, Q = ([random_prob(rng, space) for _ in range(n)] for _ in "PQ")
    j = int(rng.integers(space.size - 1))
    coarse = make_space(_merged(weights, j))
    before = mixed_f_divergence(fv, make_bundle(space, P), make_bundle(space, Q)).value
    P, Q = ([_merged(d.values * weights, j) / coarse.weights for d in bundle] for bundle in (P, Q))
    after = mixed_f_divergence(fv, make_bundle(coarse, P), make_bundle(coarse, Q)).value
    return before, after


def _rises(before, after) -> bool:
    return after > before + 1e-12 * abs(before)


def test_merging_atoms_never_raises_the_classical_f_divergence():
    rng = np.random.default_rng(14)
    assert not any(_rises(*_before_and_after(rng, 1)) for _ in range(INSTANCES))


@pytest.mark.parametrize("n", [2, 3])
def test_merging_atoms_can_raise_the_mixed_f_divergence(n):
    rng = np.random.default_rng(14 + n)
    assert any(_rises(*_before_and_after(rng, n)) for _ in range(INSTANCES))
