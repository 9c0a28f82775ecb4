"""Tensorization as an exact oracle at large atom counts.

For power generators f_i(t) = t^alpha_i the mixed integrand factorises over a
product space, whose weights and densities are outer products of the
factors'. So the mixed divergence of the product measures is the product of
the two factors' divergences, and mixed Renyi adds. Two small problems thus
check the engine at up to 256 x 256 = 65,536 atoms.
"""

import numpy as np
import pytest

from mixdiv import (
    FVector,
    make_builtin,
    make_bundle,
    make_space,
    mixed_f_divergence,
    named_divergence,
)

from conftest import random_prob

# (atoms of the first factor, atoms of the second, slots n)
CASES = [(2, 3, 1), (5, 7, 3), (31, 64, 2), (128, 96, 4), (256, 256, 3), (256, 256, 1)]


def _factor(rng, atoms, n):
    """(space, P, Q) with n strictly positive probability densities each."""
    space = make_space(rng.uniform(0.2, 2.0, atoms))
    P, Q = ([random_prob(rng, space) for _ in range(n)] for _ in "PQ")
    return space, P, Q


def _product(first, second):
    (s1, P1, Q1), (s2, P2, Q2) = first, second

    def outer(D1, D2):
        return [np.outer(d1.values, d2.values).ravel() for d1, d2 in zip(D1, D2)]

    return make_space(np.outer(s1.weights, s2.weights).ravel()), outer(P1, P2), outer(Q1, Q2)


def _three_problems(rng, m1, m2, n):
    """The (P, Q) bundles of the two factors and of their product."""
    first, second = _factor(rng, m1, n), _factor(rng, m2, n)
    return [(make_bundle(s, P), make_bundle(s, Q))
            for s, P, Q in (first, second, _product(first, second))]


@pytest.mark.parametrize("m1,m2,n", CASES)
def test_mixed_divergence_of_a_product_is_the_product(m1, m2, n):
    rng = np.random.default_rng([m1, m2, n])
    fv = FVector([make_builtin("power", alpha=float(a)) for a in rng.uniform(-1.0, 3.0, n)])
    d1, d2, d = (mixed_f_divergence(fv, P, Q).value
                 for P, Q in _three_problems(rng, m1, m2, n))
    assert d == pytest.approx(d1 * d2, rel=1e-12)


@pytest.mark.parametrize("m1,m2,n", CASES)
@pytest.mark.parametrize("alpha", [0.4, 2.5])
def test_mixed_renyi_of_a_product_adds(m1, m2, n, alpha):
    rng = np.random.default_rng([m1, m2, n])
    r1, r2, r = (named_divergence("mixed_renyi", P, Q, alpha=alpha)
                 for P, Q in _three_problems(rng, m1, m2, n))
    assert r == pytest.approx(r1 + r2, rel=1e-12)
