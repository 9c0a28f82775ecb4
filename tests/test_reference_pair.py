"""The reference form is the i-th mixed divergence whose second pair is (mu, mu):
`ith_mixed_reference`, `ith_mixed` and `interpolation_check` given P2 = Q2 = None,
and the three reference corollaries all run on the one i-th kernel path."""

import numpy as np
import pytest

from mixdiv import (
    Density,
    corollary_bound_check,
    interpolation_check,
    ith_mixed,
    ith_mixed_reference,
    make_builtin,
    make_space,
)
from mixdiv.errors import InvalidParameter, NotProbabilitySpace
from mixdiv.falsify import _positive_f, _random_concave_f, _random_convex_f

from conftest import random_prob

# reference case -> (the tag f1 needs, whether i may lie there)
REFERENCE_CASES = {
    "reference_concave": ("concave", lambda i, n: 0 <= i <= n),
    "reference_convex_high": ("convex", lambda i, n: i >= n),
    "reference_concave_low": ("concave", lambda i, n: i <= 0),
}


def _instance(rng):
    """A random probability space of 1-12 atoms, a strictly positive pair
    (p, q) on it, f1 convex or concave and f2 with f2(1) > 0 (so that every
    exponent is allowed), n in 1..4 and i in [-2, n + 2]."""
    size = int(rng.integers(1, 13))
    w = rng.uniform(0.2, 2.0, size)
    space = make_space(w / w.sum())
    p, q = random_prob(rng, space), random_prob(rng, space)
    f1 = _random_concave_f(rng) if rng.random() < 0.5 else _random_convex_f(rng, positive=True)
    n = int(rng.integers(1, 5))
    return space, p, q, f1, _positive_f(rng), float(rng.uniform(-2.0, n + 2.0)), n


def test_the_reference_form_is_the_ith_form_at_the_unit_pair():
    rng = np.random.default_rng(30)
    checked = dict.fromkeys(REFERENCE_CASES, 0)
    for _ in range(400):
        space, p, q, f1, f2, i, n = _instance(rng)
        unit = Density(np.ones(space.size))
        value = ith_mixed(f1, f2, p, q, unit, unit, i, n, space).value
        reference = ith_mixed_reference(f1, p, q, i, f2, space, n).value
        assert abs(reference - value) <= 1e-15 * abs(value)
        assert ith_mixed(f1, f2, p, q, None, None, i, n, space).value == reference
        for case, (tag, holds) in REFERENCE_CASES.items():
            if getattr(f1, f"is_{tag}") and holds(i, n):
                lhs = corollary_bound_check(case, f1, f2, p, q, i, n, space).lhs
                assert abs(lhs - value ** n) <= 5e-15 * abs(value ** n)
                checked[case] += 1
    assert min(checked.values()) >= 20  # every case was drawn


def test_interpolation_check_reads_none_none_as_the_pair_mu_mu(rng):
    space = make_space([0.2, 0.3, 0.5])
    p, q = random_prob(rng, space), random_prob(rng, space)
    f1, f2 = make_builtin("power", alpha=0.5), make_builtin("linear", a=1.0, b=0.5)
    v = interpolation_check(f1, f2, p, q, None, None, 1.3, 0.0, 3.0, 3, space)
    assert v.lhs == ith_mixed_reference(f1, p, q, 1.3, f2, space, 3).value
    assert v.satisfied


ROOT = make_builtin("power", alpha=0.5)
P, Q = Density([0.5, 1.5]), Density([1.2, 0.8])
HEAVY = make_space([1.0, 1.0])  # mass 2: not a probability space


@pytest.mark.parametrize("call", [
    lambda: ith_mixed(ROOT, ROOT, P, Q, None, None, 1.0, 2, HEAVY),
    lambda: ith_mixed_reference(ROOT, P, Q, 1.0, ROOT, HEAVY, 2),
    lambda: interpolation_check(ROOT, ROOT, P, Q, None, None, 1.0, 0.0, 2.0, 2, HEAVY),
    lambda: corollary_bound_check("reference_concave", ROOT, ROOT, P, Q, 1.0, 2, HEAVY),
], ids=["ith_mixed", "ith_mixed_reference", "interpolation_check", "corollary_bound_check"])
def test_the_pair_mu_mu_needs_a_probability_space(call):
    with pytest.raises(NotProbabilitySpace):
        call()


@pytest.mark.parametrize("P2, Q2", [(None, Q), (P, None)], ids=["P2_none", "Q2_none"])
def test_a_half_given_second_pair_is_refused(P2, Q2):
    halves = make_space([0.5, 0.5])
    with pytest.raises(InvalidParameter):
        ith_mixed(ROOT, ROOT, P, Q, P2, Q2, 1.0, 2, halves)
    with pytest.raises(InvalidParameter):
        interpolation_check(ROOT, ROOT, P, Q, P2, Q2, 1.0, 0.0, 2.0, 2, halves)
