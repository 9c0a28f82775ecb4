"""The one integrand kernel (`_Slots.power`) behind the i-th forms, the
interpolation check and the factor decomposition: zero exponents, zero
factors under negative exponents, kept roots, one evaluation per slot, and the
reference corollary's diagnosis for linear generators."""

import numpy as np
import pytest

import mixdiv.divergences as divergences
from mixdiv import (
    Density,
    DensityBundle,
    FVector,
    corollary_bound_check,
    interpolation_check,
    ith_mixed,
    ith_mixed_reference,
    make_builtin,
    make_space,
    mixed_k_form,
)
from mixdiv.divergences import _Slots
from mixdiv.errors import DegenerateExponent, SpaceMismatch
from mixdiv.ffunctions import weighted_terms

from conftest import random_prob, slot_power

SPACE = make_space([0.5, 1.0, 1.5, 1.0])


def _slots(*terms):
    return _Slots([np.asarray(t, dtype=float) for t in terms], SPACE)


def test_zero_exponent_contributes_one():
    slots = _slots([0.0, 2.0, 3.0, 4.0], [1.5, 0.5, 2.0, 0.25])
    w1 = slots.w[1]
    assert np.array_equal(slots.power([(0, 0.0), (1, 0.75)]), w1 ** 0.75)
    # slot 0 has a zero atom, but a zero exponent never powers it
    assert np.array_equal(slots.power([(1, -0.5), (0, 0.0)]), w1 ** -0.5)
    assert np.array_equal(slots.power([(1, -0.5), (0, -0.0)]), w1 ** -0.5)
    assert np.array_equal(slots.power([(0, 0.0), (1, 0.0)]), np.ones(SPACE.size))
    assert np.array_equal(slots.power([]), np.ones(SPACE.size))


def test_products_keep_pair_order_and_repeats():
    slots = _slots([0.5, 2.0, 3.0, 4.0], [1.5, 0.5, 2.0, 0.25], [0.1, 0.2, 0.3, 0.4])
    w0, w1, w2 = slots.w
    assert np.array_equal(slots.power([(0, 0.3), (1, 0.7)]), w0 ** 0.3 * w1 ** 0.7)
    expected = slot_power(w2, 0.25) * slot_power(w0, 0.25)
    expected *= slot_power(w2, 0.25)
    expected *= w1 ** 1.5
    assert np.array_equal(slots.power([(2, 0.25), (0, 0.25), (2, 0.25), (1, 1.5)]), expected)


def test_zero_factor_under_a_negative_exponent_is_degenerate():
    slots = _slots([0.0, 2.0, 3.0, 4.0], [1.5, 0.5, 2.0, 0.25])
    with pytest.raises(DegenerateExponent):
        slots.power([(1, 0.5), (0, -0.5)])
    # a positive power of the same slot is fine
    assert np.array_equal(slots.power([(0, 0.5)]), slots.w[0] ** 0.5)


def test_roots_and_logs_are_kept_for_the_call():
    slots = _slots([0.5, 2.0, 3.0, 4.0], [1.5, 0.5, 2.0, 0.25])
    root = slots.power([(0, 0.5)])  # n = 2 slots: e = 1/2 is the root
    assert slots.power([(0, 0.5)]) is root
    # other powers serve one product and are not held
    assert slots.power([(0, 0.4)]) is not slots.power([(0, 0.4)])
    assert slots.product() is not slots.product()  # a fresh array each time


def test_a_tiny_factor_leaves_the_other_atoms_bits(rng):
    w = rng.uniform(0.1, 3.0, (3, SPACE.size))
    products = []
    for tiny in (2e-300, 5e-301):  # either side of 1e-300
        w[0, 0] = tiny
        products.append(_slots(*w).product())
    assert np.array_equal(products[0][1:], products[1][1:])


@pytest.mark.parametrize("i", [0.0, 1.0, 2.5, 4.0, -1.5, 5.0])
def test_ith_forms_match_the_two_powers(rng, i):
    space = make_space(rng.uniform(0.2, 2.0, 7))
    p1, q1, p2, q2 = (random_prob(rng, space) for _ in range(4))
    f1, f2 = make_builtin("power", alpha=0.4), make_builtin("linear", a=0.5, b=1.5)
    n = 4
    w1 = weighted_terms(f1, p1.values, q1.values)[0]
    w2 = weighted_terms(f2, p2.values, q2.values)[0]
    report = ith_mixed(f1, f2, p1, q1, p2, q2, i, n, space)
    assert np.array_equal(report.integrand,
                          slot_power(w1, i / n) * slot_power(w2, (n - i) / n))
    prob = make_space(space.weights / space.weights.sum())
    d1, d2 = (Density(d.values * space.weights.sum()) for d in (p1, q1))
    w = weighted_terms(f1, d1.values, d2.values)[0]
    ref = ith_mixed_reference(f1, d1, d2, i, f2, prob, n)
    assert np.array_equal(ref.integrand,
                          f2.value_at_one ** (1.0 - i / n) * slot_power(w, i / n))


def test_interpolation_check_evaluates_each_slot_once(rng, monkeypatch):
    calls = []

    def counting(f, p, q, out=None):
        calls.append(f)
        return weighted_terms(f, p, q, out)

    monkeypatch.setattr(divergences, "weighted_terms", counting)
    p1, q1, p2, q2 = (random_prob(rng, SPACE) for _ in range(4))
    f1, f2 = make_builtin("power", alpha=0.4), make_builtin("power", alpha=0.6)
    v = interpolation_check(f1, f2, p1, q1, p2, q2, 1.0, 0.5, 2.5, 3, SPACE)
    assert v.satisfied
    assert len(calls) == 2


def test_k_form_rejects_bundles_on_different_spaces():
    other = make_space([1.0, 1.0, 1.0])
    P = DensityBundle(SPACE, (Density(np.ones(4) / 4.0),) * 2)
    Q = DensityBundle(other, (Density(np.ones(3) / 3.0),) * 2)
    fv = FVector([make_builtin("tv")] * 2)
    for k in range(3):
        with pytest.raises(SpaceMismatch):
            mixed_k_form(fv, P, Q, k)


@pytest.mark.parametrize("d", [0.0, 0.25])
def test_reference_concave_linear_diagnosis(d):
    """With linear f1 = a t + b, equality holds when a p + b q is constant,
    which the reference diagnosis reports for linear generators."""
    space = make_space([0.25, 0.25, 0.5])
    shift = np.array([d, -d, 0.0])  # mean zero under the weights
    P1, Q1 = Density(np.ones(3) + shift), Density(np.ones(3) - shift)
    f1 = make_builtin("linear", a=1.0, b=1.0)
    f2 = make_builtin("power", alpha=0.5)
    v = corollary_bound_check("reference_concave", f1, f2, P1, Q1, 1.0, 2, space)
    assert v.equality
    assert v.diagnosis == {"effectively_proportional": True}
