"""The falsifier's power: a seeded mutant of the slot kernel must be found by
the ids whose inequality it breaks, and by no id that cannot see it."""

import pytest

from mixdiv import falsify
from mixdiv.divergences import _Slots

TRIALS = 300


def _ith_swapped(self, i, n):
    """w_0^((n-i)/n) w_1^(i/n): the two exponents of `_Slots.ith` exchanged."""
    return self.power(((0, (n - i) / n), (1, i / n)))


def _product_exponent_over_n_plus_1(self, idx=None):
    """prod w_i^(1/(n+1)): the roots of `_Slots.product` one order too high."""
    idx = range(self.n) if idx is None else idx
    return self.power((i, 1.0 / (self.n + 1)) for i in idx)


def _product_last_dropped(self, idx=None):
    """`_Slots.product` without the factor of its last slot index."""
    idx = list(range(self.n) if idx is None else idx)
    return self.power((i, 1.0 / self.n) for i in idx[:-1])


# jensen, interpolation and the six corollaries never call `product`
_NO_PRODUCT = ("jensen_bound", "interpolation", "concave_band", "convex_concave_high",
               "concave_convex_low", "reference_concave", "reference_convex_high",
               "reference_concave_low")

# mutant -> (the patch of `_Slots`, the ids that must find it, the ids that cannot)
MUTANTS = {
    # log-convexity in i survives i -> n - i, so interpolation cannot see it
    "ith_exponents_swapped": (("ith", _ith_swapped),
                              ("concave_band", "convex_concave_high", "concave_convex_low"),
                              ("interpolation",)),
    # Hoelder's inequality holds for any common exponent, so af_check cannot see it
    "product_exponent_over_n_plus_1": (("product", _product_exponent_over_n_plus_1),
                                       ("concave_chain",), ("af_check",) + _NO_PRODUCT),
    "product_last_index_dropped": (("product", _product_last_dropped),
                                   ("af_check", "concave_chain"), _NO_PRODUCT),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_mutant_is_found_by_the_ids_it_breaks(monkeypatch, mutant):
    (name, patch), killers, blind = MUTANTS[mutant]
    monkeypatch.setattr(_Slots, name, patch)
    for inequality in killers:
        assert falsify(inequality, 0, TRIALS)["violations"] >= 1, inequality
    for inequality in blind:
        assert falsify(inequality, 0, TRIALS)["violations"] == 0, inequality
