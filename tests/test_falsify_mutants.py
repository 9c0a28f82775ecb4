"""The falsifier's power: a seeded mutant of the slot kernel must be found by
the ids whose inequality it breaks, and by no id that cannot see it."""

import pytest

from mixdiv import falsify
from mixdiv.divergences import _Slots

TRIALS = 300


def _ith_swapped(self, i, n):
    """w_0^((n-i)/n) w_1^(i/n): the two exponents of `_Slots.ith` exchanged."""
    return self.power(((0, (n - i) / n), (1, i / n)))


# mutant -> (the patch of `_Slots`, the ids that must find it, the ids that cannot)
MUTANTS = {
    # log-convexity in i survives i -> n - i, so interpolation cannot see it
    "ith_exponents_swapped": (("ith", _ith_swapped),
                              ("concave_band", "convex_concave_high", "concave_convex_low"),
                              ("interpolation",)),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_mutant_is_found_by_the_ids_it_breaks(monkeypatch, mutant):
    (name, patch), killers, blind = MUTANTS[mutant]
    monkeypatch.setattr(_Slots, name, patch)
    for inequality in killers:
        assert falsify(inequality, 0, TRIALS)["violations"] >= 1, inequality
    for inequality in blind:
        assert falsify(inequality, 0, TRIALS)["violations"] == 0, inequality
