"""How the slot kernel powers its integrands: the roots e = 1/2, 1/3, 1/4 by
np.sqrt, np.cbrt and np.sqrt twice, within 1.5 u (u = 2**-53) of mpmath at
40 digits; every other power of a slot with exact zeros bit for bit w ** e;
and every generator row evaluated in place with the bits of its plain form."""

import numpy as np
import pytest

from mixdiv import make_builtin, make_space
from mixdiv.divergences import _Slots
from mixdiv.errors import DegenerateExponent
from mixdiv.ffunctions import _KINDS, adjoint, weighted_terms

U = 2.0 ** -53
ATOMS = 65536


def _power(w, e):
    """w ** e as a one-slot kernel forms it."""
    return _Slots([w], make_space(np.ones(w.size))).power([(0, e)])


def _draws(rng):
    """Log-uniform over 1e-300..1e300, then exponential draws."""
    return {"wide": 10.0 ** rng.uniform(-300.0, 300.0, 2000),
            "exponential": rng.exponential(1.0, 2000)}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_roots_are_within_one_and_a_half_units_of_mpmath(rng, n):
    mpmath = pytest.importorskip("mpmath")
    for label, w in _draws(rng).items():
        got = _power(w, 1.0 / n)
        with mpmath.workdps(40):
            exact = [mpmath.root(mpmath.mpf(x), n) for x in w.tolist()]
            err = max(float(abs((mpmath.mpf(g) - x) / x)) for g, x in zip(got.tolist(), exact))
        assert err <= 1.5 * U, f"{label}: {err / U:.2f} u"


def _klplus_slot(rng):
    """A 65,536-atom klplus integrand: p ln(p/q) clipped at 0, exactly zero
    wherever p <= q, about half the atoms."""
    p, q = rng.exponential(1.0, (2, ATOMS)) + 1e-3
    w = weighted_terms(make_builtin("klplus"), p, q)[0]
    assert 0.4 < np.mean(w == 0.0) < 0.6
    return w


@pytest.mark.parametrize("e", [0.3, 0.7, 1.25])
def test_a_power_of_a_slot_with_zeros_has_the_bits_of_numpy_pow(rng, e):
    w = _klplus_slot(rng)
    assert np.array_equal(_power(w, e), w ** e)


def test_a_zero_factor_under_a_negative_exponent_is_still_degenerate(rng):
    w = _klplus_slot(rng)
    with pytest.raises(DegenerateExponent):
        _power(w, -0.5)
    positive = w + 1.0
    assert np.array_equal(_power(positive, -0.5), positive ** -0.5)


GENERATORS = [
    make_builtin("tv"),
    make_builtin("klplus"),
    make_builtin("logplus"),
    make_builtin("power", alpha=0.5),
    make_builtin("power", alpha=2.0),
    make_builtin("power", alpha=-1.0),
    make_builtin("power", alpha=0.37),
    make_builtin("linear", a=1.0, b=0.5),
    make_builtin("scaled", lam=2.0, inner=make_builtin("klplus")),
]


@pytest.mark.parametrize("f", GENERATORS + [adjoint(f) for f in GENERATORS])
def test_each_row_in_place_has_the_bits_of_its_plain_form(rng, f):
    t = np.concatenate([rng.exponential(1.0, 500), 10.0 ** rng.uniform(-8.0, 8.0, 500)])
    into = t.copy()
    got = _KINDS[f.kind].into(f, into)
    assert got is into
    assert np.array_equal(got, _KINDS[f.kind].eval(f, t))


@pytest.mark.parametrize("f", GENERATORS)
def test_weighted_terms_writes_into_its_destination(rng, f):
    p, q = rng.exponential(1.0, (2, 300)) + 1e-3
    out = np.empty((2, 300))
    values, hits = weighted_terms(f, p, q, out[1])
    assert values.base is out and hits == 0
    assert np.array_equal(out[1], q * f(p / q))
    # the per-atom convention path fills the destination too, at a zero atom
    # whose convention value is finite
    (p if np.isfinite(f.limit_at_zero) else q)[7] = 0.0
    values, hits = weighted_terms(f, p, q, out[0])
    assert values.base is out and hits == 1
    assert np.array_equal(out[0], weighted_terms(f, p, q)[0])
