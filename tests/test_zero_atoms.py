"""The zero-atom path of `weighted_terms`: with a zero P or Q atom every slot
is evaluated atom by atom under the 0*inf conventions of `weighted_term`.
Reached here through the public functionals, which must sum exactly those
per-atom terms and count one convention hit per zero atom."""

import numpy as np
import pytest

from mixdiv import (
    Density,
    DensityBundle,
    FVector,
    classical_f_divergence,
    ith_mixed,
    make_builtin,
    make_space,
    mixed_f_divergence,
    mixed_k_form,
)
from mixdiv.errors import DomainError, IndeterminateValue
from mixdiv.ffunctions import adjoint, weighted_term, weighted_terms

SPACE = make_space([0.5, 1.0, 1.5, 0.75, 1.25])
W = SPACE.weights


def _density(values):
    v = np.asarray(values, dtype=float)
    return Density(v / float(np.dot(v, W)))


# Generators with finite limits at 0 and finite slopes at infinity, so both
# zero P atoms and zero Q atoms have a convention value.
FINITE = [
    lambda: make_builtin("tv"),
    lambda: make_builtin("linear", a=0.7, b=1.3),
    lambda: make_builtin("power", alpha=0.5),
]
ZERO_P = [_density([0.0, 1.0, 2.0, 0.0, 1.5]), _density([1.0, 0.0, 0.5, 2.0, 1.0])]
ZERO_Q = [_density([1.0, 2.0, 0.0, 1.0, 3.0]), _density([2.0, 1.0, 1.0, 0.0, 0.0])]
POSITIVE = [_density([1.0, 2.0, 3.0, 1.0, 0.5]), _density([0.5, 1.5, 1.0, 2.0, 1.0])]


def _terms(f, p, q):
    """The per-atom weighted_term values, one scalar call per atom."""
    return np.array([weighted_term(f, pj, qj) for pj, qj in zip(p.values, q.values)])


def _zeros(*densities):
    return sum(int(np.count_nonzero(d.values == 0.0)) for d in densities)


@pytest.mark.parametrize("make_f", FINITE)
@pytest.mark.parametrize("p, q", [(ZERO_P[0], POSITIVE[0]), (POSITIVE[0], ZERO_Q[0]),
                                  (ZERO_P[1], ZERO_Q[1])])
def test_classical_sums_the_per_atom_terms(make_f, p, q):
    f = make_f()
    report = classical_f_divergence(f, p, q, SPACE)
    expected = _terms(f, p, q)
    assert np.array_equal(report.integrand, expected)
    assert report.value == float(np.dot(expected, W))
    assert report.convention_hits == _zeros(p, q)


@pytest.mark.parametrize("ps, qs", [(ZERO_P, POSITIVE), (POSITIVE, ZERO_Q), (ZERO_P, ZERO_Q)])
def test_mixed_and_k_form_take_each_zero_atom_once(ps, qs):
    fv = FVector([FINITE[0](), FINITE[1]()])
    P, Q = DensityBundle(SPACE, tuple(ps)), DensityBundle(SPACE, tuple(qs))
    hits = _zeros(*ps, *qs)
    mixed = mixed_f_divergence(fv, P, Q)
    terms = [_terms(fv[i], ps[i], qs[i]) for i in range(2)]
    assert mixed.integrand == pytest.approx(np.sqrt(terms[0] * terms[1]), rel=1e-14)
    assert mixed.convention_hits == hits
    for k in range(3):
        report = mixed_k_form(fv, P, Q, k)
        slots = [terms[i] if i < k else _terms(adjoint(fv[i]), qs[i], ps[i]) for i in range(2)]
        assert report.integrand == pytest.approx(np.sqrt(slots[0] * slots[1]), rel=1e-14)
        assert report.value == float(np.dot(report.integrand, W))
        assert report.convention_hits == hits


@pytest.mark.parametrize("i", [0.0, 0.5, 1.5, 2.0])
def test_ith_mixed_powers_the_per_atom_terms(i):
    f1, f2 = FINITE[2](), FINITE[1]()
    n = 2
    report = ith_mixed(f1, f2, ZERO_P[0], POSITIVE[0], POSITIVE[1], ZERO_Q[1], i, n, SPACE)
    t1 = _terms(f1, ZERO_P[0], POSITIVE[0])
    t2 = _terms(f2, POSITIVE[1], ZERO_Q[1])
    assert np.array_equal(report.integrand, t1 ** (i / n) * t2 ** ((n - i) / n))
    assert report.value == float(np.dot(report.integrand, W))
    assert report.convention_hits == _zeros(ZERO_P[0], ZERO_Q[1])


def _through_each_functional(f, p, q):
    """Call the four functionals with (f, p, q) in a slot they evaluate."""
    fv = FVector([f, make_builtin("tv")])
    P = DensityBundle(SPACE, (p, POSITIVE[0]))
    Q = DensityBundle(SPACE, (q, POSITIVE[1]))
    return [
        lambda: classical_f_divergence(f, p, q, SPACE),
        lambda: mixed_f_divergence(fv, P, Q),
        lambda: mixed_k_form(fv, P, Q, 1),
        lambda: ith_mixed(f, make_builtin("tv"), p, q, POSITIVE[0], POSITIVE[1], 1.0, 2, SPACE),
    ]


@pytest.mark.parametrize("call", range(4))
def test_klplus_with_zero_q_under_positive_p_is_indeterminate(call):
    # q = 0 < p needs p * f'(inf), and klplus grows like t log t
    f = make_builtin("klplus")
    with pytest.raises(IndeterminateValue):
        _through_each_functional(f, POSITIVE[0], ZERO_Q[0])[call]()


@pytest.mark.parametrize("call", range(4))
def test_negative_power_with_zero_p_under_positive_q_is_indeterminate(call):
    # p = 0 < q needs q * f(0+), and t^-1 blows up at 0
    f = make_builtin("power", alpha=-1.0)
    with pytest.raises(IndeterminateValue):
        _through_each_functional(f, ZERO_P[0], POSITIVE[0])[call]()


def test_negative_entry_is_a_domain_error():
    p, q = POSITIVE[0].values.copy(), POSITIVE[1].values.copy()
    p[2] = -0.25
    with pytest.raises(DomainError):
        weighted_terms(make_builtin("tv"), p, q)
    # Density rejects negative values when it is built, so the guard is
    # reached through the functionals by writing into a built density.
    bad = _density([1.0, 2.0, 3.0, 1.0, 0.5])
    bad.values[2] = -0.25
    for call in _through_each_functional(make_builtin("tv"), bad, POSITIVE[1]):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("side", [0, 1])
def test_negative_zero_atom_is_counted_as_a_zero_atom(side):
    f = make_builtin("tv")
    pq = [POSITIVE[0].values.copy(), POSITIVE[1].values.copy()]
    pq[side][[0, 3]] = 0.0
    terms, hits = weighted_terms(f, *pq)
    pq[side][[0, 3]] = -0.0
    neg_terms, neg_hits = weighted_terms(f, *pq)
    assert np.array_equal(neg_terms, terms)
    assert neg_hits == hits == 2
