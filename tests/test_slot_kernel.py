"""The per-call slot kernel behind the mixed functionals and the AF, chain
and interpolation checks reproduces the stacked, recompute-everything forms
bit for bit (exact ==): every integrand is one ordered product of roots, on
inputs with zero factors and without them, on one-atom spaces, and with one
slot, where the mixed divergence is the classical one."""

import math

import numpy as np
import pytest

import mixdiv.divergences as divergences
from mixdiv import (
    DensityBundle,
    FVector,
    af_check,
    classical_f_divergence,
    concave_chain_check,
    factor_decomposition,
    interpolation_check,
    ith_mixed,
    make_builtin,
    make_bundle,
    make_space,
    mixed_f_divergence,
    mixed_k_form,
    named_divergence,
)
from mixdiv.errors import RangeMismatch
from mixdiv.ffunctions import adjoint, weighted_terms

from conftest import random_prob


def stacked_geometric_product(factors, n):
    """prod_i factors[i]^(1/n) per atom over a stacked array."""
    return np.prod(np.stack(factors) ** (1.0 / n), axis=0)


def stacked_mixed(fv, P, Q):
    n = len(fv)
    w = [weighted_terms(fv[i], P[i].values, Q[i].values)[0] for i in range(n)]
    return float(np.dot(stacked_geometric_product(w, n), P.space.weights))


def substituted(fv, P, Q, m, k):
    """The generators and bundles with the last m slots all set to slot k."""
    n = len(fv)
    return (
        FVector(list(fv[: n - m]) + [fv[k]] * m),
        DensityBundle(P.space, tuple(P.densities[: n - m]) + (P[k],) * m),
        DensityBundle(Q.space, tuple(Q.densities[: n - m]) + (Q[k],) * m),
    )


# Zero factors: tv vanishes where p = q, klplus where p <= q.
ZERO_FACTOR_FVS = [
    lambda: [make_builtin("tv")] * 3,
    lambda: [make_builtin("klplus"), make_builtin("tv"), make_builtin("power", alpha=2.0)],
    lambda: [make_builtin("klplus")] * 4,
]
# Strictly positive factors: powers and linear generators.
LOG_PATH_FVS = [
    lambda: [make_builtin("power", alpha=0.3), make_builtin("power", alpha=0.7),
             make_builtin("linear", a=0.5, b=1.5)],
    lambda: [make_builtin("power", alpha=2.5), make_builtin("power", alpha=-1.0),
             make_builtin("linear", a=1.0, b=0.2), make_builtin("power", alpha=1.5)],
]
# n >= 8 slots on one atom: the factors still multiply in slot order, as np.prod does
ONE_ATOM_FVS = [
    lambda: [make_builtin("linear", a=0.5 * k, b=1.0) for k in range(10)],
]


def _instance(rng, fv, atoms=9, equal_atoms=False):
    space = make_space(rng.uniform(0.2, 2.0, atoms))
    n = len(fv)
    P = make_bundle(space, [random_prob(rng, space) for _ in range(n)], validate=False)
    Q = make_bundle(space, [random_prob(rng, space) for _ in range(n)], validate=False)
    if equal_atoms:  # p = q on the first atom of every pair: tv is 0 there
        Q = make_bundle(space, [
            np.concatenate(([P[i].values[0]], Q[i].values[1:])) for i in range(n)
        ], validate=False)
    return FVector(fv), P, Q


def _all_cases(rng):
    for make in ZERO_FACTOR_FVS:
        yield _instance(rng, make(), equal_atoms=True)
    for make in LOG_PATH_FVS:
        yield _instance(rng, make())
    for make in ONE_ATOM_FVS:
        yield _instance(rng, make(), atoms=1)


def _has_zero_factor(fv, P, Q):
    return any(np.any(weighted_terms(fv[i], P[i].values, Q[i].values)[0] == 0.0)
               for i in range(len(fv)))


def test_cases_cover_both_paths(rng):
    seen = {_has_zero_factor(*inst) for inst in _all_cases(rng)}
    assert seen == {True, False}


def test_mixed_and_k_form_match_stacked_product(rng):
    for fv, P, Q in _all_cases(rng):
        n = len(fv)
        assert mixed_f_divergence(fv, P, Q).value == stacked_mixed(fv, P, Q)
        for k in range(n + 1):
            w = [weighted_terms(fv[i], P[i].values, Q[i].values)[0] if i < k
                 else weighted_terms(adjoint(fv[i]), Q[i].values, P[i].values)[0]
                 for i in range(n)]
            ref = stacked_geometric_product(w, n)
            assert np.array_equal(mixed_k_form(fv, P, Q, k).integrand, ref)


def test_kl_qp_matches_stacked_product(rng):
    for fv, P, Q in _all_cases(rng):
        n = len(P)
        factors = [np.maximum(P[i].values * np.log(Q[i].values / P[i].values), 0.0)
                   for i in range(n)]
        ref = float(np.dot(stacked_geometric_product(factors, n), P.space.weights))
        assert named_divergence("mixed_kl", P, Q, kl_orientation="qp").value == ref


def test_af_check_sides_match_substituted_bundles(rng):
    for fv, P, Q in _all_cases(rng):
        n = len(fv)
        for m in range(1, n + 1):
            v = af_check(fv, P, Q, m)
            assert v.lhs == mixed_f_divergence(fv, P, Q).value ** m
            assert v.lhs == stacked_mixed(fv, P, Q) ** m
            rhs = 1.0
            for k in range(n - m, n):
                rhs *= mixed_f_divergence(*substituted(fv, P, Q, m, k)).value
            assert v.rhs == rhs


@pytest.mark.parametrize("f", [make_builtin("power", alpha=a) for a in (0.2, 0.5, 0.9)]
                         + [make_builtin("linear", a=0.3, b=1.2)])
def test_one_slot_mixed_is_the_classical_divergence(rng, f):
    for _ in range(20):
        fv, P, Q = _instance(rng, [f])
        classical = classical_f_divergence(f, P[0], Q[0], P.space).value
        assert mixed_f_divergence(fv, P, Q).value == classical
        assert concave_chain_check(fv, P, Q)[0].slack == 0.0


def test_af_check_equality_diagnosis_on_identical_slots(rng):
    space = make_space(rng.uniform(0.2, 2.0, 6))
    p, q = random_prob(rng, space), random_prob(rng, space)
    f = make_builtin("power", alpha=2.0)
    fv = FVector([f] * 3)
    P, Q = DensityBundle(space, (p,) * 3), DensityBundle(space, (q,) * 3)
    v = af_check(fv, P, Q, 2)
    assert v.equality and v.diagnosis == {"effectively_proportional": True}


def test_concave_chain_sides_match_functionals(rng):
    for fv_list in (
        [make_builtin("power", alpha=0.4), make_builtin("linear", a=0.0, b=1.0),
         make_builtin("power", alpha=0.8)],
        [make_builtin("power", alpha=0.5)] * 4,
    ):
        fv, P, Q = _instance(rng, fv_list)
        n = len(fv)
        left, right = concave_chain_check(fv, P, Q)
        prod_classical = 1.0
        for i in range(n):
            prod_classical *= classical_f_divergence(fv[i], P[i], Q[i], P.space).value
        assert left.lhs == mixed_f_divergence(fv, P, Q).value ** n
        assert left.rhs == prod_classical
        assert right.lhs == prod_classical
        assert right.rhs == math.prod(f.value_at_one for f in fv)


@pytest.mark.parametrize("f2", [make_builtin("tv"), make_builtin("linear", a=0.7, b=0.4)])
def test_interpolation_sides_match_ith_mixed(rng, f2):
    space = make_space(rng.uniform(0.2, 2.0, 8))
    p1, q1, p2, q2 = (random_prob(rng, space) for _ in range(4))
    q2 = type(q2)(np.concatenate(([p2.values[0]], q2.values[1:])))  # tv factor 0 at atom 0
    f1 = make_builtin("power", alpha=0.6)
    n = 3
    for i, j, k in ((1.0, 0.25, 2.5), (0.5, 0.0, 3.0), (2.0, 1.5, 2.75)):
        v = interpolation_check(f1, f2, p1, q1, p2, q2, i, j, k, n, space)

        def d(x):
            return ith_mixed(f1, f2, p1, q1, p2, q2, x, n, space).value

        assert v.lhs == d(i)
        assert v.rhs == d(j) ** ((k - i) / (k - j)) * d(k) ** ((i - j) / (k - j))


def test_factor_decomposition_matches_stacked_roots(rng):
    for fv, P, Q in _all_cases(rng):
        n = len(fv)
        roots = [weighted_terms(fv[i], P[i].values, Q[i].values)[0] ** (1.0 / n)
                 for i in range(n)]
        for m in range(1, n + 1):
            g0 = np.prod(np.stack(roots[: n - m]), axis=0) if m < n else np.ones(P.space.size)
            ref = g0.copy()
            for g in roots[n - m:]:
                ref = ref * g
            assert np.array_equal(factor_decomposition(fv, P, Q, m).integrand(), ref)


@pytest.mark.parametrize("m", [-1, 4])
def test_factor_decomposition_rejects_m_outside_0_to_n(rng, m):
    fv, P, Q = _instance(rng, LOG_PATH_FVS[0]())
    with pytest.raises(RangeMismatch):
        factor_decomposition(fv, P, Q, m)


def test_af_check_evaluates_each_slot_once(rng, monkeypatch):
    calls = []

    def counting(f, p, q):
        calls.append(f)
        return weighted_terms(f, p, q)

    monkeypatch.setattr(divergences, "weighted_terms", counting)
    fv, P, Q = _instance(rng, [make_builtin("power", alpha=a) for a in (1.5, 2.0, 2.5, 3.0)])
    af_check(fv, P, Q, 4)
    assert len(calls) == 4
