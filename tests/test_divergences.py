import math

import numpy as np
import pytest

from mixdiv import (
    Density,
    DensityBundle,
    FVector,
    classical_f_divergence,
    ith_mixed,
    ith_mixed_reference,
    make_builtin,
    make_bundle,
    make_space,
    mixed_f_divergence,
    mixed_k_form,
    named_divergence,
)
from mixdiv.errors import (
    DegenerateExponent,
    IndexOutOfRange,
    NotProbabilitySpace,
    RenyiUndefined,
)

from mixdiv.falsify import FalsifyConfig, _random_bundles, _random_space

from conftest import random_prob
from oracles import ith_oracle, k_form_oracle, mixed_oracle

POSITIVE_FS = [
    make_builtin("power", alpha=0.5),
    make_builtin("power", alpha=2.0),
    make_builtin("linear", a=1.0, b=0.5),
]
ALL_FS = POSITIVE_FS + [make_builtin("tv"), make_builtin("klplus")]


def _random_instance(rng, n, atoms, fs=ALL_FS):
    space = make_space(rng.uniform(0.2, 2.0, atoms))
    fv = FVector(fs[int(rng.integers(len(fs)))] for _ in range(n))
    P = make_bundle(space, [random_prob(rng, space) for _ in range(n)], validate=False)
    Q = make_bundle(space, [random_prob(rng, space) for _ in range(n)], validate=False)
    return space, fv, P, Q


def test_classical_identical_densities(counting2):
    p = Density([0.5, 0.5])
    for f in ALL_FS:
        rep = classical_f_divergence(f, p, p, counting2)
        assert rep.value == pytest.approx(f.value_at_one, abs=1e-15)


def test_classical_tv_hand_value(counting2):
    # |0.5-0.25| + |0.5-0.75| = 0.5
    rep = classical_f_divergence(
        make_builtin("tv"), Density([0.5, 0.5]), Density([0.25, 0.75]), counting2
    )
    assert rep.value == pytest.approx(0.5, rel=1e-15)


def test_classical_adjoint_swap(rng):
    from mixdiv import adjoint

    for _ in range(100):
        space, fv, P, Q = _random_instance(rng, 1, int(rng.integers(2, 12)))
        f = fv[0]
        d1 = classical_f_divergence(f, P[0], Q[0], space).value
        d2 = classical_f_divergence(adjoint(f), Q[0], P[0], space).value
        assert abs(d1 - d2) <= 1e-12 * (1 + abs(d1))


def test_mixed_identical_distributions(counting2):
    p = Density([0.5, 0.5])
    fv = FVector([make_builtin("power", alpha=0.5), make_builtin("linear", a=1, b=1)])
    P = DensityBundle(counting2, (p, p))
    rep = mixed_f_divergence(fv, P, P)
    assert rep.value == pytest.approx(math.sqrt(1.0 * 2.0), rel=1e-14)


def test_mixed_collapses_to_classical(rng):
    space = make_space(rng.uniform(0.2, 2.0, 6))
    p, q = random_prob(rng, space), random_prob(rng, space)
    f = make_builtin("power", alpha=2.0)
    n = 3
    fv = FVector([f] * n)
    P = DensityBundle(space, (p,) * n)
    Q = DensityBundle(space, (q,) * n)
    d_mixed = mixed_f_divergence(fv, P, Q).value
    d_classical = classical_f_divergence(f, p, q, space).value
    assert d_mixed == pytest.approx(d_classical, rel=1e-13)


def test_mixed_against_oracle_fixed_instance(counting2):
    fv = FVector([make_builtin("power", alpha=2.0)] * 2)
    ps = [[0.5, 0.5], [0.25, 0.75]]
    qs = [[0.25, 0.75], [0.5, 0.5]]
    P = make_bundle(counting2, ps)
    Q = make_bundle(counting2, qs)
    expected = mixed_oracle([1.0, 1.0], [{"kind": "power", "alpha": 2.0}] * 2, ps, qs)
    assert mixed_f_divergence(fv, P, Q).value == pytest.approx(expected, rel=1e-14)


def test_report_integrand_consistency(rng):
    space, fv, P, Q = _random_instance(rng, 3, 5)
    rep = mixed_f_divergence(fv, P, Q)
    assert np.all(rep.integrand >= 0)
    assert rep.value == float(np.dot(rep.integrand, space.weights))


def test_k_form_endpoints(rng):
    space, fv, P, Q = _random_instance(rng, 3, 7)
    d = mixed_f_divergence(fv, P, Q).value
    assert mixed_k_form(fv, P, Q, 3).value == pytest.approx(d, rel=1e-14)
    d0 = mixed_f_divergence(fv.adjoint(), Q, P).value
    assert mixed_k_form(fv, P, Q, 0).value == pytest.approx(d0, rel=1e-13)


def test_k_form_change_of_order(rng):
    for _ in range(100):
        n = int(rng.integers(1, 5))
        space, fv, P, Q = _random_instance(rng, n, int(rng.integers(2, 12)))
        d = mixed_f_divergence(fv, P, Q).value
        for k in range(n + 1):
            dk = mixed_k_form(fv, P, Q, k).value
            assert abs(dk - d) <= 1e-12 * abs(d)


def test_k_form_range(rng):
    space, fv, P, Q = _random_instance(rng, 2, 4)
    with pytest.raises(IndexOutOfRange):
        mixed_k_form(fv, P, Q, 3)


def test_permutation_invariance(rng):
    for _ in range(50):
        n = int(rng.integers(2, 5))
        space, fv, P, Q = _random_instance(rng, n, 6)
        d = mixed_f_divergence(fv, P, Q).value
        perm = rng.permutation(n)
        fv2 = FVector(fv[i] for i in perm)
        P2 = DensityBundle(space, tuple(P[i] for i in perm))
        Q2 = DensityBundle(space, tuple(Q[i] for i in perm))
        assert mixed_f_divergence(fv2, P2, Q2).value == pytest.approx(d, rel=1e-12)


def test_symmetry_in_distributions(rng):
    for _ in range(50):
        n = int(rng.integers(1, 5))
        space, fv, P, Q = _random_instance(rng, n, 6)
        fva = fv.adjoint()
        lhs = mixed_f_divergence(fv, P, Q).value + mixed_f_divergence(fva, P, Q).value
        rhs = mixed_f_divergence(fv, Q, P).value + mixed_f_divergence(fva, Q, P).value
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_triple_replacement(rng):
    from mixdiv import adjoint

    for _ in range(30):
        n = int(rng.integers(2, 5))
        space, fv, P, Q = _random_instance(rng, n, 6)
        d = mixed_f_divergence(fv, P, Q).value
        i = int(rng.integers(n))
        fv2 = FVector(adjoint(f) if j == i else f for j, f in enumerate(fv))
        P2 = DensityBundle(space, tuple(Q[j] if j == i else P[j] for j in range(n)))
        Q2 = DensityBundle(space, tuple(P[j] if j == i else Q[j] for j in range(n)))
        assert mixed_f_divergence(fv2, P2, Q2).value == pytest.approx(d, rel=1e-12)


def test_ith_endpoints(rng):
    space = make_space(rng.uniform(0.2, 2.0, 6))
    p1, q1 = random_prob(rng, space), random_prob(rng, space)
    p2, q2 = random_prob(rng, space), random_prob(rng, space)
    f1, f2 = make_builtin("power", alpha=2.0), make_builtin("power", alpha=0.5)
    n = 3
    d0 = ith_mixed(f1, f2, p1, q1, p2, q2, 0.0, n, space).value
    assert d0 == pytest.approx(classical_f_divergence(f2, p2, q2, space).value, rel=1e-13)
    dn = ith_mixed(f1, f2, p1, q1, p2, q2, float(n), n, space).value
    assert dn == pytest.approx(classical_f_divergence(f1, p1, q1, space).value, rel=1e-13)


def test_ith_reflection(rng):
    space = make_space(rng.uniform(0.2, 2.0, 5))
    p1, q1 = random_prob(rng, space), random_prob(rng, space)
    p2, q2 = random_prob(rng, space), random_prob(rng, space)
    f1, f2 = make_builtin("power", alpha=2.0), make_builtin("linear", a=0.5, b=0.5)
    n = 2
    for i in [-1.0, 0.0, 0.7, 1.5, 2.0, 3.5]:
        a = ith_mixed(f1, f2, p1, q1, p2, q2, i, n, space).value
        b = ith_mixed(f2, f1, p2, q2, p1, q1, n - i, n, space).value
        assert a == pytest.approx(b, rel=1e-12)


def test_ith_degenerate_exponent(counting2):
    p = Density([0.5, 0.5])
    # tv weighted term vanishes when p = q, so a negative exponent must raise
    with pytest.raises(DegenerateExponent):
        ith_mixed(
            make_builtin("tv"), make_builtin("power", alpha=0.5),
            p, p, p, p, -1.0, 2, counting2,
        )


def test_ith_reference_cases(rng):
    space = make_space([0.25, 0.25, 0.5])
    p1, q1 = random_prob(rng, space), random_prob(rng, space)
    f1 = make_builtin("power", alpha=0.5)
    f2 = make_builtin("linear", a=1.0, b=1.0)
    n = 2
    assert ith_mixed_reference(f1, p1, q1, 0.0, f2, space, n).value == pytest.approx(
        f2.value_at_one, rel=1e-14
    )
    dn = ith_mixed_reference(f1, p1, q1, float(n), f2, space, n).value
    d_classical = classical_f_divergence(f1, p1, q1, space).value
    assert dn == pytest.approx(d_classical, rel=1e-13)


def test_ith_reference_matches_ith_with_unit_pair(rng):
    space = make_space([0.2, 0.3, 0.5])
    p1, q1 = random_prob(rng, space), random_prob(rng, space)
    unit = Density(np.ones(3))
    f1, f2 = make_builtin("power", alpha=0.5), make_builtin("power", alpha=2.0)
    n = 3
    for i in [0.0, 1.0, 1.7, 3.0]:
        a = ith_mixed_reference(f1, p1, q1, i, f2, space, n).value
        b = ith_mixed(f1, f2, p1, q1, unit, unit, i, n, space).value
        assert a == pytest.approx(b, rel=1e-12)


def test_ith_reference_requires_probability_space(rng):
    space = make_space([1.0, 1.0])
    p = Density([0.5, 0.5])
    with pytest.raises(NotProbabilitySpace):
        ith_mixed_reference(
            make_builtin("power", alpha=0.5), p, p, 1.0,
            make_builtin("tv"), space, 2,
        )


def test_oracle_equivalence_small_instances(rng):
    for _ in range(50):
        n = int(rng.integers(1, 4))
        atoms = int(rng.integers(2, 5))
        space, fv, P, Q = _random_instance(rng, n, atoms)
        w = [float(x) for x in space.weights]
        fs = [f.describe() for f in fv]
        ps = [[float(x) for x in d.values] for d in P]
        qs = [[float(x) for x in d.values] for d in Q]
        got = mixed_f_divergence(fv, P, Q).value
        assert got == pytest.approx(mixed_oracle(w, fs, ps, qs), rel=1e-13)
        for k in range(n + 1):
            assert mixed_k_form(fv, P, Q, k).value == pytest.approx(
                k_form_oracle(w, fs, ps, qs, k), rel=1e-13
            )


def test_ith_against_oracle(rng):
    space = make_space(rng.uniform(0.2, 2.0, 4))
    p1, q1 = random_prob(rng, space), random_prob(rng, space)
    p2, q2 = random_prob(rng, space), random_prob(rng, space)
    f1 = {"kind": "power", "alpha": 2.0}
    f2 = {"kind": "power", "alpha": 0.5}
    w = [float(x) for x in space.weights]
    for i in [-0.5, 0.0, 1.3, 2.0, 2.7]:
        got = ith_mixed(
            make_builtin("power", alpha=2.0), make_builtin("power", alpha=0.5),
            p1, q1, p2, q2, i, 2, space,
        ).value
        expected = ith_oracle(
            w, f1, f2,
            list(p1.values), list(q1.values), list(p2.values), list(q2.values), i, 2,
        )
        assert got == pytest.approx(expected, rel=1e-13)


def test_named_bhattacharyya_identical(counting2):
    p = Density([0.5, 0.5])
    P = DensityBundle(counting2, (p, p))
    rep = named_divergence("bhattacharyya", P, P)
    assert rep.value == pytest.approx(1.0, rel=1e-14)


def test_named_renyi_identical(counting2):
    p = Density([0.5, 0.5])
    P = DensityBundle(counting2, (p, p))
    assert named_divergence("mixed_renyi", P, P, alpha=0.5) == pytest.approx(0.0, abs=1e-14)


def test_named_tv_n1(counting2):
    P = make_bundle(counting2, [[0.5, 0.5]])
    Q = make_bundle(counting2, [[0.25, 0.75]])
    assert named_divergence("mixed_tv", P, Q).value == pytest.approx(0.5, rel=1e-14)


def test_named_hellinger_product_form(rng):
    space = make_space(rng.uniform(0.2, 2.0, 5))
    ps = [random_prob(rng, space) for _ in range(2)]
    qs = [random_prob(rng, space) for _ in range(2)]
    P, Q = DensityBundle(space, tuple(ps)), DensityBundle(space, tuple(qs))
    alphas = [0.3, 0.6]
    rep = named_divergence("mixed_hellinger", P, Q, alphas=alphas)
    n = 2
    expected = float(np.dot(
        np.prod(
            [ps[i].values ** (alphas[i] / n) * qs[i].values ** ((1 - alphas[i]) / n)
             for i in range(n)],
            axis=0,
        ),
        space.weights,
    ))
    assert rep.value == pytest.approx(expected, rel=1e-13)


def test_renyi_consistency(rng):
    space = make_space(rng.uniform(0.2, 2.0, 6))
    P = DensityBundle(space, tuple(random_prob(rng, space) for _ in range(3)))
    Q = DensityBundle(space, tuple(random_prob(rng, space) for _ in range(3)))
    alpha = 0.7
    renyi = named_divergence("mixed_renyi", P, Q, alpha=alpha)
    hell = named_divergence("mixed_hellinger", P, Q, alphas=[alpha] * 3)
    assert math.exp((alpha - 1) * renyi) == pytest.approx(hell.value, rel=1e-12)


def test_renyi_alpha_one(counting2):
    P = make_bundle(counting2, [[0.5, 0.5]])
    with pytest.raises(RenyiUndefined):
        named_divergence("mixed_renyi", P, P, alpha=1.0)


def test_kl_orientation_flag(counting2):
    P = make_bundle(counting2, [[0.5, 0.5]])
    Q = make_bundle(counting2, [[0.25, 0.75]])
    pq = named_divergence("mixed_kl", P, Q).value
    qp = named_divergence("mixed_kl", P, Q, kl_orientation="qp").value
    # generator form keeps atoms where p > q; flipped form keeps p < q
    p, q = np.array([0.5, 0.5]), np.array([0.25, 0.75])
    assert pq == pytest.approx(float(np.maximum(p * np.log(p / q), 0).sum()), rel=1e-14)
    assert qp == pytest.approx(float(np.maximum(p * np.log(q / p), 0).sum()), rel=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kl_qp_zero_p_atom_contributes_zero():
    # [p ln(q/p)]_+ per atom; the first slot's zero P atom contributes its limit 0
    s = make_space([1.0, 1.0, 1.0])
    P = DensityBundle(s, (Density([0.0, 0.2, 0.8]), Density([0.5, 0.25, 0.25])))
    Q = DensityBundle(s, (Density([0.3, 0.6, 0.1]), Density([0.25, 0.5, 0.25])))
    # slot terms: (0, 0.2 ln 3, 0) and (0, 0.25 ln 2, 0)
    expected = math.sqrt(0.2 * math.log(3.0) * 0.25 * math.log(2.0))
    value = named_divergence("mixed_kl", P, Q, kl_orientation="qp").value
    assert value == pytest.approx(expected, rel=1e-15)


# -- mixed Renyi as a classical Renyi divergence plus the geometric-mean masses


def _geometric_mean(bundle) -> np.ndarray:
    return np.prod([d.values for d in bundle], axis=0) ** (1.0 / len(bundle))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.5, 2.0, 3.0])
def test_mixed_renyi_is_a_classical_renyi_plus_a_mass_term(alpha):
    # With P = prod p_i^(1/n), a = int P and P^ = P / a (Q, b and Q^ alike), the
    # mixed Hellinger integral is a^alpha b^(1-alpha) int P^^alpha Q^^(1-alpha), so
    # mixed_renyi = R_alpha(P^ || Q^) + (alpha log a + (1 - alpha) log b) / (alpha - 1).
    # The bound is relative, and absolute below 1: a value near 0 comes from the log
    # of a Hellinger integral near 1, which keeps only its absolute accuracy.
    rng = np.random.default_rng(1800)
    power = make_builtin("power", alpha=alpha)
    for _ in range(200):
        n, atoms = int(rng.integers(1, 5)), int(rng.integers(2, 13))
        space = make_space(rng.uniform(0.2, 2.0, atoms))
        P, Q = (make_bundle(space, [random_prob(rng, space) for _ in range(n)]) for _ in "PQ")
        p_bar, q_bar = _geometric_mean(P), _geometric_mean(Q)
        a, b = space.integrate(p_bar), space.integrate(q_bar)
        hellinger = classical_f_divergence(power, Density(p_bar / a), Density(q_bar / b), space)
        classical = math.log(hellinger.value) / (alpha - 1.0)
        mass = (alpha * math.log(a) + (1.0 - alpha) * math.log(b)) / (alpha - 1.0)
        value = named_divergence("mixed_renyi", P, Q, alpha=alpha)
        assert abs(value - (classical + mass)) <= 1e-12 * max(1.0, abs(value)), (n, atoms)


# -- mixed Renyi's order behaviour, on bundles drawn as the falsifier draws them


def _falsifier_bundles(seed, count):
    """(n, P, Q) drawn by the falsifier's helpers: n = 1-4, 2-12 atoms."""
    rng, cfg = np.random.default_rng(seed), FalsifyConfig()
    for _ in range(count):
        n = int(rng.integers(1, cfg.max_n + 1))
        bundles = _random_bundles(rng, _random_space(rng, cfg), n)
        yield n, bundles["ps"], bundles["qs"]


BELOW_ONE = [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
ABOVE_ONE = [1.01, 1.1, 1.5, 2.0, 3.0, 5.0]


def test_mixed_renyi_never_decreases_in_alpha_on_either_side_of_one():
    # The mass term has a pole at alpha = 1 whenever a < 1 (n >= 2), so the value
    # falls across 1 for some bundle, but on each side of 1 it never decreases.
    falls_across_one = False
    for n, P, Q in _falsifier_bundles(1802, 200):
        below, above = ([named_divergence("mixed_renyi", P, Q, alpha=a) for a in alphas]
                        for alphas in (BELOW_ONE, ABOVE_ONE))
        for values in (below, above):
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo - 1e-12 * abs(lo), (n, values)
        falls_across_one |= above[0] < below[-1]
    assert falls_across_one


@pytest.mark.parametrize("alpha", [1.01, 1.5, 2.0])
def test_mixed_renyi_above_one_is_negative_only_beyond_one_pair(alpha):
    # For alpha > 1 the mass term (alpha log a + (1 - alpha) log b) / (alpha - 1) can
    # be negative once n >= 2; at n = 1, a = b = 1 and the value is a Renyi divergence.
    negative = {1: False, 2: False}
    for n, P, Q in _falsifier_bundles(1803, 200):
        negative[min(n, 2)] |= named_divergence("mixed_renyi", P, Q, alpha=alpha) < 0.0
    assert negative == {1: False, 2: True}
