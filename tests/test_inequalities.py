import json
import math

import numpy as np
import pytest

from mixdiv import (
    INEQUALITY_IDS,
    Density,
    DensityBundle,
    FFunction,
    FVector,
    af_check,
    classical_f_divergence,
    concave_chain_check,
    corollary_bound_check,
    effective_proportionality,
    factor_decomposition,
    falsify,
    interpolation_check,
    jensen_bound_check,
    make_builtin,
    make_bundle,
    make_space,
    mixed_f_divergence,
)
from mixdiv import inequalities
from mixdiv.errors import (
    BadOrdering,
    LengthMismatch,
    MixedConvexityTags,
    NonConcaveTag,
    RangeMismatch,
    TagMismatch,
)

from conftest import random_prob


def _pair_instance(rng, n, atoms, f):
    space = make_space(rng.uniform(0.2, 2.0, atoms))
    fv = FVector([f] * n)
    P = make_bundle(space, [random_prob(rng, space) for _ in range(n)], validate=False)
    Q = make_bundle(space, [random_prob(rng, space) for _ in range(n)], validate=False)
    return space, fv, P, Q


# -- effective proportionality ---------------------------------------------


def test_proportionality_scaling(counting2):
    r = effective_proportionality([1.0, 2.0], [2.0, 4.0], counting2)
    assert r["proportional"] and r["ratio"] == pytest.approx(2.0)


def test_proportionality_null(counting2):
    assert effective_proportionality([0.0, 0.0], [1.0, 3.0], counting2)["proportional"]


def test_proportionality_negative(counting2):
    assert not effective_proportionality([1.0, 2.0], [1.0, 3.0], counting2)["proportional"]


def test_proportionality_length(counting2):
    with pytest.raises(LengthMismatch):
        effective_proportionality([1.0], [1.0, 2.0], counting2)


# -- Alexandrov-Fenchel type -----------------------------------------------


def test_af_m1_is_equality(rng):
    for f in [make_builtin("power", alpha=2.0), make_builtin("power", alpha=0.5)]:
        space, fv, P, Q = _pair_instance(rng, 3, 5, f)
        v = af_check(fv, P, Q, 1)
        assert v.equality and v.satisfied


def test_af_random_convex_holds(rng):
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, n + 1))
        space, fv, P, Q = _pair_instance(
            rng, n, int(rng.integers(2, 10)), make_builtin("power", alpha=2.0)
        )
        v = af_check(fv, P, Q, m)
        assert v.satisfied


def test_af_full_m_matches_classical_product(rng):
    n = 3
    space, fv, P, Q = _pair_instance(rng, n, 6, make_builtin("power", alpha=2.0))
    v = af_check(fv, P, Q, n)
    expected_rhs = math.prod(
        classical_f_divergence(fv[i], P[i], Q[i], space).value for i in range(n)
    )
    assert v.rhs == pytest.approx(expected_rhs, rel=1e-12)
    assert v.lhs == pytest.approx(mixed_f_divergence(fv, P, Q).value ** n, rel=1e-12)


def test_af_oracle_fixed_instance(rng):
    # n=2, m=2 expanded by hand: lhs = D^2, rhs = D_{f1} * D_{f2}
    from oracles import classical_oracle, mixed_oracle

    space = make_space([1.0, 1.0, 1.0])
    p1, q1 = random_prob(rng, space), random_prob(rng, space)
    p2, q2 = random_prob(rng, space), random_prob(rng, space)
    f = make_builtin("power", alpha=2.0)
    fv = FVector([f, f])
    P = DensityBundle(space, (p1, p2))
    Q = DensityBundle(space, (q1, q2))
    v = af_check(fv, P, Q, 2)
    spec = {"kind": "power", "alpha": 2.0}
    w = [1.0, 1.0, 1.0]
    lhs_oracle = mixed_oracle(
        w, [spec, spec],
        [list(p1.values), list(p2.values)], [list(q1.values), list(q2.values)],
    ) ** 2
    rhs_oracle = classical_oracle(w, spec, list(p1.values), list(q1.values)) * \
        classical_oracle(w, spec, list(p2.values), list(q2.values))
    assert v.lhs == pytest.approx(lhs_oracle, rel=1e-13)
    assert v.rhs == pytest.approx(rhs_oracle, rel=1e-13)


def test_af_equality_for_scaled_family(rng):
    space = make_space(rng.uniform(0.2, 2.0, 6))
    p, q = random_prob(rng, space), random_prob(rng, space)
    n = 3
    base = make_builtin("power", alpha=2.0)
    fv = FVector(
        make_builtin("scaled", lam=float(rng.uniform(0.1, 2.0)), inner=base)
        for _ in range(n)
    )
    P = DensityBundle(space, (p,) * n)
    Q = DensityBundle(space, (q,) * n)
    for m in range(1, n + 1):
        v = af_check(fv, P, Q, m)
        assert v.equality
        if v.diagnosis is not None:
            assert v.diagnosis["effectively_proportional"]


def test_af_rejects_mixed_tags(rng):
    space = make_space([1.0, 1.0])
    p = Density([0.5, 0.5])
    fv = FVector([make_builtin("power", alpha=2.0), make_builtin("power", alpha=0.5)])
    P = DensityBundle(space, (p, p))
    with pytest.raises(MixedConvexityTags):
        af_check(fv, P, P, 1)


def test_factor_decomposition_reconstructs(rng):
    for m in (1, 2, 3):
        space, fv, P, Q = _pair_instance(rng, 3, 5, make_builtin("power", alpha=0.5))
        dec = factor_decomposition(fv, P, Q, m)
        rep = mixed_f_divergence(fv, P, Q)
        assert np.all(
            np.abs(dec.integrand() - rep.integrand)
            <= 1e-12 * (1 + np.abs(rep.integrand))
        )


# -- Jensen bound -----------------------------------------------------------


def test_jensen_equality_when_equal(rng, counting2):
    p = Density([0.5, 0.5])
    for f in [make_builtin("power", alpha=2.0), make_builtin("power", alpha=0.5),
              make_builtin("tv")]:
        v = jensen_bound_check(f, p, p, counting2)
        assert v.equality and v.slack == pytest.approx(0.0, abs=1e-15)


def test_jensen_strictly_convex_gap(counting2):
    v = jensen_bound_check(
        make_builtin("power", alpha=2.0),
        Density([0.5, 0.5]), Density([0.25, 0.75]), counting2,
    )
    assert v.slack > 0 and not v.equality
    assert v.diagnosis is None  # diagnosed only at equality
    # oracle: 0.25*(2^2) + 0.75*(2/3)^2 = 1 + 1/3
    assert v.lhs == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert v.rhs == 1.0


def test_jensen_concave_direction(rng):
    space = make_space(rng.uniform(0.2, 2.0, 8))
    p, q = random_prob(rng, space), random_prob(rng, space)
    v = jensen_bound_check(make_builtin("power", alpha=0.5), p, q, space)
    assert v.satisfied and v.lhs <= v.rhs + 1e-12


# -- concave chain -----------------------------------------------------------


def test_concave_chain_common_density(rng):
    space = make_space(rng.uniform(0.2, 2.0, 5))
    p = random_prob(rng, space)
    n = 3
    fv = FVector([make_builtin("power", alpha=0.5)] * n)
    P = DensityBundle(space, (p,) * n)
    left, right = concave_chain_check(fv, P, P)
    assert left.equality and right.equality
    assert left.lhs == pytest.approx(1.0, rel=1e-12)


def test_concave_chain_random_strict(rng):
    space, fv, P, Q = _pair_instance(rng, 2, 6, make_builtin("power", alpha=0.5))
    left, right = concave_chain_check(fv, P, Q)
    assert left.satisfied and right.satisfied
    assert right.slack > 0


def test_concave_chain_linear_diagnosis(rng):
    space = make_space(rng.uniform(0.2, 2.0, 4))
    p, q = random_prob(rng, space), random_prob(rng, space)
    # same (a, b) and same pair everywhere: the slots' integrands are equal
    fv = FVector([make_builtin("linear", a=1.0, b=2.0)] * 2)
    P = DensityBundle(space, (p, p))
    Q = DensityBundle(space, (q, q))
    left, right = concave_chain_check(fv, P, Q)
    assert left.diagnosis == {"effectively_proportional": True}
    assert left.equality


def test_concave_chain_linear_diagnosis_sits_on_the_hoelder_step():
    # for linear f_i, D_{f_i} = a_i + b_i = f_i(1), so the right step is always
    # tight and says nothing about the convex combinations
    space = make_space([0.25, 0.25, 0.5])
    p, q = Density([0.8, 1.2, 1.0]), Density([1.6, 1.6, 0.4])
    fv = FVector([make_builtin("linear", a=1.0, b=2.0), make_builtin("linear", a=2.0, b=0.5)])
    left, right = concave_chain_check(fv, DensityBundle(space, (p, q)),
                                      DensityBundle(space, (q, p)))
    assert right.equality and right.diagnosis is None
    assert not left.equality and left.diagnosis is None


def test_concave_chain_rejects_convex(counting2):
    p = Density([0.5, 0.5])
    fv = FVector([make_builtin("power", alpha=2.0)])
    with pytest.raises(NonConcaveTag):
        concave_chain_check(fv, DensityBundle(counting2, (p,)), DensityBundle(counting2, (p,)))


# -- interpolation -----------------------------------------------------------


def _ith_args(rng, atoms=6):
    space = make_space(rng.uniform(0.2, 2.0, atoms))
    return (
        space,
        random_prob(rng, space), random_prob(rng, space),
        random_prob(rng, space), random_prob(rng, space),
    )


def test_interpolation_endpoint_equality(rng):
    space, p1, q1, p2, q2 = _ith_args(rng)
    f1, f2 = make_builtin("power", alpha=0.5), make_builtin("power", alpha=2.0)
    v = interpolation_check(f1, f2, p1, q1, p2, q2, 0.0, 0.0, 2.0, 2, space)
    assert v.equality


def test_interpolation_scaled_pair_equality(rng):
    space = make_space(rng.uniform(0.2, 2.0, 5))
    p, q = random_prob(rng, space), random_prob(rng, space)
    f2 = make_builtin("power", alpha=0.5)
    f1 = make_builtin("scaled", lam=2.0, inner=f2)
    v = interpolation_check(f1, f2, p, q, p, q, 1.0, 0.0, 2.0, 2, space)
    assert v.equality
    assert v.diagnosis is not None and v.diagnosis["effectively_proportional"]


def test_interpolation_random_holds(rng):
    f1, f2 = make_builtin("power", alpha=2.0), make_builtin("power", alpha=0.5)
    for _ in range(200):
        space, p1, q1, p2, q2 = _ith_args(rng, int(rng.integers(2, 10)))
        n = int(rng.integers(1, 4))
        v = interpolation_check(f1, f2, p1, q1, p2, q2, n / 2, 0.0, float(n), n, space)
        assert v.satisfied


def test_interpolation_bad_ordering(rng):
    space, p1, q1, p2, q2 = _ith_args(rng)
    with pytest.raises(BadOrdering):
        interpolation_check(
            make_builtin("power", alpha=0.5), make_builtin("power", alpha=0.5),
            p1, q1, p2, q2, 5.0, 0.0, 2.0, 2, space,
        )


# -- corollaries -------------------------------------------------------------


def test_concave_band_equality(rng):
    space = make_space(rng.uniform(0.2, 2.0, 5))
    p = random_prob(rng, space)
    f = make_builtin("power", alpha=0.5)
    v = corollary_bound_check("concave_band", f, f, p, p, 1.2, 2, space, P2=p, Q2=p)
    assert v.equality
    assert v.rhs == pytest.approx(1.0)
    assert v.diagnosis == {"effectively_proportional": True, "densities_equal": True}


def test_convex_concave_high_random(rng):
    f1, f2 = make_builtin("power", alpha=2.0), make_builtin("power", alpha=0.5)
    for _ in range(100):
        space = make_space(rng.uniform(0.2, 2.0, 5))
        p1, q1 = random_prob(rng, space), random_prob(rng, space)
        p2, q2 = random_prob(rng, space), random_prob(rng, space)
        n = int(rng.integers(1, 4))
        v = corollary_bound_check(
            "convex_concave_high", f1, f2, p1, q1, n + 1.0, n, space, P2=p2, Q2=q2
        )
        assert v.satisfied


def test_reference_concave_equality(rng):
    space = make_space([0.25, 0.25, 0.5])
    unit = Density(np.ones(3))
    f1 = make_builtin("power", alpha=0.5)
    f2 = make_builtin("power", alpha=2.0)
    v = corollary_bound_check("reference_concave", f1, f2, unit, unit, 1.0, 2, space)
    assert v.equality
    assert v.diagnosis == {"effectively_proportional": True, "densities_equal": True}


def test_corollary_tag_mismatch(rng):
    space = make_space([0.5, 0.5])
    p = Density([1.0, 1.0])
    with pytest.raises(TagMismatch):
        corollary_bound_check(
            "concave_band", make_builtin("power", alpha=2.0),
            make_builtin("power", alpha=0.5), p, p, 1.0, 2, space, P2=p, Q2=p,
        )


def test_corollary_range_mismatch(rng):
    space = make_space([0.5, 0.5])
    p = Density([1.0, 1.0])
    with pytest.raises(RangeMismatch):
        corollary_bound_check(
            "convex_concave_high", make_builtin("power", alpha=2.0),
            make_builtin("power", alpha=0.5), p, p, 1.0, 2, space, P2=p, Q2=p,
        )


CONVEX, CONCAVE = make_builtin("power", alpha=2.0), make_builtin("power", alpha=0.5)

# case -> (f1, f2, i) that satisfy the case's tag and range rules at n = 2
COROLLARY_RULES = {
    "concave_band": (CONCAVE, CONCAVE, 1.0),
    "convex_concave_high": (CONVEX, CONCAVE, 3.0),
    "concave_convex_low": (CONCAVE, CONVEX, -1.0),
    "reference_concave": (CONCAVE, CONVEX, 1.0),
    "reference_convex_high": (CONVEX, CONCAVE, 3.0),
    "reference_concave_low": (CONCAVE, CONVEX, -1.0),
}


def _flip(f):
    return CONCAVE if f is CONVEX else CONVEX


def _corollary(case, f1, f2, i):
    space = make_space([0.5, 0.5])
    p = Density([1.0, 1.0])
    pair = {} if case.startswith("reference") else {"P2": p, "Q2": p}
    return corollary_bound_check(case, f1, f2, p, p, i, 2, space, **pair)


@pytest.mark.parametrize("case", COROLLARY_RULES)
def test_corollary_rules_accept_their_instance(case):
    assert _corollary(case, *COROLLARY_RULES[case]).satisfied


@pytest.mark.parametrize("case,slot", [
    (case, slot) for case in COROLLARY_RULES
    for slot in ((0, 1) if not case.startswith("reference") else (0,))
])
def test_corollary_tag_rule_every_case(case, slot):
    args = list(COROLLARY_RULES[case])
    args[slot] = _flip(args[slot])
    with pytest.raises(TagMismatch):
        _corollary(case, *args)


@pytest.mark.parametrize("case,i", [
    (case, i) for case, (_, _, inside) in COROLLARY_RULES.items()
    for i in {1.0: (-0.5, 2.5), 3.0: (1.5,), -1.0: (0.5,)}[inside]
])
def test_corollary_range_rule_every_case(case, i):
    f1, f2, _ = COROLLARY_RULES[case]
    with pytest.raises(RangeMismatch):
        _corollary(case, f1, f2, i)


# -- falsifier ---------------------------------------------------------------


def test_falsify_af_clean():
    report = falsify("af_check", 42, 1000)
    assert report["violations"] == 0
    assert report["witness"] is not None


def test_falsify_concave_chain_clean():
    report = falsify("concave_chain", 7, 1000)
    assert report["violations"] == 0
    assert report["min_slack"] >= -1e-10


def test_falsify_deterministic():
    a = falsify("interpolation", 3, 500)
    b = falsify("interpolation", 3, 500)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_falsify_seed_sensitivity():
    a = falsify("jensen_bound", 1, 200)
    b = falsify("jensen_bound", 2, 200)
    assert a["min_slack"] != b["min_slack"]


def test_falsify_unknown_id():
    with pytest.raises(RangeMismatch):
        falsify("nonsense", 0, 10)


@pytest.mark.parametrize("inequality", INEQUALITY_IDS)
def test_falsify_describes_only_the_witness(monkeypatch, inequality):
    calls = []
    describe = FFunction.describe
    monkeypatch.setattr(FFunction, "describe", lambda f: calls.append(f) or describe(f))
    report = falsify(inequality, 5, 40)
    # the witness task holds each generator as its spec (a dict), alone or in a
    # list; the falsifier draws no nested generators, so each describes itself once
    task = report["witness"]["tasks"][0]
    generators = [g for v in task.values() for g in (v if isinstance(v, list) else [v])
                  if isinstance(g, dict)]
    assert generators and len(calls) == len(generators)
    assert falsify(inequality, 5, 0)["witness"] is None


# -- reference corollary diagnosis of a linear f1 -----------------------------


@pytest.mark.parametrize("f1", [
    make_builtin("power", alpha=1.0),
    make_builtin("scaled", lam=2.0, inner=make_builtin("linear", a=1.0, b=0.0)),
    make_builtin("linear", a=1.0, b=0.0),
])
def test_reference_diagnosis_reads_a_linear_f1_through_its_limits(f1):
    # f1(t) = a t with a > 0, and a P1 + 0 Q1 = a = a + b is constant
    P1, Q1 = Density([1.0, 1.0, 1.0]), Density([1.6, 1.6, 0.4])
    v = corollary_bound_check("reference_concave", f1, make_builtin("power", alpha=0.5),
                              P1, Q1, 1.0, 2, make_space([0.25, 0.25, 0.5]))
    assert v.equality
    assert v.diagnosis == {"effectively_proportional": True}



# -- pair corollary diagnosis of linear generators ----------------------------


@pytest.mark.parametrize("f2", [make_builtin("linear", a=1.0, b=2.0),
                                make_builtin("linear", a=2.0, b=4.0)])
def test_pair_diagnosis_of_linear_generators_is_hoelder_equality(f2):
    # the bound is Hoelder's inequality, tight iff a1 p1 + b1 q1 and a2 p2 + b2 q2
    # are proportional; 2 p1 + 4 q1 = 2 (p1 + 2 q1)
    P1, Q1 = Density([0.8, 1.2, 1.0]), Density([1.6, 1.6, 0.4])
    f1 = make_builtin("linear", a=1.0, b=2.0)
    v = corollary_bound_check("concave_band", f1, f2, P1, Q1, 1.5, 3,
                              make_space([0.25, 0.25, 0.5]), P2=P1, Q2=Q1)
    assert v.equality
    assert v.diagnosis == {"effectively_proportional": True}


# -- endpoint corollaries are Jensen's bound on one pair -----------------------


ENDPOINT_SPACE = make_space([0.25, 0.25, 0.5])
ENDPOINT_P, ENDPOINT_Q = Density([0.8, 1.2, 1.0]), Density([1.6, 1.6, 0.4])
SQRT = make_builtin("power", alpha=0.5)


@pytest.mark.parametrize("i, pairs", [
    (3, (ENDPOINT_P, ENDPOINT_P, ENDPOINT_P, ENDPOINT_Q)),  # (P1, Q1) at exponent 1
    (0, (ENDPOINT_P, ENDPOINT_Q, ENDPOINT_P, ENDPOINT_P)),  # (P2, Q2) at exponent 1
])
def test_pair_corollary_at_an_endpoint_reports_jensens_diagnosis(i, pairs):
    P1, Q1, P2, Q2 = pairs
    v = corollary_bound_check("concave_band", SQRT, SQRT, P1, Q1, i, 3, ENDPOINT_SPACE,
                              P2=P2, Q2=Q2)
    assert v.equality
    assert v.diagnosis == {"densities_equal": True}


@pytest.mark.parametrize("i, diagnosis", [(2, {"densities_equal": True}), (0, None)])
def test_reference_corollary_at_an_endpoint(i, diagnosis):
    # at i = n the bound is Jensen's on (P1, Q1); at i = 0 it is exact
    v = corollary_bound_check("reference_concave", SQRT, SQRT, ENDPOINT_P, ENDPOINT_P, i, 2,
                              ENDPOINT_SPACE)
    assert v.equality
    assert v.diagnosis == diagnosis


# -- the concave chain's Hoelder step ------------------------------------------


def test_concave_chain_reads_proportional_linear_integrands_as_hoelder_equality():
    # w_i = a_i p_i + b_i q_i = p and 2 p: proportional, so Hoelder's step is tight,
    # though the convex combinations p and 2 p differ
    linear = make_builtin("linear", a=1.0, b=0.0)
    P = DensityBundle(ENDPOINT_SPACE, (ENDPOINT_P, Density(2.0 * ENDPOINT_P.values)))
    Q = DensityBundle(ENDPOINT_SPACE, (ENDPOINT_Q, ENDPOINT_Q))
    left, _ = concave_chain_check(FVector([linear, linear]), P, Q)
    assert left.equality
    assert left.diagnosis == {"effectively_proportional": True}


def test_concave_chain_diagnoses_a_strict_generator_at_equality():
    P = DensityBundle(ENDPOINT_SPACE, (ENDPOINT_P, ENDPOINT_P))
    left, right = concave_chain_check(FVector([SQRT, SQRT]), P, P)
    assert left.equality and left.diagnosis == {"effectively_proportional": True}
    assert right.equality and right.diagnosis is None


# -- a diagnosis exists only at equality ----------------------------------------


def _bundles(*pairs):
    return (DensityBundle(ENDPOINT_SPACE, tuple(p for p, _ in pairs)),
            DensityBundle(ENDPOINT_SPACE, tuple(q for _, q in pairs)))


_P, _Q = ENDPOINT_P, ENDPOINT_Q
# each instance is strictly inside its bound: sqrt(p q) and p are not proportional
OFF_EQUALITY = {
    "af": lambda: [af_check(FVector([SQRT, SQRT]), *_bundles((_P, _Q), (_P, _P)), 2)],
    "jensen": lambda: [jensen_bound_check(make_builtin("power", alpha=2.0), _P, _Q,
                                          ENDPOINT_SPACE)],
    "chain": lambda: concave_chain_check(FVector([SQRT, SQRT]), *_bundles((_P, _Q), (_P, _P))),
    "interpolation": lambda: [interpolation_check(SQRT, SQRT, _P, _Q, _P, _P, 1.0, 0.0, 2.0, 2,
                                                  ENDPOINT_SPACE)],
    "corollary": lambda: [
        corollary_bound_check("concave_band", SQRT, SQRT, _P, _Q, 1.0, 2, ENDPOINT_SPACE,
                              P2=_P, Q2=_P),
        corollary_bound_check("reference_concave", SQRT, SQRT, _P, _Q, 1.0, 2, ENDPOINT_SPACE),
    ],
}


@pytest.mark.parametrize("check", sorted(OFF_EQUALITY))
def test_a_diagnosis_is_formed_only_at_equality(monkeypatch, check):
    def boom(*args, **kwargs):
        raise AssertionError("a diagnosis was formed off equality")

    for name in ("_tight", "_equal", "effective_proportionality"):
        monkeypatch.setattr(inequalities, name, boom)
    for v in OFF_EQUALITY[check]():
        assert v.satisfied and not v.equality
        assert v.diagnosis is None


# -- every equality instance reads tight on every step of its proof ---------------


SQUARE = make_builtin("power", alpha=2.0)
UNIT = Density(np.ones(3))
HOELDER, JENSEN = "effectively_proportional", "densities_equal"


def _at(case, f1, f2, i, n=2, P1=_P, Q1=_P, P2=_P, Q2=_P):
    """A corollary check; a reference case takes only (P1, Q1)."""
    pair = {} if case.startswith("reference") else {"P2": P2, "Q2": Q2}
    return lambda: corollary_bound_check(case, f1, f2, P1, Q1, i, n, ENDPOINT_SPACE, **pair)


LINEAR_12, TV = make_builtin("linear", a=1.0, b=2.0), make_builtin("tv")
BOTH = {HOELDER, JENSEN}
# id -> (a check at equality, the keys of its diagnosis, or None where the
# proof has no step to diagnose); every key must read True
EQUALITY = {
    "af_identical_slots": (
        lambda: af_check(FVector([SQRT, SQRT]), *_bundles((_P, _Q), (_P, _Q)), 2), {HOELDER}),
    "chain_left_identical_slots": (
        lambda: concave_chain_check(FVector([SQRT, SQRT]), *_bundles((_P, _Q), (_P, _Q)))[0],
        {HOELDER}),
    "jensen_strict_p_equals_q": (
        lambda: jensen_bound_check(SQUARE, _P, _P, ENDPOINT_SPACE), {JENSEN}),
    "interpolation_proportional_slots": (
        lambda: interpolation_check(make_builtin("scaled", lam=2.0, inner=SQRT), SQRT,
                                    _P, _Q, _P, _Q, 1.0, 0.0, 2.0, 2, ENDPOINT_SPACE),
        {HOELDER}),
    "concave_band_interior": (_at("concave_band", SQRT, SQRT, 1.0), BOTH),
    "concave_band_i_0": (_at("concave_band", SQRT, SQRT, 0.0), {JENSEN}),
    "concave_band_i_n": (_at("concave_band", SQRT, SQRT, 2.0), {JENSEN}),
    "convex_concave_high_interior": (_at("convex_concave_high", SQUARE, SQRT, 3.0), BOTH),
    "convex_concave_high_i_n": (_at("convex_concave_high", SQUARE, SQRT, 2.0), {JENSEN}),
    "concave_convex_low_interior": (_at("concave_convex_low", SQRT, SQUARE, -1.0), BOTH),
    "concave_convex_low_i_0": (_at("concave_convex_low", SQRT, SQUARE, 0.0), {JENSEN}),
    # P1 = Q1 = mu's unit density
    "reference_concave_interior": (
        _at("reference_concave", SQRT, SQUARE, 1.0, P1=UNIT, Q1=UNIT), BOTH),
    "reference_concave_i_0": (_at("reference_concave", SQRT, SQUARE, 0.0), None),
    "reference_concave_i_n": (_at("reference_concave", SQRT, SQUARE, 2.0), {JENSEN}),
    "reference_convex_high_interior": (
        _at("reference_convex_high", SQUARE, SQRT, 3.0, P1=UNIT, Q1=UNIT), BOTH),
    "reference_convex_high_i_n": (_at("reference_convex_high", SQUARE, SQRT, 2.0), {JENSEN}),
    "reference_concave_low_interior": (
        _at("reference_concave_low", SQRT, SQUARE, -1.0, P1=UNIT, Q1=UNIT), BOTH),
    "reference_concave_low_i_0": (_at("reference_concave_low", SQRT, SQUARE, 0.0), None),
    # w2 = 3 p is proportional to w1 = p, and Jensen's step on a linear pair is exact
    "strict_f1_linear_f2": (_at("concave_band", SQRT, LINEAR_12, 1.5, n=3), BOTH),
    # w2 = 0: both sides vanish, though P1 != Q1
    "null_linear_slot": (_at("concave_band", SQRT, make_builtin("linear", a=0.0, b=0.0), 1.0,
                             Q1=_Q, Q2=_Q), BOTH),
    # f2(1) = 0, so the second integrand f2(1)*1 is null and both sides are 0
    "reference_concave_tv_strict_f1": (_at("reference_concave", SQRT, TV, 1.0, Q1=_Q), BOTH),
    "reference_concave_tv_linear_f1": (
        _at("reference_concave", LINEAR_12, TV, 1.0, Q1=_Q), {HOELDER}),
}


@pytest.mark.parametrize("check, keys", EQUALITY.values(), ids=EQUALITY.keys())
def test_every_step_of_an_equality_instance_reads_tight(check, keys):
    v = check()
    assert v.equality
    assert v.diagnosis == (None if keys is None else dict.fromkeys(keys, True))
