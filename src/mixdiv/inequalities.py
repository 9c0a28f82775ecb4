"""Inequality checks for the mixed-divergence functionals.

Each check returns an InequalityVerdict with both sides, the signed slack
(nonnegative means satisfied), and an equality flag with an optional
effective-proportionality diagnosis. A seeded random falsifier drives all
checks over random instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    BadOrdering,
    IndexOutOfRange,
    LengthMismatch,
    MixedConvexityTags,
    NonConcaveTag,
    NonFiniteValue,
    RangeMismatch,
    TagMismatch,
)
from .divergences import (
    _ith_integrand,
    _mixed_slots,
    _power,
    _report,
    _Slots,
    classical_f_divergence,
    ith_mixed,
    ith_mixed_reference,
)
from .ffunctions import FFunction, FVector, weighted_terms
from .measures import Density, DensityBundle, MeasureSpace

TOL_INEQ = 1e-10
TOL_EQ = 1e-8
PROP_TOL = 1e-10


@dataclass(frozen=True)
class InequalityVerdict:
    lhs: float
    rhs: float
    slack: float  # rhs - lhs for "<=" claims, lhs - rhs for ">=" claims
    satisfied: bool
    equality: bool
    diagnosis: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "satisfied": self.satisfied,
            "equality": self.equality,
            "diagnosis": self.diagnosis,
        }


def _verdict(lhs: float, rhs: float, relation: str, diagnosis=None) -> InequalityVerdict:
    slack = (rhs - lhs) if relation == "le" else (lhs - rhs)
    if not all(math.isfinite(x) for x in (lhs, rhs, slack)):
        raise NonFiniteValue(f"verdict sides are not finite: lhs={lhs!r}, rhs={rhs!r}")
    scale = 1.0 + abs(rhs)
    return InequalityVerdict(
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        satisfied=slack >= -TOL_INEQ * scale,
        equality=abs(slack) <= TOL_EQ * scale,
        diagnosis=diagnosis,
    )


def effective_proportionality(g, h, s: MeasureSpace) -> dict:
    """Are g and h effectively proportional (a g = b h, (a,b) != (0,0))?

    A null vector is proportional to anything. Otherwise the ratio is read
    off the largest entry of g and checked atom by atom.
    """
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if g.size != s.size or h.size != s.size:
        raise LengthMismatch("vectors do not match the space size")
    if np.all(np.abs(g) <= PROP_TOL) or np.all(np.abs(h) <= PROP_TOL):
        return {"proportional": True, "ratio": None}
    j = int(np.argmax(np.abs(g)))
    if g[j] == 0.0:
        return {"proportional": False, "ratio": None}
    ratio = float(h[j] / g[j])
    ok = bool(np.all(np.abs(h - ratio * g) <= PROP_TOL * (1.0 + np.abs(h))))
    return {"proportional": ok, "ratio": ratio if ok else None}


@dataclass(frozen=True)
class FactorDecomposition:
    """Per-atom factors g0, g1..gm whose product is the mixed integrand."""

    g0: np.ndarray
    g: tuple = field(default_factory=tuple)

    def integrand(self) -> np.ndarray:
        out = self.g0.copy()
        for gj in self.g:
            out = out * gj
        return out


def _decompose(slots: _Slots, m: int) -> FactorDecomposition:
    n = slots.n
    g0 = slots.root_product(range(n - m)) if m < n else np.ones(slots.w[0].size)
    return FactorDecomposition(g0=g0, g=tuple(slots.root(i) for i in range(n - m, n)))


def factor_decomposition(
    fv: FVector, P: DensityBundle, Q: DensityBundle, m: int
) -> FactorDecomposition:
    if not (0 <= m <= len(fv)):
        raise RangeMismatch(f"m must be in 0..{len(fv)}")
    return _decompose(_mixed_slots(fv, P, Q), m)


def _check_tags_uniform(fv: FVector) -> None:
    has_convex = any(f.convexity_tag in ("convex", "strictly_convex") for f in fv)
    has_concave = any(f.convexity_tag in ("concave", "strictly_concave") for f in fv)
    if has_convex and has_concave:
        raise MixedConvexityTags("generator vector mixes convex and concave entries")


def af_check(
    fv: FVector, P: DensityBundle, Q: DensityBundle, m: int
) -> InequalityVerdict:
    """Alexandrov-Fenchel type bound: D^m <= prod over the m substituted
    mixed divergences obtained by repeating the k-th tail slot."""
    n = len(fv)
    if not (1 <= m <= n):
        raise RangeMismatch(f"m must be in 1..{n}")
    _check_tags_uniform(fv)
    slots = _mixed_slots(fv, P, Q)
    lhs = _power(_report(P.space, slots.product()).value, m)
    head = list(range(n - m))
    rhs = 1.0
    for k in range(n - m, n):
        rhs *= _report(P.space, slots.product(head + [k] * m)).value
    v = _verdict(lhs, rhs, "le")
    if v.equality:
        dec = _decompose(slots, m)
        root = dec.g0 ** (1.0 / m)
        hs = [root * gj for gj in dec.g]
        pairwise = all(
            effective_proportionality(hs[i], hs[j], P.space)["proportional"]
            for i in range(m)
            for j in range(i + 1, m)
        )
        null = any(np.all(np.abs(h) <= PROP_TOL) for h in hs)
        v = InequalityVerdict(
            v.lhs, v.rhs, v.slack, v.satisfied, v.equality,
            diagnosis={"effectively_proportional": bool(pairwise or null or m == 1)},
        )
    return v


def jensen_bound_check(
    f: FFunction, p: Density, q: Density, s: MeasureSpace
) -> InequalityVerdict:
    """D_f(P, Q) >= f(1) for convex f; <= f(1) for concave f."""
    value = classical_f_divergence(f, p, q, s).value
    relation = "ge" if f.convexity_tag in ("convex", "strictly_convex", "linear") else "le"
    v = _verdict(value, f.value_at_one, relation)
    if f.is_strict:
        same = bool(np.all(np.abs(p.values - q.values) <= PROP_TOL * (1 + np.abs(q.values))))
        v = InequalityVerdict(
            v.lhs, v.rhs, v.slack, v.satisfied, v.equality,
            diagnosis={"densities_equal": same},
        )
    return v


def concave_chain_check(
    fv: FVector, P: DensityBundle, Q: DensityBundle
) -> tuple[InequalityVerdict, InequalityVerdict]:
    """D^n <= prod_i D_{f_i}(P_i, Q_i) <= prod_i f_i(1) for concave f_i."""
    n = len(fv)
    for f in fv:
        if not f.is_concave:
            raise NonConcaveTag("concave chain needs concave generators")
    slots = _mixed_slots(fv, P, Q)
    d_mixed = _report(P.space, slots.product()).value
    prod_classical = 1.0
    for i in range(n):
        prod_classical *= _report(P.space, slots.w[i]).value
    prod_ones = math.prod(f.value_at_one for f in fv)
    left = _verdict(_power(d_mixed, n), prod_classical, "le")
    right = _verdict(prod_classical, prod_ones, "le")
    if all(f.convexity_tag == "linear" for f in fv):
        combos = []
        for i in range(n):
            a, b = fv[i].a, fv[i].b
            combos.append((a * P[i].values + b * Q[i].values) / (a + b))
        match = all(
            np.all(np.abs(combos[0] - c) <= 1e-12 * (1 + np.abs(combos[0])))
            for c in combos[1:]
        )
        right = InequalityVerdict(
            right.lhs, right.rhs, right.slack, right.satisfied, right.equality,
            diagnosis={"convex_combinations_equal": bool(match)},
        )
    return left, right


def interpolation_check(
    f1: FFunction,
    f2: FFunction,
    P1: Density,
    Q1: Density,
    P2: Density,
    Q2: Density,
    i: float,
    j: float,
    k: float,
    n: int,
    s: MeasureSpace,
) -> InequalityVerdict:
    """Log-convexity of i -> D(P, Q; i): D(i) <= D(j)^((k-i)/(k-j)) D(k)^((i-j)/(k-j))."""
    lo, hi = min(j, k), max(j, k)
    if not (lo <= i <= hi):
        raise BadOrdering(f"i={i} is outside [{lo}, {hi}]")
    if n < 1:
        raise IndexOutOfRange("n must be >= 1")
    w1, _ = weighted_terms(f1, P1.values, Q1.values)
    w2, _ = weighted_terms(f2, P2.values, Q2.values)

    def d(x):
        return _report(s, _ith_integrand(w1, w2, x, n)).value

    d_i = d(i)
    if i == j or i == k:
        return _verdict(d_i, d_i, "le")
    d_j, d_k = d(j), d(k)
    rhs = d_j ** ((k - i) / (k - j)) * d_k ** ((i - j) / (k - j))
    v = _verdict(d_i, rhs, "le")
    if v.equality:
        v = InequalityVerdict(
            v.lhs, v.rhs, v.slack, v.satisfied, v.equality,
            diagnosis=effective_proportionality(w1, w2, s),
        )
    return v


_COROLLARY_CASES = (
    "concave_band",
    "convex_concave_high",
    "concave_convex_low",
    "reference_concave",
    "reference_convex_high",
    "reference_concave_low",
)


def _endpoint_bound(f1: FFunction, f2: FFunction, i: float, n: int) -> float:
    """f1(1)^i f2(1)^(n-i), the right-hand side of every corollary."""
    return _power(f1.value_at_one, i) * _power(f2.value_at_one, n - i)


def corollary_bound_check(
    case: str,
    f1: FFunction,
    f2: FFunction,
    P1: Density,
    Q1: Density,
    i: float,
    n: int,
    s: MeasureSpace,
    P2: Optional[Density] = None,
    Q2: Optional[Density] = None,
) -> InequalityVerdict:
    """The six endpoint corollaries of the interpolation bound.

    Pair cases (concave_band, convex_concave_high, concave_convex_low)
    need the second pair (P2, Q2); reference cases integrate against mu
    itself and need a probability space.
    """
    if case not in _COROLLARY_CASES:
        raise RangeMismatch(f"unknown corollary case {case!r}")

    if case in ("concave_band", "convex_concave_high", "concave_convex_low"):
        if P2 is None or Q2 is None:
            raise RangeMismatch("pair corollaries need the second density pair")
        if case == "concave_band":
            if not (f1.is_concave and f2.is_concave):
                raise TagMismatch("concave_band needs two concave generators")
            if not (0 <= i <= n):
                raise RangeMismatch("concave_band needs 0 <= i <= n")
            relation = "le"
        elif case == "convex_concave_high":
            if not (f1.is_convex and f2.is_concave):
                raise TagMismatch("needs f1 convex and f2 concave")
            if i < n:
                raise RangeMismatch("needs k >= n")
            relation = "ge"
        else:
            if not (f1.is_concave and f2.is_convex):
                raise TagMismatch("needs f1 concave and f2 convex")
            if i > 0:
                raise RangeMismatch("needs k <= 0")
            relation = "ge"
        bound = _endpoint_bound(f1, f2, i, n)
        value = ith_mixed(f1, f2, P1, Q1, P2, Q2, i, n, s).value
        v = _verdict(_power(value, n), bound, relation)
        if v.equality and f1.is_strict and f2.is_strict:
            stacks = np.stack([P1.values, Q1.values, P2.values, Q2.values])
            all_equal = bool(
                np.all(np.abs(stacks - stacks[0]) <= PROP_TOL * (1 + np.abs(stacks[0])))
            )
            v = InequalityVerdict(
                v.lhs, v.rhs, v.slack, v.satisfied, v.equality,
                diagnosis={"all_densities_equal": all_equal},
            )
        return v

    # reference cases: P2 = Q2 = mu with mu a probability measure
    if case == "reference_concave":
        if not f1.is_concave:
            raise TagMismatch("reference_concave needs f1 concave")
        if not (0 <= i <= n):
            raise RangeMismatch("reference_concave needs 0 <= i <= n")
        relation = "le"
    elif case == "reference_convex_high":
        if not f1.is_convex:
            raise TagMismatch("reference_convex_high needs f1 convex")
        if i < n:
            raise RangeMismatch("needs k >= n")
        relation = "ge"
    else:
        if not f1.is_concave:
            raise TagMismatch("reference_concave_low needs f1 concave")
        if i > 0:
            raise RangeMismatch("needs k <= 0")
        relation = "ge"
    bound = _endpoint_bound(f1, f2, i, n)
    value = ith_mixed_reference(f1, P1, Q1, i, f2, s, n).value
    v = _verdict(_power(value, n), bound, relation)
    if v.equality:
        if f1.is_strict:
            unit = np.ones(s.size)
            eq_mu = bool(
                np.all(np.abs(P1.values - unit) <= PROP_TOL)
                and np.all(np.abs(Q1.values - unit) <= PROP_TOL)
            )
            v = InequalityVerdict(
                v.lhs, v.rhs, v.slack, v.satisfied, v.equality,
                diagnosis={"pair_equals_reference": eq_mu},
            )
        elif f1.convexity_tag == "linear":
            a, b = f1.a, f1.b
            combo = a * P1.values + b * Q1.values
            ok = bool(np.all(np.abs(combo - (a + b)) <= PROP_TOL * (1 + a + b)))
            v = InequalityVerdict(
                v.lhs, v.rhs, v.slack, v.satisfied, v.equality,
                diagnosis={"linear_combination_constant": ok},
            )
    return v
