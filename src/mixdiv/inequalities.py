"""Inequality checks for the mixed-divergence functionals.

Each check returns an InequalityVerdict with both sides, the signed slack
(nonnegative means satisfied), an equality flag and, only at equality, a known
equality-case diagnosis; every Hoelder step reads proportionality of the
integrands it bounds. A seeded random falsifier drives all checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    BadOrdering,
    LengthMismatch,
    MixedConvexityTags,
    NonConcaveTag,
    NonFiniteValue,
    RangeMismatch,
    TagMismatch,
)
from .divergences import _ith, _ith_reference, _mixed_slots, _power, _Slots
from .ffunctions import LINEAR, FFunction, FVector
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


def _verdict(lhs: float, rhs: float, relation: str, diagnose=None) -> InequalityVerdict:
    """diagnose() -> the diagnosis, called only when the verdict is at equality."""
    slack = (rhs - lhs) if relation == "le" else (lhs - rhs)
    if not all(math.isfinite(x) for x in (lhs, rhs, slack)):
        raise NonFiniteValue(f"verdict sides are not finite: lhs={lhs!r}, rhs={rhs!r}")
    scale = 1.0 + abs(rhs)
    equality = abs(slack) <= TOL_EQ * scale
    return InequalityVerdict(
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        satisfied=slack >= -TOL_INEQ * scale,
        equality=equality,
        diagnosis=diagnose() if equality and diagnose is not None else None,
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
    ratio = float(h[j] / g[j])
    ok = bool(np.all(np.abs(h - ratio * g) <= PROP_TOL * (1.0 + np.abs(h))))
    return {"proportional": ok, "ratio": ratio if ok else None}


def _proportional(integrands: tuple | list, s: MeasureSpace) -> bool:
    """Hoelder's inequality is tight iff one of the integrands it bounds is null
    or every two are effectively proportional."""
    return any(np.all(np.abs(h) <= PROP_TOL) for h in integrands) or all(
        effective_proportionality(g, h, s)["proportional"]
        for j, g in enumerate(integrands) for h in integrands[j + 1:])


def _equal(*arrays) -> bool:
    """Does each array equal the first within PROP_TOL (1 + |first|) atom by atom?"""
    return all(np.all(np.abs(a - arrays[0]) <= PROP_TOL * (1 + np.abs(arrays[0])))
               for a in arrays[1:])


@dataclass(frozen=True, eq=False)
class FactorDecomposition:
    """Per-atom factors g0, g1..gm whose product is the mixed integrand."""

    g0: np.ndarray
    g: tuple = field(default_factory=tuple)

    def integrand(self) -> np.ndarray:
        return math.prod(self.g, start=self.g0.copy())


def factor_decomposition(
    fv: FVector, P: DensityBundle, Q: DensityBundle, m: int
) -> FactorDecomposition:
    if not (0 <= m <= len(fv)):
        raise RangeMismatch(f"m must be in 0..{len(fv)}")
    slots = _mixed_slots(fv, P, Q)
    n, e = slots.n, 1.0 / slots.n
    return FactorDecomposition(g0=slots.power((i, e) for i in range(n - m)),
                               g=tuple(slots.power([(i, e)]) for i in range(n - m, n)))


def _check_tags_uniform(fv: FVector) -> None:
    # a linear entry is both convex and concave, so it mixes with either
    has_convex = any(f.is_convex and not f.is_concave for f in fv)
    has_concave = any(f.is_concave and not f.is_convex for f in fv)
    if has_convex and has_concave:
        raise MixedConvexityTags("generator vector mixes convex and concave entries")


def af_check(
    fv: FVector, P: DensityBundle, Q: DensityBundle, m: int
) -> InequalityVerdict:
    """Alexandrov-Fenchel type bound: D^m <= prod over the m substituted
    mixed divergences obtained by repeating the k-th tail slot (Hoelder's
    inequality on the m substituted integrands)."""
    n = len(fv)
    if not (1 <= m <= n):
        raise RangeMismatch(f"m must be in 1..{n}")
    _check_tags_uniform(fv)
    slots = _mixed_slots(fv, P, Q)
    lhs = _power(slots.value(slots.product()), m)
    tails = [list(range(n - m)) + [k] * m for k in range(n - m, n)]
    rhs = math.prod(slots.value(slots.product(idx)) for idx in tails)
    return _verdict(lhs, rhs, "le", lambda: {"effectively_proportional": _proportional(
        [slots.product(idx) for idx in tails], P.space)})


def jensen_bound_check(
    f: FFunction, p: Density, q: Density, s: MeasureSpace
) -> InequalityVerdict:
    """D_f(P, Q) >= f(1) for convex f; <= f(1) for concave f."""
    slots = _Slots.evaluate([(f, p.values, q.values)], s)
    relation = "ge" if f.is_convex else "le"
    return _verdict(slots.value(slots.w[0]), f.value_at_one, relation,
                    lambda: _jensen_diagnosis(f, p, q))


def _jensen_diagnosis(f, p, q) -> Optional[dict]:
    """Jensen's bound is tight for a strict f iff p = q."""
    return {"densities_equal": _equal(q.values, p.values)} if f.is_strict else None


def concave_chain_check(
    fv: FVector, P: DensityBundle, Q: DensityBundle
) -> tuple[InequalityVerdict, InequalityVerdict]:
    """D^n <= prod_i D_{f_i}(P_i, Q_i) <= prod_i f_i(1) for concave f_i; the
    left step is Hoelder's inequality on the slots' integrands."""
    n = len(fv)
    for f in fv:
        if not f.is_concave:
            raise NonConcaveTag("concave chain needs concave generators")
    slots = _mixed_slots(fv, P, Q)
    d_mixed = slots.value(slots.product())
    prod_classical = math.prod(slots.value(w) for w in slots.w)
    prod_ones = math.prod(f.value_at_one for f in fv)
    left = _verdict(_power(d_mixed, n), prod_classical, "le",
                    lambda: {"effectively_proportional": _proportional(slots.w, P.space)})
    return left, _verdict(prod_classical, prod_ones, "le")


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
    slots, w_i = _ith(f1, f2, P1, Q1, P2, Q2, i, n, s)
    d_i = slots.value(w_i)
    if i == j or i == k:
        return _verdict(d_i, d_i, "le")
    d_j, d_k = (slots.value(slots.ith(x, n)) for x in (j, k))
    rhs = d_j ** ((k - i) / (k - j)) * d_k ** ((i - j) / (k - j))
    return _verdict(d_i, rhs, "le", lambda: effective_proportionality(*slots.w, s))


class _Range(NamedTuple):
    """Where a corollary lets i lie, and how D(i)^n then compares with the
    endpoint bound: "le" on the band 0 <= i <= n, "ge" outside it."""

    holds: Callable  # (i, n) -> bool
    text: str
    relation: str
    draw: Callable  # (rng, n) -> the falsifier's random i in the range


_BAND = _Range(lambda i, n: 0 <= i <= n, "0 <= i <= n", "le",
               lambda rng, n: float(rng.uniform(0.0, n)))
_HIGH = _Range(lambda i, n: i >= n, "i >= n", "ge",
               lambda rng, n: float(n + rng.uniform(0.0, 3.0)))
_LOW = _Range(lambda i, n: i <= 0, "i <= 0", "ge",
              lambda rng, n: -float(rng.uniform(0.0, 3.0)))


class _Corollary(NamedTuple):
    """One endpoint corollary of the interpolation bound. The falsifier
    draws its instances from these same rules: generators with the tags
    f1 and f2 ask for, and i from the range."""

    f1: str  # "concave" | "convex": the tag f1 must carry
    f2: Optional[str]  # the tag f2 must carry; None leaves f2 free
    range: _Range
    reference: bool  # P2 = Q2 = mu, with mu a probability measure


_COROLLARIES = {
    "concave_band": _Corollary("concave", "concave", _BAND, False),
    "convex_concave_high": _Corollary("convex", "concave", _HIGH, False),
    "concave_convex_low": _Corollary("concave", "convex", _LOW, False),
    "reference_concave": _Corollary("concave", None, _BAND, True),
    "reference_convex_high": _Corollary("convex", None, _HIGH, True),
    "reference_concave_low": _Corollary("concave", None, _LOW, True),
}


def _pair_diagnosis(f1, f2, P1, Q1, P2, Q2, slots) -> Optional[dict]:
    """Equality for i other than 0 and n: strict generators need every
    density equal; for linear ones the bound is Hoelder's on the two slots'
    integrands a1 p1 + b1 q1 and a2 p2 + b2 q2."""
    if f1.convexity_tag == f2.convexity_tag == LINEAR:
        return {"linear_combinations_proportional": _proportional(slots.w, slots.space)}
    if not (f1.is_strict and f2.is_strict):
        return None
    return {"all_densities_equal": _equal(P1.values, Q1.values, P2.values, Q2.values)}


def _reference_diagnosis(f1, f2, P1, Q1, P2, Q2, slots) -> Optional[dict]:
    """As `_pair_diagnosis`, with mu's unit density as the second pair."""
    if f1.is_strict:
        return {"pair_equals_reference": _equal(1.0, P1.values, Q1.values)}
    if f1.convexity_tag == LINEAR:
        unit = np.ones(slots.space.size)
        return {"linear_combination_constant": _proportional((slots.w[0], unit), slots.space)}
    return None


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
    row = _COROLLARIES.get(case) if isinstance(case, str) else None
    if row is None:
        raise RangeMismatch(f"unknown corollary case {case!r}")
    if not row.reference and (P2 is None or Q2 is None):
        raise RangeMismatch("pair corollaries need the second density pair")
    if not (getattr(f1, f"is_{row.f1}") and (row.f2 is None or getattr(f2, f"is_{row.f2}"))):
        needs = f"f1 {row.f1}" + (f" and f2 {row.f2}" if row.f2 else "")
        raise TagMismatch(f"{case} needs {needs}")
    if not row.range.holds(i, n):
        raise RangeMismatch(f"{case} needs {row.range.text}")
    bound = _power(f1.value_at_one, i) * _power(f2.value_at_one, n - i)
    if row.reference:
        slots, w = _ith_reference(f1, P1, Q1, i, f2, s, n)
    else:
        slots, w = _ith(f1, f2, P1, Q1, P2, Q2, i, n, s)

    def diagnose():
        if row.reference and i == 0:  # the reference bound is exact at i = 0
            return None
        if i in (0, n):  # Jensen's bound on the pair whose exponent is 1
            return _jensen_diagnosis(f1, P1, Q1) if i == n else _jensen_diagnosis(f2, P2, Q2)
        by = _reference_diagnosis if row.reference else _pair_diagnosis
        return by(f1, f2, P1, Q1, P2, Q2, slots)
    return _verdict(_power(slots.value(w), n), bound, row.range.relation, diagnose)
