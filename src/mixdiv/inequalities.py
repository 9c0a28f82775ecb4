"""Inequality checks for the mixed-divergence functionals.

Each check returns an InequalityVerdict with both sides, the signed slack
(nonnegative means satisfied), an equality flag and, only at equality, a
diagnosis of whether each step of the bound's proof (Hoelder's, then Jensen's)
is tight. A seeded random falsifier drives all checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
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
from .divergences import (
    _BUNDLES, _F12, _ONE_PAIR, _PAIR1, _PAIR2, _Check, _count, _ith, _ith_params, _ith_reference,
    _mixed_slots, _power, _Slots,
)
from .ffunctions import LINEAR, FFunction, FVector, _as_real
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
    if not math.isfinite(slack):  # as it is whenever lhs or rhs is NaN or +-inf
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


def _equal(x, y) -> bool:
    """Does y equal x within PROP_TOL (1 + |x|) atom by atom?"""
    return bool(np.all(np.abs(y - x) <= PROP_TOL * (1 + np.abs(x))))


def _tight(space: MeasureSpace, integrands, steps) -> Optional[dict]:
    """Is each step of a bound's proof tight? `integrands` are its ends';
    `steps` are the (f, p, q) of their Jensen steps D_f(p, q) against f(1),
    with p and q None for an end that is the constant f(1) itself.

    Hoelder's step needs two or more ends, and a Jensen step a pair. A null
    integrand makes every side vanish, so the bound is tight. Otherwise
    Hoelder's step is tight iff every two integrands are effectively
    proportional, and a Jensen step iff p = q for a strict f; it always is
    for a linear f, which adds no key. None when a step's generator is
    neither strict nor linear, or when no key is formed.
    """
    integrands = integrands if len(integrands) > 1 else ()
    steps = [(f, p, q) for f, p, q in steps if p is not None]
    if not all(f.is_strict or f.convexity_tag == LINEAR for f, _, _ in steps):
        return None
    null = any(np.all(np.abs(h) <= PROP_TOL) for h in integrands)
    strict = [(p, q) for f, p, q in steps if f.is_strict]
    diagnosis = {}
    if integrands:
        diagnosis["effectively_proportional"] = null or all(
            effective_proportionality(g, h, space)["proportional"]
            for j, g in enumerate(integrands) for h in integrands[j + 1:])
    if strict:
        diagnosis["densities_equal"] = null or all(_equal(q.values, p.values) for p, q in strict)
    return diagnosis or None


def _bound(slots: _Slots, lhs: float, relation: str, ends, steps=None) -> InequalityVerdict:
    """lhs against its proof's bound: Hoelder's step gives prod_k D(w_k)^e_k over
    the ends (w_k, e_k), each D(w_k) summed as its end is drawn (so a generator
    of ends sums each integrand while it is in cache); with each end's Jensen
    step (f_k, p_k, q_k) in `steps`, the bound goes on to prod_k f_k(1)^e_k. An
    end with e_k = 0 drops out with its step; `_tight` diagnoses the rest at equality."""
    kept, factors = [], []
    for (w, e), step in zip(ends, steps or repeat(None)):
        if e != 0:
            kept.append((w, step))
            factors.append(_power(slots.value(w) if step is None else step[0].value_at_one, e))
    return _verdict(lhs, math.prod(factors), relation, lambda: _tight(
        slots.space, [w for w, _ in kept], [step for _, step in kept if step is not None]))


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
    if not (_count(m) and 0 <= m <= len(fv)):
        raise RangeMismatch(f"m must be an integer in 0..{len(fv)}, got {m!r}")
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


def af_check(fv: FVector, P: DensityBundle, Q: DensityBundle, m: int) -> InequalityVerdict:
    """Alexandrov-Fenchel type bound: D^m <= prod over the m substituted
    mixed divergences obtained by repeating the k-th tail slot (Hoelder's
    inequality on the m substituted integrands)."""
    n = len(fv)
    if not (_count(m) and 1 <= m <= n):
        raise RangeMismatch(f"m must be an integer in 1..{n}, got {m!r}")
    _check_tags_uniform(fv)
    slots = _mixed_slots(fv, P, Q)
    lhs = _power(slots.value(slots.product()), m)
    head = list(range(n - m))
    return _bound(slots, lhs, "le", ((slots.product(head + [k] * m), 1) for k in range(n - m, n)))


def jensen_bound_check(f: FFunction, p: Density, q: Density, s: MeasureSpace) -> InequalityVerdict:
    """D_f(P, Q) >= f(1) for convex f; <= f(1) for concave f."""
    convex = f.is_convex
    if not (convex or f.is_concave):
        raise TagMismatch("jensen bound needs a convex or a concave generator")
    slots = _Slots.evaluate([(f, p.values, q.values)], s)
    return _bound(slots, slots.value(slots.w[0]), "ge" if convex else "le",
                  [(slots.w[0], 1)], [(f, p, q)])


def concave_chain_check(fv: FVector, P: DensityBundle,
                        Q: DensityBundle) -> tuple[InequalityVerdict, InequalityVerdict]:
    """D^n <= prod_i D_{f_i}(P_i, Q_i) <= prod_i f_i(1) for concave f_i; the
    left step is Hoelder's inequality on the slots' integrands."""
    n = len(fv)
    for f in fv:
        if not f.is_concave:
            raise NonConcaveTag("concave chain needs concave generators")
    slots = _mixed_slots(fv, P, Q)
    left = _bound(slots, _power(slots.value(slots.product()), n), "le", [(w, 1) for w in slots.w])
    return left, _verdict(left.rhs, math.prod(f.value_at_one for f in fv), "le")


def interpolation_check(f1: FFunction, f2: FFunction, P1: Density, Q1: Density, P2: Density,
                        Q2: Density, i: float, j: float, k: float, n: int,
                        s: MeasureSpace) -> InequalityVerdict:
    """Log-convexity of i -> D(P, Q; i): D(i) <= D(j)^((k-i)/(k-j)) D(k)^((i-j)/(k-j))."""
    i, j, k = _as_real(i, "i"), _as_real(j, "j"), _as_real(k, "k")
    lo, hi = min(j, k), max(j, k)
    if not (lo <= i <= hi):
        raise BadOrdering(f"i={i} is outside [{lo}, {hi}]")
    slots, w_i = _ith(f1, f2, P1, Q1, P2, Q2, _ith_params(i, n), n, s)
    # the ends are points of [j, k] with their exponents; at j or k the bound is D(i) itself
    ends = [(i, 1)] if i in (j, k) else [(j, (k - i) / (k - j)), (k, (i - j) / (k - j))]
    return _bound(slots, slots.value(w_i), "le", ((slots.ith(x, n), e) for x, e in ends))


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


def corollary_bound_check(case: str, f1: FFunction, f2: FFunction, P1: Density, Q1: Density,
                          i: float, n: int, s: MeasureSpace, P2: Optional[Density] = None,
                          Q2: Optional[Density] = None) -> InequalityVerdict:
    """The six endpoint corollaries of the interpolation bound.

    Pair cases (concave_band, convex_concave_high, concave_convex_low)
    need the second pair (P2, Q2); reference cases integrate against mu
    itself, need a probability space and take no second pair.
    """
    row = _COROLLARIES.get(case) if isinstance(case, str) else None
    if row is None:
        raise RangeMismatch(f"unknown corollary case {case!r}")
    if not row.reference and (P2 is None or Q2 is None):
        raise RangeMismatch("pair corollaries need the second density pair")
    if row.reference and (P2 is not None or Q2 is not None):
        raise RangeMismatch("reference corollaries take no second density pair")
    if not (getattr(f1, f"is_{row.f1}") and (row.f2 is None or getattr(f2, f"is_{row.f2}"))):
        needs = f"f1 {row.f1}" + (f" and f2 {row.f2}" if row.f2 else "")
        raise TagMismatch(f"{case} needs {needs}")
    i = _ith_params(i, n)
    if not row.range.holds(i, n):
        raise RangeMismatch(f"{case} needs {row.range.text}")
    if row.reference:  # the second end is the constant f2(1), with no pair to take Jensen's step on
        slots, w = _ith_reference(f1, P1, Q1, i, f2, s, n)
        second, step = np.full(s.size, f2.value_at_one), (f2, None, None)
    else:
        slots, w = _ith(f1, f2, P1, Q1, P2, Q2, i, n, s)
        second, step = slots.w[1], (f2, P2, Q2)
    return _bound(slots, _power(slots.value(w), n), row.range.relation,
                  [(slots.w[0], i), (second, n - i)], [(f1, P1, Q1), step])


_CHECKS = {
    "af": _Check(af_check, _BUNDLES | {"m": "int"}),
    "jensen": _Check(jensen_bound_check, _ONE_PAIR),
    "concave_chain": _Check(concave_chain_check, _BUNDLES),
    "interpolation": _Check(interpolation_check, _F12 | _PAIR1 | _PAIR2 | {
        "i": "real", "j": "real", "k": "real", "n": "int", "s": "space"}),
    "corollary": _Check(corollary_bound_check, {"case": "str"} | _F12 | _PAIR1 | {
        "i": "real", "n": "int", "s": "space"} | _PAIR2, tuple(_PAIR2)),
}
