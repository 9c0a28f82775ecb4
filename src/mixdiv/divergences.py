"""Divergence functionals: classical, mixed, order-changed, i-th mixed, and
the named families (total variation, KL, Hellinger, Renyi, Bhattacharyya).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DegenerateExponent,
    IndexOutOfRange,
    InvalidParameter,
    LengthMismatch,
    LogOfZero,
    NonFiniteValue,
    NotProbabilitySpace,
    RenyiUndefined,
    SpaceMismatch,
)
from .ffunctions import (FFunction, FVector, _as_real, _Registry, adjoint, make_builtin,
                         weighted_terms)
from .measures import TOL_NORM, Density, DensityBundle, MeasureSpace


@dataclass(frozen=True, eq=False)
class DivergenceReport:
    """Value plus the per-atom integrand it was summed from."""

    value: float
    integrand: np.ndarray
    convention_hits: int = 0


def _power(base: float, exponent: float) -> float:
    """base ** exponent for base >= 0, with typed errors for the two cases
    Python floats raise on: 0 to a negative power, and overflow."""
    if base == 0.0 and exponent < 0.0:
        raise DegenerateExponent("zero raised to a negative power")
    try:
        return base ** exponent
    except OverflowError as exc:
        raise NonFiniteValue(f"{base!r} ** {exponent!r} overflows") from exc


def _count(x) -> bool:
    """Is x an integer count: an Integral (numpy integers too), but not a bool?"""
    return type(x) is int or (isinstance(x, Integral) and not isinstance(x, bool))


def _ith_params(i, n) -> float:
    """i as a float, once n is checked: IndexOutOfRange unless n is a count
    >= 1, then InvalidParameter unless i is a real (a bool is not one)."""
    if not (_count(n) and n >= 1):
        raise IndexOutOfRange(f"n must be an integer >= 1, got {n!r}")
    return _as_real(i, "i")


class _Slots:
    """The per-atom integrands w_i of one call's n slots, each evaluated once,
    on one space, with the 0*inf convention hits of their evaluation.

    Every integrand is an ordered product of powers w_i ** e (`power`). Roots
    (e = 1/n) recur across products and are kept for the call. `product(idx)`
    is the per-atom geometric mean prod_{i in idx} w_i^(1/n) over any n slot
    indices (repeats allowed). Factors are multiplied in slot order, as numpy's
    axis-0 product of a stacked (n, atoms) array does, so the result matches
    prod(stack ** (1/n), 0) bit for bit.
    """

    def __init__(self, terms, space: MeasureSpace, hits: int = 0):
        self.w = terms
        self.n = len(terms)
        self.space = space
        self.hits = hits
        self._memo = {}

    @classmethod
    def evaluate(cls, slots, space: MeasureSpace) -> "_Slots":
        """Slots from (f, p, q) triples via weighted_terms, after checking each
        p and q against the space size."""
        slots, size = list(slots), space.size
        for _, p, q in slots:
            if len(p) != size or len(q) != size:
                raise SpaceMismatch("densities do not match the space size")
        w, hits = zip(*[weighted_terms(f, p, q) for f, p, q in slots])
        return cls(w, space, sum(hits))

    def value(self, integrand: np.ndarray) -> float:
        """The integrand summed against mu; NonFiniteValue on NaN or +-inf."""
        value = float(np.dot(integrand, self.space.weights))
        if not math.isfinite(value):
            raise NonFiniteValue(f"divergence evaluates to {value!r}")
        return value

    def report(self, integrand: np.ndarray) -> DivergenceReport:
        return DivergenceReport(self.value(integrand), integrand, self.hits)

    def _term(self, i: int, e: float) -> np.ndarray:
        """w_i ** e; DegenerateExponent for a zero factor under a negative e."""
        t = self._memo.get((i, e))
        if t is None:
            w = self.w[i]
            if e < 0.0 and (w == 0.0).any():
                raise DegenerateExponent("zero integrand factor raised to a negative power")
            t = w ** e
            if e == 1.0 / self.n:  # other powers are used once: not held
                self._memo[i, e] = t
        return t

    def power(self, pairs) -> np.ndarray:
        """prod of w_i ** e over (slot, exponent) pairs, in order; a zero exponent
        gives 1. The result may be a kept root: callers never write into it."""
        factors = [self._term(i, e) for i, e in pairs if e != 0.0]
        if len(factors) < 2:
            return factors[0] if factors else np.ones(self.space.size)
        out = factors[0] * factors[1]
        for x in factors[2:]:
            out *= x
        return out

    def ith(self, i: float, n: int) -> np.ndarray:
        """The i-th mixed integrand w_0^(i/n) w_1^((n-i)/n)."""
        return self.power(((0, i / n), (1, (n - i) / n)))

    def product(self, idx=None) -> np.ndarray:
        idx = range(self.n) if idx is None else idx
        return self.power((i, 1.0 / self.n) for i in idx)


def _mixed_slots(fv: FVector, P: DensityBundle, Q: DensityBundle, k=math.inf) -> _Slots:
    """Validated slots of D(P, Q): (f_i, p_i, q_i) for i < k, else (f_i*, q_i, p_i)."""
    n = len(fv)
    if len(P) != n or len(Q) != n:
        raise LengthMismatch("generator vector and bundles must share one length")
    return _Slots.evaluate((
        (fv[i], P[i].values, Q[i].values) if i < k
        else (adjoint(fv[i]), Q[i].values, P[i].values)
        for i in range(n)
    ), P.space)


def classical_f_divergence(f: FFunction, p: Density, q: Density,
                           s: MeasureSpace) -> DivergenceReport:
    """D_f(P, Q) = sum_j f(p_j/q_j) q_j mu_j."""
    slots = _Slots.evaluate([(f, p.values, q.values)], s)
    return slots.report(slots.w[0])


def mixed_f_divergence(fv: FVector, P: DensityBundle, Q: DensityBundle) -> DivergenceReport:
    """Geometric mean of the n weighted integrands, summed against mu."""
    slots = _mixed_slots(fv, P, Q)
    return slots.report(slots.product())


def mixed_k_form(fv: FVector, P: DensityBundle, Q: DensityBundle, k: int) -> DivergenceReport:
    """First k slots use (f_i, p_i, q_i); the rest use (f_i*, q_i, p_i)."""
    if not (_count(k) and 0 <= k <= len(fv)):
        raise IndexOutOfRange(f"k must be an integer in 0..{len(fv)}, got {k!r}")
    slots = _mixed_slots(fv, P, Q, k)
    return slots.report(slots.product())


def ith_mixed(f1: FFunction, f2: FFunction, P1: Density, Q1: Density, P2: Density, Q2: Density,
              i: float, n: int, s: MeasureSpace) -> DivergenceReport:
    """Two-pair interpolation with exponents i/n and (n-i)/n."""
    slots, integrand = _ith(f1, f2, P1, Q1, P2, Q2, _ith_params(i, n), n, s)
    return slots.report(integrand)


def _ith(f1, f2, P1, Q1, P2, Q2, i, n, s) -> tuple[_Slots, np.ndarray]:
    """The two pairs' slots and their i-th mixed integrand, for i and n
    that _ith_params has read."""
    slots = _Slots.evaluate([(f1, P1.values, Q1.values), (f2, P2.values, Q2.values)], s)
    return slots, slots.ith(i, n)


def ith_mixed_reference(f1: FFunction, P1: Density, Q1: Density, i: float, f2: FFunction,
                        s: MeasureSpace, n: int) -> DivergenceReport:
    """Reference form f2(1)^(1-i/n) * sum_j [f1(p_j/q_j) q_j]^(i/n) mu_j.

    Requires mu itself to be a probability measure.
    """
    slots, integrand = _ith_reference(f1, P1, Q1, _ith_params(i, n), f2, s, n)
    return slots.report(integrand)


def _ith_reference(f1, P1, Q1, i, f2, s, n) -> tuple[_Slots, np.ndarray]:
    """The pair's slot and the reference-form integrand, for i and n that
    _ith_params has read."""
    if abs(s.total_mass - 1.0) > TOL_NORM * max(1.0, s.total_mass):
        raise NotProbabilitySpace(f"total mass {s.total_mass} != 1")
    slots = _Slots.evaluate([(f1, P1.values, Q1.values)], s)
    scale = _power(f2.value_at_one, 1.0 - i / n)
    return slots, scale * slots.power([(0, i / n)])


class _Check(NamedTuple):
    """A compute or verify task type: its function and the task's fields in
    the function's argument order, name -> kind: "generator", "generators",
    "density", "densities", "real", "reals", "int", "str", or "space" (the
    task's space, not a field). The `optional` fields, last, are all given or none."""

    check: Callable
    fields: dict
    optional: tuple = ()

    def results(self, space: MeasureSpace, task: dict) -> list:
        """The function's results on the task's objects by field, as a list;
        an absent field is None."""
        out = self.check(*[space if kind == "space" else task.get(name)
                           for name, kind in self.fields.items()])
        return list(out) if isinstance(out, tuple) else [out]


_ONE_PAIR = {"f": "generator", "p": "density", "q": "density", "s": "space"}
_PS_QS = {"ps": "densities", "qs": "densities"}
_BUNDLES = {"fs": "generators"} | _PS_QS
_F12 = {"f1": "generator", "f2": "generator"}
_PAIR1, _PAIR2 = ({f"p{k}": "density", f"q{k}": "density"} for k in "12")
# the compute task types but `named`, which reads its family's row of _NAMED
_FUNCTIONALS = {
    "classical": _Check(classical_f_divergence, _ONE_PAIR),
    "mixed": _Check(mixed_f_divergence, _BUNDLES),
    "k_form": _Check(mixed_k_form, _BUNDLES | {"k": "int"}),
    "ith": _Check(ith_mixed, _F12 | _PAIR1 | _PAIR2 | {"i": "real", "n": "int", "s": "space"}),
    "ith_reference": _Check(ith_mixed_reference, {"f1": "generator"} | _PAIR1 | {
        "i": "real", "f2": "generator", "s": "space", "n": "int"}),
}


def _uniform(kind: str, P: DensityBundle, Q: DensityBundle, **params) -> DivergenceReport:
    """The mixed divergence with kind's generator in every slot."""
    return mixed_f_divergence(FVector([make_builtin(kind, **params)] * len(P)), P, Q)


def _mixed_kl(P: DensityBundle, Q: DensityBundle, kl_orientation=None) -> DivergenceReport:
    """"pq" (the default) sums [p ln(p/q)]_+, klplus's weighted terms; "qp"
    sums p [ln(q/p)]_+, logplus's weighted terms on the swapped bundles."""
    if kl_orientation not in (None, "pq", "qp"):
        raise InvalidParameter(f"bad kl_orientation {kl_orientation!r}")
    return _uniform("logplus", Q, P) if kl_orientation == "qp" else _uniform("klplus", P, Q)


def _mixed_hellinger(P: DensityBundle, Q: DensityBundle, alphas=None) -> DivergenceReport:
    if not np.iterable(alphas):  # a missing one (None) too
        raise InvalidParameter(f"mixed_hellinger needs a sequence of alphas, got {alphas!r}")
    return mixed_f_divergence(FVector([make_builtin("power", alpha=a) for a in alphas]), P, Q)


def _mixed_renyi(P: DensityBundle, Q: DensityBundle, alpha=None) -> float:
    if alpha is None:
        raise InvalidParameter("mixed_renyi needs alpha")
    f = make_builtin("power", alpha=alpha)  # alpha a real, as any generator parameter
    if f.alpha == 1.0:
        raise RenyiUndefined("alpha = 1 is outside the Renyi family")
    hell = mixed_f_divergence(FVector([f] * len(P)), P, Q).value
    if hell <= 0.0:
        raise LogOfZero("Hellinger integral vanished; log undefined")
    return math.log(hell) / (f.alpha - 1.0)


# each named family is a mixed divergence; its parameter, if any, is an optional field
_NAMED = _Registry(
    "divergence family",
    mixed_tv=_Check(lambda P, Q: _uniform("tv", P, Q), _PS_QS),
    mixed_kl=_Check(_mixed_kl, _PS_QS | {"kl_orientation": "str"}, ("kl_orientation",)),
    mixed_hellinger=_Check(_mixed_hellinger, _PS_QS | {"alphas": "reals"}, ("alphas",)),
    bhattacharyya=_Check(lambda P, Q: _uniform("power", P, Q, alpha=0.5), _PS_QS),
    mixed_renyi=_Check(_mixed_renyi, _PS_QS | {"alpha": "real"}, ("alpha",)),
)


def named_divergence(family: str, P: DensityBundle, Q: DensityBundle,
                     **params) -> DivergenceReport | float:
    """The named family's divergence, by its row of _NAMED: "mixed_tv", "mixed_kl"
    (kl_orientation "pq" or "qp"), "mixed_hellinger" (alphas), "bhattacharyya" or
    "mixed_renyi" (alpha; a bare float). A parameter the family does not take is refused."""
    row = _NAMED.row(family)
    if not params.keys() <= set(row.optional):
        raise InvalidParameter(f"{family} takes {list(row.optional)}, got {sorted(params)}")
    return row.check(P, Q, **params)
