"""Divergence functionals: classical, mixed, order-changed, i-th mixed, and
the named families (total variation, KL, Hellinger, Renyi, Bhattacharyya).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .ffunctions import FFunction, FVector, adjoint, make_builtin, weighted_terms
from .measures import TOL_NORM, Density, DensityBundle, MeasureSpace

# Below this, a factor is treated as an exact zero instead of going through
# log-space (which would underflow).
_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class DivergenceReport:
    """Value plus the per-atom integrand it was summed from."""

    value: float
    integrand: np.ndarray
    convention_hits: int = 0


def _report(space: MeasureSpace, integrand: np.ndarray, hits: int = 0) -> DivergenceReport:
    value = float(np.dot(integrand, space.weights))
    if not math.isfinite(value):
        raise NonFiniteValue(f"divergence evaluates to {value!r}")
    return DivergenceReport(value=value, integrand=integrand, convention_hits=hits)


def _power(base: float, exponent: float) -> float:
    """base ** exponent for base >= 0, with typed errors for the two cases
    Python floats raise on: 0 to a negative power, and overflow."""
    if base == 0.0 and exponent < 0.0:
        raise DegenerateExponent("zero raised to a negative power")
    try:
        return base ** exponent
    except OverflowError as exc:
        raise NonFiniteValue(f"{base!r} ** {exponent!r} overflows") from exc


class _Slots:
    """The per-atom integrands w_i of one call's n slots, each evaluated once.

    log(w_i) and w_i ** (1/n) are computed lazily, at most once per slot.
    `product(idx)` is the per-atom geometric mean prod_{i in idx} w_i^(1/n)
    over any n slot indices (repeats allowed), in log-space when every chosen
    slot is above _LOG_FLOOR. Rows are accumulated in slot order, as numpy's
    axis-0 reductions of a stacked (n, atoms) array do, so the result matches
    exp(log(stack).sum(0) / n) and prod(stack ** (1/n), 0) bit for bit. (On a
    one-atom space with n >= 8, numpy sums the column pairwise instead, and
    the last bit can differ.)
    """

    def __init__(self, terms: list, hits: int = 0):
        self.w = terms
        self.n = len(terms)
        self.hits = hits
        self._safe = [w.min() > _LOG_FLOOR for w in terms]
        self._log = [None] * self.n
        self._root = [None] * self.n

    @classmethod
    def evaluate(cls, slots) -> "_Slots":
        """Slots from (f, p, q) triples via weighted_terms."""
        terms, hits = [], 0
        for f, p, q in slots:
            w, h = weighted_terms(f, p, q)
            terms.append(w)
            hits += h
        return cls(terms, hits)

    def _cached(self, cache: list, i: int, make):
        if cache[i] is None:
            cache[i] = make(self.w[i])
        return cache[i]

    def root(self, i: int) -> np.ndarray:
        return self._cached(self._root, i, lambda w: w ** (1.0 / self.n))

    def root_product(self, idx) -> np.ndarray:
        out = self.root(idx[0]).copy()
        for i in idx[1:]:
            out *= self.root(i)
        return out

    def product(self, idx=None) -> np.ndarray:
        idx = range(self.n) if idx is None else idx
        if not all(self._safe[i] for i in idx):
            return self.root_product(idx)
        out = self._cached(self._log, idx[0], np.log).copy()
        for i in idx[1:]:
            out += self._cached(self._log, i, np.log)
        out /= self.n
        return np.exp(out, out=out)


def _mixed_slots(fv: FVector, P: DensityBundle, Q: DensityBundle) -> _Slots:
    """The validated slots (f_i, p_i, q_i) of D(P, Q) for generators fv."""
    n = len(fv)
    if len(P) != n or len(Q) != n:
        raise LengthMismatch("generator vector and bundles must share one length")
    if P.space.size != Q.space.size:
        raise SpaceMismatch("bundles live on different spaces")
    return _Slots.evaluate((fv[i], P[i].values, Q[i].values) for i in range(n))


def classical_f_divergence(
    f: FFunction, p: Density, q: Density, s: MeasureSpace
) -> DivergenceReport:
    """D_f(P, Q) = sum_j f(p_j/q_j) q_j mu_j."""
    if len(p) != s.size or len(q) != s.size:
        raise SpaceMismatch("densities do not match the space size")
    terms, hits = weighted_terms(f, p.values, q.values)
    return _report(s, terms, hits)


def mixed_f_divergence(
    fv: FVector, P: DensityBundle, Q: DensityBundle
) -> DivergenceReport:
    """Geometric mean of the n weighted integrands, summed against mu."""
    slots = _mixed_slots(fv, P, Q)
    return _report(P.space, slots.product(), slots.hits)


def mixed_k_form(
    fv: FVector, P: DensityBundle, Q: DensityBundle, k: int
) -> DivergenceReport:
    """First k slots use (f_i, p_i, q_i); the rest use (f_i*, q_i, p_i)."""
    n = len(fv)
    if not (0 <= k <= n):
        raise IndexOutOfRange(f"k must be in 0..{n}, got {k}")
    if len(P) != n or len(Q) != n:
        raise LengthMismatch("generator vector and bundles must share one length")
    slots = _Slots.evaluate(
        (fv[i], P[i].values, Q[i].values) if i < k
        else (adjoint(fv[i]), Q[i].values, P[i].values)
        for i in range(n)
    )
    return _report(P.space, slots.product(), slots.hits)


def _powered_factor(w: np.ndarray, exponent: float) -> np.ndarray:
    if exponent == 0.0:
        return np.ones_like(w)
    if exponent < 0.0 and np.any(w == 0.0):
        raise DegenerateExponent("zero integrand factor raised to a negative power")
    return w ** exponent


def _ith_integrand(w1: np.ndarray, w2: np.ndarray, i: float, n: int) -> np.ndarray:
    return _powered_factor(w1, i / n) * _powered_factor(w2, (n - i) / n)


def ith_mixed(
    f1: FFunction,
    f2: FFunction,
    P1: Density,
    Q1: Density,
    P2: Density,
    Q2: Density,
    i: float,
    n: int,
    s: MeasureSpace,
) -> DivergenceReport:
    """Two-pair interpolation with exponents i/n and (n-i)/n."""
    if n < 1:
        raise IndexOutOfRange("n must be >= 1")
    w1, h1 = weighted_terms(f1, P1.values, Q1.values)
    w2, h2 = weighted_terms(f2, P2.values, Q2.values)
    return _report(s, _ith_integrand(w1, w2, i, n), h1 + h2)


def ith_mixed_reference(
    f1: FFunction,
    P1: Density,
    Q1: Density,
    i: float,
    f2: FFunction,
    s: MeasureSpace,
    n: int,
) -> DivergenceReport:
    """Reference form f2(1)^(1-i/n) * sum_j [f1(p_j/q_j) q_j]^(i/n) mu_j.

    Requires mu itself to be a probability measure.
    """
    if n < 1:
        raise IndexOutOfRange("n must be >= 1")
    if abs(s.total_mass - 1.0) > TOL_NORM * max(1.0, s.total_mass):
        raise NotProbabilitySpace(f"total mass {s.total_mass} != 1")
    w1, hits = weighted_terms(f1, P1.values, Q1.values)
    scale = _power(f2.value_at_one, 1.0 - i / n)
    integrand = scale * _powered_factor(w1, i / n)
    return _report(s, integrand, hits)


def _kl_qp_terms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """[p ln(q/p)]_+ per atom; a zero p atom contributes its limit 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = p * np.log(q / p)
    return np.maximum(np.where(p == 0.0, 0.0, t), 0.0)


def named_divergence(
    family: str, P: DensityBundle, Q: DensityBundle, *, alphas=None, alpha=None,
    kl_orientation: str = "pq",
) -> DivergenceReport | float:
    """Evaluate one of the named mixed families.

    family: "mixed_tv" | "mixed_kl" | "mixed_hellinger" | "mixed_renyi"
            | "bhattacharyya"
    kl_orientation: "pq" uses the generator form [p ln(p/q)]_+; "qp" uses
    the flipped integrand [p ln(q/p)]_+.
    """
    n = len(P)
    if family == "mixed_tv":
        fv = FVector([make_builtin("tv")] * n)
        return mixed_f_divergence(fv, P, Q)
    if family == "mixed_kl":
        if kl_orientation not in ("pq", "qp"):
            raise InvalidParameter(f"bad kl_orientation {kl_orientation!r}")
        fv = FVector([make_builtin("klplus")] * n)
        if kl_orientation == "pq":
            return mixed_f_divergence(fv, P, Q)
        slots = _Slots([_kl_qp_terms(P[i].values, Q[i].values) for i in range(n)])
        return _report(P.space, slots.product())
    if family == "mixed_hellinger":
        if alphas is None:
            raise InvalidParameter("mixed_hellinger needs alphas")
        fv = FVector([make_builtin("power", alpha=a) for a in alphas])
        return mixed_f_divergence(fv, P, Q)
    if family == "bhattacharyya":
        return named_divergence("mixed_hellinger", P, Q, alphas=[0.5] * n)
    if family == "mixed_renyi":
        if alpha is None:
            raise InvalidParameter("mixed_renyi needs alpha")
        if alpha == 1.0:
            raise RenyiUndefined("alpha = 1 is outside the Renyi family")
        hell = named_divergence("mixed_hellinger", P, Q, alphas=[alpha] * n)
        if hell.value <= 0.0:
            raise LogOfZero("Hellinger integral vanished; log undefined")
        return math.log(hell.value) / (alpha - 1.0)
    raise InvalidParameter(f"unknown divergence family {family!r}")
