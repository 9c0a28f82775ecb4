"""Divergence functionals: classical, mixed, order-changed, i-th mixed, and
the named families (total variation, KL, Hellinger, Renyi, Bhattacharyya).
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, NamedTuple, Optional

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
    _given,
)
from .ffunctions import (FFunction, FVector, _as_real, _positive, _Registry, adjoint,
                         from_spec, make_builtin, weighted_terms)
from .measures import TOL_NORM, Density, DensityBundle, MeasureSpace, _measure_space, _sequence


@dataclass(frozen=True, eq=False)
class DivergenceReport:
    """Value plus the per-atom integrand it was summed from."""

    value: float
    integrand: np.ndarray
    convention_hits: int = 0


def _count(x) -> bool:
    """Is x an integer count: an Integral (numpy integers too), but not a bool?"""
    return type(x) is int or (isinstance(x, Integral) and not isinstance(x, bool))


def _check_n(n) -> None:
    """IndexOutOfRange unless n is a count >= 1."""
    if not (_count(n) and n >= 1):
        raise IndexOutOfRange(f"n must be an integer >= 1, got {n!r}")


def _fourth_root(w: np.ndarray) -> np.ndarray:
    t = np.sqrt(w)
    return np.sqrt(t, out=t)


# w ** e for the roots e = 1/n of n = 2, 3, 4 slots, by numpy's exact and fast
# root functions instead of its pow; keyed on the exponent's value
_ROOTS = {0.5: np.sqrt, 1.0 / 3.0: np.cbrt, 0.25: _fourth_root}


class _Slots:
    """The per-atom integrands w_i of one call's n slots, each evaluated once,
    on one space, with the 0*inf convention hits of their evaluation.

    `w` holds the integrands as the rows of one (n, atoms) block. Every
    integrand is an ordered product of powers w_i ** e (`power`). Roots
    (e = 1/n) recur across products and are kept for the call. `product(idx)`
    is the per-atom geometric mean prod_{i in idx} w_i^(1/n) over any n slot
    indices (repeats allowed). Factors are multiplied in slot order, as numpy's
    axis-0 product of a stacked (n, atoms) array does. A power w_i ** e is
    taken by `_ROOTS` for e = 1/2, 1/3 and 1/4 (sqrt, cbrt, sqrt twice), and
    by numpy's ** for every other e; so products of roots for n = 3 and 4
    differ in their last bits from prod(stack ** (1/n), 0), which rounds the
    exponent 1/3 and takes pow.
    """

    def __init__(self, terms, space: MeasureSpace, hits: int = 0):
        self.w = terms
        self.n = len(terms)
        self.space = space
        self.hits = hits
        self._memo = {}

    @classmethod
    def evaluate(cls, slots, space: MeasureSpace) -> "_Slots":
        """Slots from (f, P, Q) triples of guarded arguments, written into the
        rows of one block: q f(p/q) by weighted_terms for Densities P and Q,
        each checked against the space size first, and the constant f(1) for
        P = Q = None, the pair (mu, mu), whose row is filled, not evaluated.
        InvalidParameter for a pair of which only one half is None."""
        slots, size = list(slots), space.size
        for f, P, Q in slots:
            if (P is None) != (Q is None):
                raise InvalidParameter("a density pair is two Densities, or (mu, mu) as None, None")
            if P is not None and (len(P) != size or len(Q) != size):
                raise SpaceMismatch("densities do not match the space size")
        block, hits = np.empty((len(slots), size)), 0
        for w, (f, P, Q) in zip(block, slots):
            if P is None:
                w.fill(f.value_at_one)
            else:
                hits += weighted_terms(f, P.values, Q.values, w)[1]
        return cls(tuple(block), space, hits)

    def value(self, integrand: np.ndarray) -> float:
        """The integrand summed against mu; NonFiniteValue on NaN or +-inf."""
        value = float(np.dot(integrand, self.space.weights))
        if not math.isfinite(value):
            raise NonFiniteValue(f"divergence evaluates to {value!r}")
        return value

    def report(self, integrand: np.ndarray) -> DivergenceReport:
        return DivergenceReport(self.value(integrand), integrand, self.hits)

    def _term(self, i: int, e: float) -> np.ndarray:
        """w_i ** e; DegenerateExponent for a zero factor under a negative e.

        numpy's pow is slow on exact zeros, so a slot with one is powered
        through a positive stand-in, 1 at each zero, whose power is set back
        to 0 there: bit for bit w_i ** e. A root needs no stand-in."""
        t = self._memo.get((i, e))
        if t is None:
            w, root = self.w[i], _ROOTS.get(e)
            if root is not None:
                t = root(w)
            elif _positive(w):
                t = w ** e
            else:
                zero = w == 0.0
                if e < 0.0 and zero.any():
                    raise DegenerateExponent("zero integrand factor raised to a negative power")
                t = w + zero
                t **= e
                np.copyto(t, 0.0, where=zero)
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
    """Validated slots of D(P, Q) from guarded arguments: (f_i, p_i, q_i) for
    i < k, else (f_i*, q_i, p_i)."""
    n = len(fv)
    if len(P) != n or len(Q) != n:
        raise LengthMismatch("generator vector and bundles must share one length")
    if Q.space is not P.space and not np.array_equal(Q.space.weights, P.space.weights):
        raise SpaceMismatch("bundles P and Q lie on different spaces")
    return _Slots.evaluate(((fv[i], P[i], Q[i]) if i < k else (adjoint(fv[i]), Q[i], P[i])
                            for i in range(n)), P.space)


class _Check(NamedTuple):
    """A compute or verify task type: its function and the task's fields in
    the function's argument order, name -> kind, each kind a row of
    _FIELD_KINDS ("space" is the task's space, not a field). The function is
    guarded (`_guarded`): called directly or through `results`, it guards
    each argument by its field's kind before its body runs. The `optional`
    fields are all given or none; they need not come last (a geometry
    `orientation` comes before its `grid`)."""

    check: Callable
    fields: dict
    optional: tuple = ()

    def results(self, space: MeasureSpace, task: dict) -> list:
        """The function's results on the task's objects by field, as a list;
        an absent field is None."""
        out = self.check(*[space if kind == "space" else task.get(name)
                           for name, kind in self.fields.items()])
        return list(out) if isinstance(out, tuple) else [out]


# converters of a spec's JSON values, for the table's read column and the CLI:
# each returns the value as its type or raises TypeError, which the CLI's spec
# reader reports as a SpecError
def _is(kind):
    """A converter that passes a value of the given type and rejects others."""
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {kind.__name__}")
        return value
    return check


_LIST, _STR = _is(list), _is(str)


def _int(value) -> int:
    """A JSON integer, or a float with an integral value; not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise TypeError("expected an integer")
    return int(value)


def _real(value) -> float:
    """A JSON number: an int or a float; not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a real")
    return float(value)


def _reals(value) -> list:
    return [_real(x) for x in _LIST(value)]


class _FieldKind(NamedTuple):
    """One kind of argument: how it is guarded where it enters the library,
    read from a spec task and written into a witness spec."""

    guard: Optional[Callable]  # (x, key) -> x, converted where callers rely on it; None: no guard
    read: Callable  # (task reader, key) -> the object
    # (key, x, densities) -> x's spec value; a density is named into densities
    write: Callable = lambda key, x, densities: x


def _write_density(key, d, densities) -> str:
    """d named `key` in the witness's densities: its spec value is the name."""
    densities[key] = [float(v) for v in d.values]
    return key


_FIELD_KINDS = {
    "generator": _FieldKind(lambda f, key: _given(f, FFunction),
                            lambda r, key: from_spec(r.get(key)), lambda key, f, _: f.describe()),
    # a list or tuple of generators becomes an FVector
    "generators": _FieldKind(
        lambda fv, key: fv if isinstance(fv, FVector) else FVector(_sequence(fv, key)),
        lambda r, key: FVector(map(from_spec, r.get(key, _LIST))),
        lambda key, fv, _: [f.describe() for f in fv]),
    # None only as half of the pair (mu, mu); the slot kernel checks the other half
    "density": _FieldKind(lambda d, key: d if d is None else _given(d, Density),
                          lambda r, key: r.ref(key), _write_density),
    # the members of ps are named p0, p1, ...
    "densities": _FieldKind(
        lambda P, key: _given(P, DensityBundle),
        lambda r, key: DensityBundle(r.space, tuple(r.refs(key))),
        lambda key, P, densities: [_write_density(f"{key[:-1]}{j}", d, densities)
                                   for j, d in enumerate(P)]),
    "real": _FieldKind(_as_real, lambda r, key: r.get(key, _real)),
    "reals": _FieldKind(lambda xs, key: [_as_real(x, key) for x in _sequence(xs, key)],
                        lambda r, key: r.get(key, _reals)),
    # a count or a name: its range is checked where it is used
    "int": _FieldKind(None, lambda r, key: r.get(key, _int)),
    "str": _FieldKind(None, lambda r, key: r.get(key, _STR)),
    "space": _FieldKind(lambda s, key: _measure_space(s), lambda r, key: r.space),
}


def _guarded(fields: dict, optional: tuple = ()):
    """Decorator: the function guarded by its fields' kinds, each argument in
    order before its body runs, carrying its _Check row as `row`. Fields map
    to the function's parameters by position, once here, so a keyword
    argument is guarded by its parameter's field; a kind without a guard
    passes its argument as given."""
    def wrap(fn):
        names = list(inspect.signature(fn).parameters)
        guards = {name: (_FIELD_KINDS[kind].guard, key)
                  for name, (key, kind) in zip(names, fields.items()) if _FIELD_KINDS[kind].guard}
        positions = [(i, *guards[name]) for i, name in enumerate(names) if name in guards]

        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            args = list(args)
            for i, check, key in positions:
                if i < len(args):
                    args[i] = check(args[i], key)
            for name in kwargs.keys() & guards.keys():
                check, key = guards[name]
                kwargs[name] = check(kwargs[name], key)
            return fn(*args, **kwargs)

        guarded.row = _Check(guarded, fields, optional)
        return guarded
    return wrap


_ONE_PAIR = {"f": "generator", "p": "density", "q": "density", "s": "space"}
_PS_QS = {"ps": "densities", "qs": "densities"}
_BUNDLES = {"fs": "generators"} | _PS_QS
_F12 = {"f1": "generator", "f2": "generator"}
_PAIR1, _PAIR2 = ({f"p{k}": "density", f"q{k}": "density"} for k in "12")


@_guarded(_ONE_PAIR)
def classical_f_divergence(f: FFunction, p: Density, q: Density,
                           s: MeasureSpace) -> DivergenceReport:
    """D_f(P, Q) = sum_j f(p_j/q_j) q_j mu_j."""
    slots = _Slots.evaluate([(f, p, q)], s)
    return slots.report(slots.w[0])


@_guarded(_BUNDLES)
def mixed_f_divergence(fv: FVector, P: DensityBundle, Q: DensityBundle) -> DivergenceReport:
    """Geometric mean of the n weighted integrands, summed against mu."""
    slots = _mixed_slots(fv, P, Q)
    return slots.report(slots.product())


@_guarded(_BUNDLES | {"k": "int"})
def mixed_k_form(fv: FVector, P: DensityBundle, Q: DensityBundle, k: int) -> DivergenceReport:
    """First k slots use (f_i, p_i, q_i); the rest use (f_i*, q_i, p_i)."""
    if not (_count(k) and 0 <= k <= len(fv)):
        raise IndexOutOfRange(f"k must be an integer in 0..{len(fv)}, got {k!r}")
    slots = _mixed_slots(fv, P, Q, k)
    return slots.report(slots.product())


@_guarded(_F12 | _PAIR1 | _PAIR2 | {"i": "real", "n": "int", "s": "space"})
def ith_mixed(f1: FFunction, f2: FFunction, P1: Density, Q1: Density, P2: Optional[Density],
              Q2: Optional[Density], i: float, n: int, s: MeasureSpace) -> DivergenceReport:
    """Two-pair interpolation with exponents i/n and (n-i)/n. P2 = Q2 = None
    is the pair (mu, mu), on a probability space: the reference form."""
    slots, integrand = _ith(f1, f2, P1, Q1, P2, Q2, i, n, s)
    return slots.report(integrand)


def _ith(f1, f2, P1, Q1, P2, Q2, i, n, s) -> tuple[_Slots, np.ndarray]:
    """The two pairs' slots and their i-th mixed integrand, from guarded
    arguments; IndexOutOfRange unless n is a count >= 1, then
    NotProbabilitySpace for the second pair (mu, mu) unless mu has mass 1."""
    _check_n(n)
    if P2 is None and Q2 is None:
        mass = s.total_mass
        if abs(mass - 1.0) > TOL_NORM * max(1.0, mass):
            raise NotProbabilitySpace(f"total mass {mass} != 1")
    slots = _Slots.evaluate([(f1, P1, Q1), (f2, P2, Q2)], s)
    return slots, slots.ith(i, n)


@_guarded({"f1": "generator"} | _PAIR1 | {
    "i": "real", "f2": "generator", "s": "space", "n": "int"})
def ith_mixed_reference(f1: FFunction, P1: Density, Q1: Density, i: float, f2: FFunction,
                        s: MeasureSpace, n: int) -> DivergenceReport:
    """Reference form f2(1)^(1-i/n) * sum_j [f1(p_j/q_j) q_j]^(i/n) mu_j: the
    i-th mixed divergence whose second pair is (mu, mu).

    Requires mu itself to be a probability measure.
    """
    return ith_mixed(f1, f2, P1, Q1, None, None, i, n, s)


# the compute task types but `named`, which reads its family's row of _NAMED
_FUNCTIONALS = {"classical": classical_f_divergence.row, "mixed": mixed_f_divergence.row,
                "k_form": mixed_k_form.row, "ith": ith_mixed.row,
                "ith_reference": ith_mixed_reference.row}


def _uniform(kind: str, P: DensityBundle, Q: DensityBundle, **params) -> DivergenceReport:
    """The mixed divergence with kind's generator in every slot."""
    return mixed_f_divergence(FVector([make_builtin(kind, **params)] * len(P)), P, Q)


def _mixed_kl(P: DensityBundle, Q: DensityBundle, kl_orientation) -> DivergenceReport:
    """"pq" (the default, None) sums [p ln(p/q)]_+, klplus's weighted terms; "qp"
    sums p [ln(q/p)]_+, logplus's weighted terms on the swapped bundles."""
    if kl_orientation not in (None, "pq", "qp"):
        raise InvalidParameter(f"bad kl_orientation {kl_orientation!r}")
    return _uniform("logplus", Q, P) if kl_orientation == "qp" else _uniform("klplus", P, Q)


def _mixed_hellinger(P: DensityBundle, Q: DensityBundle, alphas) -> DivergenceReport:
    return mixed_f_divergence(FVector([make_builtin("power", alpha=a) for a in alphas]), P, Q)


def _mixed_renyi(P: DensityBundle, Q: DensityBundle, alpha) -> float:
    if alpha == 1.0:
        raise RenyiUndefined("alpha = 1 is outside the Renyi family")
    hell = _uniform("power", P, Q, alpha=alpha).value
    if hell <= 0.0:
        raise LogOfZero("Hellinger integral vanished; log undefined")
    return math.log(hell) / (alpha - 1.0)


# each named family is a mixed divergence; its parameter, if any, is an optional
# field, passed as None when it is not given
_NAMED = _Registry(
    "divergence family",
    mixed_tv=_guarded(_PS_QS)(lambda P, Q: _uniform("tv", P, Q)).row,
    mixed_kl=_guarded(_PS_QS | {"kl_orientation": "str"}, ("kl_orientation",))(_mixed_kl).row,
    mixed_hellinger=_guarded(_PS_QS | {"alphas": "reals"}, ("alphas",))(_mixed_hellinger).row,
    bhattacharyya=_guarded(_PS_QS)(lambda P, Q: _uniform("power", P, Q, alpha=0.5)).row,
    mixed_renyi=_guarded(_PS_QS | {"alpha": "real"}, ("alpha",))(_mixed_renyi).row,
)


def named_divergence(family: str, P: DensityBundle, Q: DensityBundle,
                     **params) -> DivergenceReport | float:
    """The named family's divergence, by its row of _NAMED, which guards P, Q
    and the parameter: "mixed_tv", "mixed_kl" (kl_orientation "pq" or "qp"),
    "mixed_hellinger" (alphas), "bhattacharyya" or "mixed_renyi" (alpha; a
    bare float). A parameter the family does not take is refused."""
    row = _NAMED.row(family)
    if not params.keys() <= set(row.optional):
        raise InvalidParameter(f"{family} takes {list(row.optional)}, got {sorted(params)}")
    return row.check(P, Q, *map(params.get, row.optional))
