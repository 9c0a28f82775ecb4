"""Divergence generators f: (0, inf) -> [0, inf).

Each generator is a closed parametric variant so that the *-adjoint
f*(t) = t f(1/t), the value f(1), and the endpoint limits are exact.
Supported variants: total variation |t-1|, [t ln t]_+, [ln t]_+, powers
t^alpha, nonnegative linear a t + b, nonnegative scalings, and a generic
adjoint wrapper for variants without a closed-form adjoint. Each variant is
one entry of the registry _KINDS, which FFunction, make_builtin, adjoint and
from_spec read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from numbers import Real
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DomainError, IndeterminateValue, InvalidParameter

CONVEX = "convex"
STRICTLY_CONVEX = "strictly_convex"
CONCAVE = "concave"
STRICTLY_CONCAVE = "strictly_concave"
LINEAR = "linear"
NEITHER = "neither"  # neither convex nor concave

_CONVEX_TAGS = {CONVEX, STRICTLY_CONVEX, LINEAR}
_CONCAVE_TAGS = {CONCAVE, STRICTLY_CONCAVE, LINEAR}


@dataclass(frozen=True)
class FFunction:
    """A tagged generator with exact adjoint bookkeeping.

    kind names its family in the generator registry: "tv", "klplus",
    "logplus", "power", "linear", "scaled" or "adjoint".
    """

    kind: str
    alpha: float = 0.0
    a: float = 0.0
    b: float = 0.0
    lam: float = 1.0
    inner: Optional["FFunction"] = None

    # -- evaluation ---------------------------------------------------------

    def __call__(self, t):
        """Evaluate on a positive scalar or array; no domain checks."""
        t = np.asarray(t, dtype=float)
        out = _KINDS[self.kind].eval(self, t)
        return out if t.ndim else float(out)

    # -- derived attributes -------------------------------------------------

    @property
    def convexity_tag(self) -> str:
        return _KINDS[self.kind].tag(self)

    @property
    def is_convex(self) -> bool:
        return self.convexity_tag in _CONVEX_TAGS

    @property
    def is_concave(self) -> bool:
        return self.convexity_tag in _CONCAVE_TAGS

    @property
    def is_strict(self) -> bool:
        return self.convexity_tag in (STRICTLY_CONVEX, STRICTLY_CONCAVE)

    @property
    def value_at_one(self) -> float:
        return _KINDS[self.kind].at_one(self)

    @property
    def limit_at_zero(self) -> float:
        """lim_{t->0+} f(t); may be math.inf."""
        return _KINDS[self.kind].at_zero(self)

    @property
    def slope_at_infinity(self) -> float:
        """lim_{t->inf} f(t)/t; may be math.inf."""
        return _KINDS[self.kind].slope(self)

    def describe(self) -> dict:
        """JSON-serializable spec of this generator."""
        spec = {"kind": self.kind}
        for key, name in _KINDS[self.kind].spec.items():
            value = getattr(self, name)
            spec[key] = value.describe() if name == "inner" else value
        return spec


class _Kind(NamedTuple):
    """One generator family. Each hook takes the FFunction it describes;
    `make` takes make_builtin's keyword parameters and validates them."""

    eval: Callable  # (f, t) -> f(t) on a float array
    into: Callable  # (f, t) -> f(t) written over the float array t, which it returns
    tag: Callable  # f -> convexity tag
    at_one: Callable  # f -> f(1)
    at_zero: Callable  # f -> lim_{t->0+} f(t)
    slope: Callable  # f -> lim_{t->inf} f(t)/t
    adjoint: Callable  # f -> f*(t) = t f(1/t), in closed form
    make: Callable  # params -> FFunction
    spec: dict = {}  # spec key -> FFunction field, for from_spec and describe


class _Registry(dict):
    def __init__(self, what: str, **rows):
        super().__init__(**rows)
        self.what = what

    def __missing__(self, name):
        raise InvalidParameter(f"unknown {self.what} {name!r}")

    def row(self, name):
        """The row named `name`, for names from outside the package: one that
        is not a string is unknown too, where indexing would raise TypeError
        on an unhashable one."""
        return self[name] if isinstance(name, str) else self.__missing__(name)


def _as_real(value, what: str) -> float:
    """value as a float; a bool or a string is refused, though float() reads both."""
    if type(value) is float:
        return value
    try:
        if isinstance(value, (bool, np.bool_, str, bytes)):
            raise TypeError
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameter(f"{what} needs a real, got {value!r}") from None


def _real(params: dict, key: str, default=None) -> float:
    return _as_real(params.get(key, default), f"generator parameter {key!r}")


def _inner(params: dict) -> FFunction:
    inner = params.get("inner")
    if not isinstance(inner, FFunction):
        raise InvalidParameter(f"inner generator must be an FFunction, got {inner!r}")
    return inner


def _make_power(params: dict) -> FFunction:
    alpha = _real(params, "alpha")
    if not math.isfinite(alpha):
        raise InvalidParameter("power exponent must be finite")
    return FFunction("power", alpha=alpha)


def _make_linear(params: dict) -> FFunction:
    a, b = _real(params, "a", 0.0), _real(params, "b", 0.0)
    if a < 0 or b < 0 or not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidParameter(
            "linear generator needs a >= 0 and b >= 0 to stay nonnegative on (0, inf)"
        )
    return FFunction("linear", a=a, b=b)


def _make_scaled(params: dict) -> FFunction:
    lam = _real(params, "lam")
    if lam < 0 or not math.isfinite(lam):
        raise InvalidParameter("scale factor must be a finite nonnegative real")
    return FFunction("scaled", lam=lam, inner=_inner(params))


def _power_tag(f: FFunction) -> str:
    if f.alpha in (0.0, 1.0):
        return LINEAR
    return STRICTLY_CONCAVE if 0.0 < f.alpha < 1.0 else STRICTLY_CONVEX


_KINDS = _Registry(
    "generator kind",
    tv=_Kind(
        eval=lambda f, t: np.abs(t - 1.0),
        into=lambda f, t: np.abs(np.subtract(t, 1.0, out=t), out=t),
        tag=lambda f: CONVEX, at_one=lambda f: 0.0,
        at_zero=lambda f: 1.0, slope=lambda f: 1.0,
        adjoint=lambda f: f,
        make=lambda params: FFunction("tv"),
    ),
    klplus=_Kind(
        eval=lambda f, t: np.maximum(t * np.log(t), 0.0),
        into=lambda f, t: np.maximum(np.multiply(t, np.log(t), out=t), 0.0, out=t),
        tag=lambda f: CONVEX, at_one=lambda f: 0.0,
        at_zero=lambda f: 0.0, slope=lambda f: math.inf,
        adjoint=lambda f: FFunction("adjoint", inner=f),
        make=lambda params: FFunction("klplus"),
    ),
    logplus=_Kind(
        eval=lambda f, t: np.maximum(np.log(t), 0.0),
        into=lambda f, t: np.maximum(np.log(t, out=t), 0.0, out=t),
        tag=lambda f: NEITHER, at_one=lambda f: 0.0,
        at_zero=lambda f: 0.0, slope=lambda f: 0.0,
        adjoint=lambda f: FFunction("adjoint", inner=f),
        make=lambda params: FFunction("logplus"),
    ),
    power=_Kind(
        eval=lambda f, t: t ** f.alpha,
        into=lambda f, t: operator.ipow(t, f.alpha),  # t **= alpha: numpy's exact sqrt, square, ...
        tag=_power_tag, at_one=lambda f: 1.0,
        at_zero=lambda f: 0.0 if f.alpha > 0 else (1.0 if f.alpha == 0 else math.inf),
        slope=lambda f: math.inf if f.alpha > 1 else (1.0 if f.alpha == 1 else 0.0),
        adjoint=lambda f: FFunction("power", alpha=1.0 - f.alpha),
        make=_make_power, spec={"alpha": "alpha"},
    ),
    linear=_Kind(
        eval=lambda f, t: f.a * t + f.b,
        into=lambda f, t: np.add(np.multiply(t, f.a, out=t), f.b, out=t),
        tag=lambda f: LINEAR, at_one=lambda f: f.a + f.b,
        at_zero=lambda f: f.b, slope=lambda f: f.a,
        adjoint=lambda f: FFunction("linear", a=f.b, b=f.a),
        make=_make_linear, spec={"a": "a", "b": "b"},
    ),
    scaled=_Kind(
        eval=lambda f, t: f.lam * f.inner(t),
        into=lambda f, t: np.multiply(_KINDS[f.inner.kind].into(f.inner, t), f.lam, out=t),
        tag=lambda f: LINEAR if f.lam == 0.0 else f.inner.convexity_tag,
        at_one=lambda f: f.lam * f.inner.value_at_one,
        # a zero scale annihilates even an infinite limit
        at_zero=lambda f: 0.0 if f.lam == 0.0 else f.lam * f.inner.limit_at_zero,
        slope=lambda f: 0.0 if f.lam == 0.0 else f.lam * f.inner.slope_at_infinity,
        adjoint=lambda f: FFunction("scaled", lam=f.lam, inner=adjoint(f.inner)),
        make=_make_scaled, spec={"lambda": "lam", "inner": "inner"},
    ),
    adjoint=_Kind(
        eval=lambda f, t: t * f.inner(1.0 / t),
        into=lambda f, t: np.multiply(t, _KINDS[f.inner.kind].into(f.inner, 1.0 / t), out=t),
        tag=lambda f: f.inner.convexity_tag, at_one=lambda f: f.inner.value_at_one,
        at_zero=lambda f: f.inner.slope_at_infinity, slope=lambda f: f.inner.limit_at_zero,
        adjoint=lambda f: f.inner,
        make=lambda params: adjoint(_inner(params)), spec={"inner": "inner"},
    ),
)


def make_builtin(kind: str, **params) -> FFunction:
    """Construct a validated builtin generator.

    kind: "tv" | "klplus" | "logplus" | "power" (alpha) | "linear" (a, b)
          | "scaled" (lam, inner) | "adjoint" (inner)
    """
    return _KINDS.row(kind).make(params)


def eval_f(f: FFunction, t: float) -> float:
    """Evaluate f at a strictly positive finite real point (a bool is not one)."""
    try:
        ok = not isinstance(t, bool) and isinstance(t, Real) and math.isfinite(t) and t > 0
    except OverflowError:  # a real beyond the float range
        ok = False
    if not ok:
        raise DomainError(f"generator argument must be a finite positive real, got {t!r}")
    return float(f(float(t)))


def adjoint(f: FFunction) -> FFunction:
    """The *-adjoint f*(t) = t f(1/t), in closed form where available."""
    return _KINDS[f.kind].adjoint(f)


def weighted_term(f: FFunction, p: float, q: float) -> float:
    """q * f(p/q) under the 0*inf = 0 convention.

    q = 0: value is p * slope_at_infinity (0 if p = 0);
    p = 0, q > 0: value is q * limit_at_zero.
    A nonzero cofactor against an infinite limit is an error.
    """
    if p < 0 or q < 0:
        raise DomainError("weighted_term needs nonnegative arguments")
    if q == 0.0:
        if p == 0.0:
            return 0.0
        s = f.slope_at_infinity
        if not math.isfinite(s):
            raise IndeterminateValue("p * f'(inf) with infinite slope and p > 0")
        return p * s
    if p == 0.0:
        lim = f.limit_at_zero
        if not math.isfinite(lim):
            raise IndeterminateValue("q * f(0+) with infinite limit and q > 0")
        return q * lim
    return q * float(f(p / q))


def _positive(x: np.ndarray) -> bool:
    """Is every entry of x > 0 (a NaN is not)? Read off the entry argmin finds,
    the least or the first NaN: on a few atoms that costs a third of a
    reduction's call, and on 65,536 about as much."""
    return x.size == 0 or x.item(x.argmin()) > 0.0


def weighted_terms(f: FFunction, p: np.ndarray, q: np.ndarray, out=None):
    """Vectorized weighted_term for strictly positive arrays, written into out
    (a float array of p's shape; a new one when None).

    The vector path forms the ratios p/q in out, evaluates the kind's row on
    them there (`into`) and multiplies by q. Falls back to the scalar path
    (with its conventions) when any entry is zero. Returns (values, convention_hits).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    out = np.empty(p.shape) if out is None else out
    if _positive(p) and _positive(q):
        return np.multiply(q, _KINDS[f.kind].into(f, np.divide(p, q, out=out)), out=out), 0
    out.flat = [weighted_term(f, pj, qj) for pj, qj in zip(p.ravel().tolist(), q.ravel().tolist())]
    return out, int(np.count_nonzero((p == 0.0) | (q == 0.0)))


def from_spec(spec: dict) -> FFunction:
    """Parse the JSON generator spec; a key its kind does not name is refused."""
    if not isinstance(spec, dict) or not isinstance(spec.get("kind"), str):
        raise InvalidParameter(f"bad generator spec: {spec!r}")
    kind = spec["kind"]
    keys = _KINDS[kind].spec
    unknown = spec.keys() - keys.keys() - {"kind"}
    if unknown:
        names = ", ".join(sorted(repr(key) for key in unknown))
        raise InvalidParameter(f"unknown key {names} in {kind!r} generator spec")
    params = {name: spec[key] for key, name in keys.items() if key in spec}
    if "inner" in params:
        params["inner"] = from_spec(params["inner"])
    return make_builtin(kind, **params)


class FVector(tuple):
    """Ordered vector of generators."""

    def __new__(cls, entries):
        entries = tuple(entries)
        if len(entries) < 1:
            raise InvalidParameter("an FVector needs at least one entry")
        for f in entries:
            if not isinstance(f, FFunction):
                raise InvalidParameter(f"an FVector entry must be an FFunction, got {f!r}")
        return super().__new__(cls, entries)

    def adjoint(self) -> "FVector":
        return FVector(adjoint(f) for f in self)
