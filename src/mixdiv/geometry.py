"""Planar convex bodies with closed-form support functions.

Each body family is one row of _FAMILIES: ellipses (closed under linear maps)
and trigonometrically perturbed disks. Bodies induce probability densities on
the circle; the divergence machinery then applies verbatim with the uniform
grid playing the role of the spherical measure. Dimension is fixed at n = 2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import InvalidParameter, NotC2Plus, SingularMatrix, UnsupportedFamily
from .divergences import DivergenceReport, ith_mixed, mixed_f_divergence
from .ffunctions import FFunction, FVector, _Registry
from .inequalities import InequalityVerdict, _verdict
from .measures import Density, DensityBundle, MeasureSpace, _density_rows


_BLOCK = 8192  # nodes per block of the body kernels; its temporaries stay in cache
# the largest node count: a full-size table then takes 512 MiB
_MAX_NODES = 2 ** 26
# an ellipse's h lies between its semi-axes; inside these bounds h^3, h^-2 and
# (ab)^2 stay normal floats
_TINY, _HUGE = sys.float_info.min, sys.float_info.max
_H_LO, _H_HI = max(_TINY ** (1 / 3), _HUGE ** -0.5), min(_HUGE ** (1 / 3), _TINY ** -0.5)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CircleGrid:
    """Uniform trapezoid grid on the circle; weights sum to 2*pi.

    Nodes, weights and their cos/sin tables are computed once per instance
    and returned read-only, so one grid can be reused across calls.
    """

    node_count: int = 256

    def __post_init__(self):
        n = self.node_count
        if not (isinstance(n, Integral) and 64 <= n <= _MAX_NODES and n % 2 == 0):
            raise InvalidParameter(f"node_count must be an even integer in [64, 2^26], got {n!r}")

    @cached_property
    def nodes(self) -> np.ndarray:
        return _readonly(2.0 * math.pi * np.arange(self.node_count) / self.node_count)

    @cached_property
    def weights(self) -> np.ndarray:
        return _readonly(np.full(self.node_count, 2.0 * math.pi / self.node_count))

    @cached_property
    def _trig(self) -> tuple[np.ndarray, np.ndarray]:
        return _readonly(np.cos(self.nodes)), _readonly(np.sin(self.nodes))

    def _blocks(self, m: int):
        """Yield (slice, cos m*theta, sin m*theta) over blocks of _BLOCK nodes,
        read from the m = 1 tables: m*theta_i and theta_{m*i mod N} differ by a
        multiple of 2*pi, so the lookup is exact and never rounds m*theta_i.

        Indices are (m*i) mod N plus the block's offset (m*start) mod N, so
        `take(mode="wrap")` reduces each with at most one subtraction."""
        c, s = self._trig
        N = self.node_count
        m %= N
        pattern = (m * np.arange(min(_BLOCK, N))) % N
        for start in range(0, N, _BLOCK):
            block = slice(start, min(start + _BLOCK, N))
            if m == 1:
                yield block, c[block], s[block]
            else:
                idx = pattern[: block.stop - start] + (m * start) % N
                yield block, c.take(idx, mode="wrap"), s.take(idx, mode="wrap")

    def space(self) -> MeasureSpace:
        return MeasureSpace(self.weights)


@dataclass(frozen=True)
class ConvexBody2D:
    """A body of one family: the row of _FAMILIES that reads the fields it uses."""

    family: str
    a: float = 1.0
    b: float = 1.0
    phi: float = 0.0
    eps: float = 0.0
    k: int = 2

    def __post_init__(self):
        # each check is written so that NaN fails it; a value that is not a real fails here
        for name in ("a", "b", "phi", "eps", "k"):
            try:
                finite = math.isfinite(getattr(self, name))
            except (TypeError, OverflowError):
                finite = False
            if not finite:
                raise InvalidParameter(f"body parameter {name} must be a finite real")
        for holds, message in _FAMILIES.row(self.family).checks:
            if not holds(self):
                raise InvalidParameter(message)

    def support_derivatives(self, theta):
        """(h, h', h'') evaluated analytically, with h'' = f - h, in the shape
        of theta."""
        row = _FAMILIES[self.family]
        # at least 1-d: the kernel writes with out=, which a numpy scalar does not take
        mt = row.frequency(self) * np.atleast_1d(np.asarray(theta, dtype=float))
        c, s = np.cos(mt), np.sin(mt)
        h, f = row.kernel(self, c, s)
        return tuple(x.reshape(np.shape(theta))[()] for x in (h, row.slope(self, c, s, h), f - h))


class _Family(NamedTuple):
    """One body family. Each hook takes the ConvexBody2D it describes."""

    checks: tuple  # (K -> bool, message) pairs, in order; a False raises InvalidParameter
    frequency: Callable  # K -> m, with h a function of cos m*theta and sin m*theta
    kernel: Callable  # (K, cos m*theta, sin m*theta) -> (h, f = h + h''); c, s stay unwritten
    slope: Callable  # (K, cos m*theta, sin m*theta, h) -> h'
    linear_map: Optional[Callable]  # (K, T) -> the image of K; None: not closed under maps
    spec: dict  # field -> (type,) or (type, default), in the order a spec is read


def _ellipse_kernel(K: ConvexBody2D, c, s):
    """h^2 = lo^2 + (hi^2 - lo^2) x^2 for semi-axes lo <= hi, with x = cos u
    when a >= b, else sin u (u = theta - phi): every term is nonnegative, so
    nothing cancels on eccentric ellipses. f = (ab)^2/h^3 in closed form, as
    h + h'' cancels there, taken as (ab)^2/(h^2 h) from the pre-root h^2.
    Both are formed in place in two block temporaries."""
    cp, sp = math.cos(K.phi), math.sin(K.phi)
    # cos u = c cp + s sp; sin u = s cp - c sp
    u, v, sp = (c, s, sp) if K.a >= K.b else (s, c, -sp)
    lo, hi = sorted((K.a, K.b))
    x = np.multiply(u, cp)
    t = np.multiply(v, sp)
    x += t  # cos u or sin u
    x *= x
    x *= hi ** 2 - lo ** 2
    x += lo ** 2  # h^2
    h = np.sqrt(x, out=t)
    x *= h  # h^3
    return h, np.divide((K.a * K.b) ** 2, x, out=x)


def _ellipse_slope(K: ConvexBody2D, c, s, h):
    """h' = (h^2)'/(2h) = (b^2 - a^2) sin u cos u / h."""
    cp, sp = math.cos(K.phi), math.sin(K.phi)
    return (K.b ** 2 - K.a ** 2) * (s * cp - c * sp) * (c * cp + s * sp) / h


def _map_ellipse(K: ConvexBody2D, T: np.ndarray) -> ConvexBody2D:
    """h_K(u) = sqrt(u' M u) with M = R diag(a^2, b^2) R'; the image body has
    the form matrix T M T', re-read as (a, b, phi) by eigendecomposition."""
    c, s = math.cos(K.phi), math.sin(K.phi)
    R = np.array([[c, -s], [s, c]])
    M = R @ np.diag([K.a ** 2, K.b ** 2]) @ R.T
    evals, evecs = np.linalg.eigh(T @ M @ T.T)
    # eigh sorts ascending; put the major axis first
    v = evecs[:, 1]
    return ellipse(math.sqrt(evals[1]), math.sqrt(evals[0]), math.atan2(v[1], v[0]))


_FAMILIES = _Registry(
    "body family",
    # h = sqrt(a^2 cos^2(t - phi) + b^2 sin^2(t - phi))
    ellipse=_Family(
        checks=((lambda K: K.a > 0 and K.b > 0, "ellipse semi-axes must be positive"),
                (lambda K: _H_LO <= min(K.a, K.b) and max(K.a, K.b) <= _H_HI
                 and _TINY ** 0.5 <= K.a * K.b <= _HUGE ** 0.5,
                 "ellipse h^3, h^-2 or (ab)^2 would leave the float range")),
        frequency=lambda K: 1, kernel=_ellipse_kernel, slope=_ellipse_slope,
        linear_map=_map_ellipse,
        spec={"a": (float,), "b": (float,), "phi": (float, 0.0)},
    ),
    # h = 1 + eps cos(k t); |eps|(k^2 - 1) < 1 keeps the curvature h + h'' positive
    trigball=_Family(
        checks=((lambda K: K.k >= 2 and int(K.k) == K.k,
                 "trigball frequency must be an integer >= 2"),
                (lambda K: abs(K.eps) * (K.k ** 2 - 1) < 1,
                 "trigball needs |eps|(k^2 - 1) < 1 for positive curvature")),
        frequency=lambda K: int(K.k), linear_map=None,
        kernel=lambda K, c, s: (1.0 + K.eps * c, 1.0 + K.eps * (1 - K.k ** 2) * c),
        slope=lambda K, c, s, h: -K.eps * K.k * s,
        spec={"eps": (float,), "k": (int,)},
    ),
)


def ellipse(a: float, b: float, phi: float = 0.0) -> ConvexBody2D:
    return ConvexBody2D("ellipse", a=a, b=b, phi=phi)


def trigball(eps: float, k: int) -> ConvexBody2D:
    return ConvexBody2D("trigball", eps=eps, k=k)


def unit_disk() -> ConvexBody2D:
    return ellipse(1.0, 1.0)


def _stream(K: ConvexBody2D, grid: CircleGrid):
    """Yield (slice, (cos m*theta, sin m*theta), h, f) over the grid's blocks;
    NotC2Plus unless h and f are positive (a NaN fails too)."""
    row = _FAMILIES[K.family]
    for block, c, s in grid._blocks(row.frequency(K)):
        h, f = row.kernel(K, c, s)
        if not (h.min() > 0 and f.min() > 0):
            raise NotC2Plus("support or curvature function is not positive on the grid")
        yield block, (c, s), h, f


def body_eval(K: ConvexBody2D, grid: CircleGrid) -> dict:
    """Per-node h, h', h'' and the curvature function f = h + h'', filled
    block by block."""
    slope = _FAMILIES[K.family].slope
    # rows of one allocation: separately freed full-size arrays go back to the
    # OS, and the next call faults their pages in again
    ev = dict(zip(("h", "hp", "hpp", "f"), np.empty((4, grid.node_count))))
    for block, (c, s), h, f in _stream(K, grid):
        ev["h"][block], ev["hp"][block], ev["f"][block] = h, slope(K, c, s, h), f
        np.subtract(f, h, out=ev["hpp"][block])
    return ev


@dataclass(frozen=True)
class BodyFunctionals:
    volume: float
    polar_volume: float
    boundary_length: float
    affine_surface_area: float


# block integrands (h, f, t) -> values, formed in the reused block temporary t
def _hf(h, f, t):
    return np.multiply(h, f, out=t)


def _h_2(h, f, t):
    return np.divide(1.0, np.multiply(h, h, out=t), out=t)


def _f(h, f, t):
    return f


def _f_23(h, f, t):
    return np.cbrt(np.multiply(f, f, out=t), out=t)


def _integrals(K: ConvexBody2D, grid: CircleGrid, integrands) -> list:
    """The trapezoid sums of the integrands over one stream of K, block by
    block; no full-size array is built."""
    sums = np.zeros(len(integrands))
    w = grid.weights
    t = np.empty(min(_BLOCK, grid.node_count))
    for block, _, h, f in _stream(K, grid):
        tb, wb = t[: block.stop - block.start], w[block]
        sums += [np.dot(g(h, f, tb), wb) for g in integrands]
    return sums.tolist()


def body_functionals(K: ConvexBody2D, grid: CircleGrid) -> BodyFunctionals:
    """|K| = (1/2) int h f, |K*| = (1/2) int h^-2, |dK| = int f and
    as(K) = int f^(2/3)."""
    hf, h_2, length, asa = _integrals(K, grid, (_hf, _h_2, _f, _f_23))
    return BodyFunctionals(0.5 * hf, 0.5 * h_2, length, asa)


def body_densities(K: ConvexBody2D, grid: CircleGrid) -> tuple[Density, Density]:
    """The pair (p_K, q_K): p = 1/(2 |K*| h^2), q = f h / (2 |K|), filled as
    h^-2 and f h block by block in the rows of one allocation, as in
    `body_eval`, each then divided by its trapezoid sum 2|K*| or 2|K|; the
    two rows are checked as one block."""
    pq = np.empty((2, grid.node_count))
    p, q = pq
    for block, _, h, f in _stream(K, grid):
        np.divide(1.0, np.multiply(h, h, out=p[block]), out=p[block])
        np.multiply(f, h, out=q[block])
    p /= np.dot(p, grid.weights)
    q /= np.dot(q, grid.weights)
    return tuple(_density_rows(pq))


def _bundles(bodies, grid, orientation):
    if orientation not in ("PQ", "QP"):
        raise InvalidParameter(f"orientation must be 'PQ' or 'QP', got {orientation!r}")
    space = grid.space()
    pairs = [body_densities(K, grid) for K in bodies]
    P, Q = (DensityBundle(space, tuple(pair[j] for pair in pairs)) for j in (0, 1))
    return (Q, P) if orientation == "QP" else (P, Q)


def mixed_body_divergence(
    fv: FVector, bodies, orientation: str, grid: CircleGrid
) -> DivergenceReport:
    if len(bodies) != len(fv):
        raise InvalidParameter("need one body per generator")
    P, Q = _bundles(bodies, grid, orientation)
    return mixed_f_divergence(fv, P, Q)


def ith_mixed_body_divergence(f1: FFunction, f2: FFunction, K1: ConvexBody2D, K2: ConvexBody2D,
                              i: float, orientation: str, grid: CircleGrid) -> DivergenceReport:
    P, Q = _bundles([K1, K2], grid, orientation)
    return ith_mixed(f1, f2, P[0], Q[0], P[1], Q[1], i, 2, grid.space())


def apply_linear_map(K: ConvexBody2D, T) -> ConvexBody2D:
    """Image of a body under an invertible linear map, by its family's rule."""
    image = _FAMILIES[K.family].linear_map
    if image is None:
        raise UnsupportedFamily("only ellipses are closed under linear maps")
    try:
        T = np.asarray(T, dtype=float)
    except (TypeError, ValueError):
        raise InvalidParameter(f"a linear map must be an array of numbers, got {T!r}") from None
    if not np.isfinite(T).all():
        raise InvalidParameter("linear map entries must be finite")
    if T.shape != (2, 2) or abs(np.linalg.det(T)) < 1e-14:
        raise SingularMatrix("need an invertible 2x2 matrix")
    return image(K, T)


def isoperimetric_check(K: ConvexBody2D, grid: CircleGrid) -> InequalityVerdict:
    """Boundary length dominates affine surface area:
    |dK|/(2 pi) >= (as(K)/(2 pi))^(3/2), equality exactly for disks."""
    length, asa = _integrals(K, grid, (_f, _f_23))
    lhs = length / (2.0 * math.pi)
    rhs = (asa / (2.0 * math.pi)) ** 1.5
    return _verdict(lhs, rhs, "ge")
