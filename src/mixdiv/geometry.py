"""Planar convex bodies with closed-form support functions.

Two families: ellipses (closed under linear maps) and trigonometrically
perturbed disks. Bodies induce probability densities on the circle; the
divergence machinery then applies verbatim with the uniform grid playing
the role of the spherical measure. Dimension is fixed at n = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidParameter,
    NotC2Plus,
    SingularMatrix,
    UnsupportedFamily,
)
from .divergences import DivergenceReport, ith_mixed, mixed_f_divergence
from .ffunctions import FFunction, FVector
from .inequalities import InequalityVerdict, _verdict
from .measures import Density, DensityBundle, MeasureSpace


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
        if self.node_count < 64 or self.node_count % 2:
            raise InvalidParameter("node_count must be even and >= 64")

    @cached_property
    def nodes(self) -> np.ndarray:
        return _readonly(2.0 * math.pi * np.arange(self.node_count) / self.node_count)

    @cached_property
    def weights(self) -> np.ndarray:
        return _readonly(np.full(self.node_count, 2.0 * math.pi / self.node_count))

    @cached_property
    def _trig(self) -> tuple[np.ndarray, np.ndarray]:
        return _readonly(np.cos(self.nodes)), _readonly(np.sin(self.nodes))

    def harmonic(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(cos m*theta_j, sin m*theta_j) read from the m = 1 tables.

        m*theta_j and theta_{m*j mod N} differ by a multiple of 2*pi, so the
        lookup is exact and never rounds m*theta_j.
        """
        c, s = self._trig
        if m == 1:
            return c, s
        idx = (m * np.arange(self.node_count)) % self.node_count
        return c[idx], s[idx]

    def space(self) -> MeasureSpace:
        return MeasureSpace(self.weights)


@dataclass(frozen=True)
class ConvexBody2D:
    """family "ellipse": h = sqrt(a^2 cos^2(t-phi) + b^2 sin^2(t-phi));
    family "trigball": h = 1 + eps*cos(k t), with |eps|(k^2 - 1) < 1 so the
    curvature function h + h'' stays positive."""

    family: str
    a: float = 1.0
    b: float = 1.0
    phi: float = 0.0
    eps: float = 0.0
    k: int = 2

    def __post_init__(self):
        if self.family == "ellipse":
            if self.a <= 0 or self.b <= 0:
                raise InvalidParameter("ellipse semi-axes must be positive")
        elif self.family == "trigball":
            if self.k < 2 or int(self.k) != self.k:
                raise InvalidParameter("trigball frequency must be an integer >= 2")
            if abs(self.eps) * (self.k ** 2 - 1) >= 1:
                raise InvalidParameter(
                    "trigball needs |eps|(k^2 - 1) < 1 for positive curvature"
                )
        else:
            raise InvalidParameter(f"unknown body family {self.family!r}")

    @property
    def _frequency(self) -> int:
        """The m with h a function of (cos m*theta, sin m*theta)."""
        return 1 if self.family == "ellipse" else self.k

    def _derivatives(self, c, s):
        """(h, h', h'') from c = cos(m*theta), s = sin(m*theta), m = _frequency."""
        if self.family == "ellipse":
            cp, sp = math.cos(self.phi), math.sin(self.phi)
            # u = theta - phi; h^2 = a^2 cos^2 u + b^2 sin^2 u
            cu = c * cp + s * sp
            su = s * cp - c * sp
            cu2, su2 = cu ** 2, su ** 2
            d = self.b ** 2 - self.a ** 2
            h = np.sqrt(self.a ** 2 * cu2 + self.b ** 2 * su2)
            # (h^2)'/2 = d sin u cos u and (h^2)''/2 = d (cos^2 u - sin^2 u)
            hp = d * su * cu / h
            hpp = (d * (cu2 - su2) - hp ** 2) / h
            return h, hp, hpp
        h = 1.0 + self.eps * c
        hp = -self.eps * self.k * s
        hpp = -self.eps * self.k ** 2 * c
        return h, hp, hpp

    def support(self, theta):
        return self.support_derivatives(theta)[0]

    def support_derivatives(self, theta):
        """(h, h', h'') evaluated analytically."""
        mt = self._frequency * np.asarray(theta, dtype=float)
        return self._derivatives(np.cos(mt), np.sin(mt))


def ellipse(a: float, b: float, phi: float = 0.0) -> ConvexBody2D:
    return ConvexBody2D("ellipse", a=a, b=b, phi=phi)


def trigball(eps: float, k: int) -> ConvexBody2D:
    return ConvexBody2D("trigball", eps=eps, k=k)


def unit_disk() -> ConvexBody2D:
    return ellipse(1.0, 1.0)


def body_eval(K: ConvexBody2D, grid: CircleGrid) -> dict:
    """Per-node h, h', h'' and the curvature function f = h + h''."""
    h, hp, hpp = K._derivatives(*grid.harmonic(K._frequency))
    f = h + hpp
    if np.any(h <= 0) or np.any(f <= 0):
        raise NotC2Plus("support or curvature function is nonpositive on the grid")
    return {"h": h, "hp": hp, "hpp": hpp, "f": f}


@dataclass(frozen=True)
class BodyFunctionals:
    volume: float
    polar_volume: float
    boundary_length: float
    affine_surface_area: float


def _volumes(ev: dict, grid: CircleGrid) -> tuple[float, float]:
    """(|K|, |K*|) from one body evaluation."""
    w = grid.weights
    return (float(0.5 * np.dot(ev["h"] * ev["f"], w)),
            float(0.5 * np.dot(ev["h"] ** -2, w)))


def body_functionals(K: ConvexBody2D, grid: CircleGrid) -> BodyFunctionals:
    ev = body_eval(K, grid)
    f, w = ev["f"], grid.weights
    volume, polar_volume = _volumes(ev, grid)
    return BodyFunctionals(
        volume=volume,
        polar_volume=polar_volume,
        boundary_length=float(np.dot(f, w)),
        affine_surface_area=float(np.dot(f ** (2.0 / 3.0), w)),
    )


def body_densities(K: ConvexBody2D, grid: CircleGrid) -> tuple[Density, Density]:
    """The pair (p_K, q_K): p = 1/(2 |K*| h^2), q = f h / (2 |K|)."""
    ev = body_eval(K, grid)
    volume, polar_volume = _volumes(ev, grid)
    p = 1.0 / (2.0 * polar_volume * ev["h"] ** 2)
    q = ev["f"] * ev["h"] / (2.0 * volume)
    return Density(p), Density(q)


def _bundles(bodies, grid, orientation):
    space = grid.space()
    ps, qs = [], []
    for K in bodies:
        p, q = body_densities(K, grid)
        ps.append(p)
        qs.append(q)
    if orientation == "PQ":
        return DensityBundle(space, tuple(ps)), DensityBundle(space, tuple(qs))
    if orientation == "QP":
        return DensityBundle(space, tuple(qs)), DensityBundle(space, tuple(ps))
    raise InvalidParameter(f"orientation must be 'PQ' or 'QP', got {orientation!r}")


def mixed_body_divergence(
    fv: FVector, bodies, orientation: str, grid: CircleGrid
) -> DivergenceReport:
    if len(bodies) != len(fv):
        raise InvalidParameter("need one body per generator")
    P, Q = _bundles(bodies, grid, orientation)
    return mixed_f_divergence(fv, P, Q)


def ith_mixed_body_divergence(
    f1: FFunction,
    f2: FFunction,
    K1: ConvexBody2D,
    K2: ConvexBody2D,
    i: float,
    orientation: str,
    grid: CircleGrid,
) -> DivergenceReport:
    P, Q = _bundles([K1, K2], grid, orientation)
    return ith_mixed(f1, f2, P[0], Q[0], P[1], Q[1], i, 2, grid.space())


def apply_linear_map(K: ConvexBody2D, T) -> ConvexBody2D:
    """Image of an ellipse under an invertible linear map.

    h_K(u) = sqrt(u' M u) with M = R diag(a^2, b^2) R'; the image body has
    the form matrix T M T', re-read as (a, b, phi) by eigendecomposition.
    """
    if K.family != "ellipse":
        raise UnsupportedFamily("only ellipses are closed under linear maps")
    T = np.asarray(T, dtype=float)
    if T.shape != (2, 2) or abs(np.linalg.det(T)) < 1e-14:
        raise SingularMatrix("need an invertible 2x2 matrix")
    c, s = math.cos(K.phi), math.sin(K.phi)
    R = np.array([[c, -s], [s, c]])
    M = R @ np.diag([K.a ** 2, K.b ** 2]) @ R.T
    M2 = T @ M @ T.T
    evals, evecs = np.linalg.eigh(M2)
    # eigh sorts ascending; put the major axis first
    a_new = math.sqrt(evals[1])
    b_new = math.sqrt(evals[0])
    v = evecs[:, 1]
    return ellipse(a_new, b_new, math.atan2(v[1], v[0]))


def isoperimetric_check(K: ConvexBody2D, grid: CircleGrid) -> InequalityVerdict:
    """Boundary length dominates affine surface area:
    |dK|/(2 pi) >= (as(K)/(2 pi))^(3/2), equality exactly for disks."""
    fn = body_functionals(K, grid)
    lhs = fn.boundary_length / (2.0 * math.pi)
    rhs = (fn.affine_surface_area / (2.0 * math.pi)) ** 1.5
    return _verdict(lhs, rhs, "ge")
