"""Finite measure spaces and validated densities.

A MeasureSpace is a finite set of atoms with strictly positive weights.
Densities are nonnegative vectors indexed by atom; a probability density
integrates to 1 against the weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidParameter,
    LengthMismatch,
    NonPositiveWeight,
    NormalizationFailure,
    SpaceMismatch,
    ZeroDensityAtom,
)

TOL_NORM = 1e-12


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """Finite measure space: atom weights mu_j > 0."""

    weights: np.ndarray

    def __post_init__(self):
        try:
            w = np.asarray(self.weights, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise NonPositiveWeight(f"weights must be reals, got {self.weights!r}") from None
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size < 1:
            raise NonPositiveWeight("weights must be a non-empty 1-d sequence")
        if not (np.minimum.reduce(w) > 0.0 and np.maximum.reduce(w) < np.inf):
            raise NonPositiveWeight("all weights must be strictly positive and finite")

    @property
    def size(self) -> int:
        return int(self.weights.size)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def integrate(self, values) -> float:
        return float(np.dot(np.asarray(values, dtype=float), self.weights))


def _measure_space(s) -> MeasureSpace:
    """s itself, where a space enters; SpaceMismatch unless it is a MeasureSpace."""
    if not isinstance(s, MeasureSpace):
        raise SpaceMismatch(f"need a MeasureSpace, got {s!r}")
    return s


def make_space(weights) -> MeasureSpace:
    """Build a validated MeasureSpace from a sequence of positive weights."""
    return MeasureSpace(weights)


@dataclass(frozen=True, eq=False)
class Density:
    """Nonnegative density values, one per atom of a MeasureSpace."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _checked(self.values, 1))

    def __len__(self):
        return int(self.values.size)


def _checked(values, ndim: int) -> np.ndarray:
    """values as a float array of rank ndim whose entries are all finite and
    nonnegative: the one density check, for a single density and a block."""
    try:
        v = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ZeroDensityAtom(f"density values must be reals, got {values!r}") from None
    if v.ndim != ndim:
        raise LengthMismatch(f"density values must be {ndim}-d")
    # one reduction each, no elementwise temporary; NaN fails both comparisons
    if not (np.minimum.reduce(v, axis=None, initial=np.inf) >= 0.0
            and np.maximum.reduce(v, axis=None, initial=0.0) < np.inf):
        raise ZeroDensityAtom("density values must be finite and nonnegative")
    return v


def _density_rows(block) -> list:
    """The rows of a 2-d block as Densities, the block checked once as a
    whole: each row is a view of the block and is not checked again."""
    rows = []
    for row in _checked(block, 2):
        d = object.__new__(Density)
        d.__dict__["values"] = row  # past the frozen __init__, which would check the row again
        rows.append(d)
    return rows


def validate_density(
    d: Density,
    s: MeasureSpace,
    *,
    strictly_positive: bool = False,
    probability: bool = False,
    tol: float = TOL_NORM,
) -> None:
    """Check a density against a space; raises on the first violated flag.

    Idempotent and side-effect free: the density is never modified.
    """
    if len(d) != _measure_space(s).size:
        raise LengthMismatch(
            f"density has {len(d)} entries, space has {s.size} atoms"
        )
    if strictly_positive and np.minimum.reduce(d.values, initial=np.inf) <= 0.0:
        j = int(np.argmin(d.values))
        raise ZeroDensityAtom(f"density vanishes at atom {j}")
    if probability:
        total = s.integrate(d.values)
        if abs(total - 1.0) > tol:
            raise NormalizationFailure(total)


def probability_density(values, s: MeasureSpace, *, normalize: bool = False) -> Density:
    """Build a strictly positive probability density on s.

    With normalize=True the values are rescaled to unit mass; otherwise a
    wrong normalization raises rather than being silently fixed.
    """
    d = Density(values)
    validate_density(d, s)  # the length, before any mass is taken
    if normalize:
        total = float(np.dot(d.values, s.weights))
        if total <= 0:
            raise NormalizationFailure(total)
        d = Density(d.values / total)
    validate_density(d, s, strictly_positive=True, probability=True)
    return d


@dataclass(frozen=True, eq=False)
class DensityBundle:
    """Ordered list of densities sharing one MeasureSpace."""

    space: MeasureSpace
    densities: tuple = field(default_factory=tuple)

    def __post_init__(self):
        _measure_space(self.space)
        ds = tuple(self.densities)
        object.__setattr__(self, "densities", ds)
        if len(ds) < 1:
            raise LengthMismatch("a bundle needs at least one density")
        for d in ds:
            if not isinstance(d, Density):
                raise InvalidParameter(f"a bundle member must be a Density, got {d!r}")
            if len(d) != self.space.size:
                raise LengthMismatch("bundle member does not match the space size")

    def __len__(self):
        return len(self.densities)

    def __getitem__(self, i) -> Density:
        return self.densities[i]

    def __iter__(self):
        return iter(self.densities)


def make_bundle(space: MeasureSpace, vectors, *, validate: bool = True) -> DensityBundle:
    _measure_space(space)
    ds = []
    for v in vectors:
        d = v if isinstance(v, Density) else Density(v)
        if validate:
            validate_density(d, space, strictly_positive=True, probability=True)
        ds.append(d)
    return DensityBundle(space, tuple(ds))
