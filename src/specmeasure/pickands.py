"""Pickands dependence functions of discrete spectral measures.

A spectral measure in the sum norm (p = 1) transports to a measure H on
[0, 1] through w = sin(theta) / (sin(theta) + cos(theta)); integrating
its cdf yields the piecewise-affine Pickands dependence function

    A(v) = 1 - v + sum_j weight_j * max(v - w_j, 0).

When the source measure satisfies the moment constraints, A is a
genuine dependence function: convex, A(0) = A(1) = 1, and
max(v, 1 - v) <= A(v) <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .empirical import DiscreteSpectralMeasure, _AtomCore, _merge_duplicates

__all__ = ["DiscreteMeasure", "PickandsFunction", "spectral_to_H", "pickands_function"]

#: atoms of a transported measure closer than this are merged
MERGE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DiscreteMeasure(_AtomCore):
    """Finite atomic measure on the unit interval; ``==`` is identity."""

    points: np.ndarray
    weights: np.ndarray
    _locations, _upper, _bound = "points", 1.0, "1"

    @classmethod
    def from_atoms(cls, points, weights) -> "DiscreteMeasure":
        """Merge atoms closer than ``MERGE_TOL`` into their centre of mass.

        Angles distinct as floats can transport to points only an ulp
        apart; without coalescing, the affine slopes between such knots
        are pure rounding noise.
        """
        uniq, merged = _merge_duplicates(points, weights)
        if uniq.size > 1:
            starts = np.concatenate(([True], np.diff(uniq) > MERGE_TOL))
            cluster = np.cumsum(starts) - 1
            mass = np.bincount(cluster, merged)
            centre = np.bincount(cluster, merged * uniq)
            uniq, merged = centre / mass, mass
        return cls(points=uniq, weights=merged)


def spectral_to_H(phi: DiscreteSpectralMeasure) -> DiscreteMeasure:
    """Transport a p = 1 spectral measure to the unit interval.

    Atom angles map through w = sin / (sin + cos) with weights kept;
    the endpoints 0 and pi/2 land on 0 and 1.

    Raises
    ------
    ValueError
        If the measure was built with a norm order other than 1.
    """
    if phi.p != 1.0:
        raise ValueError(
            f"the angular transport requires the sum norm (p = 1), got p = {phi.p!r}"
        )
    s = np.sin(phi.angles)
    c = np.cos(phi.angles)
    return DiscreteMeasure.from_atoms(s / (s + c), phi.weights)


@dataclass(frozen=True)
class PickandsFunction:
    """Piecewise-affine Pickands dependence function.

    ``knots`` always include 0 and 1; ``values`` are the function values
    there.  Between knots the function is affine, so ``np.interp``
    evaluation is exact.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if knots.shape != values.shape or knots.ndim != 1 or knots.size < 2:
            raise ValueError("knots and values must be matching 1-d arrays, length >= 2")
        if knots[0] != 0.0 or knots[-1] != 1.0 or np.any(np.diff(knots) <= 0.0):
            raise ValueError("knots must increase strictly from 0 to 1")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    def __call__(self, v):
        scalar = np.ndim(v) == 0
        v = np.asarray(v, dtype=float)
        if v.size and (v.min() < 0.0 or v.max() > 1.0):
            raise ValueError("the dependence function is defined on [0, 1]")
        out = np.interp(v, self.knots, self.values)
        return float(out) if scalar else out

    @property
    def slopes(self) -> np.ndarray:
        """Affine slopes between consecutive knots (nondecreasing iff convex)."""
        return np.diff(self.values) / np.diff(self.knots)


def pickands_function(H: DiscreteMeasure) -> PickandsFunction:
    """Integrate the cdf of H into a Pickands dependence function.

    The slope on the segment right of v equals H([0, v]) - 1, so the
    knot set is the atom locations of H extended by the endpoints.
    """
    knots = np.unique(np.concatenate(([0.0, 1.0], H.points)))
    cum_xw = np.concatenate(([0.0], np.cumsum(H.weights * H.points)))
    idx = np.searchsorted(H.points, knots, side="right")
    values = 1.0 - knots + knots * H._cumweights[idx] - cum_xw[idx]
    return PickandsFunction(knots=knots, values=values)
