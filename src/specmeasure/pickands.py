"""Pickands dependence functions of discrete spectral measures.

A spectral measure in the sum norm (p = 1) transports to a measure H on
[0, 1] through w = sin(theta) / (sin(theta) + cos(theta)), weights
kept; integrating its cdf yields the piecewise-affine Pickands
dependence function

    A(v) = 1 - v + sum_j weight_j * max(v - w_j, 0).

:func:`pickands_function` does the transport and the integration in one
step.  When the source measure satisfies the moment constraints, A is a
genuine dependence function: convex, A(0) = A(1) = 1, and
max(v, 1 - v) <= A(v) <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .empirical import DiscreteSpectralMeasure, _merge_duplicates
from .lp_geometry import _geometry, _unwrap

__all__ = ["PickandsFunction", "pickands_function"]

#: atoms of a transported measure closer than this are merged
MERGE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
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
        if knots[0] != 0.0 or knots[-1] != 1.0 or not np.all(np.diff(knots) > 0.0):  # NaN fails
            raise ValueError("knots must increase strictly from 0 to 1")
        if not np.all(np.isfinite(values)):
            raise ValueError("the values of a dependence function must be finite")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        if v.size and not (v.min() >= 0.0 and v.max() <= 1.0):  # NaN fails
            raise ValueError("the dependence function is defined on [0, 1]")
        return _unwrap(np.interp(v, self.knots, self.values))

    @property
    def slopes(self) -> np.ndarray:
        """Affine slopes between consecutive knots (nondecreasing iff convex)."""
        return np.diff(self.values) / np.diff(self.knots)


def pickands_function(phi: DiscreteSpectralMeasure) -> PickandsFunction:
    """Pickands dependence function of a sum-norm spectral measure.

    The angles go to w = sin / (sin + cos), the sum norm's sine factor, so
    0 and pi/2 land on 0 and 1.  Points closer than ``MERGE_TOL`` merge into
    their centre of mass: angles distinct as floats can land only an ulp
    apart, and the slopes between such knots would be pure rounding noise.
    The slope on the segment right of v equals H([0, v]) - 1, so the knot
    set is the merged points extended by the endpoints.

    Raises
    ------
    ValueError
        If the measure was built with a norm order other than 1, or has
        no atoms.
    """
    if phi.p != 1.0:
        raise ValueError(
            f"the angular transport requires the sum norm (p = 1), got p = {phi.p!r}"
        )
    if phi.weights.size == 0:
        raise ValueError("expected a spectral measure, got one without atoms")
    points, weights = _merge_duplicates(_geometry(phi.angles, 1.0)[1], phi.weights)
    if points.size > 1:
        cluster = np.cumsum(np.concatenate(([True], np.diff(points) > MERGE_TOL))) - 1
        mass = np.bincount(cluster, weights)
        points, weights = np.bincount(cluster, weights * points) / mass, mass
    knots = np.concatenate(([0.0], points[(0.0 < points) & (points < 1.0)], [1.0]))
    cum_w = np.concatenate(([0.0], np.cumsum(weights)))
    cum_xw = np.concatenate(([0.0], np.cumsum(weights * points)))
    idx = np.searchsorted(points, knots, side="right")
    values = 1.0 - knots + knots * cum_w[idx] - cum_xw[idx]
    return PickandsFunction(knots=knots, values=values)
