"""Empirical spectral measure of bivariate extremes.

Selection of the k-extreme observations in the L_p sense, their
pseudo-angles, and the raw (unconstrained) spectral estimates built
from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .lp_geometry import check_norm_order, lp_norm, score_f
from .pseudo_obs import PseudoObservations

if TYPE_CHECKING:
    from .mele import MultiplierSolution

__all__ = [
    "AngularSample",
    "DiscreteSpectralMeasure",
    "select_extremes",
    "empirical_spectral_measure",
    "empirical_spectral_prob",
]


@dataclass(frozen=True)
class AngularSample:
    """Angles and scores of the observations selected as extreme.

    Attributes
    ----------
    indices : np.ndarray
        0-based row indices of the members, increasing.
    angles : np.ndarray
        Pseudo-angles arctan(u2 / u1), open interval (0, pi/2).
    scores : np.ndarray
        Moment scores f(angle) under the same norm order.
    k : int
        Tail sample fraction parameter, 1 <= k <= n.
    p : float
        Norm order used for selection and scores.
    n : int
        Size of the originating sample.
    """

    indices: np.ndarray
    angles: np.ndarray
    scores: np.ndarray
    k: int
    p: float
    n: int

    @property
    def n_members(self) -> int:
        return int(self.indices.size)


def _merge_duplicates(locations, weights) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct atom locations and the summed weight at each."""
    uniq, inverse = np.unique(np.asarray(locations, dtype=float), return_inverse=True)
    merged = np.zeros(uniq.size)
    np.add.at(merged, inverse, np.asarray(weights, dtype=float))
    return uniq, merged


class _AtomCore:
    """Validation, total mass and step cdf shared by the discrete measures.

    A subclass names its sorted location field in ``_locations`` and its
    range [0, ``_upper``] (``_bound`` in messages).  ``_cumweights`` holds
    the cumulative weights after a leading 0.
    """

    def __post_init__(self):
        locations = np.asarray(getattr(self, self._locations), dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if locations.shape != weights.shape or locations.ndim != 1:
            raise ValueError(f"{self._locations} and weights must be 1-d arrays of equal length")
        if locations.size:
            if np.any(np.diff(locations) <= 0.0):
                raise ValueError(f"{self._locations} must be strictly increasing; use from_atoms")
            if locations[0] < 0.0 or locations[-1] > self._upper:
                raise ValueError(f"{self._locations} must lie in [0, {self._bound}]")
            if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
                raise ValueError("atom weights must be finite and strictly positive")
        object.__setattr__(self, self._locations, locations)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_cumweights", np.concatenate(([0.0], np.cumsum(weights))))

    @property
    def total_mass(self) -> float:
        return float(self._cumweights[-1])

    def cdf(self, x):
        """Right-continuous cumulative mass on [0, x]."""
        scalar = np.ndim(x) == 0
        x = np.asarray(x, dtype=float)
        out = self._cumweights[np.searchsorted(getattr(self, self._locations), x, side="right")]
        return float(out) if scalar else out


@dataclass(frozen=True, eq=False)
class DiscreteSpectralMeasure(_AtomCore):
    """Finite atomic measure on the angle interval [0, pi/2].

    Atoms are kept sorted with strictly positive weights; construction
    through :meth:`from_atoms` merges duplicate locations by summing
    their weights.  ``p`` records the norm order the measure refers to.
    ``solution`` is the :class:`~specmeasure.mele.MultiplierSolution`
    behind a MELE estimate, ``None`` for the empirical estimators; it
    survives :meth:`scaled`.  ``==`` is identity.
    """

    angles: np.ndarray
    weights: np.ndarray
    p: float
    solution: MultiplierSolution | None = field(default=None, repr=False)
    _locations, _upper, _bound = "angles", math.pi / 2, "pi/2"

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "p", check_norm_order(self.p))

    @classmethod
    def from_atoms(cls, angles, weights, p: float) -> "DiscreteSpectralMeasure":
        """Build a measure from possibly unsorted, possibly repeated atoms."""
        angles, weights = _merge_duplicates(angles, weights)
        return cls(angles=angles, weights=weights, p=p)

    @property
    def n_atoms(self) -> int:
        return int(self.angles.size)

    def moment_sums(self) -> tuple[float, float]:
        """Sums of sin/||.||_p and cos/||.||_p atom contributions."""
        s = np.sin(self.angles)
        c = np.cos(self.angles)
        norm = lp_norm(s, c, self.p)
        sin_sum = float(np.sum(self.weights * s / norm))
        cos_sum = float(np.sum(self.weights * c / norm))
        return sin_sum, cos_sum

    def scaled(self, factor: float) -> "DiscreteSpectralMeasure":
        return replace(self, weights=self.weights * factor)


# Relative half-width of the band around n/k in which select_extremes
# decides integer-p and max-norm membership exactly; outside it the float
# rule is certain.  With eps = 2**-53, u = m/n and 1/u carry 2 eps each; in
# lp_norm the ratio lo/hi carries 5 eps, its p-th power p times that, and
# the outer 1/p-th root divides by p again, so the norm is within about
# 11 eps (1.2e-15) of exact for every p, and n/k within 1 eps.  Measured
# against 200-bit arithmetic: at most 3.3e-16 for p in [1, 1000], n <= 1e6.
# 1e-12 leaves over 700x headroom on the bound.
MARGIN = 1e-12


def select_extremes(pobs: PseudoObservations, k: int, p: float) -> AngularSample:
    """Indices, angles and scores of the L_p-extreme observations.

    An observation is a member when the inverted pseudo-observation pair
    satisfies ``||(1/u1, 1/u2)||_p >= n/k``, evaluated in floating point
    for every p.  For integer p and the max norm the rule has exact ties
    (for example 1/3 + 1/6 = 1/2), so the rows within ``MARGIN`` of n/k
    are decided again from their integer ranks m = n*u:
    ``min(m1, m2) <= k`` for the max norm and for p > k, where it is
    exact, and ``k^p (m1^p + m2^p) >= (m1 m2)^p`` in Python integers
    otherwise.

    At least one observation is always selected (the rank-n row in
    either column qualifies for every k >= 1).
    """
    p = check_norm_order(p)
    if not float(k).is_integer():
        raise ValueError(f"k must be an integer, got {k!r}")
    k = int(k)
    n = pobs.n
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n = {n}, got {k}")
    u1 = pobs.u[:, 0]
    u2 = pobs.u[:, 1]
    norm = lp_norm(1.0 / u1, 1.0 / u2, p)
    member = norm >= n / k
    if math.isinf(p) or p.is_integer():
        near = np.flatnonzero(np.abs(norm - n / k) <= MARGIN * (n / k))
        # rounding recovers m exactly: the float error of (m / n) * n is
        # far below 1/2
        m1 = np.rint(u1[near] * n).astype(np.int64).tolist()
        m2 = np.rint(u2[near] * n).astype(np.int64).tolist()
        # for p > k the integer rule is the max-norm rule: a term (k/m)^p is
        # >= 1 when m <= k and at most (k/(k+1))^(k+1) < 1/e when m > k
        if math.isinf(p) or p > k:
            member[near] = [min(a, b) <= k for a, b in zip(m1, m2)]
        else:
            q = int(p)
            member[near] = [k**q * (a**q + b**q) >= (a * b) ** q for a, b in zip(m1, m2)]
    indices = np.flatnonzero(member)
    angles = np.arctan(u2[indices] / u1[indices])
    scores = score_f(angles, p)
    return AngularSample(
        indices=indices,
        angles=angles,
        scores=np.asarray(scores, dtype=float),
        k=k,
        p=p,
        n=n,
    )


def empirical_spectral_measure(ang: AngularSample) -> DiscreteSpectralMeasure:
    """Raw spectral estimate: mass 1/k at every member angle.

    Total mass N/k is free and generally differs from the mass of a
    genuine spectral measure; the moment constraints are not enforced.
    """
    w = np.full(ang.n_members, 1.0 / ang.k)
    return DiscreteSpectralMeasure.from_atoms(ang.angles, w, ang.p)


def empirical_spectral_prob(ang: AngularSample) -> DiscreteSpectralMeasure:
    """Empirical angular probability measure: mass 1/N at every member angle."""
    if ang.n_members == 0:
        raise ValueError("angular sample has no members")
    w = np.full(ang.n_members, 1.0 / ang.n_members)
    return DiscreteSpectralMeasure.from_atoms(ang.angles, w, ang.p)
