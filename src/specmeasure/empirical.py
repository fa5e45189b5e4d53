"""Empirical spectral measure of bivariate extremes.

Selection of the k-extreme observations in the L_p sense, their
pseudo-angles, and the raw (unconstrained) spectral estimates built
from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .lp_geometry import _check_angles, _geometry, _unwrap, check_norm_order, lp_norm
from .pseudo_obs import BivariateSample, _tails

if TYPE_CHECKING:
    from .mele import MultiplierSolution

__all__ = [
    "AngularSample",
    "DiscreteSpectralMeasure",
    "select_extremes",
    "empirical_spectral_measure",
]


@dataclass(frozen=True, eq=False)
class AngularSample:
    """Angles and scores of the observations selected as extreme.

    ``indices`` are the 0-based member rows, increasing, ``angles`` their
    pseudo-angles arctan(u2 / u1) in (0, pi/2), u = m / n of the ranks m,
    and ``scores`` their moment scores f(angle) under the norm order ``p``
    of the selection; ``k`` is the tail sample fraction parameter,
    1 <= k <= n, of a sample of size ``n``.
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
    merged = np.bincount(inverse, np.asarray(weights, dtype=float), minlength=uniq.size)
    return uniq, merged


@dataclass(frozen=True, eq=False)
class DiscreteSpectralMeasure:
    """Finite atomic measure on the angle interval [0, pi/2].

    Atoms are kept sorted with strictly positive weights, an angle in the
    1e-12 slack above pi/2 stored as pi/2; construction through
    :meth:`from_atoms` merges duplicate locations by summing their
    weights.  ``p`` records the norm order the measure refers to.
    ``solution`` is the :class:`~specmeasure.mele.MultiplierSolution`
    behind a MELE estimate, ``None`` for the empirical estimators.
    ``_cumweights`` holds the cumulative weights after a leading 0.
    ``==`` is identity.
    """

    angles: np.ndarray
    weights: np.ndarray
    p: float
    solution: MultiplierSolution | None = field(default=None, repr=False)

    def __post_init__(self):
        angles = _check_angles(self.angles)
        weights = np.asarray(self.weights, dtype=float)
        if angles.shape != weights.shape or angles.ndim != 1:
            raise ValueError("angles and weights must be 1-d arrays of equal length")
        if np.any(np.diff(angles) <= 0.0):
            raise ValueError("angles must be strictly increasing; use from_atoms")
        if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
            raise ValueError("atom weights must be finite and strictly positive")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "p", check_norm_order(self.p))
        object.__setattr__(self, "_cumweights", np.concatenate(([0.0], np.cumsum(weights))))

    @classmethod
    def from_atoms(cls, angles, weights, p: float) -> "DiscreteSpectralMeasure":
        """Build a measure from possibly unsorted, possibly repeated atoms."""
        angles, weights = _merge_duplicates(_check_angles(angles), weights)
        return cls(angles=angles, weights=weights, p=p)

    @property
    def total_mass(self) -> float:
        return float(self._cumweights[-1])

    def cdf(self, x):
        """Right-continuous cumulative mass on [0, x]."""
        x = _check_angles(x)
        return _unwrap(self._cumweights[np.searchsorted(self.angles, x, side="right")])

    def moment_sums(self) -> tuple[float, float]:
        """Sums of sin/||.||_p and cos/||.||_p atom contributions."""
        return tuple(float(np.sum(self.weights * f)) for f in _geometry(self.angles, self.p)[1:])


# Relative half-width of the band around a row's least k in which the
# selection rule decides integer-p membership exactly; outside it the float
# rule is certain.  With eps = 2**-53 and the ranks exact as floats, in
# lp_norm(m1, m2, p) the ratio lo/hi carries 1 eps, its p-th power p + 1,
# 1 + that power (p + 3)/2 (the power is at most 1), the outer root, with
# its rounded 1/p, ((p + 3)/2 + 0.7)/p + 1 and the product with hi 1 more,
# at most 4.7 eps; m2 / norm and m1 * that add 1 eps each, so the least k
# m1 (m2 / ||(m1, m2)||_p) is within about 7 eps (7.8e-16) of exact for
# every p.  Measured against 50-digit arithmetic on 122 500 rank pairs with
# n <= 1e6 at 49 orders p in [1, 1000]: at most 3.7e-16.  1e-12 leaves over
# 1000x headroom on the bound.
MARGIN = 1e-12


def _grid(ks, n: int) -> np.ndarray:
    """A nonempty 1-d grid of k checked against the sample size n, as int64."""
    ks = np.asarray(ks)
    if ks.ndim != 1 or ks.size == 0:
        raise ValueError("k grid must be a nonempty 1-d sequence of integers")
    for k in ks.tolist():
        if not (float(k).is_integer() and 1 <= k <= n):
            raise ValueError(f"k must be an integer with 1 <= k <= n = {n}, got {k!r}")
    return ks.astype(np.int64)


def _select(batch: Iterable[BivariateSample], ks: np.ndarray, p: float):
    """The rule of :func:`select_extremes` at every k of a grid ``ks`` (see
    :func:`_grid`) at once, for a batch of raw samples of one size n.  The
    batch's candidate rows are ranked in one pass (``pseudo_obs._tails``,
    which records each sample's ``tie_flag``), and the rest runs on them as
    one array.  One least k per candidate row serves every k, the members
    at the largest k are the union, and each member's entry counts the k at
    which it is not a member: one binary search of its least k among the
    sorted grid, with the exact rule again for integer p where a grid k
    lies near the least k.  Returns the samples' unions in turn, as one
    AngularSample whose indices are each sample's own rows, the entries,
    the member counts and the moment factors."""
    p = check_norm_order(p)
    ks = np.sort(ks)
    batch = list(batch)
    n = batch[0].n
    # a least k is at least m1 m2 / (m1 + m2) >= min(m1, m2) / 2, so only
    # rows in the top 2 k_max + 1 of a column reach the largest k's band
    tail, m, size = _tails(batch, 2 * int(ks[-1]) + 1)
    bounds = np.concatenate(([0], np.cumsum(size)))
    m1, m2 = np.array(m.T, dtype=float)
    least = np.minimum(m1 * (m2 / lp_norm(m1, m2, p)), np.minimum(m1, m2))
    rows = np.flatnonzero(least <= (1.0 + 2.0 * MARGIN) * ks[-1])
    least = least[rows]
    if p.is_integer():
        # the float rule is certain unless a grid k lies within 2 MARGIN of
        # the least k; the first one there is decided again from the ranks
        entry = np.searchsorted(ks, least * (1.0 - 2.0 * MARGIN))
        at = ks.take(entry, mode="clip")
        near = np.flatnonzero(at < least * (1.0 + 2.0 * MARGIN))
        # for p > k the integer rule is the max-norm rule, so k**q is never formed
        # there: a term (k/m)^p is >= 1 when m <= k, at most (k/(k+1))^(k+1) < 1/e when m > k
        q = int(p)
        member = [
            min(a, b) <= k if p > k else k**q * (a**q + b**q) >= (a * b) ** q
            for k, (a, b) in zip(at[near].tolist(), m[rows[near]].tolist())
        ]
        # a member's least k is that k, a non-member's lies below k + 1
        entry[near] = np.searchsorted(ks, at[near] + np.where(member, 0.0, 0.5))
    else:
        entry = np.searchsorted(ks, least)
    keep = entry < ks.size
    rows, entry = rows[keep], entry[keep]
    angles = np.arctan((m2[rows] / n) / (m1[rows] / n))
    scores, *factors = _geometry(angles, p)
    union = AngularSample(tail[rows], angles, scores, int(ks[-1]), p, n)
    return union, entry, np.diff(np.searchsorted(rows, bounds)), factors


def select_extremes(sample: BivariateSample, k: int, p: float) -> AngularSample:
    """Indices, angles and scores of the L_p-extreme observations.

    One rank pass (``pseudo_obs._tails``, which sets ``sample.tie_flag``)
    gives the ranks m = n + 1 - R of each column, and an observation is a
    member when its pseudo-observations u = m / n satisfy
    ``||(1/u1, 1/u2)||_p >= n/k``, that is when k is at least its least k
    m1 m2 / ||(m1, m2)||_p.  That is evaluated in floating point and capped
    at min(m1, m2), its exact value under the max norm and its bound at
    every p.  For integer p the rule has exact ties (for example
    1/3 + 1/6 = 1/2), so a row whose least k lies within ``MARGIN`` of k is
    decided again from its integer ranks: ``min(m1, m2) <= k`` for p > k,
    where it is exact, and ``k^p (m1^p + m2^p) >= (m1 m2)^p`` in Python
    integers otherwise.  Only rows among the top 2k + 1 of a column can
    qualify, and only their ranks are handed out.  This is the batch of one
    sample of the Monte Carlo selection, which applies the same rule to a
    batch of samples on a whole k grid at once; at a single k its union is
    this selection.

    At least one observation is always selected (the rank-n row in
    either column qualifies for every k >= 1).
    """
    return _select([sample], _grid([k], sample.n), p)[0]


def empirical_spectral_measure(ang: AngularSample) -> DiscreteSpectralMeasure:
    """Raw spectral estimate: mass 1/k at every member angle.

    Total mass N/k is free and generally differs from the mass of a
    genuine spectral measure; the moment constraints are not enforced.
    """
    weights = np.full(ang.n_members, 1.0 / ang.k)
    return DiscreteSpectralMeasure.from_atoms(ang.angles, weights, ang.p)
