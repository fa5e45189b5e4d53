"""Empirical spectral measure of bivariate extremes.

Selection of the k-extreme observations in the L_p sense, their
pseudo-angles, and the raw (unconstrained) spectral estimates built
from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .lp_geometry import _check_angles, _geometry, check_norm_order, lp_norm
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
        scalar = np.ndim(x) == 0
        x = _check_angles(x)
        out = self._cumweights[np.searchsorted(self.angles, x, side="right")]
        return float(out) if scalar else out

    def moment_sums(self) -> tuple[float, float]:
        """Sums of sin/||.||_p and cos/||.||_p atom contributions."""
        return tuple(float(np.sum(self.weights * f)) for f in _geometry(self.angles, self.p)[1:])


# Relative half-width of the band around n/k in which the selection rule
# decides integer-p and max-norm membership exactly; outside it the float
# rule is certain.  With eps = 2**-53, u = m/n and 1/u carry 2 eps each; in
# lp_norm the ratio lo/hi carries 5 eps, its p-th power p times that, and
# the outer 1/p-th root divides by p again, so the norm is within about
# 11 eps (1.2e-15) of exact for every p, and n/k within 1 eps.  Measured
# against 200-bit arithmetic: at most 3.3e-16 for p in [1, 1000], n <= 1e6.
# 1e-12 leaves over 700x headroom on the bound.
MARGIN = 1e-12


def _members(norm, ranks, ks, n: int, p: float) -> np.ndarray:
    """Row i marks the entries of ``norm`` that are members at ``ks[i]``
    under integer p or the max norm: the entries within ``MARGIN`` of n/k
    are decided exactly from their ``ranks``."""
    threshold = (n / ks)[:, None]
    member = norm >= threshold
    i, j = np.nonzero(np.abs(norm - threshold) <= MARGIN * threshold)
    m1, m2 = ranks[j].T
    # for p > k the integer rule is the max-norm rule: a term (k/m)^p is
    # >= 1 when m <= k and at most (k/(k+1))^(k+1) < 1/e when m > k
    q = int(p) if p <= ks.max() else None
    member[i, j] = [
        min(a, b) <= k if p > k else k**q * (a**q + b**q) >= (a * b) ** q
        for k, a, b in zip(ks[i].tolist(), m1.tolist(), m2.tolist())
    ]
    return member


def _grid(ks, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A grid of k checked against the sample size n, as int64, and its
    thresholds n / k in increasing order."""
    for k in np.ravel(ks).tolist():
        if not (float(k).is_integer() and 1 <= k <= n):
            raise ValueError(f"k must be an integer with 1 <= k <= n = {n}, got {k!r}")
    ks = np.asarray(ks, dtype=np.int64)
    return ks, np.sort(n / ks)


def _select(batch: Iterable[BivariateSample], grid: tuple, p: float):
    """The rule of :func:`select_extremes` at every k of a ``grid`` (see
    :func:`_grid`) at once, for a batch of raw samples of one size n.  The
    batch's candidate rows are ranked in one pass (``pseudo_obs._tails``,
    which records each sample's ``tie_flag``), and the rest runs on them as
    one array.  One L_p norm per candidate row serves every k, the members
    at the largest k are the union, and each member's entry counts the k at
    which it is not a member: the float rule by one binary search of its
    norm among the thresholds n/k, and for integer p and the max norm the
    exact rule again for the members near a threshold.  Returns the
    samples' unions in turn, as one AngularSample whose indices are each
    sample's own rows, the entries, the member counts and the moment factors."""
    p = check_norm_order(p)
    ks, threshold = grid
    k_max = int(ks.max())
    batch = list(batch)
    n = batch[0].n
    # a norm is at most 2 n / min(m1, m2), so only rows in the top
    # 2 k_max + 1 of a column reach the largest k's band,
    # (1 - 2 MARGIN) n / k_max
    tail, m, size = _tails(batch, 2 * k_max + 1)
    bounds = np.concatenate(([0], np.cumsum(size)))
    u1, u2 = (m / n).T
    norm = lp_norm(1.0 / u1, 1.0 / u2, p)
    rows = np.flatnonzero(norm >= (1.0 - 2.0 * MARGIN) * threshold[0])
    norm = norm[rows]
    if math.isinf(p) or p.is_integer():
        # the float rule counts the thresholds up to a norm; it is certain
        # unless one lies within 2 MARGIN of the norm, and those rows are
        # decided again from their ranks
        low = np.searchsorted(threshold, norm * (1.0 - 2.0 * MARGIN))
        entry = ks.size - low
        # the first threshold at or above the band's low end lies in it
        band = threshold.take(low, mode="clip") < norm * (1.0 + 2.0 * MARGIN)
        near = np.flatnonzero(band & (low < ks.size))
        if near.size:
            entry[near] = ks.size - np.sum(_members(norm[near], m[rows[near]], ks, n, p), axis=0)
    else:
        entry = ks.size - np.searchsorted(threshold, norm, side="right")
    keep = entry < ks.size
    rows = rows[keep]
    angles = np.arctan(u2[rows] / u1[rows])
    scores, *factors = _geometry(angles, p)
    union = AngularSample(tail[rows], angles, scores, k_max, p, n)
    return union, entry[keep], np.diff(np.searchsorted(rows, bounds)), factors


def select_extremes(sample: BivariateSample, k: int, p: float) -> AngularSample:
    """Indices, angles and scores of the L_p-extreme observations.

    One rank pass (``pseudo_obs._tails``, which sets ``sample.tie_flag``)
    gives the ranks m = n + 1 - R of each column, and an observation is a
    member when its pseudo-observations u = m / n satisfy
    ``||(1/u1, 1/u2)||_p >= n/k``, evaluated in floating point for every p.
    For integer p and the max norm the rule has exact ties (for example
    1/3 + 1/6 = 1/2), so the rows within ``MARGIN`` of n/k are decided
    again from their integer ranks: ``min(m1, m2) <= k`` for the max norm
    and for p > k, where it is exact, and ``k^p (m1^p + m2^p) >= (m1 m2)^p``
    in Python integers otherwise.  Only rows among the top 2k + 1 of a
    column can qualify, and only their ranks are handed out.  This is the
    batch of one sample of the Monte Carlo selection, which applies the
    same rule to a batch of samples on a whole k grid at once; at a single
    k its union is this selection.

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
