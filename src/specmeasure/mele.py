"""Maximum empirical likelihood estimation of the spectral measure.

The empirical angular measure ignores the marginal moment constraints a
genuine spectral measure must satisfy.  The estimator here reweights
the member angles: maximize the product of weights subject to

    sum(w) = 1,    sum(w * f(theta)) = 0,    w >= 0,

with f the angular moment score.  By Lagrange duality the solution is

    w_i = (1 / N) / (1 + mu * A_i),    A_i = f(theta_i),

where mu is the unique root of the strictly decreasing function

    Psi(mu) = (1 / N) * sum(A_i / (1 + mu * A_i))

on the interval where all weights stay positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .empirical import AngularSample, DiscreteSpectralMeasure, _merge_duplicates
from .lp_geometry import _geometry

__all__ = [
    "ConstraintInfeasible",
    "MultiplierSolution",
    "psi",
    "solve_multiplier",
    "mele_weights",
    "mele_spectral_prob",
    "spectral_normalizer",
    "mele_spectral_measure",
]

#: residual target for the multiplier root
SOLVER_TOL = 1e-12
#: Newton or bisection steps allowed per multiplier root
SOLVER_MAX_ITER = 200
#: relative bracket width target for the multiplier root
WIDTH_TOL = 1e-14
#: allowed disagreement between the two normalizer forms
NORMALIZER_TOL = 1e-9


class ConstraintInfeasible(Exception):
    """The moment constraint cannot be met: all scores on one side of zero.

    Geometrically, every selected angle lies on one side of the diagonal
    pi/4, so no convex reweighting can balance the two margins.
    """

    def __init__(self, scores: np.ndarray):
        scores = np.asarray(scores, dtype=float)
        side = "below" if float(scores.max(initial=-1.0)) <= 0.0 else "above"
        super().__init__(
            f"one-sided angular sample: all {scores.size} scores lie {side} zero "
            f"(range [{scores.min():.6g}, {scores.max():.6g}]); "
            "the moment constraint has no solution with nonnegative weights"
        )
        self.scores = scores


@dataclass(frozen=True)
class MultiplierSolution:
    """Root of the dual equation together with solve diagnostics.

    ``feasible_interval`` is the open interval of multipliers keeping
    every weight positive; the root may fall anywhere inside it, which
    in small samples can be far outside (-1, 1).  ``iterations`` counts
    evaluations of Psi beyond Psi(0), the mean score.

    A MELE estimate carries the solution it was built from in its
    ``solution`` field, so ``mele_spectral_measure(ang).solution`` gives
    the multiplier and residual without a second solve.
    """

    mu: float
    residual: float
    iterations: int
    feasible_interval: tuple[float, float]


def _check_scores(scores) -> np.ndarray:
    a = np.asarray(scores, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("scores must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(a)) or np.any(np.abs(a) >= 1.0):
        raise ValueError("scores must lie in the open interval (-1, 1)")
    return a


def _segment(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One segment of the row-wise solve: its cells (a zero cell, then the
    scores), its start and its length.  The zero cell leaves the segment's
    minimum, maximum and sign test as they are, and makes
    ``np.add.reduceat``, which adds a segment's remaining cells pairwise
    onto its first, sum it bitwise as ``np.sum`` sums the scores alone."""
    return np.concatenate(([0.0], scores)), np.array([0]), np.array([scores.size + 1])


def _psi_rows(mu: np.ndarray, a: np.ndarray, starts, length) -> tuple[np.ndarray, np.ndarray]:
    """Psi and its slope at mu[i] for each segment of ``a``: a zero cell at
    starts[i], then length[i] - 1 scores (see :func:`_segment`)."""
    t = mu.repeat(length)
    t *= a
    t += 1.0
    np.divide(a, t, out=t)  # A / (1 + mu A)
    count = length - 1
    value = np.add.reduceat(t, starts) / count
    t *= t
    return value, -np.add.reduceat(t, starts) / count


def psi(mu: float, scores) -> float:
    """Mean of A / (1 + mu A); strictly decreasing in mu.

    Raises
    ------
    ValueError
        If ``mu`` is not finite or some ``1 + mu * A_i <= 0`` (outside the domain).
    """
    a = _check_scores(scores)
    if not np.isfinite(mu) or np.any(1.0 + mu * a <= 0.0):
        raise ValueError(f"mu = {mu!r} leaves the weight positivity domain")
    return float(_psi_rows(np.array([mu], dtype=float), *_segment(a))[0][0])


def solve_multiplier(scores) -> MultiplierSolution:
    """Solve Psi(mu) = 0 for the Lagrange multiplier.

    Safeguarded Newton iteration inside a shrinking sign bracket,
    warm-started at the first-order value mean(A) / mean(A^2).  The sign
    of Psi(0) = mean(A) picks the side of 0 the root is on, and 0 with
    the feasible end on that side is the first bracket, as Psi runs
    from +inf to -inf across the feasible interval.  The
    returned root satisfies ``max(|Psi|, |mu Psi|) <= SOLVER_TOL``, and the
    exact root of Psi lies within h + e of it: h = 1e-14 * (1 + |mu|)
    is the width target of the final bracket, and e, about
    eps * mean|t| / mean(t^2) with t = A / (1 + mu A), is the float
    resolution of Psi (a rounding error of a few eps * mean|t| moves its
    root by that over |Psi'| = mean(t^2)).  e is far below h for scores
    of order one; it dominates when every score is tiny, where no float
    solve places the root closer.  Once a Newton step moves less than
    h / 2, the next point is h / 2 past the iterate on the root's side
    (Brent's tolerance step), so the bracket closes on the root there:
    about 4 evaluations of Psi are typical.  Both constraints are then
    met to ``SOLVER_TOL``: the weights give sum(w A) = Psi and
    sum(w) - 1 = -mu Psi, so |Psi| alone leaves the mass unbounded when
    |mu| is large.  This is the one-segment case of the row-wise solve,
    whose sums are bitwise ``np.sum``'s of the scores.

    Raises
    ------
    ConstraintInfeasible
        If the scores do not straddle zero (no interior root exists).
    ArithmeticError
        If the root is not met to ``SOLVER_TOL`` in ``SOLVER_MAX_ITER`` trips.
    """
    a = _check_scores(scores)
    (solution,) = _solutions(_solve_rows(*_segment(a)))
    if solution is None:
        raise ConstraintInfeasible(a)
    if solution.iterations > SOLVER_MAX_ITER:
        error = max(1.0, abs(solution.mu)) * solution.residual
        raise ArithmeticError(f"multiplier not settled: {solution.iterations} evaluations of Psi "
                              f"left max(|Psi|, |mu Psi|) = {error:.3g}")
    return solution


def _solutions(rows) -> list:
    """The :class:`MultiplierSolution` of each row of :func:`_solve_rows`,
    ``None`` where it has no root."""
    mu, residual, evaluations, lo, hi = (c.tolist() for c in rows)
    return [
        None if math.isnan(m) else MultiplierSolution(m, r, e, (left, right))
        for m, r, e, left, right in zip(mu, residual, evaluations, lo, hi)
    ]


def _solve_rows(a: np.ndarray, starts: np.ndarray, length: np.ndarray):
    """:func:`solve_multiplier` on every segment of ``a`` at once: segment i
    is a zero cell at starts[i], then its scores, ``length[i]`` cells in
    all (see :func:`_segment`).  Returns arrays of each segment's root,
    residual, Psi evaluations and feasible interval.  A segment whose
    scores do not straddle zero has root and residual NaN, one whose mean
    score is zero has both 0, and neither takes an evaluation.  The others
    are open at first, each with its own bracket, iterate and stop rule, so
    a segment's solution depends on its own cells only.  The state of the
    segments is one array, a column each, and a trip takes the open ones'
    columns, so that it is a few dozen calls on small arrays.  Psi is
    evaluated on every segment, a closed one's at its last point."""
    count = length - 1
    smin, smax = np.minimum.reduceat(a, starts), np.maximum.reduceat(a, starts)
    zero = (smin == 0.0) & (smax == 0.0)
    straddle = (smin < 0.0) & (smax > 0.0)
    evals = np.zeros(starts.size, dtype=np.int64)
    # per segment: iterate x, Psi f, the best point bx and its Psi bf, the
    # slope and the sign bracket (bl, bh); Psi falls from +inf at lo to
    # -inf at hi, so 0 and the feasible end on the root's side enclose it
    state = np.empty((7, starts.size))
    x, f, bx, bf, slope, bl, bh = state
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lo = np.where(zero, -math.inf, -1.0 / smax)
        hi = np.where(zero, math.inf, -1.0 / smin)
        f0 = np.add.reduceat(a, starts) / count  # Psi(0), the mean score
        open_ = straddle & (f0 != 0.0)
        bl[:], bh[:] = np.where(f0 > 0.0, 0.0, lo), np.where(f0 > 0.0, hi, 0.0)
        x[:] = np.where(zero | straddle, 0.0, math.nan)  # the root of a segment never open
        # warm start at the first-order multiplier if it falls inside the bracket
        mu_bar = f0 / (np.add.reduceat(a * a, starts) / count)
        np.copyto(x, np.where((bl < mu_bar) & (mu_bar < bh), mu_bar, 0.5 * (bl + bh)), where=open_)
        open_ = np.flatnonzero(open_)
        evals[open_] = SOLVER_MAX_ITER + 1  # unless a trip closes the row
        state[1], state[4] = _psi_rows(x, a, starts, length)
        state[2:4] = state[0:2]
        for trip in range(1, SOLVER_MAX_ITER + 1):
            live = state[:, open_]
            x, f, bx, bf, slope, bl, bh = live
            size = np.abs(live[:4])
            better = size[1] < size[3]
            np.copyto(live[2:4], live[0:2], where=better)
            np.copyto(size[2:4], size[0:2], where=better)  # |bx| and |bf| of the best point
            np.copyto(bl, x, where=f > 0.0)
            np.copyto(bh, x, where=f < 0.0)
            width = WIDTH_TOL * (1.0 + size[2])
            half = 0.5 * width
            # Newton has converged: close the bracket half a width past the
            # root; a step that is not finite, or leaves the bracket, bisects
            cand = x - f / slope
            np.copyto(cand, x + np.copysign(half, f), where=np.abs(cand - x) < half)
            inside = (bl < cand) & (cand < bh) & (slope > -math.inf)
            np.copyto(cand, 0.5 * (bl + bh), where=~inside)
            # stop at an exact root, once the larger of the moment error |Psi|
            # and the mass error |mu Psi| meets SOLVER_TOL on a closed bracket,
            # or when no new point is left (x is a bracket end by now)
            done = ~(size[1] > 0.0) | (cand == bl) | (cand == bh)
            done |= (size[3] * np.maximum(1.0, size[2]) <= SOLVER_TOL) & (bh - bl <= width)
            np.copyto(x, cand, where=~done)
            state[:, open_] = live
            evals[open_[done]] = trip
            open_ = open_[~done]
            if not open_.size:
                break
            state[1], state[4] = _psi_rows(state[0], a, starts, length)
    return state[2], np.abs(state[3]), evals, lo, hi


def _weight_rows(mu: np.ndarray, a: np.ndarray, length) -> np.ndarray:
    """Weights (1 / count) / (1 + mu A) of every cell of the segments of
    ``a``, as in :func:`_psi_rows`, with its segment's multiplier and
    count; a zero cell gives 1 / count, a NaN multiplier NaN."""
    denom = np.repeat(mu, length)
    denom *= a
    denom += 1.0
    if np.any(denom <= 0.0):
        raise ValueError("multiplier leaves the weight positivity domain for these scores")
    weights = np.repeat(1.0 / (length - 1), length)
    weights /= denom
    return weights


def mele_weights(solution: MultiplierSolution, scores) -> np.ndarray:
    """Empirical likelihood weights w_i = (1/N) / (1 + mu A_i).

    At the exact root these sum to one and orthogonalize the scores;
    both identities hold to roughly ``N * |Psi(mu)|`` here.
    """
    cells, _, length = _segment(_check_scores(scores))
    return _weight_rows(np.array([solution.mu]), cells, length)[1:]


def _normalizers(q: np.ndarray, factors: tuple, starts) -> np.ndarray:
    """:func:`spectral_normalizer` of each segment of the cell weights ``q``,
    from starts[i]: the sums of q against the cells' sin/||.||_p and
    cos/||.||_p ``factors`` (:func:`~specmeasure.lp_geometry._geometry`),
    two arrays that it overwrites.  A segment of NaNs (an infeasible fit)
    gives NaN and passes the checks."""
    mass = np.add.reduceat(q, starts)
    if np.any(np.abs(mass - 1.0) > 1e-8):
        raise ValueError(f"expected a probability measure, total mass {mass.tolist()}")
    # each factor array takes its products in place
    sin_sum, cos_sum = (np.add.reduceat(np.multiply(f, q, out=f), starts) for f in factors)
    gap = np.fmax.reduce(np.abs(sin_sum - cos_sum), initial=0.0)
    if gap > NORMALIZER_TOL:
        raise ValueError(
            "measure does not satisfy the moment constraint: "
            f"normalizer forms disagree by {gap:.3e}"
        )
    return cos_sum


def spectral_normalizer(q: DiscreteSpectralMeasure) -> float:
    """Normalizing constant m = integral of cos/||.||_p against q.

    ``q`` must be a probability measure satisfying the moment
    constraint; then the sine and cosine forms of m agree and dividing
    the weights of q by m produces a genuine spectral measure.

    Raises
    ------
    ValueError
        If q is not a probability measure, or the two forms of the
        normalizer disagree beyond ``NORMALIZER_TOL`` (the moment
        constraint was violated).
    """
    return float(_normalizers(q.weights, _geometry(q.angles, q.p)[1:], [0])[0])


def mele_spectral_prob(ang: AngularSample) -> DiscreteSpectralMeasure:
    """Moment-constrained angular probability measure Q on the member angles.

    Q puts the :func:`mele_weights` of the :func:`solve_multiplier` root on
    the member angles, summed where angles repeat, and carries that root.

    Raises
    ------
    ConstraintInfeasible
        If all member angles lie on one side of pi/4.
    """
    solution = solve_multiplier(ang.scores)
    angles, weights = _merge_duplicates(ang.angles, mele_weights(solution, ang.scores))
    return DiscreteSpectralMeasure(angles, weights, ang.p, solution=solution)


def mele_spectral_measure(ang: AngularSample) -> DiscreteSpectralMeasure:
    """Constrained spectral estimate: MELE probability weights over the
    normalizer.

    With p = 1 the result has total mass exactly 2 up to float error,
    matching the universal mass of spectral measures in the sum norm.
    """
    q = mele_spectral_prob(ang)
    weights = q.weights * (1.0 / spectral_normalizer(q))
    return DiscreteSpectralMeasure(q.angles, weights, q.p, solution=q.solution)
