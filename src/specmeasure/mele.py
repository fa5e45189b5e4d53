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
    evaluations of Psi.

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


def _psi_raw(mu: float, a: np.ndarray) -> float:
    return float(np.mean(a / (1.0 + mu * a)))


def psi(mu: float, scores) -> float:
    """Mean of A / (1 + mu A); strictly decreasing in mu.

    Raises
    ------
    ValueError
        If some ``1 + mu * A_i <= 0`` (outside the positivity domain).
    """
    a = _check_scores(scores)
    if np.any(1.0 + mu * a <= 0.0):
        raise ValueError(f"mu = {mu!r} leaves the weight positivity domain")
    return _psi_raw(mu, a)


def _psi_slope(mu: float, a: np.ndarray) -> float:
    t = a / (1.0 + mu * a)
    return -float(np.mean(t * t))


def _constraint_error(mu: float, value: float) -> float:
    """Larger of the moment error |Psi| and the mass error |mu Psi|."""
    return abs(value) * max(1.0, abs(mu))


def solve_multiplier(scores, tol: float = SOLVER_TOL, max_iter: int = 200) -> MultiplierSolution:
    """Solve Psi(mu) = 0 for the Lagrange multiplier.

    Safeguarded Newton iteration inside a shrinking sign bracket,
    warm-started at the first-order value mean(A) / mean(A^2).  The
    returned root satisfies ``max(|Psi|, |mu Psi|) <= tol``, and the
    exact root of Psi lies within h + e of it: h = 1e-14 * (1 + |mu|)
    is the width target of the final bracket, and e, about
    eps * mean|t| / mean(t^2) with t = A / (1 + mu A), is the float
    resolution of Psi (a rounding error of a few eps * mean|t| moves its
    root by that over |Psi'| = mean(t^2)).  e is far below h for scores
    of order one; it dominates when every score is tiny, where no float
    solve places the root closer.  Once a Newton step moves less than
    h / 2, the next point is h / 2 past the iterate on the root's side
    (Brent's tolerance step), so the bracket closes on the root there:
    about 6 evaluations of Psi are typical.  Both constraints are then
    met to ``tol``: the weights give sum(w A) = Psi and
    sum(w) - 1 = -mu Psi, so |Psi| alone leaves the mass unbounded when
    |mu| is large.

    Raises
    ------
    ConstraintInfeasible
        If the scores do not straddle zero (no interior root exists).
    """
    a = _check_scores(scores)
    smin = float(a.min())
    smax = float(a.max())
    if smin == 0.0 and smax == 0.0:
        return MultiplierSolution(0.0, 0.0, 0, (-math.inf, math.inf))
    if smin >= 0.0 or smax <= 0.0:
        raise ConstraintInfeasible(a)
    lo = -1.0 / smax
    hi = -1.0 / smin
    evals = 0

    def f(mu: float) -> float:
        nonlocal evals
        evals += 1
        return _psi_raw(mu, a)

    f0 = f(0.0)
    if f0 == 0.0:
        return MultiplierSolution(0.0, 0.0, evals, (lo, hi))

    # sign bracket [blo, bhi] with Psi(blo) > 0 > Psi(bhi); Psi decreases,
    # diverging to +inf at lo and -inf at hi, so stepping geometrically
    # toward the relevant endpoint must cross zero
    if f0 > 0.0:
        blo, bhi = 0.0, None
        target = hi
    else:
        blo, bhi = None, 0.0
        target = lo
    anchor = 0.0
    for _ in range(200):
        anchor = 0.5 * (anchor + target)
        if anchor == target:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            fa = f(anchor)
        if math.isnan(fa):
            break
        if fa > 0.0:
            blo = anchor
        else:
            bhi = anchor
        if blo is not None and bhi is not None:
            break
    if blo is None or bhi is None:
        raise RuntimeError(f"failed to bracket the multiplier near boundary {target!r}")

    # warm start at the first-order multiplier if it falls inside the bracket
    mu_bar = float(np.mean(a) / np.mean(a * a))
    x = mu_bar if blo < mu_bar < bhi else 0.5 * (blo + bhi)
    fx = f(x)
    best_x, best_f = x, fx
    for _ in range(max_iter):
        if abs(fx) < abs(best_f):
            best_x, best_f = x, fx
        if fx > 0.0:
            blo = x
        elif fx < 0.0:
            bhi = x
        else:
            break
        width = WIDTH_TOL * (1.0 + abs(best_x))
        if _constraint_error(best_x, best_f) <= tol and (bhi - blo) <= width:
            break
        slope = _psi_slope(x, a)
        cand = x - fx / slope if slope < 0.0 and math.isfinite(slope) else math.nan
        if abs(cand - x) < 0.5 * width:
            # Newton has converged: close the bracket half a width past the root
            cand = x + 0.5 * width if fx > 0.0 else x - 0.5 * width
        if not (blo < cand < bhi):
            cand = 0.5 * (blo + bhi)
        if cand == blo or cand == bhi or cand == x:
            break
        x = cand
        fx = f(x)
    return MultiplierSolution(
        mu=float(best_x),
        residual=abs(best_f),
        iterations=evals,
        feasible_interval=(lo, hi),
    )


def mele_weights(solution: MultiplierSolution, scores) -> np.ndarray:
    """Empirical likelihood weights w_i = (1/N) / (1 + mu A_i).

    At the exact root these sum to one and orthogonalize the scores;
    both identities hold to roughly ``N * |Psi(mu)|`` here.
    """
    a = _check_scores(scores)
    denom = 1.0 + solution.mu * a
    if np.any(denom <= 0.0):
        raise ValueError("multiplier leaves the weight positivity domain for these scores")
    return (1.0 / a.size) / denom


def mele_spectral_prob(ang: AngularSample) -> DiscreteSpectralMeasure:
    """Moment-constrained angular probability measure Q on the member angles.

    Raises
    ------
    ConstraintInfeasible
        If all member angles lie on one side of pi/4.
    """
    solution = solve_multiplier(ang.scores)
    angles, weights = _merge_duplicates(ang.angles, mele_weights(solution, ang.scores))
    return DiscreteSpectralMeasure(angles, weights, ang.p, solution=solution)


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
    if abs(q.total_mass - 1.0) > 1e-8:
        raise ValueError(f"expected a probability measure, total mass {q.total_mass!r}")
    sin_sum, cos_sum = q.moment_sums()
    if abs(sin_sum - cos_sum) > NORMALIZER_TOL:
        raise ValueError(
            "measure does not satisfy the moment constraint: "
            f"normalizer forms disagree by {abs(sin_sum - cos_sum):.3e}"
        )
    return cos_sum


def mele_spectral_measure(ang: AngularSample) -> DiscreteSpectralMeasure:
    """Constrained spectral estimate: MELE probability weights over the
    normalizer.

    With p = 1 the result has total mass exactly 2 up to float error,
    matching the universal mass of spectral measures in the sum norm.
    """
    q = mele_spectral_prob(ang)
    m = spectral_normalizer(q)
    return q.scaled(1.0 / m)
