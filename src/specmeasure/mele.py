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

from .empirical import AngularSample, DiscreteSpectralMeasure, _Block, _moment_rows, _TailGrid

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


def _psi_rows(mu: np.ndarray, a: np.ndarray, count) -> tuple[np.ndarray, np.ndarray]:
    """Psi and its slope at mu[i] for each zero-padded row a[i] of count[i] scores."""
    t = a / (1.0 + mu[:, None] * a)
    return np.sum(t, axis=1) / count, -np.sum(t * t, axis=1) / count


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
    return float(_psi_rows(np.array([mu], dtype=float), a[None], a.size)[0][0])


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
    |mu| is large.  This is the one-row case of the row-wise solve.

    Raises
    ------
    ConstraintInfeasible
        If the scores do not straddle zero (no interior root exists).
    """
    a = _check_scores(scores)
    solution = _solve_rows(a[None], np.array([a.size]))[0]
    if solution is None:
        raise ConstraintInfeasible(a)
    return solution


def _solve_rows(a: np.ndarray, count: np.ndarray):
    """:func:`solve_multiplier` on every row of ``a`` at once, each row
    with its own bracket, iterate and stop rule; rows are padded as in
    :func:`_psi_rows`, and a padding zero leaves a row's sign test and
    feasible interval as they are.  ``None`` marks a row whose scores do
    not straddle zero."""
    smin, smax = a.min(axis=1), a.max(axis=1)
    zero = (smin == 0.0) & (smax == 0.0)
    with np.errstate(divide="ignore"):
        lo = np.where(zero, -math.inf, -1.0 / smax)
        hi = np.where(zero, math.inf, -1.0 / smin)
    evals = np.zeros(a.shape[0], dtype=np.int64)
    root, value = np.zeros((2, a.shape[0]))

    def f(rows: np.ndarray, mu: np.ndarray):
        evals[rows] += 1
        with np.errstate(divide="ignore", invalid="ignore"):
            return _psi_rows(mu, a[rows], count[rows])

    rows = np.flatnonzero((smin < 0.0) & (smax > 0.0))
    s = a[rows]
    f0 = np.sum(s, axis=1) / count[rows]  # Psi(0), the mean score
    rows, s, f0 = rows[f0 != 0.0], s[f0 != 0.0], f0[f0 != 0.0]

    # sign bracket (blo, bhi): Psi decreases from +inf at lo to -inf at hi,
    # so 0 and the feasible end on the root's side enclose the root
    blo = np.where(f0 > 0.0, 0.0, lo[rows])
    bhi = np.where(f0 > 0.0, hi[rows], 0.0)

    # warm start at the first-order multiplier if it falls inside the bracket
    mu_bar = f0 / (np.sum(s * s, axis=1) / count[rows])
    x = np.where((blo < mu_bar) & (mu_bar < bhi), mu_bar, 0.5 * (blo + bhi))
    fx, slope = f(rows, x)
    best_x, best_f = x.copy(), fx.copy()
    j = np.arange(rows.size)
    for _ in range(SOLVER_MAX_ITER):
        if not j.size:
            break
        xj, fj, sj = x[j], fx[j], slope[j]
        better = np.abs(fj) < np.abs(best_f[j])
        best_x[j[better]], best_f[j[better]] = xj[better], fj[better]
        blo[j] = np.where(fj > 0.0, xj, blo[j])
        bhi[j] = np.where(fj < 0.0, xj, bhi[j])
        bx, bl, bh = best_x[j], blo[j], bhi[j]
        width = WIDTH_TOL * (1.0 + np.abs(bx))
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = np.where((sj < 0.0) & np.isfinite(sj), xj - fj / sj, math.nan)
        # Newton has converged: close the bracket half a width past the root
        cand = np.where(np.abs(cand - xj) < 0.5 * width, xj + np.copysign(0.5 * width, fj), cand)
        cand = np.where((bl < cand) & (cand < bh), cand, 0.5 * (bl + bh))
        # stop at an exact root, once the larger of the moment error |Psi|
        # and the mass error |mu Psi| meets SOLVER_TOL on a closed bracket, or
        # when no new point is left
        done = (
            ~((fj > 0.0) | (fj < 0.0))
            | ((np.abs(best_f[j]) * np.maximum(1.0, np.abs(bx)) <= SOLVER_TOL) & (bh - bl <= width))
            | (cand == bl) | (cand == bh) | (cand == xj)
        )
        j, cand = j[~done], cand[~done]
        x[j] = cand
        fx[j], slope[j] = f(rows[j], cand)
    root[rows], value[rows] = best_x, np.abs(best_f)
    return [
        MultiplierSolution(
            float(root[i]), float(value[i]), int(evals[i]), (float(lo[i]), float(hi[i]))
        ) if zero[i] or smin[i] < 0.0 < smax[i] else None
        for i in range(a.shape[0])
    ]


def _weight_rows(mu: np.ndarray, a: np.ndarray, count) -> np.ndarray:
    """Weights (1 / count[i]) / (1 + mu[i] A) of each zero-padded score row
    a[i]; a padding zero gives 1 / count[i], a NaN multiplier NaN."""
    denom = 1.0 + mu[:, None] * a
    if np.any(denom <= 0.0):
        raise ValueError("multiplier leaves the weight positivity domain for these scores")
    return (1.0 / count)[:, None] / denom


def mele_weights(solution: MultiplierSolution, scores) -> np.ndarray:
    """Empirical likelihood weights w_i = (1/N) / (1 + mu A_i).

    At the exact root these sum to one and orthogonalize the scores;
    both identities hold to roughly ``N * |Psi(mu)|`` here.
    """
    a = _check_scores(scores)
    return _weight_rows(np.array([solution.mu]), a[None], np.array([a.size]))[0]


def _mele_rows(block: _Block, normalized: bool) -> tuple[list, np.ndarray]:
    """MELE at every k of a block of the grid from one row-wise solve: the
    solutions (``None`` where infeasible) and the atom weights of the
    probability measures Q, or with ``normalized`` of the spectral
    estimates Q / m; a row is NaN where infeasible."""
    count = np.sum(block.member, axis=1)
    a = np.where(block.member, block.grid.union.scores, 0.0)
    solutions = _solve_rows(a, count)
    feasible = np.array([s is not None for s in solutions])
    mu = np.array([s.mu if s is not None else math.nan for s in solutions])
    q = block.per_atom(_weight_rows(mu, a, count))
    q[~feasible] = math.nan
    if normalized:
        m = _normalizers(block.grid.atoms, q[feasible], block.grid.union.p)
        q[feasible] *= (1.0 / m)[:, None]
    return solutions, q


def _normalizers(atoms: np.ndarray, q: np.ndarray, p: float) -> np.ndarray:
    """:func:`spectral_normalizer` of every row of atom weights ``q``."""
    mass = np.sum(q, axis=1)
    if np.any(np.abs(mass - 1.0) > 1e-8):
        raise ValueError(f"expected a probability measure, total mass {mass.tolist()}")
    sin_sum, cos_sum = _moment_rows(atoms, q, p)
    gap = np.max(np.abs(sin_sum - cos_sum), initial=0.0)
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
    return float(_normalizers(q.angles, q.weights[None], q.p)[0])


def _mele_estimate(ang: AngularSample, normalized: bool) -> DiscreteSpectralMeasure:
    _check_scores(ang.scores)
    (block,) = _TailGrid.of(ang).blocks()
    (solution,), q = _mele_rows(block, normalized)
    if solution is None:
        raise ConstraintInfeasible(ang.scores)
    return DiscreteSpectralMeasure(block.grid.atoms, q[0], ang.p, solution=solution)


def mele_spectral_prob(ang: AngularSample) -> DiscreteSpectralMeasure:
    """Moment-constrained angular probability measure Q on the member angles.

    Raises
    ------
    ConstraintInfeasible
        If all member angles lie on one side of pi/4.
    """
    return _mele_estimate(ang, normalized=False)


def mele_spectral_measure(ang: AngularSample) -> DiscreteSpectralMeasure:
    """Constrained spectral estimate: MELE probability weights over the
    normalizer.

    With p = 1 the result has total mass exactly 2 up to float error,
    matching the universal mass of spectral measures in the sum norm.
    """
    return _mele_estimate(ang, normalized=True)
