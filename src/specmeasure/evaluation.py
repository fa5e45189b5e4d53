"""Monte Carlo evaluation of spectral estimators against known models.

Integrated squared error of an estimated angular cdf against a model
cdf, and a replication harness producing mean ISE tables over a grid of
tail fractions k.  Replications are a pure function of (seed,
replication index), so results do not depend on execution order and
identical seeds reproduce tables bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterator, Optional, Sequence, Union

import numpy as np

from .empirical import DiscreteSpectralMeasure, _empirical_rows, _select
from .mele import _mele_rows
from .models import HALF_PI, SpectralModel
from .pseudo_obs import format_value, pseudo_observations, write_text

__all__ = [
    "MiseTable",
    "integrated_squared_error",
    "replication_ise",
    "mise_sweep",
]

ESTIMATORS = ("empirical", "mele")


def integrated_squared_error(
    estimate: DiscreteSpectralMeasure,
    model: SpectralModel,
    a: float,
    b: float,
) -> float:
    """Integral over (a, b) of the squared cdf gap estimate - model.

    The estimate's cdf is c_j on the cell [e_j, e_j+1] of width w_j
    between consecutive atoms (and a, b).  With IG, IG2 the integrals of
    the model cdf G and of G**2 (``model.cdf_integrals``), the error is
    exactly sum w_j (c_j - Gbar_j)**2 + sum (dIG2_j - w_j Gbar_j**2),
    where dIG_j, dIG2_j are their increments over the cell and
    Gbar_j = dIG_j / w_j.  The second sum depends on the cells only, so a
    replication scores all its estimates on one set of cells at once.
    """
    if estimate.p != model.p:
        raise ValueError(
            f"norm order mismatch: estimate has p = {estimate.p}, model has p = {model.p}"
        )
    cells = _cells(estimate.angles, model, a, b)
    return float(_ise_rows(cells, estimate.weights[None])[0])


def _cells(atoms: np.ndarray, model: SpectralModel, a, b) -> tuple:
    """The cells of (a, b) cut at the strictly increasing ``atoms``: the
    index of each cell's step in a row of cumulative atom weights, its
    width and model cdf mean, and the cells' sum of dIG2 - w Gbar**2."""
    a = float(a)
    b = float(b)
    if not (0.0 <= a < b <= HALF_PI):
        raise ValueError(f"invalid angle interval ({a}, {b})")
    edges = np.concatenate([[a], atoms[(atoms > a) & (atoms < b)], [b]])
    width = np.diff(edges)
    ig, ig2 = np.diff(model.cdf_integrals(edges), axis=1)
    mean = ig / width
    step = np.searchsorted(atoms, edges[:-1], side="right")
    return step, width, mean, float(np.sum(ig2 - ig * mean))


def _ise_rows(cells: tuple, weights: np.ndarray) -> np.ndarray:
    """ISE on ``cells`` of the step cdf of each row of atom weights; a zero
    weight leaves its cell's step unchanged, so the rows may be estimates
    on any subsets of the atoms."""
    step, width, mean, spread = cells
    steps = np.zeros((len(weights), weights.shape[1] + 1))
    np.cumsum(weights, axis=1, out=steps[:, 1:])
    # take keeps rows contiguous, so each row sums as one 1-d array would;
    # the squared gap is formed in place, as a grid has 2 K rows
    cdf = np.take(steps, step, axis=1)
    cdf -= mean
    cdf *= cdf
    cdf *= width
    return np.sum(cdf, axis=1) + spread


@dataclass(frozen=True)
class MiseTable:
    """Mean integrated squared errors over a k grid, per estimator.

    Column arrays are indexed ``[k_index, estimator_index]`` with
    estimator order ``("empirical", "mele")``.  Infeasible MELE
    replications are excluded from the mean and counted.  The solver
    maxima are over the feasible MELE fits (0 and NaN without one).
    """

    model: str
    n: int
    replications: int
    p: float
    k_grid: np.ndarray
    interval: tuple
    seed: int
    mise: np.ndarray
    stderr: np.ndarray
    infeasible: np.ndarray
    max_evaluations: int
    max_residual: float

    HEADER = "k,estimator,mise,stderr,infeasible_count"

    def rows(self) -> Iterator[tuple]:
        """Yield (k, estimator, mise, stderr, infeasible_count) tuples."""
        for i, k in enumerate(self.k_grid):
            for j, est in enumerate(ESTIMATORS):
                yield (
                    int(k),
                    est,
                    float(self.mise[i, j]),
                    float(self.stderr[i, j]),
                    int(self.infeasible[i, j]),
                )

    def to_text(self) -> str:
        lines = [self.HEADER]
        for k, est, mise, se, cnt in self.rows():
            lines.append(f"{k},{est},{format_value(mise)},{format_value(se)},{cnt}")
        return "\n".join(lines) + "\n"

    def write(self, dest: Union[str, IO[str]]) -> None:
        write_text(dest, self.to_text())

    @staticmethod
    def parse_rows(text: str) -> list[tuple]:
        """Parse an emitted table back into :meth:`rows` tuples."""
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines or lines[0] != MiseTable.HEADER:
            raise ValueError("missing or unexpected table header")
        rows = []
        for line in lines[1:]:
            k, est, mise, se, cnt = line.split(",")
            rows.append((int(k), est, float(mise), float(se), int(cnt)))
        return rows


def replication_ise(
    model: SpectralModel,
    n: int,
    k_grid: Sequence[int],
    interval: tuple,
    seed: int,
    rep: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """ISEs of one replication: arrays (empirical, mele, infeasible flags)
    and the MELE solutions (``None`` where infeasible).

    The replication stream is derived from (seed, rep) only; the mele
    entry is NaN where the moment constraint was infeasible.  One pass
    serves the whole grid: one selection, each estimator as one row of
    weights per k over the distinct angles of all members, a row-wise
    solve, and one partition at those angles, which refines each k's own,
    so the ISEs are those of the per-k estimates up to rounding.  The
    rows are formed a block of k at a time, so memory stays bounded for
    any grid; a row's values do not depend on its block.
    """
    sample = model.sample(n, np.random.default_rng([int(seed), int(rep)]))
    grid = _select(pseudo_observations(sample), k_grid, model.p)
    cells = _cells(grid.atoms, model, *interval)
    emp, mel = np.empty((2, grid.ks.size))
    solutions = []
    for block in grid.blocks():
        block_solutions, q = _mele_rows(block, normalized=True)
        weights = np.concatenate([_empirical_rows(block), q])
        emp[block.rows], mel[block.rows] = np.split(_ise_rows(cells, weights), 2)
        solutions += block_solutions
    return emp, mel, np.array([s is None for s in solutions]), solutions


def mise_sweep(
    model: SpectralModel,
    n: int,
    replications: int,
    k_grid: Sequence[int],
    *,
    p: Optional[float] = None,
    interval: Optional[tuple] = None,
    seed: int,
) -> MiseTable:
    """Monte Carlo MISE table for both estimators over a k grid.

    Each replication draws a fresh sample from the model, computes both
    estimators at every k in one pass and records ISEs over ``interval``
    (the model's default interval when omitted).  ``p``, when given, must
    match the model's norm order; it exists to make call sites explicit.
    """
    if p is not None and p != model.p:
        raise ValueError(f"norm order mismatch: model has p = {model.p}, requested {p}")
    if replications < 1:
        raise ValueError("need at least one replication")
    k_grid = np.asarray(k_grid)
    if k_grid.ndim != 1 or k_grid.size == 0:
        raise ValueError("k grid must be a nonempty 1-d sequence of integers")
    # each k (an integer in [1, n]) and the interval are checked by the first replication
    a, b = map(float, model.default_ise_interval if interval is None else interval)

    nk = k_grid.size
    emp, mel = np.empty((2, replications, nk))
    fits = np.empty((replications, nk, 2))  # Psi evaluations and residual, NaN if infeasible
    for rep in range(replications):
        emp[rep], mel[rep], _, solutions = replication_ise(model, n, k_grid, (a, b), seed, rep)
        fits[rep] = [(s.iterations, s.residual) if s else (math.nan, math.nan) for s in solutions]

    feasible = ~np.isnan(mel)
    counts = feasible.sum(axis=0)
    mise = np.full((nk, 2), math.nan)
    stderr = np.zeros((nk, 2))
    infeasible = np.zeros((nk, 2), dtype=np.int64)
    mise[:, 0] = emp.mean(axis=0)
    if replications > 1:
        stderr[:, 0] = emp.std(axis=0, ddof=1) / math.sqrt(replications)
    for i in range(nk):
        vals = mel[feasible[:, i], i]
        infeasible[i, 1] = replications - counts[i]
        if counts[i] == 0:
            continue
        mise[i, 1] = vals.mean()
        if counts[i] > 1:
            stderr[i, 1] = vals.std(ddof=1) / math.sqrt(counts[i])
    return MiseTable(
        model=model.describe(),
        n=int(n),
        replications=int(replications),
        p=float(model.p),
        k_grid=k_grid.astype(np.int64),
        interval=(a, b),
        seed=int(seed),
        mise=mise,
        stderr=stderr,
        infeasible=infeasible,
        max_evaluations=int(np.fmax.reduce(fits[..., 0], axis=None, initial=0)),
        max_residual=float(np.fmax.reduce(fits[..., 1], axis=None)),
    )
