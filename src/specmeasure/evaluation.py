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

from .empirical import (
    DiscreteSpectralMeasure,
    empirical_spectral_measure,
    select_extremes,
)
from .mele import ConstraintInfeasible, mele_spectral_measure
from .models import HALF_PI, SpectralModel
from .pseudo_obs import format_value, pseudo_observations

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
    Gbar_j = dIG_j / w_j.  The second sum depends on the atoms only, so
    both estimators at a k, which share atoms, are scored in one pass.
    """
    return _integrated_squared_errors([estimate], model, a, b)[0]


def _integrated_squared_errors(
    estimates: Sequence[DiscreteSpectralMeasure],
    model: SpectralModel,
    a: float,
    b: float,
) -> list[float]:
    """One ``integrated_squared_error`` per estimate; all must share atoms."""
    a = float(a)
    b = float(b)
    if not (0.0 <= a < b <= HALF_PI):
        raise ValueError(f"invalid angle interval ({a}, {b})")
    atoms = estimates[0].angles
    for estimate in estimates:
        if estimate.p != model.p:
            raise ValueError(
                f"norm order mismatch: estimate has p = {estimate.p}, model has p = {model.p}"
            )
        if not np.array_equal(estimate.angles, atoms):
            raise ValueError("estimates sharing one partition must have the same atoms")
    # atoms are strictly increasing, so the edges are too
    edges = np.concatenate([[a], atoms[(atoms > a) & (atoms < b)], [b]])
    width = np.diff(edges)
    ig, ig2 = np.diff(model.cdf_integrals(edges), axis=1)
    mean = ig / width
    spread = float(np.sum(ig2 - ig * mean))
    return [float(np.sum(width * (e.cdf(edges[:-1]) - mean) ** 2)) + spread for e in estimates]


@dataclass(frozen=True)
class MiseTable:
    """Mean integrated squared errors over a k grid, per estimator.

    Column arrays are indexed ``[k_index, estimator_index]`` with
    estimator order ``("empirical", "mele")``.  Infeasible MELE
    replications are excluded from the mean and counted.
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
        text = self.to_text()
        if hasattr(dest, "write"):
            dest.write(text)
        else:
            with open(dest, "w", encoding="utf-8") as handle:
                handle.write(text)

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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ISEs of one replication: arrays (empirical, mele, infeasible flags).

    The replication stream is derived from (seed, rep) only; the mele
    entry is NaN where the moment constraint was infeasible.
    """
    rng = np.random.default_rng([int(seed), int(rep)])
    sample = model.sample(n, rng)
    pobs = pseudo_observations(sample)
    a, b = interval
    emp = np.empty(len(k_grid))
    mel = np.full(len(k_grid), np.nan)
    infeasible = np.zeros(len(k_grid), dtype=bool)
    for i, k in enumerate(k_grid):
        ang = select_extremes(pobs, int(k), model.p)
        estimates = [empirical_spectral_measure(ang)]
        try:
            estimates.append(mele_spectral_measure(ang))
        except ConstraintInfeasible:
            infeasible[i] = True
        ises = _integrated_squared_errors(estimates, model, a, b)
        emp[i] = ises[0]
        if not infeasible[i]:
            mel[i] = ises[1]
    return emp, mel, infeasible


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
    estimators at every k and records ISEs over ``interval`` (the
    model's default interval when omitted).  ``p``, when given, must
    match the model's norm order; it exists to make call sites explicit.
    """
    if not model.has_sampler:
        raise ValueError(f"model {model.describe()} has no sampler")
    if p is not None and p != model.p:
        raise ValueError(f"norm order mismatch: model has p = {model.p}, requested {p}")
    if replications < 1:
        raise ValueError("need at least one replication")
    k_grid = np.asarray(k_grid, dtype=np.int64)
    if k_grid.ndim != 1 or k_grid.size == 0:
        raise ValueError("k grid must be a nonempty 1-d sequence of integers")
    if k_grid.min() < 1 or k_grid.max() > n:
        raise ValueError(f"every k must satisfy 1 <= k <= n = {n}")
    if interval is None:
        interval = model.default_ise_interval
    a, b = float(interval[0]), float(interval[1])
    if not (0.0 <= a < b <= HALF_PI):
        raise ValueError(f"invalid angle interval ({a}, {b})")

    nk = k_grid.size
    emp = np.empty((replications, nk))
    mel = np.empty((replications, nk))
    for rep in range(replications):
        emp[rep], mel[rep], _ = replication_ise(model, n, k_grid, (a, b), seed, rep)

    feasible = ~np.isnan(mel)
    counts = feasible.sum(axis=0)
    mise = np.empty((nk, 2))
    stderr = np.zeros((nk, 2))
    infeasible = np.zeros((nk, 2), dtype=np.int64)
    mise[:, 0] = emp.mean(axis=0)
    if replications > 1:
        stderr[:, 0] = emp.std(axis=0, ddof=1) / math.sqrt(replications)
    for i in range(nk):
        vals = mel[feasible[:, i], i]
        infeasible[i, 1] = replications - counts[i]
        if counts[i] == 0:
            mise[i, 1] = math.nan
            continue
        mise[i, 1] = vals.mean()
        if counts[i] > 1:
            stderr[i, 1] = vals.std(ddof=1) / math.sqrt(counts[i])
    return MiseTable(
        model=model.describe(),
        n=int(n),
        replications=int(replications),
        p=float(model.p),
        k_grid=k_grid,
        interval=(a, b),
        seed=int(seed),
        mise=mise,
        stderr=stderr,
        infeasible=infeasible,
    )
