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
from typing import Iterator, Optional, Sequence

import numpy as np

from .empirical import DiscreteSpectralMeasure, _grid, _select
from .mele import _normalizers, _solutions, _solve_rows, _weight_rows
from .models import HALF_PI, SpectralModel, _check_integer
from .pseudo_obs import table_text

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
    owner = np.zeros(estimate.angles.size, int)
    cells, column = _cells(model, estimate.angles, owner, 1, *_interval((a, b), model))
    # float even with no atoms
    steps = np.bincount(column, estimate.weights, minlength=cells[0].shape[1])[None] * 1.0
    return float(_ise_rows(cells, steps)[0])


def _interval(interval, model: SpectralModel) -> tuple:
    """The ISE interval (a, b) as floats, the model's default for None, checked in [0, pi/2]."""
    a, b = map(float, model.default_ise_interval if interval is None else interval)
    if not (0.0 <= a < b <= HALF_PI):
        raise ValueError(f"invalid angle interval ({a}, {b})")
    return a, b


def _cells(model: SpectralModel, angles: np.ndarray, owner: np.ndarray, sets: int, a, b):
    """The cells of the interval (a, b) cut at the distinct angles of each of
    ``sets`` sets, owner[i] the set of angles[i] and the owners nondecreasing,
    from one ``cdf_integrals`` call on a (set, edge) rectangle: per set the
    edges a, a, its inner atoms at their step columns, then b to the end.
    Its differences are per set a row of cell widths and one of model cdf
    means: the zero cell, the set's cells, then empty padding cells (width
    and mean 0) to a common length one past the longest.  Also each set's
    cell count and its cells' sum of dIG2 - w Gbar**2, and each angle's step
    column: 1 + the cell from whose left edge on the cdf counts it, 1 for
    an angle at or below a and 1 + its set's cell count for one at or above
    b.  Column 0 is left to the zero cells."""
    by_angle = np.argsort(angles)
    # a stable sort by set, of a type small enough for a radix sort
    by_angle = by_angle[np.argsort(owner[by_angle].astype(np.min_scalar_type(sets)), kind="stable")]
    atoms, owner = angles[by_angle], owner[by_angle]
    new = np.ones(atoms.size, dtype=bool)
    new[1:] = (atoms[1:] != atoms[:-1]) | (owner[1:] != owner[:-1])
    index = np.empty(atoms.size, dtype=np.int64)
    index[by_angle] = np.cumsum(new) - 1  # each angle's atom
    atoms, owner = atoms[new], owner[new]
    del by_angle, new  # before the cells are made
    inner = (atoms > a) & (atoms < b)
    below = np.bincount(owner[atoms <= a], minlength=sets)
    size = np.bincount(owner[inner], minlength=sets) + 1
    # 1 + the index within its set, less those at or below a, clipped
    column = np.arange(atoms.size) - (np.searchsorted(owner, np.arange(sets)) + below - 1)[owner]
    np.clip(column, 0, size[owner], out=column)
    column += 1
    edges = np.full((sets, int(size.max()) + 3), b)
    edges[:, :2] = a
    edges[owner[inner], column[inner]] = atoms[inner]
    width, ig, ig2 = (np.diff(x) for x in (edges, *model.cdf_integrals(edges)))
    mean = np.divide(ig, width, out=np.zeros_like(ig), where=width > 0.0)
    return (width, mean, size, _row_sums(ig2 - ig * mean, size)), column[index]


def _row_sums(rows: np.ndarray, size) -> np.ndarray:
    """``np.sum`` of entries 1 to size[i] of each row i of a 2-d array whose
    column 0 holds zeros and which has a column beyond every size: a leading
    zero makes ``np.add.reduceat`` sum the rest of a segment as ``np.sum``
    does."""
    first = np.arange(rows.shape[0]) * rows.shape[1]
    bounds = np.stack([first, first + 1 + size], axis=1).ravel()
    return np.add.reduceat(rows.ravel(), bounds)[::2]


def _ise_rows(cells: tuple, steps: np.ndarray) -> np.ndarray:
    """ISE of the step cdf of each row of ``steps`` on the cells of a set of
    :func:`_cells`, the rows of set i following those of set i - 1 in equal
    numbers: a 0, then the atom weights by step column, cumulated in place
    into the cdf on each cell.  A zero weight leaves its cell's step
    unchanged, so the rows may be estimates on any subsets of the atoms."""
    width, mean, size, spread = cells
    np.cumsum(steps, axis=1, out=steps)
    # the squared gap is formed in place, each set's cells broadcast over
    # its rows
    sets = steps.reshape(size.size, -1, steps.shape[1])
    sets -= mean[:, None]
    sets *= sets
    sets *= width[:, None]
    depth = sets.shape[1]
    return _row_sums(steps, np.repeat(size, depth)) + np.repeat(spread, depth)


@dataclass(frozen=True, eq=False)
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
        return table_text(self.HEADER, self.rows())


#: cell budget of a pass over k grids: a block (_blocks) holds as many
#: rows as fit in _CELLS cells, a row counting as its batch's widest union
#: size, which bounds both its member cells and its row of atom weights; a
#: selection batch holds as many replications as fit in _CELLS sample
#: values, two per sample row, which keeps its candidates and grid about
#: as large as a block
_CELLS = 1 << 15


class _TailGrid:
    """The extremes of a batch of samples at every k of a grid ``ks`` (from
    :func:`~specmeasure.empirical._grid`), from the union, entries, member
    counts and moment factors of the batch's one selection, run here by
    :func:`~specmeasure.empirical._select`, which forms the factors with the scores.

    Sample r has ``count[r, i]`` members at ks[i] (each k ranked here in
    the stably sorted grid): the first ones in entry order, which sorts its
    union by entry stably, so rows stay increasing within an entry.  Its
    pool, from ``start[r]``, is a zero cell of zeros, then those members'
    ``scores``, moment factors ``sin`` and ``cos`` (of the normalizer) and
    step ``column`` (of the ISE rows); ``cells`` are the batch's ISE cells
    of ``interval`` (:func:`_cells`), row r cut at sample r's distinct
    angles."""

    def __init__(self, model, batch, ks: np.ndarray, interval: tuple):
        union, entry, size, factors = _select(batch, ks, model.p)
        self.ks, self.size = ks, size
        sample = np.repeat(np.arange(size.size), size)
        self.cells, column = _cells(model, union.angles, sample, size.size, *interval)
        key = sample * ks.size + entry
        seen = np.bincount(key, minlength=size.size * ks.size).reshape(-1, ks.size)
        position = np.argsort(np.argsort(ks, kind="stable"))  # each k's rank in the sorted grid
        self.count = np.cumsum(seen, axis=1)[:, position]
        self.start = np.cumsum(size + 1) - size - 1
        # a type small enough for a radix sort, as in _cells
        order = np.argsort(key.astype(np.min_scalar_type(size.size * ks.size)), kind="stable")
        slot = np.arange(order.size) + sample + 1
        values = (union.scores, column, *factors)
        pools = [np.zeros(slot[-1] + 1, dtype=v.dtype) for v in values]
        for pool, v in zip(pools, values):
            pool[slot] = v[order]  # zero elsewhere
        self.scores, self.column, self.sin, self.cos = pools


def _blocks(size: np.ndarray, rows: int) -> list:
    """Blocks (r0, r1, first, stop) of the rows of samples with ``size``
    members each: rows first to stop - 1 of samples r0 to r1 - 1, a
    rectangle of at most ``_CELLS`` cells (or one row), a row costing the
    widest sample's size, which bounds both its members and its row of
    step columns.  A block takes as many of a sample's rows as fit (at
    least one, at most all), then as many samples as fit at that many rows
    (at least one): runs of whole samples, or one sample's rows in slices."""
    widest = int(size.max())
    step = max(1, min(rows, _CELLS // widest))
    per = max(1, _CELLS // (widest * step))
    runs, slices = range(0, size.size, per), range(0, rows, step)
    return [(r, min(r + per, size.size), k, min(k + step, rows)) for r in runs for k in slices]


def _sweep(model: SpectralModel, n: int, k_grid, interval: tuple, seed, reps) -> np.ndarray:
    """The (replication, k) table of replications ``reps``: rows emp, mel
    and the columns of ``mele._solve_rows``, each indexed [index into
    ``reps``, k index].  The grid, the seed, n and the interval (None for
    the model's default) are checked before the table is made or a sample drawn.

    Replications go in selection batches of ``_CELLS // (2 n)`` (at least
    one), each with one rank pass and one selection of all its samples and
    one ``cdf_integrals`` call for all its cell edges; a block of
    :func:`_blocks` (as many of a sample's k as fit, then as many samples)
    makes one row-wise solve, forms all its rows' atom weights, normalizers
    and ISEs at once and fills its slab of the table.
    """
    seed = _check_integer(seed, "seed", 0)
    n = _check_integer(n, "sample size", 1)
    grid = _grid(k_grid, n)
    interval = _interval(interval, model)
    table = np.empty((7, len(reps), grid.size))
    batch = max(1, _CELLS // (2 * n))
    for first in range(0, len(reps), batch):
        samples = (
            model.sample(n, np.random.default_rng([seed, r])) for r in reps[first : first + batch]
        )
        tail = _TailGrid(model, samples, grid, interval)
        for r0, r1, k0, k1 in _blocks(tail.size, grid.size):
            table[:, first + r0 : first + r1, k0:k1] = _scored(tail, r0, r1, k0, k1)
        del tail  # before the next batch is drawn
    return table


def _scored(grid: _TailGrid, r0: int, r1: int, first: int, stop: int) -> np.ndarray:
    """Rows first to stop - 1 of samples r0 to r1 - 1 of a grid, as their
    (7, r1 - r0, stop - first) slab of the table of :func:`_sweep`: one
    row-wise MELE solve, both estimators' atom weights, the normalizers,
    checked on each row's members, and one ISE pass per estimator, on the
    samples' rows of ``grid.cells``, cut to the widest; the block's arrays
    go when it is done, each cell array as soon as it is used.

    The rows, sample by sample, are one flat array of cells: row s is the
    segment of ``length[s]`` cells from ``starts[s]``, a zero cell then its
    members in entry order, the prefix of its sample's pool that ``gather``
    indexes, laid out as ``mele._segment`` lays out one row, and row s of
    the step columns.  A row's values thus depend on its own segment only."""
    count = grid.count[r0:r1, first:stop]
    length = count.ravel() + 1
    starts = np.cumsum(length) - length
    start = np.repeat(grid.start[r0:r1], count.shape[1])  # each row's pool
    gather = np.arange(length.sum()) + np.repeat(start - starts, length)
    width_rows, mean_rows, size, spread = grid.cells
    width = int(size[r0:r1].max()) + 2
    cells = width_rows[r0:r1, :width], mean_rows[r0:r1, :width], size[r0:r1], spread[r0:r1]

    a = grid.scores[gather]
    solve = _solve_rows(a, starts, length)
    # an infeasible row's weights, and so its normalizer, are NaN
    weights = _weight_rows(solve[0], a, length)
    del a
    weights[starts] = 0.0  # the zero cells weigh nothing
    factors = (np.take(factor, gather) for factor in (grid.sin, grid.cos))
    scale = 1.0 / _normalizers(weights, factors, starts)
    bins = grid.column[gather]
    bins += np.repeat(np.arange(length.size) * width, length)  # row * width + step column
    steps = length.size * width  # cells in the rows of step columns
    mel = np.bincount(bins, weights, minlength=steps).reshape(-1, width)
    mel *= scale[:, None]
    mel = _ise_rows(cells, mel)  # each row array goes before the next is made
    weights = np.repeat(np.tile(1.0 / grid.ks[first:stop], r1 - r0), length)
    weights[starts] = 0.0
    emp = _ise_rows(cells, np.bincount(bins, weights, minlength=steps).reshape(-1, width))
    return np.reshape((emp, mel, *solve), (7,) + count.shape)


def replication_ise(
    model: SpectralModel,
    n: int,
    k_grid: Sequence[int],
    interval: Optional[tuple],
    seed: int,
    rep: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """ISEs of one replication over ``interval`` (the model's default when
    ``None``): arrays (empirical, mele, infeasible flags) and the MELE
    solutions (``None`` where infeasible).

    The replication stream is derived from (seed, rep) only; the mele
    entry is NaN where the moment constraint was infeasible.  This is the
    one-replication case of the pass of :func:`mise_sweep`, a selection
    batch of one, so its ISEs are bitwise the sweep's for that
    replication.  Only here are the solve's columns made into
    :class:`~specmeasure.mele.MultiplierSolution` objects.
    """
    rep = _check_integer(rep, "rep", 0)
    emp, mel, *solve = _sweep(model, n, k_grid, interval, seed, [rep])[:, 0]
    solutions = _solutions(solve)
    infeasible = np.array([s is None for s in solutions])
    return emp, mel, infeasible, solutions


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

    Each replication draws a fresh sample from the model and computes
    both estimators at every k, with ISEs over ``interval`` (the model's
    default interval when omitted).  ``p``, when given, must match the
    model's norm order; it exists to make call sites explicit.

    The replications are an array axis, and one pass fills a (replication,
    k) table of both ISEs and the solver statistics; it checks the grid,
    the seed, n and the interval before it makes the table or draws a
    sample.  Each replication draws its own sample, and the samples of a
    selection batch (as many as fit ``_CELLS`` sample values) are ranked
    and selected at once, and their cell edges take one truth-integral
    call.  A batch is then scored in blocks within a fixed budget of
    cells, a row costing the batch's widest replication: a block takes as
    many of a replication's k as fit, then as many replications as fit at
    that many k.  A block's MELE rows are solved at once, a Newton trip (a
    few dozen calls) on all of them, as a closed row is a fixed point of a
    trip, so a trip's cost grows with the block's rows; its atom weights,
    normalizers and ISEs are one pass each.  A row is scored on one partition at its replication's
    distinct atoms, which refines each k's own, so its ISEs are those of the
    per-k estimates up to rounding.  Each row's values depend on its own
    cells only, so every replication's ISEs are bitwise those of
    :func:`replication_ise`, whatever batch or block it falls in.
    """
    if p is not None and p != model.p:
        raise ValueError(f"norm order mismatch: model has p = {model.p}, requested {p}")
    replications = _check_integer(replications, "replications", 1)
    # the grid, each k (an integer in [1, n]), the seed and the interval,
    # the model's default for None, are checked by the pass
    table = _sweep(model, n, k_grid, interval, seed, range(replications))
    emp, mel, _, residual, evaluations, _, _ = table  # residual NaN if infeasible
    nk = emp.shape[1]
    feasible = ~np.isnan(mel)
    counts = feasible.sum(axis=0)
    mise = np.full((nk, 2), math.nan)
    stderr = np.zeros((nk, 2))
    infeasible = np.zeros((nk, 2), dtype=np.int64)
    mise[:, 0] = emp.mean(axis=0)
    if replications > 1:
        stderr[:, 0] = emp.std(axis=0, ddof=1) / math.sqrt(replications)
    infeasible[:, 1] = replications - counts
    for i in np.flatnonzero(counts):
        vals = mel[feasible[:, i], i]
        mise[i, 1] = vals.mean()
        if counts[i] > 1:
            stderr[i, 1] = vals.std(ddof=1) / math.sqrt(counts[i])
    return MiseTable(
        model=model.name,
        n=int(n),
        replications=replications,
        p=float(model.p),
        k_grid=np.asarray(k_grid, dtype=np.int64),
        interval=_interval(interval, model),
        seed=int(seed),
        mise=mise,
        stderr=stderr,
        infeasible=infeasible,
        max_evaluations=int(evaluations.max()),
        max_residual=float(np.fmax.reduce(residual, axis=None)),
    )
