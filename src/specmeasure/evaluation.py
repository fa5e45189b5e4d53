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

from .empirical import AngularSample, DiscreteSpectralMeasure, _grid, _select
from .mele import _normalizers, _solutions, _solve_rows, _weight_rows
from .models import HALF_PI, SpectralModel, _check_integer
from .pseudo_obs import table_text, write_text

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
    edges, start, column = _edges(estimate.angles, np.zeros(estimate.angles.size, int), 1, a, b)
    cells = _cells(model, edges, start)
    # float even with no atoms
    steps = np.bincount(column, estimate.weights, minlength=cells[0].shape[1])[None] * 1.0
    return float(_ise_rows(cells, steps)[0])


def _edges(atoms: np.ndarray, owner: np.ndarray, sets: int, a, b):
    """The cell edges of (a, b) cut at each of ``sets`` sets of distinct
    atoms, ``atoms`` increasing within a set and owner[i] the set of
    atoms[i]: per set, from start[i], a, its atoms in (a, b), then b.
    Also each atom's step column: 1 + the cell from whose left edge on the
    cdf counts it, 1 for an atom at or below a and 1 + the cell count for
    one at or above b.  Column 0 is left to the zero cells."""
    a = float(a)
    b = float(b)
    if not (0.0 <= a < b <= HALF_PI):
        raise ValueError(f"invalid angle interval ({a}, {b})")
    inner = (atoms > a) & (atoms < b)
    below = np.bincount(owner[atoms <= a], minlength=sets)
    cells = np.bincount(owner[inner], minlength=sets) + 1
    start = np.concatenate(([0], np.cumsum(cells + 1)))
    edges = np.empty(start[-1])
    edges[start[:-1]], edges[start[1:] - 1] = a, b
    ends = np.zeros(edges.size, dtype=bool)
    ends[start[:-1]] = ends[start[1:] - 1] = True
    edges[~ends] = atoms[inner]
    # 1 + the index within its set, less those at or below a, clipped
    column = np.arange(atoms.size) - (np.searchsorted(owner, np.arange(sets)) + below - 1)[owner]
    np.clip(column, 0, cells[owner], out=column)
    column += 1
    return edges, start, column


def _cells(model: SpectralModel, edges: np.ndarray, start: np.ndarray):
    """The cells between consecutive edges of each set of
    ``edges[start[i]:start[i + 1]]`` (see :func:`_edges`), from one
    ``cdf_integrals`` call: per set a row of cell widths and one of model
    cdf means, each after a 0 and padded with zeros to a common length one
    past the longest, then each set's cell count and its cells' sum of
    dIG2 - w Gbar**2."""
    size = np.diff(start) - 1
    shape = (size.size, int(size.max()) + 2)
    between = np.delete(np.arange(edges.size - 1), start[1:-1] - 1)  # each cell's left edge
    owner = np.repeat(np.arange(size.size), size)
    slot = between + 1 + owner * shape[1] - start[owner]
    width, ig, ig2 = (np.diff(x)[between] for x in (edges, *model.cdf_integrals(edges)))
    mean = ig / width
    rows = np.zeros((3,) + shape)
    for row, values in zip(rows, (width, mean, ig2 - ig * mean)):
        row.ravel()[slot] = values
    return rows[0], rows[1], size, _row_sums(rows[2], size)


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

    def write(self, dest: Union[str, IO[str]]) -> None:
        write_text(dest, self.to_text())


#: cell budget of a pass over k grids: a block holds the rows of as many
#: consecutive replications as fit in _CELLS cells, a row counting as its
#: replication's union size, which bounds both its member cells and its
#: row of atom weights; a selection batch holds as many replications as
#: fit in _CELLS sample values, two per sample row, which keeps its
#: candidates and grid about as large as a block
_CELLS = 1 << 15


class _TailGrid:
    """The extremes of a batch of samples at every k of a grid ``ks``, from
    the union, entries, member counts and moment factors (formed with the
    scores by ``lp_geometry._geometry``) of :func:`~specmeasure.empirical._select`.

    Sample r has ``count[r, i]`` members at ks[i] (``position`` ranks each
    k in the sorted grid): the first ones in entry order, which sorts its
    union by entry stably, so rows stay increasing within an entry.  Its
    pool, from ``start[r]``, is a zero cell of zeros, then those members'
    ``scores``, moment factors ``sin`` and ``cos`` (of the normalizer) and
    step ``column`` (of the ISE rows); ``edges[edge_start[r]:]`` are the
    cell edges of ``interval`` at its distinct angles (:func:`_edges`)."""

    def __init__(self, union: AngularSample, entry, size, factors, ks, position, interval: tuple):
        self.ks, self.size = ks, size
        sample = np.repeat(np.arange(size.size), size)
        atom, *distinct = _distinct(union.angles, sample)
        self.edges, self.edge_start, column = _edges(*distinct, size.size, *interval)
        del distinct  # the atoms live on as edges
        key = sample * ks.size + entry
        seen = np.bincount(key, minlength=size.size * ks.size).reshape(-1, ks.size)
        self.count = np.cumsum(seen, axis=1)[:, position]
        self.start = np.cumsum(size + 1) - size - 1
        # a type small enough for a radix sort, as in _distinct
        order = np.argsort(key.astype(np.min_scalar_type(size.size * ks.size)), kind="stable")
        slot = np.arange(order.size) + sample + 1
        pools = (_pool(values, order, slot) for values in (union.scores, column[atom], *factors))
        self.scores, self.column, self.sin, self.cos = pools


def _distinct(angles: np.ndarray, sample: np.ndarray):
    """The distinct angles of each sample, increasing, with their samples,
    and the index among them of each angle."""
    by_angle = np.argsort(angles)
    # a stable sort by sample, of a type small enough for a radix sort
    by_sample = sample[by_angle].astype(np.min_scalar_type(sample[-1]))
    by_angle = by_angle[np.argsort(by_sample, kind="stable")]
    angle, owner = angles[by_angle], sample[by_angle]
    new = np.ones(angle.size, dtype=bool)
    new[1:] = (angle[1:] != angle[:-1]) | (owner[1:] != owner[:-1])
    index = np.empty(angle.size, dtype=np.int64)
    index[by_angle] = np.cumsum(new) - 1
    return index, angle[new], owner[new]


def _pool(values: np.ndarray, order: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """``values`` in ``order`` at ``slot``, zero elsewhere."""
    pool = np.zeros(slot[-1] + 1, dtype=values.dtype)
    pool[slot] = values[order]
    return pool


class _Segments:
    """The rows of a block of a grid as one flat array of cells.  The
    block's parts (r, first, stop) are the rows first to stop - 1 of sample
    r, the samples consecutive.  Segment s, of ``length[s]`` cells from
    ``starts[s]``, is row k[s] of sample rep[s]: a zero cell followed by
    its members in entry order, the prefix of the sample's pool that
    ``cells`` indexes, laid out as ``mele._segment`` lays out one row.  A
    row's values thus depend on its own segment only, never on the rows
    beside it.  In the rows of step columns, part p holds rows p * ``depth``
    on, the longest part's row count; segment s is row ``slot[s]``."""

    def __init__(self, grid: _TailGrid, block: list):
        rep, first, stop = np.array(block).T
        rows = stop - first
        self.rep = np.repeat(rep, rows)
        self.k = np.arange(rows.sum()) + np.repeat(first - np.cumsum(rows) + rows, rows)
        self.length = grid.count[self.rep, self.k] + 1
        self.starts = np.cumsum(self.length) - self.length
        self.cells = np.arange(self.length.sum()) + np.repeat(grid.start[self.rep] - self.starts, self.length)
        self.parts, self.depth = rows.size, int(rows.max())
        self.slot = self.k + np.repeat(np.arange(rows.size) * self.depth - first, rows)

    def per_atom(self, bins: np.ndarray, values: np.ndarray, width: int) -> np.ndarray:
        """Cell ``values`` summed by ``bins`` (slot * width + step column) into
        the rows of ``width`` step columns."""
        return np.bincount(bins, values, minlength=self.parts * self.depth * width).reshape(-1, width)


def _blocks(size: np.ndarray, rows: int):
    """Parts (r, first, stop) of the rows of samples with ``size`` members
    each, in blocks of at most ``_CELLS`` cells, a row costing its sample's
    size: each sample's rows in slices of as many as fit a block (at least
    one), packed greedily into blocks in order."""
    block, used = [], 0
    for rep, members in enumerate(size.tolist()):
        step = max(1, _CELLS // members)
        for first in range(0, rows, step):
            stop = min(first + step, rows)
            cost = members * (stop - first)
            if block and used + cost > _CELLS:
                yield block
                block, used = [], 0
            block.append((rep, first, stop))
            used += cost
    if block:
        yield block


def _passes(model: SpectralModel, n: int, k_grid, interval: tuple, seed, reps):
    """Score replications ``reps`` in blocks; yield (replication, k index,
    emp, mel, solve) for the rows of each block, the replication as an
    index into ``reps`` and solve the columns of ``mele._solve_rows``.

    Replications go in selection batches of ``_CELLS // (2 n)`` (at least
    one), each with one rank pass and one selection of all its samples and
    one ``cdf_integrals`` call for all its cell edges; a block makes one
    row-wise solve and forms the atom weights, the normalizers and the
    ISEs of all its (replication, k) rows at once.
    """
    k_grid = np.asarray(k_grid)
    if k_grid.ndim != 1 or k_grid.size == 0:
        raise ValueError("k grid must be a nonempty 1-d sequence of integers")
    seed = _check_integer(seed, "seed", 0)
    n = _check_integer(n, "sample size", 1)
    grid = _grid(k_grid, n)
    position = np.argsort(np.argsort(k_grid, kind="stable"))  # each k's rank in the sorted grid
    batch = max(1, _CELLS // (2 * n))
    for first in range(0, len(reps), batch):
        samples = (
            model.sample(n, np.random.default_rng([seed, r])) for r in reps[first : first + batch]
        )
        tail = _TailGrid(*_select(samples, grid, model.p), grid[0], position, interval)
        cells = _cells(model, tail.edges, tail.edge_start)
        for block in _blocks(tail.size, k_grid.size):
            rep, k, *scores = _scored(tail, cells, block)
            yield first + rep, k, *scores
        del tail, cells  # before the next batch is drawn


def _scored(grid: _TailGrid, cells: tuple, block: list):
    """The rows of one block of a grid: (sample, k index, emp, mel, solve),
    from one row-wise MELE solve, both estimators' atom weights, the
    normalizers, checked on each row's members, and one ISE pass per
    estimator, on the block's samples' rows of the grid's ``cells``
    (:func:`_cells`), cut to the block's widest; the block's arrays go
    when it is done, each cell array as soon as it is used."""
    rows = _Segments(grid, block)
    width_rows, mean_rows, size, spread = cells
    reps = slice(block[0][0], block[-1][0] + 1)
    width = int(size[reps].max()) + 2
    cells = width_rows[reps, :width], mean_rows[reps, :width], size[reps], spread[reps]

    a = grid.scores[rows.cells]
    solve = _solve_rows(a, rows.starts, rows.length)
    # an infeasible row's weights, and so its normalizer, are NaN
    weights = _weight_rows(solve[0], a, rows.length)
    del a
    weights[rows.starts] = 0.0  # the zero cells weigh nothing
    factors = (np.take(factor, rows.cells) for factor in (grid.sin, grid.cos))
    scale = 1.0 / _normalizers(weights, factors, rows.starts)
    bins = grid.column[rows.cells]
    bins += np.repeat(rows.slot * width, rows.length)
    mel = rows.per_atom(bins, weights, width)
    row_scale = np.zeros(mel.shape[0])  # of each row of step columns
    row_scale[rows.slot] = scale
    mel *= row_scale[:, None]
    mel = _ise_rows(cells, mel)[rows.slot]  # each row array goes before the next is made
    weights = np.repeat(1.0 / grid.ks[rows.k], rows.length)
    weights[rows.starts] = 0.0
    emp = _ise_rows(cells, rows.per_atom(bins, weights, width))[rows.slot]
    return rows.rep, rows.k, emp, mel, solve


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
    entry is NaN where the moment constraint was infeasible.  This is the
    one-replication case of the pass of :func:`mise_sweep`, a selection
    batch of one: one selection serves the whole grid, each estimator is
    one row of atom weights per k over the distinct angles of all
    members, and all rows are scored on one partition at those angles,
    which refines each k's own, so the ISEs are those of the per-k
    estimates, which build no grid, up to rounding.  The rows are scored
    in slices that fit the cell budget, so memory stays bounded for any
    grid; a row's values do not depend on its block.  Only here are the
    solve's columns made into :class:`~specmeasure.mele.MultiplierSolution`
    objects.
    """
    rep = _check_integer(rep, "rep", 0)
    _, _, emp, mel, solve = zip(*_passes(model, n, k_grid, interval, seed, [rep]))
    solutions = _solutions([np.concatenate(column) for column in zip(*solve)])
    infeasible = np.array([s is None for s in solutions])
    return np.concatenate(emp), np.concatenate(mel), infeasible, solutions


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

    The replications are an array axis.  Each draws its own sample, and
    the samples of a selection batch (as many as fit ``_CELLS`` sample
    values) are ranked and selected at once, the k grid checked once per
    sweep, and their cell edges take one truth-integral call.  Consecutive
    replications of a batch are then scored together, in blocks within a
    fixed budget of (replication, k, member) cells, a replication's k
    split over blocks where they exceed it: a block's MELE rows are solved
    at once, a Newton trip a few dozen calls on the open rows' state, and
    its atom weights, normalizers and ISEs are one pass each.  The solver
    statistics are read as arrays.  Each row's values depend on its own
    cells only, so every replication's ISEs are bitwise those of
    :func:`replication_ise`, whatever batch or block it falls in.
    """
    if p is not None and p != model.p:
        raise ValueError(f"norm order mismatch: model has p = {model.p}, requested {p}")
    replications = _check_integer(replications, "replications", 1)
    # the grid, each k (an integer in [1, n]), the seed and the interval are
    # checked by the pass
    a, b = map(float, model.default_ise_interval if interval is None else interval)

    nk = np.size(k_grid)
    emp, mel, residual = np.empty((3, replications, nk))  # residual NaN if infeasible
    evaluations = np.empty((replications, nk), dtype=np.int64)
    passes = _passes(model, n, k_grid, (a, b), seed, range(replications))
    for rep, k, emp_ise, mel_ise, (_, res, evals, _, _) in passes:
        emp[rep, k], mel[rep, k] = emp_ise, mel_ise
        residual[rep, k], evaluations[rep, k] = res, evals

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
        model=model.name,
        n=int(n),
        replications=replications,
        p=float(model.p),
        k_grid=np.asarray(k_grid, dtype=np.int64),
        interval=(a, b),
        seed=int(seed),
        mise=mise,
        stderr=stderr,
        infeasible=infeasible,
        max_evaluations=int(evaluations.max()),
        max_residual=float(np.fmax.reduce(residual, axis=None)),
    )
