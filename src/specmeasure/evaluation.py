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

from .empirical import AngularSample, DiscreteSpectralMeasure, _select
from .mele import _normalizers, _solve_rows, _weight_rows
from .models import HALF_PI, SpectralModel, _check_integer
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
    (cells,) = _cells([estimate.angles], model, a, b)
    return float(_ise_rows(cells, np.concatenate(([0.0], estimate.weights))[None])[0])


def _cells(atom_sets: list, model: SpectralModel, a, b) -> list:
    """The cells of (a, b) cut at each array of strictly increasing atoms,
    from one ``cdf_integrals`` call for all their edges: the index of each
    cell's step in a row of cumulative atom weights, its width and model
    cdf mean, and the cells' sum of dIG2 - w Gbar**2."""
    a = float(a)
    b = float(b)
    if not (0.0 <= a < b <= HALF_PI):
        raise ValueError(f"invalid angle interval ({a}, {b})")
    edges = [np.concatenate([[a], atoms[(atoms > a) & (atoms < b)], [b]]) for atoms in atom_sets]
    if not edges:
        return []
    bounds = np.cumsum([e.size for e in edges])
    integrals = np.split(model.cdf_integrals(np.concatenate(edges)), bounds[:-1], axis=1)
    cells = []
    for atoms, edge, values in zip(atom_sets, edges, integrals):
        width = np.diff(edge)
        ig, ig2 = np.diff(values, axis=1)
        mean = ig / width
        step = np.searchsorted(atoms, edge[:-1], side="right")
        cells.append((step, width, mean, float(np.sum(ig2 - ig * mean))))
    return cells


def _ise_rows(cells: tuple, steps: np.ndarray) -> np.ndarray:
    """ISE on ``cells`` of the step cdf of each row of ``steps``: a 0, then
    the atom weights, cumulated in place into the cdf after each atom.  A
    zero weight leaves its cell's step unchanged, so the rows may be
    estimates on any subsets of the atoms."""
    step, width, mean, spread = cells
    np.cumsum(steps, axis=1, out=steps)
    # take keeps rows contiguous, so each row sums as one 1-d array would;
    # the squared gap is formed in place
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


#: cell budget of a pass over k grids: a block holds the rows of as many
#: consecutive replications as fit in _CELLS cells, a row counting as its
#: replication's union size, which bounds both its member cells and its
#: row of atom weights
_CELLS = 1 << 15


class _TailGrid:
    """The extremes of one sample at every k of a grid ``ks``, from the
    ``union`` and the entries of :func:`~specmeasure.empirical._select`;
    ``atoms`` are the distinct union angles.

    ``position`` ranks each k in the sorted grid.  ``order`` sorts the
    union by entry (stably, so rows stay increasing within an entry), and
    the members at the i-th smallest k are those of entry at most i: row r
    of the grid holds the first ``count[r]`` members in that order.
    ``scores`` and ``column`` (1 + atom index) are the members' in that
    order."""

    def __init__(self, union: AngularSample, entry, ks: np.ndarray, position: np.ndarray):
        self.union, self.ks = union, ks
        self.atoms, inverse = np.unique(union.angles, return_inverse=True)
        self.order = np.argsort(entry, kind="stable")
        self.count = np.searchsorted(entry[self.order], position, side="right")
        self.scores = union.scores[self.order]
        self.column = inverse[self.order] + 1


class _Segments:
    """Rows of grids as one flat array of cells.  ``parts`` lists
    (grid, rows, segments): the slice ``rows`` of a grid's rows and the
    slice of segments that holds them.  Segment s, of ``length[s]`` cells
    from ``starts[s]``, is a zero cell followed by the scores of its row's
    members in entry order (:meth:`scores`): a prefix of the grid's zero
    cell and scores, laid out as ``mele._segment`` lays out one row.  A
    row's values thus depend on its own segment only, never on the rows
    beside it."""

    def __init__(self, parts):
        self.parts, self._scores, columns, offsets = [], [], [], []
        for grid, rows in parts:
            start = self.parts[-1][2].stop if self.parts else 0
            length = (grid.count[rows] + 1).tolist()
            self.parts.append((grid, rows, slice(start, start + len(length))))
            pool = np.concatenate(([0.0], grid.scores))
            column = np.concatenate(([0], grid.column))
            self._scores += [pool[:m] for m in length]
            columns += [column[:m] for m in length]
            # each row's place in its part's atom weights, an array of shape
            # (rows, 1 + atoms) whose column 0 takes the zero cells
            offsets.append(np.arange(len(length)) * (grid.atoms.size + 1))
        self.ks = np.concatenate([grid.ks[rows] for grid, rows, _ in self.parts])
        self.length = np.array([s.size for s in self._scores])
        self.starts = np.cumsum(self.length) - self.length
        self._bins = np.concatenate(columns)
        self._bins += np.repeat(np.concatenate(offsets), self.length)

    def scores(self) -> np.ndarray:
        """The cells: each segment's zero cell and member scores."""
        return np.concatenate(self._scores)

    def per_atom(self, values: np.ndarray):
        """Cell ``values`` summed per atom in member order, part by part: per
        grid row a 0 and then the row's atom weights (0 at the atoms off the
        row), so that its cumulative sum is the row's step cdf."""
        ends = np.append(self.starts, self._bins.size)
        for grid, _, segments in self.parts:
            cells = slice(ends[segments.start], ends[segments.stop])
            shape = (segments.stop - segments.start, grid.atoms.size + 1)
            weights = np.bincount(self._bins[cells], values[cells], minlength=shape[0] * shape[1])
            weights = weights.reshape(shape)
            weights[:, 0] = 0.0  # in place of the zero cells' values
            yield weights


def _blocks(grids):
    """Parts (rep, grid, rows) of the passes, in blocks of at most
    ``_CELLS`` cells, a row costing its grid's union size: each
    replication's rows in slices of as many as fit a block (at least one),
    packed greedily into blocks in order."""
    block, used = [], 0
    for rep, grid in grids:
        size, rows = grid.union.n_members, grid.ks.size
        step = max(1, _CELLS // size)
        for start in range(0, rows, step):
            span = slice(start, min(start + step, rows))
            cost = size * (span.stop - start)
            if block and used + cost > _CELLS:
                yield block
                block, used = [], 0
            block.append((rep, grid, span))
            used += cost
    if block:
        yield block


def _passes(model: SpectralModel, n: int, k_grid, interval: tuple, seed, reps):
    """Score replications ``reps`` in blocks; yield (rep, rows, emp, mel,
    solutions) for each slice of rows of a replication, in order.

    A block makes one selection per replication, one ``cdf_integrals``
    call for the cell edges of its replications and one row-wise solve
    over all its (replication, k, member) cells; the atom weights, the
    normalizers and the ISEs are per replication, on its own atoms.
    """
    k_grid = np.asarray(k_grid)
    if k_grid.ndim != 1 or k_grid.size == 0:
        raise ValueError("k grid must be a nonempty 1-d sequence of integers")
    seed = _check_integer(seed, "seed", 0)
    position = np.argsort(np.argsort(k_grid, kind="stable"))  # each k's rank in the sorted grid

    def grids():
        for rep in reps:
            sample = model.sample(n, np.random.default_rng([seed, rep]))
            union, entry = _select(pseudo_observations(sample), k_grid, model.p)
            yield rep, _TailGrid(union, entry, k_grid, position)

    for block in _blocks(grids()):
        cells = _cells([grid.atoms for _, grid, _ in block], model, *interval)
        yield from _scored(block, cells)


def _scored(block: list, cells: list):
    """The parts of :func:`_passes` for one block, given its parts' cells:
    one row-wise MELE solve for all the block's rows, then per part both
    estimators' atom weights, the normalizers, checked on the part's
    atoms, and the ISEs; the block's arrays go when it is done."""
    rows = _Segments([(grid, span) for _, grid, span in block])
    a = rows.scores()
    solutions = _solve_rows(a, rows.starts)
    mu = np.array([s.mu if s is not None else math.nan for s in solutions])
    emp = rows.per_atom(np.repeat(1.0 / rows.ks, rows.length))
    mel = rows.per_atom(_weight_rows(mu, a, rows.length))
    parts = zip(block, cells, rows.parts, emp, mel)
    for (rep, grid, span), part_cells, (_, _, segments), emp_steps, mel_steps in parts:
        # an infeasible row's weights, and so its normalizer, are NaN
        q = mel_steps[:, 1:]
        q *= (1.0 / _normalizers(grid.atoms, q, grid.union.p))[:, None]
        ises = (_ise_rows(part_cells, steps) for steps in (emp_steps, mel_steps))
        yield rep, span, *ises, solutions[segments]


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
    one-replication case of the block pass of :func:`mise_sweep`: one
    selection serves the whole grid, each estimator is one row of atom
    weights per k over the distinct angles of all members, and all rows
    are scored on one partition at those angles, which refines each k's
    own, so the ISEs are those of the per-k estimates, which build no
    grid, up to rounding.  The rows are scored in slices that fit the
    cell budget, so memory stays bounded for any grid; a row's values do
    not depend on its block.
    """
    rep = _check_integer(rep, "rep", 0)
    _, _, emp, mel, parts = zip(*_passes(model, n, k_grid, interval, seed, [rep]))
    solutions = [s for part in parts for s in part]
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

    Consecutive replications are scored together, in blocks within a
    fixed budget of (replication, k, member) cells, a replication's k
    split over blocks where they exceed it: a block's MELE rows are
    solved at once and its cell edges take one truth-integral call.
    Each row's values depend on its own cells only, so every replication's
    ISEs are bitwise those of :func:`replication_ise`, whatever block it
    falls in.
    """
    if p is not None and p != model.p:
        raise ValueError(f"norm order mismatch: model has p = {model.p}, requested {p}")
    replications = _check_integer(replications, "replications", 1)
    # the grid, each k (an integer in [1, n]), the seed and the interval are
    # checked by the pass
    a, b = map(float, model.default_ise_interval if interval is None else interval)

    nk = np.size(k_grid)
    emp, mel = np.empty((2, replications, nk))
    fits = np.empty((replications, nk, 2))  # Psi evaluations and residual, NaN if infeasible
    passes = _passes(model, n, k_grid, (a, b), seed, range(replications))
    for rep, rows, emp_ise, mel_ise, solutions in passes:
        emp[rep, rows], mel[rep, rows] = emp_ise, mel_ise
        fits[rep, rows] = [(s.iterations, s.residual) if s else (math.nan,) * 2 for s in solutions]

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
        replications=replications,
        p=float(model.p),
        k_grid=np.asarray(k_grid, dtype=np.int64),
        interval=(a, b),
        seed=int(seed),
        mise=mise,
        stderr=stderr,
        infeasible=infeasible,
        max_evaluations=int(np.fmax.reduce(fits[..., 0], axis=None, initial=0)),
        max_residual=float(np.fmax.reduce(fits[..., 1], axis=None)),
    )
