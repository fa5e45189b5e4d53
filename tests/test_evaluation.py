"""Integrated squared error and the Monte Carlo replication harness."""

import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmeasure import evaluation
from specmeasure.empirical import (
    DiscreteSpectralMeasure,
    _grid,
    _select,
    empirical_spectral_measure,
    select_extremes,
)
from specmeasure.evaluation import (
    ESTIMATORS,
    MiseTable,
    _cells,
    _scored,
    _TailGrid,
    integrated_squared_error,
    mise_sweep,
    replication_ise,
)
from specmeasure.mele import (
    SOLVER_TOL,
    WIDTH_TOL,
    ConstraintInfeasible,
    _solutions,
    mele_spectral_measure,
    solve_multiplier,
)
from specmeasure.models import (
    _NODES,
    SpectralModel,
    asym_logistic_model,
    cauchy_fullplane_model,
    cauchy_quadrant_model,
    mixture_model,
)
from specmeasure.pseudo_obs import BivariateSample

from oracles import ise_oracle, mise_oracle, parse_rows

HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4


def atoms(angles, weights, p=1.0):
    return DiscreteSpectralMeasure.from_atoms(angles, weights, p)


class TestIntegratedSquaredError:
    def test_exact_match_is_zero(self):
        # the r = 0 mixture is purely atomic; an estimate with the same
        # atoms has an identical cdf on any interior interval
        est = atoms([0.0, HALF_PI], [1.0, 1.0])
        assert integrated_squared_error(est, mixture_model(0.0, p=1.0), 0.1, 1.5) == 0.0

    def test_constant_gap(self):
        # cdf gap is identically c on the interval, so the error is
        # c^2 (b - a)
        c = 0.25
        est = atoms([0.0], [1.0 + c])
        a, b = 0.2, 1.3
        val = integrated_squared_error(est, mixture_model(0.0, p=1.0), a, b)
        assert val == pytest.approx(c * c * (b - a), rel=1e-13)

    def test_zero_measure_against_cauchy(self):
        # integral of (sin - cos + 1)^2 over (0, pi/2) is pi - 1
        est = atoms([], [])
        val = integrated_squared_error(est, cauchy_quadrant_model(1.0), 0.0, HALF_PI)
        assert val == pytest.approx(math.pi - 1.0, abs=1e-10)

        # independent check: midpoint rule with a million cells
        grid = (np.arange(1_000_000) + 0.5) * (HALF_PI / 1_000_000)
        riemann = np.sum((np.sin(grid) - np.cos(grid) + 1.0) ** 2) * (HALF_PI / 1_000_000)
        assert val == pytest.approx(riemann, abs=1e-9)

    def test_diagonal_point_mass_against_cauchy(self):
        est = atoms([QUARTER_PI], [2.0])
        val = integrated_squared_error(est, cauchy_quadrant_model(1.0), 0.0, HALF_PI)
        assert val == pytest.approx(math.pi + 3.0 - 4.0 * math.sqrt(2.0), abs=1e-10)

    def test_matches_piecewise_quad_oracle(self):
        model = cauchy_quadrant_model(1.0)
        a, b = 0.05 * HALF_PI, 0.95 * HALF_PI
        for seed in range(5):
            sample = model.sample(300, np.random.default_rng(seed))
            ang = select_extremes(sample, 30, 1.0)
            for est in [empirical_spectral_measure(ang), mele_spectral_measure(ang)]:
                val = integrated_squared_error(est, model, a, b)
                ref = ise_oracle(est, model.cdf_continuous, a, b)
                assert val == pytest.approx(ref, abs=1e-9)

    def test_singular_truth_cdf(self):
        # logistic with 1 < r < 2 has unbounded density at the endpoints;
        # the integral tables of the truth cdf are graded toward both
        model = asym_logistic_model(1.5, p=1.0)
        est = atoms([QUARTER_PI], [2.0])
        val = integrated_squared_error(est, model, 0.0, HALF_PI)
        ref = ise_oracle(est, model.cdf_continuous, 0.0, HALF_PI)
        assert val == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize(
        "model",
        [
            cauchy_quadrant_model(3.0),
            mixture_model(0.5, p=2.5),
            cauchy_quadrant_model(math.inf),
            asym_logistic_model(1.5, p=3.0),
        ],
        ids=["cauchy-p3", "mixture-p2.5", "cauchy-pinf", "logistic-r1.5-p3"],
    )
    def test_by_parts_and_max_norm_truths_match_oracle(self, model):
        a, b = model.default_ise_interval
        for seed in range(3):
            sample = model.sample(300, np.random.default_rng(seed))
            ang = select_extremes(sample, 30, model.p)
            for est in [empirical_spectral_measure(ang), mele_spectral_measure(ang)]:
                val = integrated_squared_error(est, model, a, b)
                ref = ise_oracle(est, model.cdf_continuous, a, b)
                assert val == pytest.approx(ref, abs=1e-9)

    def test_infinite_truth_slope_just_outside_a_cell(self):
        # the first atom sits 0.0045 from 0, so the next cell, 0.21 wide,
        # ends close to the infinite slope of the truth at 0; a Gauss rule
        # on that cell alone lost 2e-8 of the error, the tables lose none
        model = asym_logistic_model(1.5, p=3.0)
        sample = model.sample(1000, np.random.default_rng([7, 17]))
        est = empirical_spectral_measure(select_extremes(sample, 10, 3.0))
        assert est.angles[0] < 0.005 < 0.2 < est.angles[1]
        val = integrated_squared_error(est, model, 0.0, HALF_PI)
        ref = ise_oracle(est, model.cdf_continuous, 0.0, HALF_PI)
        assert val == pytest.approx(ref, rel=1e-12)

    def test_norm_order_mismatch(self):
        est = atoms([QUARTER_PI], [1.0], p=2.0)
        with pytest.raises(ValueError, match="norm order"):
            integrated_squared_error(est, cauchy_quadrant_model(1.0), 0.1, 1.0)

    def test_invalid_interval(self):
        est = atoms([QUARTER_PI], [1.0])
        model = cauchy_quadrant_model(1.0)
        for a, b in [(-0.1, 1.0), (0.0, HALF_PI + 0.01), (1.0, 1.0), (1.2, 0.3)]:
            with pytest.raises(ValueError, match="interval"):
                integrated_squared_error(est, model, a, b)


class TestSharedPartition:
    """Both estimators at one k share atoms, so one partition and one
    pass of truth cdf values serve both of their ISEs."""

    @pytest.mark.parametrize(
        "n, k_grid, seed, infeasible_fits", [(60, [2, 10], 3, 1), (300, [5, 20, 40], 8, 0)]
    )
    def test_replication_matches_per_k_public_calls(self, n, k_grid, seed, infeasible_fits):
        # seed 3, rep 0 at k = 2 is the infeasible fit of
        # TestReplicationIse.test_infeasible_marked_nan
        model = cauchy_quadrant_model(1.0)
        a, b = 0.1, 1.4
        seen = 0
        for rep in range(3):
            emp, mel, infeasible, _ = replication_ise(model, n, k_grid, (a, b), seed, rep)
            sample = model.sample(n, np.random.default_rng([seed, rep]))
            for i, k in enumerate(k_grid):
                ang = select_extremes(sample, k, model.p)
                assert emp[i] == pytest.approx(
                    integrated_squared_error(empirical_spectral_measure(ang), model, a, b), rel=1e-12
                )
                try:
                    expected = integrated_squared_error(mele_spectral_measure(ang), model, a, b)
                except ConstraintInfeasible:
                    assert infeasible[i] and math.isnan(mel[i])
                    seen += 1
                else:
                    assert not infeasible[i] and mel[i] == pytest.approx(expected, rel=1e-12)
        assert seen == infeasible_fits


class TestReplicationIse:
    def test_pure_function_of_seed_and_rep(self):
        model = cauchy_quadrant_model(1.0)
        args = (model, 200, [10, 20], (0.1, 1.4), 5)
        emp1, mel1, inf1, _ = replication_ise(*args, rep=3)
        emp2, mel2, inf2, _ = replication_ise(*args, rep=3)
        assert np.array_equal(emp1, emp2)
        assert np.array_equal(mel1, mel2)
        assert np.array_equal(inf1, inf2)
        emp3, *_ = replication_ise(*args, rep=4)
        assert not np.array_equal(emp1, emp3)

    def test_infeasible_marked_nan(self):
        # seed 3, rep 0 at k = 2 draws diagonal ties plus extremes on a
        # single side only, which cannot satisfy the moment constraint
        model = cauchy_quadrant_model(1.0)
        emp, mel, inf, solutions = replication_ise(model, 60, [2, 10], (0.1, 1.4), 3, 0)
        assert inf[0] and not inf[1]
        assert solutions[0] is None and solutions[1].residual <= SOLVER_TOL
        assert math.isnan(mel[0]) and not math.isnan(mel[1])
        assert np.all(np.isfinite(emp))


GRID_MODELS = {p: cauchy_quadrant_model(p) for p in (1.0, 2.0, 2.5, 3.0, math.inf)}


class TestGridPass:
    """A replication scores its whole k grid in one pass; each row of the
    grid is the estimate the per-k public calls give."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 150),
        p=st.sampled_from(sorted(GRID_MODELS)),
        tied=st.booleans(),
        data=st.data(),
    )
    def test_rows_match_per_k_public_calls(self, seed, n, p, tied, data):
        extra = data.draw(st.lists(st.integers(1, n), max_size=6))
        k_grid = data.draw(st.permutations([1, n, extra[0] if extra else n] + extra))
        model = GRID_MODELS[p]
        a, b = 0.1, 1.4
        values = model.sample(n, np.random.default_rng(seed)).values
        sample = BivariateSample(np.round(values, 1) if tied else values)
        # each k's rank in the grid sorted stably, by Python's stable sort
        order = sorted(range(len(k_grid)), key=k_grid.__getitem__)
        position = [order.index(i) for i in range(len(k_grid))]
        union, entry, size, factors = _select([sample], _grid(k_grid, n), p)
        grid = _TailGrid(union, entry, size, factors, np.array(k_grid), position, (a, b))
        cells = _cells(model, grid.edges, grid.edge_start)
        _, _, emp, mel, solve = _scored(grid, cells, [(0, 0, len(k_grid))])
        solutions = _solutions(solve)
        for i, k in enumerate(k_grid):
            ang = select_extremes(sample, k, p)
            members = union.indices[entry <= position[i]]
            assert grid.count[0, i] == members.size
            np.testing.assert_array_equal(members, ang.indices)
            assert emp[i] == pytest.approx(
                integrated_squared_error(empirical_spectral_measure(ang), model, a, b), rel=1e-12
            )
            try:
                expected = mele_spectral_measure(ang)
            except ConstraintInfeasible:
                assert solutions[i] is None and math.isnan(mel[i])
                continue
            mu = solve_multiplier(ang.scores).mu
            assert mu == expected.solution.mu
            # each solve is within WIDTH_TOL * (1 + |mu|) plus the float
            # resolution of Psi of the exact root (solve_multiplier); all
            # scores 0 (every member on the diagonal) give mu = 0 exactly
            t = ang.scores / (1.0 + mu * ang.scores)
            resolution = 0.0
            if np.any(t):
                resolution = 8.0 * np.finfo(float).eps * np.mean(np.abs(t)) / np.mean(t * t)
            assert abs(solutions[i].mu - mu) <= 2.0 * (WIDTH_TOL * (1.0 + abs(mu)) + resolution)
            assert mel[i] == pytest.approx(
                integrated_squared_error(expected, model, a, b), rel=1e-12
            )

    @pytest.mark.parametrize("k_grid", [[40], [10, 20, 40, 80, 5], list(range(10, 201, 10))])
    def test_one_pass_per_replication(self, monkeypatch, k_grid):
        # count guard: one selection and one truth integral evaluation per
        # replication, whatever the grid length, and one row-wise solve per
        # block of rows, which is the whole grid at these sizes
        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        model = cauchy_quadrant_model(1.0)
        integrals = model.cdf_integrals  # built once per model, before counting

        def counted_integrals(theta):
            calls.append("cdf_integrals")
            return integrals(theta)

        monkeypatch.setitem(model.__dict__, "cdf_integrals", counted_integrals)
        counted(evaluation, "_select")
        counted(evaluation, "_solve_rows")
        for rep in range(3):
            calls.clear()
            replication_ise(model, 1000, k_grid, (0.1, 1.4), 11, rep)
            assert sorted(calls) == ["_select", "_solve_rows", "cdf_integrals"]

    def test_full_resolution_grid_in_bounded_memory(self, monkeypatch):
        # every k in 1..n: the whole grid at once holds n x n cells per dense
        # array, 32 MB each at n = 2000 and a peak near 290 MB; blocks of
        # evaluation._CELLS cells keep the peak near 24 MB
        model = cauchy_quadrant_model(1.0)
        model.cdf_integrals  # build the model's tables before tracing
        solves = []
        solve = evaluation._solve_rows
        monkeypatch.setattr(
            evaluation, "_solve_rows", lambda *args: solves.append(1) or solve(*args)
        )
        tracemalloc.start()
        try:
            emp, mel, infeasible, _ = replication_ise(model, 2000, range(1, 2001), (0.1, 1.4), 5, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert len(solves) > 1
        assert np.all(np.isfinite(emp)) and np.array_equal(np.isnan(mel), infeasible)

    def test_rows_do_not_depend_on_their_block(self, monkeypatch):
        # one row per block and one replication per selection batch; a few
        # replications per block and batches of 4 replications; a few per
        # block and the whole sweep in one batch; and the whole sweep in one
        # block and one batch: on an unsorted grid with a repeated k; seed 3
        # has an infeasible fit at k = 2
        k_grid, interval, reps = [10, 2, 30, 10, 5], (0.1, 1.4), 6
        default = evaluation._CELLS
        for p in (1.0, 2.5, 3.0, math.inf):
            model = GRID_MODELS[p]
            tables, replications = [], []
            for cells in (1, 2 * 60 * 4, default, 2**40):
                monkeypatch.setattr(evaluation, "_CELLS", cells)
                tables.append(mise_sweep(model, 60, reps, k_grid, interval=interval, seed=3))
                replications.append(
                    [replication_ise(model, 60, k_grid, interval, 3, rep) for rep in range(reps)]
                )
            for table, runs in zip(tables, replications):
                assert table.to_text() == tables[0].to_text()
                for name in ("mise", "stderr", "infeasible", "max_evaluations", "max_residual"):
                    np.testing.assert_array_equal(getattr(table, name), getattr(tables[0], name))
                for run, first in zip(runs, replications[0]):
                    for x, y in zip(run[:3], first[:3]):
                        np.testing.assert_array_equal(x, y)
                    assert run[3] == first[3]
                # the sweep's rows are the replications': its empirical
                # means are those of the stacked replication rows, bitwise
                emp = np.array([run[0] for run in runs])
                np.testing.assert_array_equal(table.mise[:, 0], emp.mean(axis=0))
            if p == 1.0:
                assert tables[0].infeasible[1, 1] >= 1

    def test_one_pass_per_block(self, monkeypatch):
        # count guard: each batch of replications makes one selection and
        # one truth integral call, then one row-wise solve per block
        calls = []
        model = asym_logistic_model(2.0)
        integrals = model.cdf_integrals  # built once per model, before counting

        def counted_integrals(theta):
            calls.append("cdf_integrals")
            return integrals(theta)

        def counted_blocks(*args, _f=evaluation._blocks):
            for block in _f(*args):
                calls.append("block")
                yield block

        monkeypatch.setitem(model.__dict__, "cdf_integrals", counted_integrals)
        monkeypatch.setattr(evaluation, "_blocks", counted_blocks)
        for name in ("_select", "_solve_rows"):
            original = getattr(evaluation, name)
            monkeypatch.setattr(
                evaluation, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a)
            )
        mise_sweep(model, 1000, 40, range(10, 201, 10), seed=1)
        batches = " ".join(calls).split("_select")[1:]
        assert len(batches) == math.ceil(40 / (evaluation._CELLS // 2000))
        for batch in batches:
            blocks = batch.split()[1:].count("block")
            assert batch.split() == ["cdf_integrals"] + ["block", "_solve_rows"] * blocks
        assert 3 < calls.count("_solve_rows") < 40

    def test_sweep_in_bounded_memory(self):
        # memory guard at the paper's sizes: the traced peak is about 1.36 MB
        # at the default cell budget, 0.44 MB with one row per block and
        # 2.55 MB at twice the budget
        model = asym_logistic_model(2.0)
        mise_sweep(model, 1000, 1, range(10, 201, 10), seed=1)  # tables and first-call state
        tracemalloc.start()
        try:
            mise_sweep(model, 1000, 200, range(10, 201, 10), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_solver_aggregates(self):
        # seed 3 has one infeasible fit at k = 2
        model = cauchy_quadrant_model(1.0)
        table = mise_sweep(model, 60, 4, [2, 10], interval=(0.1, 1.4), seed=3)
        fits = []
        for rep in range(4):
            _, _, infeasible, solutions = replication_ise(model, 60, [2, 10], (0.1, 1.4), 3, rep)
            assert [s is None for s in solutions] == infeasible.tolist()
            fits += [s for s in solutions if s is not None]
        assert table.infeasible.sum() == 1 and len(fits) == 7
        assert table.max_evaluations == max(s.iterations for s in fits) > 0
        assert table.max_residual == max(s.residual for s in fits) <= SOLVER_TOL


#: one model of each family, by norm order
ORACLE_FAMILIES = {
    "logistic": lambda p: asym_logistic_model(2.0, p=p),
    "asymmetric-logistic": lambda p: asym_logistic_model(3.0, 0.7, 0.9, p=p),
    "cauchy-quadrant": cauchy_quadrant_model,
    "cauchy-fullplane": cauchy_fullplane_model,
    "mixture": lambda p: mixture_model(0.5, p=p),
}


class TestMiseOracle:
    """The table against a plain (replication, k) loop that shares only the
    sampler and the truth cdf with the package (oracles.mise_oracle), at
    one row per block and at the default cell budget."""

    # mele_oracle's weights are good to 1e-8 (test_acceptance), which bounds
    # the relative error of each MELE ISE; the worst measured over these
    # cases is 3.0e-12 relative for mise, and 2.3e-12 of the largest mise
    # for stderr
    RTOL = 1e-8

    def check(self, monkeypatch, model, n, reps, k_grid, seed):
        interval = model.default_ise_interval
        mise, stderr, infeasible = mise_oracle(model, n, reps, k_grid, seed, interval)
        for cells in (1, evaluation._CELLS):
            monkeypatch.setattr(evaluation, "_CELLS", cells)
            table = mise_sweep(model, n, reps, k_grid, seed=seed)
            np.testing.assert_array_equal(table.infeasible, infeasible)
            np.testing.assert_allclose(table.mise, mise, rtol=self.RTOL)
            atol = self.RTOL * np.nanmax(mise)
            np.testing.assert_allclose(table.stderr, stderr, rtol=self.RTOL, atol=atol)
        return infeasible

    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 3.0, math.inf])
    @pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
    def test_every_family_and_norm_order(self, monkeypatch, family, p):
        # an unsorted grid with a repeated k, whose sorting permutation is
        # not its own inverse
        self.check(monkeypatch, ORACLE_FAMILIES[family](p), 40, 3, [6, 10, 2, 6], 11)

    def test_infeasible_fits(self, monkeypatch):
        infeasible = self.check(monkeypatch, cauchy_quadrant_model(1.0), 60, 4, range(1, 11), 3)
        assert infeasible[:, 1].sum() > 0 and infeasible[:, 0].sum() == 0


class TestMiseSweep:
    def test_single_replication(self):
        model = cauchy_quadrant_model(1.0)
        interval = (0.1, 1.4)
        table = mise_sweep(model, 150, 1, [10, 25], interval=interval, seed=9)
        emp, mel, _, _ = replication_ise(model, 150, [10, 25], interval, 9, 0)
        np.testing.assert_array_equal(table.mise[:, 0], emp)
        np.testing.assert_array_equal(table.mise[:, 1], mel)
        np.testing.assert_array_equal(table.stderr, np.zeros((2, 2)))

    def test_bitwise_determinism(self):
        model = cauchy_quadrant_model(1.0)
        t1 = mise_sweep(model, 120, 5, [10, 20], seed=21)
        t2 = mise_sweep(model, 120, 5, [10, 20], seed=21)
        assert np.array_equal(t1.mise, t2.mise)
        assert np.array_equal(t1.stderr, t2.stderr)
        assert t1.to_text() == t2.to_text()

    def test_default_interval_is_models(self):
        model = mixture_model(0.5, p=1.0)
        a, b = model.default_ise_interval
        t1 = mise_sweep(model, 100, 2, [10], seed=4)
        t2 = mise_sweep(model, 100, 2, [10], interval=(a, b), seed=4)
        assert t1.interval == t2.interval == (a, b)
        assert np.array_equal(t1.mise, t2.mise)

    def test_infeasible_replications_excluded(self):
        model = cauchy_quadrant_model(1.0)
        table = mise_sweep(model, 60, 12, [2, 10], interval=(0.1, 1.4), seed=13)
        assert table.infeasible[0, 1] == 4
        assert table.infeasible[:, 0].sum() == 0
        assert table.infeasible[1, 1] == 0
        # the mean over the 8 feasible draws only
        vals = []
        for rep in range(12):
            _, mel, inf, _ = replication_ise(model, 60, [2], (0.1, 1.4), 13, rep)
            if not inf[0]:
                vals.append(mel[0])
        assert len(vals) == 8
        assert table.mise[0, 1] == pytest.approx(np.mean(vals), rel=1e-15)

    def test_all_infeasible_yields_nan(self):
        model = cauchy_quadrant_model(1.0)
        table = mise_sweep(model, 60, 1, [2], interval=(0.1, 1.4), seed=3)
        assert table.infeasible[0, 1] == 1
        assert math.isnan(table.mise[0, 1])
        text = table.to_text()
        rows = parse_rows(text)
        assert math.isnan(rows[1][2])

    def test_stderr_matches_sample_std(self):
        model = cauchy_quadrant_model(1.0)
        reps = 6
        table = mise_sweep(model, 100, reps, [15], interval=(0.1, 1.4), seed=8)
        emp = np.array(
            [replication_ise(model, 100, [15], (0.1, 1.4), 8, r)[0][0] for r in range(reps)]
        )
        assert table.mise[0, 0] == pytest.approx(emp.mean(), rel=1e-15)
        assert table.stderr[0, 0] == pytest.approx(
            emp.std(ddof=1) / math.sqrt(reps), rel=1e-12
        )

    def test_mele_stderr_from_two_feasible_fits(self):
        # replication 0 is one-sided at k = 2, which leaves two MELE fits
        model = cauchy_quadrant_model(1.0)
        table = mise_sweep(model, 60, 3, [2, 10], interval=(0.1, 1.4), seed=3)
        mel = np.array(
            [replication_ise(model, 60, [2, 10], (0.1, 1.4), 3, r)[1][0] for r in range(3)]
        )
        assert table.infeasible[0, 1] == 1 and math.isnan(mel[0])
        assert table.stderr[0, 1] == pytest.approx(mel[1:].std(ddof=1) / math.sqrt(2), rel=1e-12)

    def test_validation(self):
        model = cauchy_quadrant_model(2.0)
        with pytest.raises(ValueError, match="norm order"):
            mise_sweep(model, 100, 2, [10], p=1.0, seed=0)
        with pytest.raises(ValueError, match="replication"):
            mise_sweep(model, 100, 0, [10], seed=0)
        with pytest.raises(ValueError, match="k"):
            mise_sweep(model, 100, 2, [], seed=0)
        with pytest.raises(ValueError, match="k"):
            mise_sweep(model, 100, 2, [0, 10], seed=0)
        with pytest.raises(ValueError, match="integer"):
            mise_sweep(model, 100, 2, [10.5], seed=0)
        with pytest.raises(ValueError, match="interval"):
            mise_sweep(model, 100, 2, [10], interval=(1.2, 0.3), seed=0)
        for seed in (1.5, -1, math.nan, "3"):
            message = re.escape(f"seed must be a nonnegative integer, got {seed!r}")
            with pytest.raises(ValueError, match=message):
                mise_sweep(model, 50, 2, [10], seed=seed)
            with pytest.raises(ValueError, match=message):
                replication_ise(model, 50, [10], (0.1, 1.4), seed, 0)
        with pytest.raises(ValueError, match="k grid must be a nonempty 1-d sequence"):
            replication_ise(model, 50, [], (0.1, 1.4), 1, 0)
        # a sample size, a replication count or a replication index that is
        # not an integer fails with a ValueError naming it, never truncated
        def rep(index):
            return replication_ise(model, 50, [10], (0.1, 1.4), 1, index)

        for call, message in (
            (lambda: mise_sweep(model, 50.9, 2, [10], seed=1), "sample size must be a positive"),
            (lambda: mise_sweep(model, 50, 2.5, [10], seed=1), "replications must be a positive"),
            (lambda: rep(0.5), "rep must be a nonnegative"),
            (lambda: rep(-1), "rep must be a nonnegative"),
            (lambda: model.sample(0, np.random.default_rng(1)), "sample size must be a positive"),
        ):
            with pytest.raises(ValueError, match=message + " integer, got"):
                call()
        # an integral seed, size, count or index of any type is that integer
        table = mise_sweep(model, 50.0, 2.0, [10], seed=2.0)
        assert (table.seed, table.n, table.replications) == (2, 50, 2)
        assert table.to_text() == mise_sweep(model, 50, 2, [10], seed=2).to_text()
        np.testing.assert_array_equal(rep(1.0)[0], rep(1)[0])
        # every model samples, the asymmetric logistic included
        table = mise_sweep(asym_logistic_model(2.0, psi1=0.5), 100, 2, [10, 20], seed=0)
        assert table.model == "asymmetric-logistic(r=2,psi1=0.5,psi2=1)"
        assert np.all(np.isfinite(table.mise[:, 0]))

    def test_truth_cdf_sampled_once(self, monkeypatch):
        # the integral tables sample the truth once, at the table nodes;
        # no replication or k evaluates it again
        calls = []
        original = SpectralModel.cdf_continuous

        def counted(self, theta):
            calls.append(np.shape(theta))
            return original(self, theta)

        monkeypatch.setattr(SpectralModel, "cdf_continuous", counted)
        mise_sweep(cauchy_quadrant_model(3.0), 200, 3, [10, 20, 40], seed=5)
        assert calls == [_NODES.shape]

    def test_matching_norm_order_accepted(self):
        model = cauchy_quadrant_model(2.0)
        table = mise_sweep(model, 80, 1, [10], p=2.0, seed=1)
        assert table.p == 2.0


class TestMiseTable:
    def test_rows_cover_grid_and_estimators(self):
        model = cauchy_quadrant_model(1.0)
        table = mise_sweep(model, 100, 2, [10, 20, 30], seed=2)
        rows = list(table.rows())
        assert len(rows) == 6
        assert [r[0] for r in rows] == [10, 10, 20, 20, 30, 30]
        assert [r[1] for r in rows] == list(ESTIMATORS) * 3
        assert all(np.isfinite(r[2]) for r in rows)

    def test_text_round_trip_exact(self):
        model = cauchy_quadrant_model(1.0)
        table = mise_sweep(model, 100, 3, [10, 20], seed=13)
        parsed = parse_rows(table.to_text())
        assert parsed == list(table.rows())

    def test_write_to_stream(self):
        model = cauchy_quadrant_model(1.0)
        table = mise_sweep(model, 80, 1, [10], seed=0)
        buf = io.StringIO()
        table.write(buf)
        assert buf.getvalue() == table.to_text()
        assert buf.getvalue().startswith(MiseTable.HEADER)

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_rows("wrong\n1,empirical,0.1,0.0,0\n")
