"""Multiplier equation, constrained weights, and the normalized estimate."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmeasure.empirical import AngularSample, DiscreteSpectralMeasure, select_extremes
from specmeasure.lp_geometry import score_f
from specmeasure.mele import (
    SOLVER_TOL,
    WIDTH_TOL,
    ConstraintInfeasible,
    MultiplierSolution,
    _psi_rows,
    _segment,
    _solve_rows,
    mele_spectral_measure,
    mele_spectral_prob,
    mele_weights,
    psi,
    solve_multiplier,
    spectral_normalizer,
)
from specmeasure.models import asym_logistic_model, cauchy_quadrant_model

from oracles import mele_oracle, scores_feasible


def angular(angles, p=1.0, k=2, n=10):
    angles = np.asarray(angles, dtype=float)
    return AngularSample(
        indices=np.arange(angles.size),
        angles=angles,
        scores=np.asarray(score_f(angles, p)),
        k=k,
        p=p,
        n=n,
    )


def bisect_root(scores, lo, hi):
    """Plain 200-step bisection on the mean of A/(1 + mu A)."""
    a = np.asarray(scores, dtype=float)

    def g(mu):
        return float(np.mean(a / (1.0 + mu * a)))

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPsi:
    def test_symmetric_zero(self):
        assert psi(0.0, [-0.4, 0.4]) == 0.0

    def test_plain_average_at_zero(self):
        assert psi(0.0, [0.6, -0.2]) == pytest.approx(0.2, abs=1e-16)

    def test_two_point_root(self):
        assert psi(5.0 / 3.0, [0.6, -0.2]) == pytest.approx(0.0, abs=1e-16)

    def test_rejects_mu_outside_domain(self):
        # 1 + mu*a must stay positive for every score
        with pytest.raises(ValueError):
            psi(2.0, [-0.5, 0.5])

    @pytest.mark.parametrize(
        "mu, scores", [(math.nan, [-0.5, 0.5]), (math.inf, [0.5, 0.2]), (-math.inf, [-0.5, -0.2])]
    )
    def test_rejects_non_finite_mu(self, mu, scores):
        with pytest.raises(ValueError):
            psi(mu, scores)

    def test_strictly_decreasing(self):
        scores = np.array([-0.7, -0.1, 0.2, 0.5])
        lo, hi = -1.0 / 0.5, 1.0 / 0.7
        grid = np.linspace(lo + 1e-3, hi - 1e-3, 50)
        vals = [psi(mu, scores) for mu in grid]
        assert np.all(np.diff(vals) < 0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 700), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_segment_sums_are_those_of_each_row(self, sizes, seed):
        # a segment's zero cell makes its reduceat sums bitwise np.sum's of
        # its scores alone, whatever segments lie beside it: one-row calls
        # keep the sums of a plain row, and a row's sums do not depend on
        # its block
        rng = np.random.default_rng(seed)
        rows = [rng.uniform(-0.999, 0.999, m) * rng.uniform(0.0, 1.0, m) ** 3 for m in sizes]
        mu = rng.uniform(-0.5, 0.5, len(rows))
        cells = np.concatenate([np.concatenate(([0.0], row)) for row in rows])
        length = np.array(sizes) + 1
        value, slope = _psi_rows(mu, cells, np.cumsum(length) - length, length)
        for i, row in enumerate(rows):
            t = row / (1.0 + mu[i] * row)
            assert value[i] == np.sum(t) / row.size
            assert slope[i] == -np.sum(t * t) / row.size


class TestSolveMultiplier:
    def test_symmetric_scores(self):
        sol = solve_multiplier([-0.5, 0.5])
        assert sol.mu == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(mele_weights(sol, [-0.5, 0.5]), [0.5, 0.5], atol=1e-12)

    def test_two_point_closed_form(self):
        sol = solve_multiplier([-0.2, 0.6])
        assert sol.mu == pytest.approx(5.0 / 3.0, abs=1e-10)
        assert abs(sol.residual) <= 1e-12

    def test_root_may_leave_unit_interval(self):
        sol = solve_multiplier([-0.2, 0.6])
        lo, hi = sol.feasible_interval
        assert lo == pytest.approx(-1.0 / 0.6)
        assert hi == pytest.approx(5.0)
        assert sol.mu > 1.0

    def test_one_sided_positive(self):
        with pytest.raises(ConstraintInfeasible, match="above"):
            solve_multiplier([0.3, 0.7])

    def test_one_sided_negative(self):
        with pytest.raises(ConstraintInfeasible, match="below"):
            solve_multiplier([-0.3, -0.7, 0.0])

    def test_all_zero_scores(self):
        sol = solve_multiplier([0.0, 0.0, 0.0])
        assert sol.mu == 0.0
        np.testing.assert_allclose(mele_weights(sol, [0.0] * 3), [1.0 / 3.0] * 3)

    def test_matches_independent_bisection(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            scores = rng.uniform(-0.999, 0.999, size=rng.integers(2, 30))
            if not scores_feasible(scores) or np.all(scores == 0.0):
                continue
            sol = solve_multiplier(scores)
            lo = -1.0 / scores.max()
            hi = -1.0 / scores.min()
            ref = bisect_root(scores, lo + 1e-12 * (hi - lo), hi - 1e-12 * (hi - lo))
            assert sol.mu == pytest.approx(ref, abs=1e-11 * (1.0 + abs(ref)))

    @pytest.mark.parametrize("tiny", [2.3e-308, 2.2e-311])
    def test_out_of_trips_raises(self, tiny):
        # the root runs off towards the far end of a bracket of width 1 / tiny;
        # the last point has |Psi| of 1.6e-61 but a mass error |mu Psi| of 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match=r"201 evaluations of Psi .* = 0\.5"):
                solve_multiplier([-0.5, tiny])

    def test_tiny_score_within_trips(self):
        sol = solve_multiplier([-0.5, 1e-40])
        assert sol.iterations == 136
        assert max(1.0, abs(sol.mu)) * sol.residual <= SOLVER_TOL

    @pytest.mark.parametrize(
        "scores, message",
        [
            ([], "nonempty 1-d"),
            ([[-0.5, 0.5]], "nonempty 1-d"),
            ([-0.5, math.nan], "open interval"),
            ([-0.5, math.inf], "open interval"),
            ([-0.5, 1.0], "open interval"),
            ([-1.0, 0.5], "open interval"),
        ],
        ids=["empty", "two-d", "nan", "inf", "one", "minus-one"],
    )
    def test_rejects_bad_scores(self, scores, message):
        with pytest.raises(ValueError, match=message):
            solve_multiplier(scores)

    def test_extreme_asymmetry(self):
        # root pinned very near the feasibility boundary
        for scores in ([-1e-8, 0.99], [-0.99, 1e-8], [-0.9999, 0.9999, 1e-6]):
            sol = solve_multiplier(scores)
            w = mele_weights(sol, scores)
            assert abs(w.sum() - 1.0) <= 1e-10
            assert abs((w * np.asarray(scores)).sum()) <= 1e-10


class TestSolverContract:
    """Both constraints hold to the normalizer's 1e-8 contract however
    lopsided the scores: sum(w) - 1 = -mu Psi grows with |mu|, which is
    huge when a few tiny scores balance many near +-1."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 100_000),
        major=st.floats(1e-9, 1.0 - 1e-12),
        spread=st.floats(0.0, 0.5),
        minor=st.lists(st.floats(1e-15, 1.0 - 1e-12), min_size=1, max_size=3),
        side=st.sampled_from([1.0, -1.0]),
    )
    @example(n=100_000, major=0.999999, spread=0.0, minor=[1e-9], side=1.0)
    @example(n=100_000, major=1.0 - 1e-12, spread=0.0, minor=[1e-15], side=-1.0)
    def test_nearly_one_sided_scores(self, n, major, spread, minor, side):
        majority = np.linspace(major * (1.0 - spread), major, n)
        scores = side * np.concatenate([majority, -np.array(minor)])
        w = mele_weights(solve_multiplier(scores), scores)
        assert abs(w.sum() - 1.0) <= 1e-8
        assert abs(np.dot(w, scores)) <= 1e-8
        # sum-norm scores are tan(theta - pi/4); the normalizer re-derives
        # them from the angles and checks mass and moments itself
        q = DiscreteSpectralMeasure.from_atoms(math.pi / 4 + np.arctan(scores), w, 1.0)
        assert spectral_normalizer(q) == pytest.approx(0.5, abs=1e-8)

    def test_mass_error_bounded_for_huge_multiplier(self):
        # mu is about 1e9 here; a residual |Psi| of 1e-19 once left
        # sum(w) - 1 at -1.6e-10
        scores = np.concatenate([np.full(100_000, 0.999999), [-1e-9]])
        sol = solve_multiplier(scores)
        assert sol.mu > 1e8
        w = mele_weights(sol, scores)
        assert abs(w.sum() - 1.0) <= 1e-10
        assert abs(np.dot(w, scores)) <= 1e-10

    @pytest.mark.parametrize("seed", [20, 45])
    def test_mass_within_solver_tol_far_from_zero(self, seed):
        # a thousand scores in (0, 1) balanced by two in (-1e-3, 0) put mu
        # in the thousands; the stop rule bounds the mass error |mu Psi| as
        # well as |Psi|, so both constraints hold to SOLVER_TOL
        rng = np.random.default_rng(seed)
        scores = np.concatenate([rng.uniform(0.0, 1.0, 1000), -rng.uniform(0.0, 1e-3, 2)])
        sol = solve_multiplier(scores)
        assert abs(sol.mu) > 1000.0
        assert abs(sol.mu) * sol.residual <= SOLVER_TOL
        assert abs(mele_weights(sol, scores).sum() - 1.0) <= SOLVER_TOL


def exact_psi_sign(mu, scores) -> int:
    """Sign of Psi at the mpmath number mu, evaluated in 50 digits.

    Psi diverges to +inf at the lower end of the feasible interval and
    to -inf at the upper end, so points at or beyond an end take its sign.
    """
    with mpmath.workdps(50):
        a = [mpmath.mpf(float(s)) for s in scores]
        if any(1 + mu * s <= 0 for s in a):
            return 1 if mu < 0 else -1
        return int(mpmath.sign(mpmath.fsum(s / (1 + mu * s) for s in a)))


@st.composite
def straddling_scores(draw):
    """Scores in (-1, 1) on both sides of zero: spread out, or a majority
    on one side balanced by a few tiny scores, whose root then lies near
    the feasibility boundary."""
    unit = st.floats(1e-15, 1.0 - 1e-12)
    if draw(st.booleans()):
        pos = draw(st.lists(unit, min_size=1, max_size=200))
        neg = draw(st.lists(unit, min_size=1, max_size=200))
        return np.array(pos + [-x for x in neg])
    n = draw(st.integers(1, 397))
    major = draw(st.floats(1e-9, 1.0 - 1e-12))
    spread = draw(st.floats(0.0, 0.5))
    minor = draw(st.lists(st.floats(1e-15, 1e-3), min_size=1, max_size=3))
    side = draw(st.sampled_from([1.0, -1.0]))
    majority = np.linspace(major * (1.0 - spread), major, n)
    return side * np.concatenate([majority, -np.array(minor)])


class TestSolverWidthContract:
    """The exact root of Psi lies within WIDTH_TOL * (1 + |mu|) of the
    returned mu, widened by the float resolution of Psi there, and mu
    meets the residual target.  Signs of Psi in 50-digit arithmetic
    locate the root."""

    @settings(max_examples=200, deadline=None)
    @given(scores=straddling_scores())
    @example(scores=np.array([-1e-8, 0.99]))
    @example(scores=np.array([-0.99, 1e-8]))
    @example(scores=np.array([-0.9999, 0.9999, 1e-6]))
    @example(scores=np.array([1e-5, -1e-15, -1e-5]))
    @example(scores=np.concatenate([np.full(399, 1.0 - 1e-12), [-1e-15]]))
    @example(scores=np.concatenate([np.full(399, -1e-9), [0.999999]]))
    def test_root_within_width_of_mu(self, scores):
        sol = solve_multiplier(scores)
        value = psi(sol.mu, scores)
        assert max(abs(value), abs(sol.mu * value)) <= SOLVER_TOL
        # a rounding error of a few eps * mean|t| in the float Psi moves
        # its root by that over |Psi'| = mean(t^2): far below the width
        # target for scores of order one, above it when all scores are
        # tiny, where no float solve can locate the root any closer
        t = scores / (1.0 + sol.mu * scores)
        resolution = 8.0 * np.finfo(float).eps * np.mean(np.abs(t)) / np.mean(t * t)
        with mpmath.workdps(50):
            mu = mpmath.mpf(sol.mu)
            width = mpmath.mpf(WIDTH_TOL) * (1 + abs(mu)) + mpmath.mpf(resolution)
            # Psi is strictly decreasing, so these signs put the root in
            # [mu - width, mu + width]
            assert exact_psi_sign(mu - width, scores) >= 0
            assert exact_psi_sign(mu + width, scores) <= 0


@st.composite
def solver_segments(draw):
    """A segment's scores of each kind the row-wise solve meets: straddling
    zero, on one side of it (zeros allowed), all zero, or a single score;
    no score is subnormal, whose feasible end -1 / score would overflow."""
    kind = draw(st.sampled_from(["straddling", "one-sided", "zero", "single"]))
    score = st.floats(0.0, 1.0 - 1e-12, allow_subnormal=False)
    if kind == "straddling":
        return draw(straddling_scores())
    if kind == "one-sided":
        side = draw(st.sampled_from([1.0, -1.0]))
        return side * np.array(draw(st.lists(score, min_size=1, max_size=50)))
    if kind == "zero":
        return np.zeros(draw(st.integers(1, 5)))
    return draw(st.sampled_from([1.0, -1.0])) * np.array([draw(score)])


class TestSolveRows:
    """Each row of the row-wise solve is its segment's one-row solve, bit for
    bit, whatever segments lie beside it: root, residual, evaluations and
    both ends of the feasible interval."""

    @settings(max_examples=150, deadline=None)
    @given(segments=st.lists(solver_segments(), min_size=1, max_size=8))
    @example(segments=[np.array([-0.5, 0.5]), np.zeros(3), np.array([0.2]), np.array([-0.3, 0.0])])
    @example(segments=[np.append(np.full(399, 1.0 - 1e-12), -1e-15), np.array([-0.9, 0.1])])
    # a row out of trips (201 evaluations) beside a settled, a zero and a one-sided row
    @example(segments=[np.array([-0.9, 0.1]), np.array([-0.5, 2.3e-308]), np.zeros(2), np.array([0.3])])
    def test_rows_are_their_one_row_solves(self, segments):
        parts = [_segment(scores) for scores in segments]
        cells = np.concatenate([part[0] for part in parts])
        length = np.array([part[0].size for part in parts])
        columns = _solve_rows(cells, np.cumsum(length) - length, length)
        for i, part in enumerate(parts):
            for column, alone in zip(columns, _solve_rows(*part)):
                assert column.dtype == alone.dtype
                assert column[i : i + 1].tobytes() == alone.tobytes()


def test_mean_evaluations_per_fit():
    """Count guard: the closing step takes about 4 evaluations of Psi per
    fit on the paper's Monte Carlo design; bisecting the bracket down to
    the width target took about 24."""
    iterations = []
    for model in (asym_logistic_model(2.0, p=1.0), cauchy_quadrant_model(1.0)):
        for rep in range(20):
            sample = model.sample(1000, np.random.default_rng([11, rep]))
            for k in range(10, 201, 10):
                scores = select_extremes(sample, k, 1.0).scores
                if scores_feasible(scores):
                    iterations.append(solve_multiplier(scores).iterations)
    assert len(iterations) >= 700
    assert np.mean(iterations) <= 8.0


class TestWeights:
    def test_two_point_weights(self):
        sol = solve_multiplier([-0.2, 0.6])
        np.testing.assert_allclose(mele_weights(sol, [-0.2, 0.6]), [0.75, 0.25], atol=1e-11)

    def test_rejects_multiplier_outside_domain(self):
        # 1 + mu * a = -0.5 at a = -0.5
        solution = MultiplierSolution(3.0, 0.0, 0, (-2.0, 2.0))
        with pytest.raises(ValueError, match="positivity domain"):
            mele_weights(solution, [-0.5, 0.5])

    def test_identities_on_random_feasible_sets(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            scores = rng.uniform(-0.99, 0.99, size=rng.integers(2, 50))
            if not scores_feasible(scores):
                continue
            sol = solve_multiplier(scores)
            w = mele_weights(sol, scores)
            assert np.all(w > 0.0)
            assert abs(w.sum() - 1.0) <= 1e-10
            assert abs(np.dot(w, scores)) <= 1e-10

    def test_agrees_with_direct_maximization(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 50:
            size = rng.integers(2, 7)
            scores = np.round(rng.uniform(-0.9, 0.9, size=size), 3)
            if not scores_feasible(scores):
                continue
            w = mele_weights(solve_multiplier(scores), scores)
            np.testing.assert_allclose(w, mele_oracle(scores), atol=1e-8)
            checked += 1


class TestSpectralProb:
    def test_symmetric_angles_reduce_to_empirical(self):
        ang = angular([math.pi / 4 - 0.3, math.pi / 4 + 0.3])
        q = mele_spectral_prob(ang)
        np.testing.assert_allclose(q.weights, [0.5, 0.5], atol=1e-12)

    def test_two_point_weights_via_angles(self):
        # sum-norm scores -0.2 and 0.6 arise at tan(theta) = 2/3 and 4
        ang = angular([math.atan(2.0 / 3.0), math.atan(4.0)])
        q = mele_spectral_prob(ang)
        np.testing.assert_allclose(q.weights, [0.75, 0.25], atol=1e-10)

    def test_single_member_off_diagonal_infeasible(self):
        with pytest.raises(ConstraintInfeasible):
            mele_spectral_prob(angular([0.9]))

    def test_single_member_on_diagonal(self):
        q = mele_spectral_prob(angular([math.pi / 4]))
        np.testing.assert_allclose(q.weights, [1.0])

    def test_constraint_sum_vanishes(self):
        rng = np.random.default_rng(8)
        for p in [1.0, 2.0, math.inf]:
            angles = rng.uniform(0.1, 1.4, size=40)
            q = mele_spectral_prob(angular(angles, p=p))
            s, c = q.moment_sums()
            assert s == pytest.approx(c, abs=1e-10)


class TestNormalizer:
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_point_mass_on_diagonal(self, p):
        q = DiscreteSpectralMeasure.from_atoms([math.pi / 4], [1.0], p)
        expected = 2.0 ** (-1.0 / p) if p != math.inf else 1.0
        assert spectral_normalizer(q) == pytest.approx(expected, rel=1e-14)

    def test_tail_independence_measure(self):
        q = DiscreteSpectralMeasure.from_atoms(
            [0.0, math.pi / 2], [0.5, 0.5], 1.0
        )
        assert spectral_normalizer(q) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_unnormalized(self):
        q = DiscreteSpectralMeasure.from_atoms([math.pi / 4], [2.0], 1.0)
        with pytest.raises(ValueError, match="probability"):
            spectral_normalizer(q)

    def test_rejects_constraint_violation(self):
        q = DiscreteSpectralMeasure.from_atoms([0.2, 0.4], [0.5, 0.5], 1.0)
        with pytest.raises(ValueError, match="moment constraint"):
            spectral_normalizer(q)

    def test_rejects_mass_a_millionth_off(self):
        # a MELE Q scaled by 1 + 1e-6 still meets the moment constraint, so
        # only the 1e-8 mass check tells it from a probability measure
        sample = asym_logistic_model(2.0, p=2.5).sample(500, np.random.default_rng(7))
        q = mele_spectral_prob(select_extremes(sample, 40, 2.5))
        scaled = DiscreteSpectralMeasure(q.angles, q.weights * (1.0 + 1e-6), 2.5)
        sin_sum, cos_sum = scaled.moment_sums()
        assert abs(sin_sum - cos_sum) <= 1e-12
        with pytest.raises(ValueError, match="probability"):
            spectral_normalizer(scaled)


class TestSpectralMeasure:
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_point_mass_total(self, p):
        phi = mele_spectral_measure(angular([math.pi / 4], p=p))
        expected = 2.0 ** (1.0 / p) if p != math.inf else 1.0
        assert phi.total_mass == pytest.approx(expected, rel=1e-12)

    def test_sum_norm_mass_two(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            angles = rng.uniform(0.05, 1.5, size=30)
            if not scores_feasible(score_f(angles, 1.0)):
                continue
            phi = mele_spectral_measure(angular(angles, p=1.0))
            assert phi.total_mass == pytest.approx(2.0, abs=1e-8)

    def test_moment_constraints_hold(self):
        rng = np.random.default_rng(3)
        for p in [1.0, 1.7, 2.0, 5.0, math.inf]:
            angles = rng.uniform(0.05, 1.5, size=25)
            phi = mele_spectral_measure(angular(angles, p=p))
            s, c = phi.moment_sums()
            assert s == pytest.approx(1.0, abs=1e-8)
            assert c == pytest.approx(1.0, abs=1e-8)

    def test_symmetric_two_atoms(self):
        phi = mele_spectral_measure(angular([math.pi / 4 - 0.4, math.pi / 4 + 0.4]))
        np.testing.assert_allclose(phi.weights[0], phi.weights[1], rtol=1e-12)


class TestCarriedSolution:
    @pytest.mark.parametrize("p", [1.0, 2.5, math.inf])
    def test_estimate_carries_its_solve(self, p):
        ang = angular(np.random.default_rng(5).uniform(0.05, 1.5, size=40), p=p)
        expected = solve_multiplier(ang.scores)
        assert mele_spectral_prob(ang).solution == expected
        assert mele_spectral_measure(ang).solution == expected

    def test_weights_are_those_of_the_solution(self):
        ang = angular([0.3, 0.9, 1.2, 0.3])
        q = mele_spectral_prob(ang)
        w = mele_weights(q.solution, ang.scores)
        expected = DiscreteSpectralMeasure.from_atoms(ang.angles, w, 1.0)
        np.testing.assert_array_equal(q.angles, expected.angles)
        np.testing.assert_array_equal(q.weights, expected.weights)

    def test_solution_is_not_part_of_repr(self):
        q = mele_spectral_prob(angular([0.3, 1.2]))
        assert "solution" not in repr(q)
        assert DiscreteSpectralMeasure(q.angles, q.weights, q.p).solution is None
