"""Multiplier equation, constrained weights, and the normalized estimate."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmeasure.empirical import AngularSample, DiscreteSpectralMeasure
from specmeasure.lp_geometry import score_f
from specmeasure.mele import (
    ConstraintInfeasible,
    mele_spectral_measure,
    mele_spectral_prob,
    mele_weights,
    psi,
    solve_multiplier,
    spectral_normalizer,
)

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

    def test_strictly_decreasing(self):
        scores = np.array([-0.7, -0.1, 0.2, 0.5])
        lo, hi = -1.0 / 0.5, 1.0 / 0.7
        grid = np.linspace(lo + 1e-3, hi - 1e-3, 50)
        vals = [psi(mu, scores) for mu in grid]
        assert np.all(np.diff(vals) < 0.0)


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


class TestWeights:
    def test_two_point_weights(self):
        sol = solve_multiplier([-0.2, 0.6])
        np.testing.assert_allclose(mele_weights(sol, [-0.2, 0.6]), [0.75, 0.25], atol=1e-11)

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

    def test_scaled_keeps_solution(self):
        q = mele_spectral_prob(angular([0.3, 1.2]))
        assert q.scaled(0.5).solution is q.solution

    def test_solution_is_not_part_of_repr(self):
        q = mele_spectral_prob(angular([0.3, 1.2]))
        assert "solution" not in repr(q)
        assert DiscreteSpectralMeasure(q.angles, q.weights, q.p).solution is None
