"""Pickands dependence functions built from discrete spectral measures."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specmeasure.empirical import (
    DiscreteSpectralMeasure,
    empirical_spectral_measure,
    select_extremes,
)
from specmeasure.mele import mele_spectral_measure
from specmeasure.models import asym_logistic_model, cauchy_quadrant_model
from specmeasure.pickands import MERGE_TOL, PickandsFunction, pickands_function

from oracles import logistic_pickands, pickands_max_kernel

QUARTER_PI = math.pi / 4
HALF_PI = math.pi / 2


def landing_on(v):
    """Angles that the transport w = sin / (sin + cos) takes to v."""
    v = np.asarray(v, dtype=float)
    return np.arctan2(v, 1.0 - v)


def transported(phi):
    s = np.sin(phi.angles)
    return s / (s + np.cos(phi.angles))


def sum_norm(angles, weights):
    return DiscreteSpectralMeasure.from_atoms(angles, weights, 1.0)


def mele_phi(model, n, k, seed):
    sample = model.sample(n, np.random.default_rng(seed))
    ang = select_extremes(sample, k, 1.0)
    return mele_spectral_measure(ang)


class TestSpectralToH:
    """The transport of the angles to [0, 1] inside pickands_function."""

    def test_angle_to_weight_map(self):
        phi = sum_norm([0.0, QUARTER_PI, math.atan(3.0), HALF_PI], [0.5, 1.0, 0.25, 0.5])
        A = pickands_function(phi)
        np.testing.assert_allclose(A.knots, [0.0, 0.5, 0.75, 1.0], atol=1e-15)
        np.testing.assert_allclose(A.slopes, [-0.5, 0.5, 0.75], rtol=1e-12)

    def test_mass_is_preserved(self):
        # no atom at pi/2, so the last slope is the total mass minus 1
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = rng.integers(2, 30)
            angles = np.unique(rng.uniform(0.0, HALF_PI, size=m))
            phi = sum_norm(angles, rng.uniform(0.1, 2.0, size=angles.size))
            assert pickands_function(phi).slopes[-1] + 1.0 == pytest.approx(
                phi.total_mass, rel=1e-12
            )

    def test_atom_in_the_slack_above_half_pi_lands_on_one(self):
        # a measure accepts angles up to pi/2 + 1e-12, where the cosine is
        # below 0 and would carry w past 1
        A = pickands_function(sum_norm([0.3, HALF_PI + 5e-13], [1.0, 1.0]))
        B = pickands_function(sum_norm([0.3, HALF_PI], [1.0, 1.0]))
        assert np.array_equal(A.knots, B.knots) and np.array_equal(A.values, B.values)

    def test_rejects_other_norms(self):
        phi = DiscreteSpectralMeasure.from_atoms([QUARTER_PI], [1.0], 2.0)
        with pytest.raises(ValueError, match="sum norm"):
            pickands_function(phi)

    def test_rejects_atomless_measure(self):
        # without atoms the transport would give A = 1 - v, so A(1) = 0
        with pytest.raises(ValueError, match="without atoms"):
            pickands_function(DiscreteSpectralMeasure([], [], 1.0))


class TestPickandsFunction:
    def test_point_mass_at_half_gives_envelope(self):
        A = pickands_function(sum_norm(landing_on([0.5]), [2.0]))
        np.testing.assert_allclose(A.knots, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(A.values, [1.0, 0.5, 1.0])
        v = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(A(v), np.maximum(v, 1.0 - v), atol=1e-15)
        np.testing.assert_allclose(A.slopes, [-1.0, 1.0])

    def test_boundary_atoms_give_independence(self):
        A = pickands_function(sum_norm([0.0, HALF_PI], [1.0, 1.0]))
        v = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(A(v), np.ones(101), atol=1e-15)

    def test_terminal_value_is_complementary_moment(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.integers(1, 12)
            angles = landing_on(np.unique(rng.uniform(0.0, 1.0, size=m)))
            phi = sum_norm(angles, rng.uniform(0.1, 1.5, size=angles.size))
            A = pickands_function(phi)
            expected = np.sum(phi.weights * (1.0 - transported(phi)))
            assert A(1.0) == pytest.approx(expected, rel=1e-12)
            assert A(0.0) == 1.0

    def test_segment_slopes_are_shifted_cdf(self):
        # slope immediately right of a knot equals the weight of the
        # atoms up to it, minus 1
        phi = sum_norm(landing_on([0.2, 0.6, 0.9]), [0.5, 1.0, 0.4])
        A = pickands_function(phi)
        np.testing.assert_allclose(A.knots[1:-1], [0.2, 0.6, 0.9], rtol=1e-15)
        np.testing.assert_allclose(
            A.slopes, np.concatenate(([0.0], np.cumsum(phi.weights))) - 1.0, rtol=1e-12
        )

    def test_points_within_merge_tol_coalesce(self):
        # pi/4 and the next float land 1 ulp apart, far inside MERGE_TOL
        angles = [0.3, QUARTER_PI, np.nextafter(QUARTER_PI, 1.0), 1.2]
        phi = sum_norm(angles, [0.5, 0.5, 0.5, 0.5])
        w = transported(phi)
        assert 0.0 < w[2] - w[1] < MERGE_TOL
        A = pickands_function(phi)
        assert A.knots.size == 5
        assert A.knots[2] == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(A.slopes, [-1.0, -0.5, 0.5, 1.0], rtol=1e-12)

    def test_domain_and_validation(self):
        A = pickands_function(sum_norm([QUARTER_PI], [2.0]))
        with pytest.raises(ValueError):
            A(1.5)
        with pytest.raises(ValueError):
            A(-0.1)
        with pytest.raises(ValueError):
            PickandsFunction(knots=np.array([0.0, 0.5]), values=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            PickandsFunction(
                knots=np.array([0.0, 0.6, 0.3, 1.0]), values=np.ones(4)
            )
        # a repeated knot would leave the slope between its copies 0 / 0
        with pytest.raises(ValueError, match="increase strictly"):
            PickandsFunction([0.0, 0.5, 0.5, 1.0], [1.0, 0.75, 0.75, 1.0])
        # a NaN knot compares False both ways, and would evaluate to nan
        with pytest.raises(ValueError, match="increase strictly"):
            PickandsFunction([0.0, math.nan, 1.0], [1.0, 0.7, 1.0])
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="must be finite"):
                PickandsFunction([0.0, 1.0], [1.0, bad])

    @pytest.mark.parametrize(
        "knots, values", [([0.0, 1.0], [1.0]), ([1.0], [1.0]), ([[0.0, 1.0]], [[1.0, 1.0]])]
    )
    def test_rejects_malformed_knots(self, knots, values):
        with pytest.raises(ValueError, match="matching 1-d arrays, length >= 2"):
            PickandsFunction(knots=np.array(knots), values=np.array(values))

    @pytest.mark.parametrize("v", [math.nan, [0.5, math.nan]])
    def test_nan_argument_raises(self, v):
        A = pickands_function(sum_norm([QUARTER_PI], [2.0]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            A(v)

    def test_knots_leave_numpy_ma_unimported(self):
        # a plain np.unique imports numpy.ma on its first call in a process
        code = (
            "import sys\n"
            "from specmeasure.empirical import DiscreteSpectralMeasure\n"
            "from specmeasure.pickands import pickands_function\n"
            "phi = DiscreteSpectralMeasure.from_atoms([0.3, 1.2, 0.3], [0.5, 1.0, 0.5], 1.0)\n"
            "assert pickands_function(phi).knots.size == 4\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_results_compare_by_identity_and_hash(self):
        # array fields make field-wise == ambiguous; identity is the equality
        phi = sum_norm(landing_on([0.2, 0.7]), [0.5, 1.5])
        A, B = pickands_function(phi), pickands_function(phi)
        assert A != B
        assert A == A
        assert len({A, B, A}) == 2


class TestConstrainedEstimates:
    def test_matches_max_kernel_oracle(self):
        # with both moments equal to 1 the cumulative form and the
        # max-kernel integral are the same function
        model = cauchy_quadrant_model(1.0)
        v = np.linspace(0.0, 1.0, 257)
        for seed in range(5):
            phi = mele_phi(model, 400, 40, seed)
            A = pickands_function(phi)
            np.testing.assert_allclose(
                A(v), pickands_max_kernel(transported(phi), phi.weights, v), atol=1e-12
            )

    def test_dependence_function_axioms(self):
        model = cauchy_quadrant_model(1.0)
        v = np.linspace(0.0, 1.0, 1001)
        for seed in range(10):
            A = pickands_function(mele_phi(model, 500, 50, seed))
            assert A(0.0) == pytest.approx(1.0, abs=1e-8)
            assert A(1.0) == pytest.approx(1.0, abs=1e-8)
            slopes = A.slopes
            assert np.all(np.diff(slopes) >= -1e-12)
            assert np.all(slopes >= -1.0 - 1e-9)
            assert np.all(slopes <= 1.0 + 1e-9)
            vals = A(v)
            assert np.all(vals <= 1.0 + 1e-8)
            assert np.all(vals >= np.maximum(v, 1.0 - v) - 1e-8)

    def test_raw_empirical_is_not_normalized(self):
        # the unconstrained estimator misses A(1) = 1; the constrained
        # one repairs it
        model = cauchy_quadrant_model(1.0)
        raw_gap, fixed_gap = [], []
        for seed in range(10):
            sample = model.sample(400, np.random.default_rng(seed))
            ang = select_extremes(sample, 40, 1.0)
            raw = pickands_function(empirical_spectral_measure(ang))
            fixed = pickands_function(mele_spectral_measure(ang))
            raw_gap.append(abs(raw(1.0) - 1.0))
            fixed_gap.append(abs(fixed(1.0) - 1.0))
        assert max(fixed_gap) < 1e-8
        assert max(raw_gap) > 1e-3

    def test_recovers_logistic_dependence(self):
        # average the estimate at the midpoint over seeds; the truth is
        # 2**(-1/2) for r = 2
        vals = []
        for seed in range(30):
            sample = asym_logistic_model(2.0).sample(1000, np.random.default_rng([41, seed]))
            ang = select_extremes(sample, 40, 1.0)
            A = pickands_function(mele_spectral_measure(ang))
            vals.append(A(0.5))
        assert np.mean(vals) == pytest.approx(logistic_pickands(0.5, 2.0), abs=0.03)
