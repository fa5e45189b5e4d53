"""Norm geometry: lp_norm, the moment score, and the unit-ball curves."""

import math

import numpy as np
import pytest

from specmeasure.lp_geometry import (
    check_norm_order,
    lp_norm,
    score_f,
)

FINITE_ORDERS = [1.0, 1.5, 2.0, 3.0, 7.0]
ALL_ORDERS = FINITE_ORDERS + [math.inf]


class TestNormOrder:
    def test_accepts_one_and_infinity(self):
        assert check_norm_order(1) == 1.0
        assert check_norm_order(math.inf) == math.inf
        assert check_norm_order(2.5) == 2.5

    @pytest.mark.parametrize("bad", [0.0, 0.99, -1.0, math.nan])
    def test_rejects_orders_below_one(self, bad):
        with pytest.raises(ValueError):
            check_norm_order(bad)


class TestLpNorm:
    def test_pythagorean(self):
        assert lp_norm(3.0, 4.0, 2.0) == pytest.approx(5.0, abs=1e-15)

    def test_max_norm(self):
        assert lp_norm(3.0, 4.0, math.inf) == 4.0

    def test_sum_norm(self):
        assert lp_norm(1.0, 1.0, 1.0) == 2.0

    def test_nonincreasing_in_order(self):
        rng = np.random.default_rng(91)
        x = rng.uniform(0.0, 5.0, size=200)
        y = rng.uniform(0.0, 5.0, size=200)
        prev = lp_norm(x, y, 1.0)
        for p in [1.2, 1.5, 2.0, 3.0, 6.0, 20.0, math.inf]:
            cur = lp_norm(x, y, p)
            assert np.all(cur <= prev + 1e-12)
            prev = cur

    def test_unit_circle_range(self):
        # on (sin, cos) every order lies between the max norm and the
        # sum norm, so within [sqrt(2)/2, 2]
        theta = np.linspace(0.0, math.pi / 2, 201)
        for p in ALL_ORDERS:
            norms = lp_norm(np.sin(theta), np.cos(theta), p)
            assert np.all(norms >= math.sqrt(2.0) / 2.0 - 1e-15)
            assert np.all(norms <= 2.0 + 1e-15)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_sign_of_a_component_is_ignored(self, p):
        for x, y in [(-1.0, 1.0), (-3.0, 1.0)]:
            assert lp_norm(x, y, p) == lp_norm(-x, y, p)
            assert lp_norm(y, x, p) == lp_norm(y, -x, p)

    def test_scalar_in_scalar_out(self):
        assert isinstance(lp_norm(1.0, 2.0, 3.0), float)

    def test_homogeneous(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x, y, c = rng.uniform(0.1, 4.0, size=3)
            for p in ALL_ORDERS:
                assert lp_norm(c * x, c * y, p) == pytest.approx(
                    c * lp_norm(x, y, p), rel=1e-14
                )


class TestScore:
    def test_zero_at_diagonal(self):
        for p in ALL_ORDERS:
            assert score_f(math.pi / 4, p) == pytest.approx(0.0, abs=1e-16)

    def test_endpoints(self):
        for p in ALL_ORDERS:
            assert score_f(0.0, p) == -1.0
            assert score_f(math.pi / 2, p) == 1.0

    def test_arctan_three_sum_norm(self):
        # (sin - cos)/(sin + cos) at tan(theta) = 3 is (3 - 1)/(3 + 1)
        assert score_f(math.atan(3.0), 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_odd_about_diagonal(self):
        theta = np.linspace(0.0, math.pi / 2, 401)
        for p in ALL_ORDERS:
            left = score_f(math.pi / 2 - theta, p)
            right = score_f(theta, p)
            np.testing.assert_allclose(left, -right, atol=1e-12)

    # pi/2 + 1e-9 is past the 1e-12 slack that absorbs rounding only
    @pytest.mark.parametrize("theta", [2.0, -0.1, math.nan, [0.5, math.nan], math.pi / 2 + 1e-9])
    def test_rejects_angles_outside_the_quadrant(self, theta):
        with pytest.raises(ValueError, match="pi/2"):
            score_f(theta, 1.0)

    def test_strictly_increasing_and_bounded(self):
        theta = np.linspace(0.0, math.pi / 2, 301)
        for p in ALL_ORDERS:
            vals = score_f(theta, p)
            assert np.all(np.diff(vals) > 0.0)
            assert np.all(np.abs(vals) <= 1.0)
