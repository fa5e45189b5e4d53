"""Norm geometry: lp_norm, the moment score, and the unit-ball curves."""

import math

import numpy as np
import pytest

from specmeasure.empirical import DiscreteSpectralMeasure
from specmeasure.lp_geometry import (
    HALF_PI,
    _check_angles,
    _geometry,
    check_norm_order,
    lp_norm,
    score_f,
)
from specmeasure.models import asym_logistic_model, cauchy_quadrant_model, mixture_model
from specmeasure.pickands import pickands_function

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

    @pytest.mark.parametrize("p", ALL_ORDERS + [2.5, 1e300])
    def test_two_infinite_components(self, p):
        # equal components give the ratio 1, also when both are infinite
        for x, y in [(math.inf, math.inf), (-math.inf, math.inf)]:
            assert lp_norm(x, y, p) == math.inf
        assert np.array_equal(lp_norm([math.inf, 0.0], [math.inf, 0.0], p), [math.inf, 0.0])

    def test_max_norm_is_the_general_expression(self):
        # the branch at p = inf gives the bytes of hi (1 + r**p)**(1/p) at p = inf:
        # zeros, subnormals, equal components, infinities, 1e-300 to 1e300
        rng = np.random.default_rng(11)
        spread = 10.0 ** rng.uniform(-300.0, 300.0, 400)
        edges = [0.0, -0.0, 5e-324, 2e-310, 1e-300, 1.0, 1e300, math.inf, -math.inf]
        x, y = (np.array(v).ravel() for v in np.meshgrid(edges, edges))
        x = np.concatenate([x, spread, spread, -spread[::-1]])
        y = np.concatenate([y, spread[::-1], spread, spread])
        hi = np.maximum(np.abs(x), np.abs(y))
        lo = np.minimum(np.abs(x), np.abs(y))
        r = np.where(lo < hi, lo / np.where(lo < hi, hi, 1.0), 1.0)
        want = hi * (1.0 + r**math.inf) ** (1.0 / math.inf)
        assert lp_norm(x, y, math.inf).tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 3.0, math.inf])
    def test_angles_in_the_slack_count_as_half_pi(self, p):
        # the angle check admits angles up to 1e-12 past pi/2; they count as
        # pi/2, so the score stays 1 and the cosine factor positive
        theta = math.pi / 2 + 5e-13
        assert score_f(theta, p) == 1.0
        at_half_pi = _geometry(np.array([math.pi / 2]), p)
        assert np.array_equal(_geometry(_check_angles([theta]), p), at_half_pi)
        s, c = DiscreteSpectralMeasure([theta], [1.0], p).moment_sums()
        assert s == 1.0 and c > 0.0

    def test_strictly_increasing_and_bounded(self):
        theta = np.linspace(0.0, math.pi / 2, 301)
        for p in ALL_ORDERS:
            vals = score_f(theta, p)
            assert np.all(np.diff(vals) > 0.0)
            assert np.all(np.abs(vals) <= 1.0)


def _angle_functions():
    """Every public function of an angle, as (id, theta -> float array)."""
    for p in [1.0, 2.0, 2.5, math.inf]:
        yield f"score_f-p{p}", lambda t, p=p: score_f(t, p)
    models = [
        asym_logistic_model(1.5, p=1.0),
        asym_logistic_model(1.5, p=2.5),
        asym_logistic_model(3.0, 0.7, 0.9, p=2.0),
        cauchy_quadrant_model(math.inf),
        mixture_model(0.0),
    ]
    for model in models:
        label = f"{model.name}-p{model.p}"
        yield f"{label}-cdf_continuous", model.cdf_continuous
        yield f"{label}-cdf", model.cdf
        yield f"{label}-cdf_integrals", model.cdf_integrals
        if model.interior_density is not None:
            yield f"{label}-interior_density", model.interior_density
    measure = DiscreteSpectralMeasure([0.3, HALF_PI], [1.0, 2.0], 2.5)
    yield "measure-cdf", measure.cdf
    for p in [1.0, 2.5, math.inf]:
        yield f"measure-moment_sums-p{p}", (
            lambda t, p=p: DiscreteSpectralMeasure.from_atoms([0.3, t], [1.0, 2.0], p).moment_sums()
        )

    def pickands(t):
        A = pickands_function(DiscreteSpectralMeasure.from_atoms([0.3, t], [1.0, 2.0], 1.0))
        return np.concatenate([A.knots, A.values])

    yield "measure-pickands_function", pickands


ANGLE_FUNCTIONS = dict(_angle_functions())


@pytest.mark.parametrize("name", ANGLE_FUNCTIONS)
def test_every_angle_function_counts_the_slack_as_half_pi(name):
    # _check_angles admits angles up to 1e-12 past pi/2 and counts them as
    # pi/2; logistic r < 2 has an infinite density at pi/2, hence errstate
    f = ANGLE_FUNCTIONS[name]
    with np.errstate(divide="ignore"):
        at_half_pi = np.asarray(f(HALF_PI), dtype=float).tobytes()
        for theta in [HALF_PI + 5e-13, HALF_PI + 1e-12]:
            assert np.asarray(f(theta), dtype=float).tobytes() == at_half_pi
    for theta in [-5e-324, HALF_PI + 2e-12, math.nan]:
        with pytest.raises(ValueError, match="pi/2"):
            f(theta)
