"""Ground-truth spectral models: densities, cdfs, atoms, and samplers."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial import legendre
from scipy import integrate

from specmeasure.empirical import DiscreteSpectralMeasure
from specmeasure.evaluation import integrated_squared_error

from specmeasure.lp_geometry import lp_norm
from specmeasure.models import (
    _CHUNK,
    _GL_NODES,
    _GL_WEIGHTS,
    _NODES,
    _VANDER,
    _by_parts_cdf,
    _legint,
    _invert_mixture_conditional,
    _norm_ratio,
    _panel_antiderivatives,
    _prefix_sums,
    SpectralModel,
    asym_logistic_model,
    cauchy_fullplane_model,
    cauchy_quadrant_model,
    mixture_model,
    moment_sums,
)

from oracles import (
    cauchy_fullplane_margin_cdf,
    cauchy_quadrant_margin_cdf,
    cdf_power_integral,
    dkw_epsilon,
    frechet_cdf,
    pareto_cdf,
)

HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4


class TestLogisticDensity:
    def test_hand_value_at_diagonal(self):
        # r = 2 cancels every power factor; the sum norm of
        # (sin, cos)(pi/4) is sqrt(2)
        val = asym_logistic_model(2.0, p=1.0).interior_density(QUARTER_PI)
        assert val == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_zero_weight_kills_density(self):
        # a vanishing weight leaves no interior density: all of the
        # measure sits on the endpoint atoms, so the cdf is flat inside
        theta = np.linspace(0.1, 1.4, 10)
        model = asym_logistic_model(3.0, 0.0, 0.9, p=1.0)
        assert model.interior_density is None
        np.testing.assert_allclose(model.cdf(theta), np.ones(10), rtol=1e-14)

    def test_symmetric_weights_symmetric_density(self):
        theta = np.linspace(0.05, HALF_PI - 0.05, 41)
        for r in [1.5, 2.0, 4.0]:
            density = asym_logistic_model(r, 0.8, 0.8, p=2.0).interior_density
            np.testing.assert_allclose(density(theta), density(HALF_PI - theta), rtol=1e-12)

    @pytest.mark.parametrize("r", [1.2, 1.5, 3.0])
    @pytest.mark.parametrize("psi", [1.0, 0.7])
    def test_end_point_mirrors_zero(self, r, psi):
        # the float HALF_PI is the end point pi/2, as in the model cdfs:
        # infinite there for r < 2 and zero for r > 2, like at 0
        density = asym_logistic_model(r, psi, psi, p=1.5).interior_density
        with np.errstate(divide="ignore"):
            at_zero = density(0.0)
            at_end = density(HALF_PI)
        assert at_end == at_zero
        assert at_zero == (math.inf if r < 2.0 else 0.0)

    def test_rejects_r_one(self):
        # r = 1 is tail independence, with no density to evaluate;
        # below 1 the parameter is rejected outright
        assert asym_logistic_model(1.0).interior_density is None
        with pytest.raises(ValueError):
            asym_logistic_model(0.99)

    @pytest.mark.parametrize("psi1, psi2", [(-0.1, 1.0), (1.0, 1.5), (math.nan, 0.5)])
    def test_rejects_asymmetry_off_the_unit_interval(self, psi1, psi2):
        with pytest.raises(ValueError, match=r"asymmetry weights must lie in \[0, 1\]"):
            asym_logistic_model(2.0, psi1, psi2)

    def test_r_two_collapses_to_arc_norm(self):
        theta = np.linspace(0.01, HALF_PI - 0.01, 25)
        for p in [1.0, 2.0, math.inf]:
            vals = asym_logistic_model(2.0, p=p).interior_density(theta)
            np.testing.assert_allclose(
                vals, lp_norm(np.sin(theta), np.cos(theta), p), rtol=1e-13
            )


class TestLogisticModel:
    def test_tail_independence_r_one(self):
        model = asym_logistic_model(1.0)
        assert model.atom_zero == 1.0
        assert model.atom_half_pi == 1.0
        assert model.interior_density is None
        assert model.cdf(0.3) == pytest.approx(1.0)
        assert model.total_mass == pytest.approx(2.0)

    def test_vanishing_weight_is_tail_independent(self):
        for psi1, psi2 in [(0.7, 0.0), (0.0, 0.9)]:
            model = asym_logistic_model(5.0, psi1=psi1, psi2=psi2)
            assert model.atom_zero == 1.0
            assert model.atom_half_pi == 1.0
            assert model.interior_density is None

    def test_endpoint_atoms(self):
        model = asym_logistic_model(2.0, psi1=1.0, psi2=0.89)
        assert model.atom_zero == pytest.approx(0.11)
        assert model.atom_half_pi == pytest.approx(0.0)

    def test_sum_norm_total_mass(self):
        for args in [(2.0, 1.0, 1.0), (1.5, 1.0, 1.0), (3.0, 0.5, 1.0), (1.5, 0.9, 0.6)]:
            model = asym_logistic_model(*args, p=1.0)
            assert model.total_mass == pytest.approx(2.0, abs=1e-8), args

    def test_cdf_matches_library_quadrature(self):
        model = asym_logistic_model(2.0, psi1=1.0, psi2=0.89, p=1.0)
        for theta in [0.2, 0.7, 1.1, 1.5]:
            expected, _ = integrate.quad(model.interior_density, 0.0, theta, limit=300)
            assert model.cdf(theta) == pytest.approx(0.11 + expected, abs=1e-9)

    def test_singular_density_mass_recovered(self):
        # 1 < r < 2 has infinite density at both endpoints; the p = 1
        # mass identity exercises the endpoint corrections
        model = asym_logistic_model(1.2, p=1.0)
        assert model.total_mass == pytest.approx(2.0, abs=1e-8)

    def test_moment_integrals(self):
        for args in [(2.0, 1.0, 1.0), (1.5, 0.9, 0.6), (4.0, 1.0, 1.0)]:
            for p in [1.0, 2.0, math.inf]:
                s, c = moment_sums(asym_logistic_model(*args, p=p))
                assert s == pytest.approx(1.0, abs=1e-8), (args, p)
                assert c == pytest.approx(1.0, abs=1e-8), (args, p)

    def test_describe(self):
        assert asym_logistic_model(2.0).name == "logistic(r=2)"
        assert asym_logistic_model(2.0, psi1=0.5).name == "asymmetric-logistic(r=2,psi1=0.5,psi2=1)"
        assert (
            asym_logistic_model(1.0, psi2=0.4).name == "asymmetric-logistic(r=1,psi1=1,psi2=0.4)"
        )
        assert cauchy_quadrant_model().name == "cauchy-quadrant"
        assert cauchy_fullplane_model().name == "cauchy-fullplane"
        assert mixture_model(0.0).name == "mixture(r=0)"

    def test_samples_the_asymmetric_law(self):
        # unit Frechet margins, and the stable tail dependence function
        # l(1, 1) = (1 - psi1) + (1 - psi2) + ||(psi1, psi2)||_r estimated
        # by joint threshold exceedances at the k-th order statistics
        n, k = 100000, 1000
        eps = dkw_epsilon(n, 0.001)
        values = asym_logistic_model(2.0, psi1=0.5).sample(n, np.random.default_rng(41)).values
        for j in range(2):
            col = np.sort(values[:, j])
            assert np.max(np.abs(np.arange(1, n + 1) / n - frechet_cdf(col))) < eps, j
        x_thr, y_thr = np.partition(values, n - k, axis=0)[n - k]
        exceed = np.logical_or(values[:, 0] > x_thr, values[:, 1] > y_thr).sum()
        assert exceed / k == pytest.approx(0.5 + math.sqrt(1.25), abs=0.05)


class TestCauchyQuadrant:
    def test_sum_norm_closed_values(self):
        model = cauchy_quadrant_model(1.0)
        assert model.cdf(QUARTER_PI) == pytest.approx(1.0, rel=1e-14)
        assert model.total_mass == pytest.approx(2.0, rel=1e-14)

    def test_max_norm_mass(self):
        assert cauchy_quadrant_model(math.inf).total_mass == pytest.approx(
            math.sqrt(2.0), rel=1e-13
        )

    def test_euclidean_cdf_is_identity(self):
        model = cauchy_quadrant_model(2.0)
        theta = np.linspace(0.0, HALF_PI, 31)
        np.testing.assert_allclose(model.cdf_continuous(theta), theta, atol=1e-14)

    def test_no_atoms(self):
        model = cauchy_quadrant_model(1.0)
        assert model.atom_zero == 0.0
        assert model.atom_half_pi == 0.0

    @pytest.mark.parametrize("theta", [math.nan, -0.1, 2.0])
    def test_cdf_rejects_angle_off_the_interval(self, theta):
        model = cauchy_quadrant_model(1.0)
        with pytest.raises(ValueError, match="pi/2"):
            model.cdf(theta)
        with pytest.raises(ValueError, match="pi/2"):
            model.cdf(np.array([0.4, theta]))

    def test_fractional_order_cdf_by_quadrature(self):
        model = cauchy_quadrant_model(3.0)
        for theta in [0.3, 0.9, 1.4]:
            expected, _ = integrate.quad(
                lambda t: lp_norm(math.sin(t), math.cos(t), 3.0), 0.0, theta
            )
            assert model.cdf(theta) == pytest.approx(expected, abs=1e-9)

    def test_moment_integrals(self):
        for p in [1.0, 2.0, 3.0, math.inf]:
            s, c = moment_sums(cauchy_quadrant_model(p))
            assert s == pytest.approx(1.0, abs=1e-9)
            assert c == pytest.approx(1.0, abs=1e-9)


class TestCauchyFullplane:
    def test_endpoint_atoms(self):
        model = cauchy_fullplane_model(1.0)
        assert model.cdf(0.0) == pytest.approx(0.5)
        assert model.total_mass == pytest.approx(2.0, rel=1e-13)

    def test_interior_is_half_the_quadrant(self):
        full = cauchy_fullplane_model(2.0)
        quad = cauchy_quadrant_model(2.0)
        lo, hi = QUARTER_PI - 0.2, QUARTER_PI + 0.2
        full_inc = full.cdf(hi) - full.cdf(lo)
        quad_inc = quad.cdf(hi) - quad.cdf(lo)
        assert full_inc == pytest.approx(0.5 * quad_inc, rel=1e-12)

    def test_atom_at_top_excluded_from_continuous_cdf(self):
        model = cauchy_fullplane_model(1.0)
        assert model.cdf_continuous(HALF_PI) == pytest.approx(1.5, rel=1e-13)
        assert model.cdf(HALF_PI) == pytest.approx(2.0, rel=1e-13)

    def test_moment_integrals(self):
        for p in [1.0, 2.5, math.inf]:
            s, c = moment_sums(cauchy_fullplane_model(p))
            assert s == pytest.approx(1.0, abs=1e-9)
            assert c == pytest.approx(1.0, abs=1e-9)


class TestMixture:
    def test_independent_component_only(self):
        model = mixture_model(0.0)
        assert model.atom_zero == 1.0
        assert model.atom_half_pi == 1.0
        assert model.interior_density is None

    def test_fully_dependent_has_no_atoms(self):
        model = mixture_model(1.0)
        assert model.atom_zero == 0.0
        assert model.atom_half_pi == 0.0

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
    def test_sum_norm_mass_two(self, r):
        assert mixture_model(r, p=1.0).total_mass == pytest.approx(2.0, abs=1e-8)

    def test_sum_norm_closed_form_against_quadrature(self):
        model = mixture_model(0.5, p=1.0)

        def dens(t):
            return model.interior_density(t)

        for theta in [0.2, 0.8, 1.3]:
            expected, _ = integrate.quad(dens, 0.0, theta)
            assert model.cdf(theta) == pytest.approx(0.5 + expected, abs=1e-10)

    def test_max_norm_closed_form_against_quadrature(self):
        model = mixture_model(0.7, p=math.inf)
        for theta in [0.3, QUARTER_PI, 1.0, HALF_PI]:
            expected, _ = integrate.quad(
                model.interior_density, 0.0, theta, points=[QUARTER_PI], limit=200
            )
            assert model.cdf_continuous(theta) == pytest.approx(0.3 + expected, abs=1e-10)

    def test_max_norm_interior_mass(self):
        # total interior mass 1.5 r under the max norm
        model = mixture_model(0.4, p=math.inf)
        interior = model.cdf_continuous(HALF_PI) - model.atom_zero
        assert interior == pytest.approx(1.5 * 0.4, rel=1e-12)

    def test_euclidean_mass_by_quadrature_path(self):
        model = mixture_model(0.5, p=2.0)
        s, c = moment_sums(model)
        assert s == pytest.approx(1.0, abs=1e-8)
        assert c == pytest.approx(1.0, abs=1e-8)

    def test_default_benchmark_interval(self):
        a, b = mixture_model(0.5).default_ise_interval
        assert a == pytest.approx(0.05 * HALF_PI)
        assert b == pytest.approx(0.95 * HALF_PI)

    def test_rejects_out_of_range_weight(self):
        with pytest.raises(ValueError):
            mixture_model(1.5)

    def test_conditional_inversion_in_exact_arithmetic(self):
        # the extremes of the sampler's x = 1/g, g >= 2**-53, and of its
        # clipped q; at x = 1 and q = 1e-16 the root is 1 + 6.7e-17, and the
        # nearest double is 1
        x, q = (np.array(v).ravel() for v in np.meshgrid(
            [1.0, 1.5, 10.0, 1e3, 1e6, 1e9, 1e15, 2.0**53],
            [1e-16, 1e-8, 0.5, 1.0 - 1e-8, 1.0 - 1e-16]))
        y = _invert_mixture_conditional(x, q)
        for xi, yi, qi in zip(x.tolist(), y.tolist(), q.tolist()):
            a, b = Fraction(xi), Fraction(yi)
            cdf = (1 - 1 / b) * (1 + 1 / (a + b) - a * (a - 1) / (a + b) ** 2)
            assert yi >= 1.0 and abs(cdf - Fraction(qi)) <= 4e-16, (xi, qi, yi)

    def test_conditional_inversion_is_the_per_draw_newton(self):
        # each draw alone, in plain floats with the same expressions, until a
        # step no longer lowers it: x geometric on [1, 2**53] by q geometric
        # toward both ends of the sampler's clip, at most 53 passes each
        ends = np.geomspace(1e-16, 0.5, 100)
        x, q = (v.ravel() for v in np.meshgrid(np.geomspace(1.0, 2.0**53, 202),
                                               np.concatenate([ends, 1.0 - ends[::-1]])))

        def newton(x, q):
            p = 1.0 - q
            c = 1.0 + q * x * x
            y = (q * x + math.sqrt((q * x) * (q * x) + 4.0 * p)) / (2.0 * p)
            while True:
                g = ((p * y + 2.0 * x * p) * y - c) * y - 2.0 * x
                step = y - g / ((3.0 * p * y + 4.0 * x * p) * y - c)
                if not step < y:
                    return y
                y = step

        want = [newton(xi, qi) for xi, qi in zip(x.tolist(), q.tolist())]
        assert _invert_mixture_conditional(x, q).tolist() == want

    def test_conditional_inversion_of_no_draws(self):
        y = _invert_mixture_conditional(np.empty(0), np.empty(0))
        assert y.shape == (0,) and y.dtype == np.float64

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_independent_draw_is_the_inverse_uniform(self, seed):
        # r = 0 has no dependent draw: after its first rng.random(n), the
        # pairs are 1 / (1 - U) of the next (n, 2) uniforms
        rng = np.random.default_rng(seed)
        values = mixture_model(0.0).sample(1000, np.random.default_rng(seed)).values
        rng.random(1000)
        assert np.array_equal(values, 1.0 / (1.0 - rng.random((1000, 2))))


class TestSamplers:
    def test_deterministic_given_seed(self):
        for model in [
            asym_logistic_model(2.0),
            asym_logistic_model(3.0, psi1=0.7, psi2=0.9),
            cauchy_quadrant_model(1.0),
            cauchy_fullplane_model(1.0),
            mixture_model(0.5),
        ]:
            a = model.sample(500, np.random.default_rng(77)).values
            b = model.sample(500, np.random.default_rng(77)).values
            c = model.sample(500, np.random.default_rng(78)).values
            assert np.array_equal(a, b)
            assert not np.array_equal(a, c)

    def test_logistic_margins_are_frechet(self):
        n = 20000
        eps = dkw_epsilon(n, 0.001)
        for r in [1.0, 2.0, 5.0]:
            values = asym_logistic_model(r).sample(n, np.random.default_rng(123)).values
            for j in range(2):
                col = np.sort(values[:, j])
                ecdf = np.arange(1, n + 1) / n
                assert np.max(np.abs(ecdf - frechet_cdf(col))) < eps, r

    def test_sample_size_is_an_integer(self):
        # an integral size of any type is that integer; any other size fails
        model = asym_logistic_model(2.0)
        got = model.sample(50.0, np.random.default_rng(1)).values
        assert got.tobytes() == model.sample(50, np.random.default_rng(1)).values.tobytes()
        for n in (50.9, 0):
            with pytest.raises(ValueError, match=f"sample size must be a positive integer, got {n}"):
                model.sample(n, np.random.default_rng(1))

    def test_zero_weight_column_is_the_independent_frechet_draw(self):
        # psi2 = 0: the second column is Z2 = 1 / E2 itself, drawn after V
        # and after E1 for the first column
        n = 20000
        values = asym_logistic_model(3.0, psi1=0.7, psi2=0.0).sample(
            n, np.random.default_rng(9)
        ).values
        rng = np.random.default_rng(9)
        asym_logistic_model(3.0).sample(n, rng)
        rng.exponential(size=n)
        z2 = 1.0 / np.clip(rng.exponential(size=n), 1e-300, None)
        assert values[:, 1].tobytes() == z2.tobytes()
        col = np.sort(values[:, 1])
        eps = dkw_epsilon(n, 0.001)
        assert np.max(np.abs(np.arange(1, n + 1) / n - frechet_cdf(col))) < eps

    def test_r_one_with_one_weight_below_one(self):
        # V = 1 / E at r = 1, then Z is drawn for the psi2 < 1 column only:
        # the psi1 = 1 column draws nothing, so the streams end together
        n = 5000
        rng = np.random.default_rng(33)
        values = asym_logistic_model(1.0, psi1=1.0, psi2=0.4).sample(n, rng).values
        ref = np.random.default_rng(33)
        v = 1.0 / np.clip(ref.exponential(size=(n, 2)), 1e-300, None)
        z = 1.0 / np.clip(ref.exponential(size=n), 1e-300, None)
        v[:, 1] = np.maximum(0.6 * z, 0.4 * v[:, 1])
        assert values.tobytes() == v.tobytes()
        assert rng.random() == ref.random()

    def test_independence_at_r_one(self):
        # empirical correlation of ranks vanishes for r = 1
        values = asym_logistic_model(1.0).sample(50000, np.random.default_rng(3)).values
        u = np.argsort(np.argsort(values, axis=0), axis=0) / 50000.0
        corr = np.corrcoef(u[:, 0], u[:, 1])[0, 1]
        assert abs(corr) < 0.02

    def test_logistic_empirical_stdf(self):
        # l(1, 1) for r = 2 is sqrt(2); estimate it by joint threshold
        # exceedances at the k-th order statistics
        n, k = 100000, 1000
        values = asym_logistic_model(2.0).sample(n, np.random.default_rng(42)).values
        x_thr = np.partition(values[:, 0], n - k)[n - k]
        y_thr = np.partition(values[:, 1], n - k)[n - k]
        exceed = np.logical_or(values[:, 0] > x_thr, values[:, 1] > y_thr).sum()
        assert exceed / k == pytest.approx(math.sqrt(2.0), abs=0.05)

    def test_quadrant_margins_half_cauchy(self):
        n = 20000
        eps = dkw_epsilon(n, 0.001)
        values = cauchy_quadrant_model(1.0).sample(n, np.random.default_rng(5)).values
        assert np.all(values > 0.0)
        for j in range(2):
            col = np.sort(values[:, j])
            ecdf = np.arange(1, n + 1) / n
            assert np.max(np.abs(ecdf - cauchy_quadrant_margin_cdf(col))) < eps

    def test_fullplane_margins_cauchy(self):
        n = 20000
        eps = dkw_epsilon(n, 0.001)
        values = cauchy_fullplane_model(1.0).sample(n, np.random.default_rng(6)).values
        for j in range(2):
            col = np.sort(values[:, j])
            ecdf = np.arange(1, n + 1) / n
            assert np.max(np.abs(ecdf - cauchy_fullplane_margin_cdf(col))) < eps

    def test_mixture_margins_pareto(self):
        n = 20000
        eps = dkw_epsilon(n, 0.001)
        for r in [0.0, 0.5, 1.0]:
            values = mixture_model(r).sample(n, np.random.default_rng(8)).values
            assert np.all(values >= 1.0)
            for j in range(2):
                col = np.sort(values[:, j])
                ecdf = np.arange(1, n + 1) / n
                assert np.max(np.abs(ecdf - pareto_cdf(col))) < eps, (r, j)


def split_quad_cdf(model, theta):
    """Library quadrature of the interior density from 0 to theta, split
    near both endpoints (logistic densities with r < 2 blow up there)
    and at the max-norm kink pi/4."""
    cuts = [QUARTER_PI]
    for eps in (1e-12, 1e-9, 1e-6, 1e-3):
        cuts += [eps, HALF_PI - eps]
    edges = [0.0] + sorted(t for t in cuts if t < theta) + [theta]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        total += integrate.quad(model.interior_density, a, b, limit=200, epsabs=1e-14)[0]
    return model.atom_zero + total


ORACLE_ANGLES = [1e-7, 0.05, 0.3, QUARTER_PI, 1.0, 1.45, HALF_PI - 1e-6]


def assert_matches_split_quad(model, tol):
    got = model.cdf_continuous(np.array(ORACLE_ANGLES))
    want = [split_quad_cdf(model, theta) for theta in ORACLE_ANGLES]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)


class TestExactCdfs:
    """Sum-norm closed forms and the by-parts route for other norm orders."""

    @pytest.mark.parametrize(
        "args",
        [(1.2, 1.0, 1.0), (1.5, 1.0, 1.0), (3.0, 1.0, 1.0), (2.0, 1.0, 0.89), (1.5, 0.9, 0.6)],
    )
    def test_logistic_sum_norm_closed_form(self, args):
        assert_matches_split_quad(asym_logistic_model(*args, p=1.0), 1e-11)

    @pytest.mark.parametrize(
        "family, p",
        [
            ("cauchy-quadrant", 1.5),
            ("cauchy-quadrant", 2.5),
            ("cauchy-quadrant", 3.0),
            ("cauchy-quadrant", math.inf),
            ("cauchy-fullplane", 1.5),
            ("cauchy-fullplane", 2.5),
            ("cauchy-fullplane", 3.0),
            ("cauchy-fullplane", math.inf),
            ("mixture", 2.0),
            ("mixture", 2.5),
            ("logistic", 2.0),
            ("logistic", 3.0),
            ("logistic", math.inf),
        ],
    )
    def test_by_parts_cdf(self, family, p):
        make = {
            "cauchy-quadrant": cauchy_quadrant_model,
            "cauchy-fullplane": cauchy_fullplane_model,
            "mixture": lambda p: mixture_model(0.5, p=p),
            "logistic": lambda p: asym_logistic_model(1.5, p=p),
        }[family]
        assert_matches_split_quad(make(p), 1e-10)

    def test_max_norm_ratio_is_the_closed_form(self):
        # at p = inf, rho is max(s, c) / (s + c), and rho' follows from the
        # slope c where s > c and -s elsewhere, byte for byte
        theta = np.concatenate([np.linspace(0.0, HALF_PI, 20001), [QUARTER_PI], _NODES.ravel()])
        s, c = np.sin(theta), np.cos(theta)
        rho, drho = _norm_ratio(theta, math.inf)
        want = np.maximum(s, c) / (s + c)
        slope = np.where(s > c, c, -s)
        assert rho.tobytes() == want.tobytes()
        assert drho.tobytes() == ((slope - want * (c - s)) / (s + c)).tobytes()

    @pytest.mark.parametrize(
        "model",
        [
            asym_logistic_model(2.0),
            asym_logistic_model(1.5),
            asym_logistic_model(3.0, psi1=0.7, psi2=0.9),
            cauchy_quadrant_model(),
            cauchy_fullplane_model(),
            mixture_model(0.5),
        ],
        ids=lambda model: model.name,
    )
    def test_sum_norm_shortcut_is_the_by_parts_formula(self, model):
        # at p = 1, rho = 1 and rho' = 0 exactly, so phi1 returned as it is
        # equals the by-parts formula byte for byte
        phi1 = model.sum_norm_cdf
        draws = np.random.default_rng(3).uniform(0.0, HALF_PI, 20001)
        theta = np.concatenate([[0.0, HALF_PI], draws])
        integral = _panel_antiderivatives([_norm_ratio(_NODES, 1.0)[1] * phi1(_NODES)])
        want = _norm_ratio(theta, 1.0)[0] * phi1(theta) - integral(theta)[0]
        assert _by_parts_cdf(phi1, 1.0)(theta).tobytes() == want.tobytes()

    def test_singular_sum_norm_cdf_reaches_full_mass(self):
        # r = 1.2 has infinite slope at both ends; the float pi/2 stands
        # for the exact endpoint
        model = asym_logistic_model(1.2, psi1=0.7, psi2=0.9, p=1.0)
        assert model.cdf_continuous(0.0) == 1.0 - 0.9
        assert model.cdf_continuous(HALF_PI) == pytest.approx(2.0 - 0.3, abs=1e-15)


FAMILIES = {
    "cauchy-quadrant": cauchy_quadrant_model,
    "cauchy-fullplane": cauchy_fullplane_model,
    "logistic-r1.5": lambda p: asym_logistic_model(1.5, p=p),
    "logistic-asym": lambda p: asym_logistic_model(3.0, psi1=0.7, psi2=0.9, p=p),
    "mixture": lambda p: mixture_model(0.5, p=p),
}

#: the ends, pi/4 and points 1e-12 from each of them
INTEGRAL_ANGLES = [
    0.0,
    1e-12,
    0.3,
    QUARTER_PI - 1e-12,
    QUARTER_PI,
    QUARTER_PI + 1e-12,
    1.2,
    HALF_PI - 1e-12,
    HALF_PI,
]


class TestCdfIntegrals:
    """Antiderivative tables of the truth cdf G and of G**2."""

    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 3.0, math.inf])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_split_quadrature(self, family, p):
        model = FAMILIES[family](p)
        got = model.cdf_integrals(np.array(INTEGRAL_ANGLES))
        want = [
            [cdf_power_integral(model.cdf_continuous, theta, power) for theta in INTEGRAL_ANGLES]
            for power in (1, 2)
        ]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("model", [mixture_model(0.0), asym_logistic_model(1.0)])
    def test_purely_atomic_model_is_exact(self, model):
        theta = np.array([0.0, 0.1, 1.0, HALF_PI])
        np.testing.assert_array_equal(model.cdf_integrals(theta), [theta, theta])

    def test_long_query_equals_per_point_bitwise(self):
        model = mixture_model(0.5, p=2.5)
        theta = np.random.default_rng(4).uniform(0.0, HALF_PI, 2 * _CHUNK + 77)
        per_point = np.array([model.cdf_integrals(t) for t in theta]).T
        assert np.array_equal(model.cdf_integrals(theta), per_point)

    @pytest.mark.parametrize(
        "model", [asym_logistic_model(1.5), asym_logistic_model(1.5, p=2.5), mixture_model(0.0)]
    )
    def test_angles_checked_and_slack_counts_as_half_pi(self, model):
        # cdf_continuous accepts angles up to pi/2 + 1e-12; the end panel
        # is far narrower than that slack
        for theta in (-0.1, HALF_PI + 1e-11, math.nan):
            with pytest.raises(ValueError, match=r"angles must lie in \[0, pi/2\]"):
                model.cdf_integrals(np.array([0.3, theta]))
        assert np.array_equal(model.cdf_integrals(HALF_PI + 5e-13), model.cdf_integrals(HALF_PI))

    def test_shape_follows_theta(self):
        model = cauchy_quadrant_model(3.0)
        assert model.cdf_integrals(0.3).shape == (2,)
        assert model.cdf_integrals(np.full((3, 4), 0.3)).shape == (2, 3, 4)


def quadrant_parts(p, sum_norm_cdf=lambda t: np.sin(t) - np.cos(t) + 1.0):
    """The Cauchy quadrant measure declared from its p-free parts."""
    return SpectralModel(
        name="quadrant-parts",
        p=p,
        atom_zero=0.0,
        atom_half_pi=0.0,
        density_factor=np.ones_like,
        sum_norm_cdf=sum_norm_cdf,
        sampler=cauchy_quadrant_model().sampler,
    )


#: floats of either sign from subnormals to about 1e301, and zeros of both signs
panel_totals = st.one_of(
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1000)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
)


class TestPanelTables:
    """The prefix sums under the panel tables, and their refusal of cdfs
    that are not finite."""

    @settings(max_examples=300, deadline=None)
    @given(row=st.lists(panel_totals, max_size=120))
    def test_prefix_sums_are_fsum_prefixes(self, row):
        want = [math.fsum(row[:i]) for i in range(len(row) + 1)]
        assert np.array(_prefix_sums(row)).tobytes() == np.array(want).tobytes()

    def test_rule_and_recurrence_are_numpys_bitwise(self):
        # the written-out rule is leggauss(16), and the recurrence is legvander's
        nodes, weights = legendre.leggauss(16)
        assert _GL_NODES.tobytes() == nodes.tobytes()
        assert _GL_WEIGHTS.tobytes() == weights.tobytes()
        assert _VANDER.tobytes() == legendre.legvander(nodes, 15).T.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        c=st.tuples(st.integers(1, 4), st.integers(1, 3)).flatmap(
            lambda shape: arrays(np.float64, (16, *shape), elements=panel_totals)
        )
    )
    def test_legint_is_numpys_bitwise(self, c):
        assert _legint(c).tobytes() == legendre.legint(c, lbnd=-1.0).tobytes()

    def test_cdf_not_finite_at_a_node_fails(self):
        # a cdf gone NaN above theta = 1: the ISE tables (p = 1) and the
        # by-parts table (p = 2, built with the model) both refuse it
        def phi1(t):
            return np.where(t > 1.0, np.nan, np.sin(t) - np.cos(t) + 1.0)

        estimate = DiscreteSpectralMeasure([0.4, 1.2], [1.0, 1.0], 1.0)
        with pytest.raises(ValueError, match="not finite"):
            integrated_squared_error(estimate, quadrant_parts(1.0, phi1), 0.0, 1.5)
        with pytest.raises(ValueError, match="not finite"):
            quadrant_parts(2.0, phi1)


class TestNormOrder:
    """SpectralModel applies the norm order for every family."""

    @pytest.mark.parametrize("p", [0.5, math.nan])
    def test_model_rejects_bad_order(self, p):
        with pytest.raises(ValueError, match="norm order"):
            quadrant_parts(p)

    @pytest.mark.parametrize("p", [3.0, math.inf])
    def test_parts_give_the_family_cdf_bitwise(self, p):
        theta = np.linspace(0.0, HALF_PI, 2001)
        got = quadrant_parts(p).cdf_continuous(theta)
        assert np.array_equal(got, cauchy_quadrant_model(p).cdf_continuous(theta))


class TestCdfValidation:
    def test_domain_check(self):
        model = cauchy_quadrant_model(1.0)
        with pytest.raises(ValueError):
            model.cdf(2.0)
        with pytest.raises(ValueError):
            model.cdf(-0.1)
