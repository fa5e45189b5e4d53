"""Reference bivariate models with known spectral measures.

Each model packages the exact angular cumulative distribution function
of its spectral measure together with an exact sampler for the
corresponding bivariate distribution.  These are the ground truths the
estimators are judged against.

Every density here is ||(sin, cos)||_p g(theta) with g free of p, and
the endpoint atoms do not depend on p.  A family therefore declares only
its p-free parts: the atoms, the density factor g and the closed-form
interior cdf Phi_1 under the sum norm.  :class:`SpectralModel` applies
the norm order, the same way for every family: the density is
||(sin, cos)||_p g, and the interior cdf follows from Phi_1 by one
integration by parts,

    Phi_p(theta) = rho(theta) Phi_1(theta) - int_0^theta rho' Phi_1,

with rho = ||(sin, cos)||_p / ||(sin, cos)||_1.  The remaining integrand
is bounded, so a fixed Gauss-Legendre table sums it; at p = 1 the cdf is
Phi_1 itself.

For exact ISEs each model samples its own cdf G once at the table's
nodes, on first use, and keeps the antiderivatives of G and G**2 as one
polynomial per panel (:meth:`SpectralModel.cdf_integrals`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from .lp_geometry import HALF_PI, QUARTER_PI, _check_angles, _unwrap, check_norm_order, lp_norm
from .pseudo_obs import BivariateSample

__all__ = [
    "SpectralModel",
    "asym_logistic_model",
    "cauchy_quadrant_model",
    "cauchy_fullplane_model",
    "mixture_model",
    "moment_sums",
]

#: the 16-point Gauss-Legendre rule on [-1, 1], bitwise leggauss(16) of
#: np.polynomial.legendre, written out so that no LAPACK call is made at
#: import; the rule is symmetric, so its upper nodes and weights are enough
_GL_UPPER = np.array([
    [0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
     0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499],
    [0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
     0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176],
])
_GL_NODES = np.concatenate([-_GL_UPPER[0, ::-1], _GL_UPPER[0]])
_GL_WEIGHTS = np.concatenate([_GL_UPPER[1, ::-1], _GL_UPPER[1]])
#: P_0 .. P_15 at the nodes, a row each, by legvander's recurrence: bitwise its transpose
_VANDER = np.empty((16, 16))
_VANDER[0], _VANDER[1] = 1.0, _GL_NODES
for _i in range(2, 16):
    _VANDER[_i] = (_VANDER[_i - 1] * _GL_NODES * (2 * _i - 1) - _VANDER[_i - 2] * (_i - 1)) / _i
#: values at the 16 nodes -> coefficients of the degree-15 Legendre
#: series through them (discrete orthogonality of the Gauss rule)
_TO_LEGENDRE = (np.arange(16) + 0.5)[:, None] * _VANDER * _GL_WEIGHTS

#: panel knots of the by-parts tables: 32 uniform panels (pi/4, the
#: max-norm kink, is one of their knots) plus geometric grading toward
#: both endpoints, where the bounded integrands can be non-smooth
_GRADED = (HALF_PI / 32.0) * 2.0 ** -np.arange(1, 41)
_KNOTS = np.sort(np.concatenate([np.linspace(0.0, HALF_PI, 33), _GRADED, HALF_PI - _GRADED]))
_HALF = 0.5 * np.diff(_KNOTS)
_MID = _KNOTS[:-1] + _HALF
#: Gauss-Legendre nodes of the knot panels (one row each) and their weights
_NODES = _MID[:, None] + _HALF[:, None] * _GL_NODES
_WEIGHTS = _HALF[:, None] * _GL_WEIGHTS

#: column n holds the power coefficients of the Legendre polynomial P_n
_TO_POWER = np.zeros((17, 17))
for _n, _k in ((n, k) for n in range(17) for k in range(n // 2 + 1)):
    _TO_POWER[_n - 2 * _k, _n] = (-1) ** _k * math.comb(_n, _k) * math.comb(2 * _n - 2 * _k, _n) / 2**_n

#: query points per block of a panel table, bounding the coefficients it
#: gathers (272 bytes a point); at 1024 points a logistic table cost about
#: 350 ns a point against 200 ns at 512, on a 2-core Xeon
_CHUNK = 512


def _prefix_sums(row) -> list:
    """The sums of every prefix of ``row``, ``row[:0]`` to ``row[:]``, each
    correctly rounded, so bitwise ``math.fsum(row[:i])``: the values, as
    integers over the row's largest power-of-two denominator, are summed
    exactly and each sum is divided back once (int / int true division
    rounds correctly)."""
    ratios = [x.as_integer_ratio() for x in row]
    scale = max((d for _, d in ratios), default=1)
    sums = itertools.accumulate((n * (scale // d) for n, d in ratios), initial=0)
    return [s / scale for s in sums]


def _legint(c: np.ndarray) -> np.ndarray:
    """The antiderivative from -1 of the Legendre series of 16 coefficients along axis 0
    of ``c``: bitwise legint(c, lbnd=-1.0), its steps in numpy's order, signed zeros too."""
    out = np.empty((17,) + c.shape[1:])
    out[0], out[1], out[2] = c[0] * 0, c[0], c[1] / 3
    for j in range(2, 16):
        out[j + 1] = t = c[j] / (2 * j + 1)
        out[j - 1] -= t
    # the series at x = -1, by legval's Clenshaw recursion
    x, c0, c1 = -1.0, out[-2], out[-1]
    for nd in range(16, 1, -1):
        c0, c1 = out[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    out[0] += 0 - (c0 + c1 * x)
    return out


def _panel_antiderivatives(values) -> Callable:
    """Antiderivatives from 0 of functions sampled at ``_NODES``.

    ``values`` stacks one array shaped like ``_NODES`` per function.  On
    each ``_KNOTS`` panel, the Legendre series through the 16 samples is
    integrated from the left knot and kept as power coefficients in the
    local variable x in [-1, 1]; prefix sums of the panel totals carry
    it across panels.  Returns theta -> one row per function.

    Raises
    ------
    ValueError
        If a sample is not finite.
    """
    if not np.all(np.isfinite(values)):
        raise ValueError("the sampled functions are not finite at every panel node")
    legendre = np.einsum("kj,fpj->kpf", _TO_LEGENDRE, values)
    anti = _legint(legendre) * _HALF[:, None]
    power = np.einsum("dk,kpf->pfd", _TO_POWER, anti, order="C")
    # panel totals by the Gauss rule and prefix sums, each correctly
    # rounded, so that differences between nearby angles keep their digits
    totals = (2.0 * legendre[0].T * _HALF).tolist()
    table = np.array([_prefix_sums(row) for row in totals]).T

    def integrals(theta):
        t = np.asarray(theta, dtype=float)
        flat = t.reshape(-1)
        out = np.empty((flat.size, len(totals)))
        for lo in range(0, flat.size, _CHUNK):
            q = flat[lo : lo + _CHUNK]
            # panel index; the end panels take any point beyond them
            i = np.searchsorted(_KNOTS[1:-1], q, side="right")
            # x**0 .. x**16 of the local variable x in [-1, 1]; transposed, they
            # are np.vander(x, 17, increasing=True) bitwise, product by product
            # as its multiply.accumulate forms them, in about half the time
            powers = np.empty((17, q.size))
            powers[0], powers[1] = 1.0, (q - _MID[i]) / _HALF[i]
            for d in range(2, 17):
                np.multiply(powers[d - 1], powers[1], out=powers[d])
            local = np.einsum("nfd,nd->nf", power[i], powers.T.copy())
            out[lo : lo + _CHUNK] = table[i] + local
        return out.T.reshape((len(totals),) + t.shape)

    return integrals


def _check_integer(value, name: str, low: int) -> int:
    """``value`` as the int it must equal, at least ``low`` (0 or 1)."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value or number < low:
        kind = "nonnegative" if low == 0 else "positive"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return number


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """A spectral measure on [0, pi/2] with its bivariate sampler.

    A model is its p-free parts; the norm order p is applied here, once
    for every family.

    Attributes
    ----------
    name : str
        The family and its parameters, as ``benchmark`` prints them (for
        example ``"logistic(r=2)"``, or ``"cauchy-quadrant"`` for a family
        without parameters).
    p : float
        Norm order the angular decomposition refers to, validated on
        construction.
    atom_zero, atom_half_pi : float
        Point masses at the two endpoint angles.
    density_factor : callable or None
        g(theta), the p-free factor of the interior density; None when
        the measure is purely atomic.
    sum_norm_cdf : callable or None
        Phi_1(theta), the interior cdf under the sum norm (zero at 0);
        not used when ``density_factor`` is None.
    sampler : callable
        ``sampler(n, rng) -> BivariateSample`` drawing from the
        bivariate distribution whose spectral measure this is.
    default_ise_interval : (float, float)
        Angle interval used by the benchmark harness when the caller
        does not choose one.
    """

    name: str
    p: float
    atom_zero: float
    atom_half_pi: float
    density_factor: Optional[Callable]
    sum_norm_cdf: Optional[Callable] = field(repr=False)
    sampler: Callable = field(repr=False)
    default_ise_interval: tuple = (0.0, HALF_PI)

    def __post_init__(self):
        object.__setattr__(self, "p", check_norm_order(self.p))
        interior = np.zeros_like
        if self.density_factor is not None:
            interior = _by_parts_cdf(self.sum_norm_cdf, self.p)
        object.__setattr__(self, "_interior_cdf", interior)

    @property
    def interior_density(self) -> Optional[Callable]:
        """theta -> ||(sin, cos)||_p g(theta), the density of the measure on
        the open interval, whose 1e-12 slack above pi/2 counts as pi/2;
        None when the measure is purely atomic."""
        g, p = self.density_factor, self.p
        if g is None:
            return None
        # cos as sin(pi/2 - theta), so the float HALF_PI is the end point
        return lambda t: lp_norm(np.sin(u := _check_angles(t)), np.sin(HALF_PI - u), p) * g(u)

    @property
    def total_mass(self) -> float:
        return self.cdf(HALF_PI)

    def cdf_continuous(self, theta):
        """Cumulative mass on [0, theta] excluding the atom at pi/2.

        This is the version integrated against in ISE computations; it
        differs from :meth:`cdf` only at the single point pi/2.
        """
        return _unwrap(self.atom_zero + self._interior_cdf(_check_angles(theta)))

    @cached_property
    def cdf_integrals(self) -> Callable:
        """theta -> integrals over [0, theta] of ``cdf_continuous`` (row 0)
        and of its square (row 1), for theta in [0, pi/2], checked as by
        ``cdf_continuous``, whose 1e-12 slack above pi/2 counts as pi/2;
        built on first use from the cdf at ``_NODES`` and kept on the model."""
        if self.density_factor is None:
            level = self.atom_zero
            table = partial(np.multiply.outer, [level, level * level])
        else:
            g = self.cdf_continuous(_NODES)
            table = _panel_antiderivatives([g, g * g])
        return lambda theta: table(_check_angles(theta))

    def cdf(self, theta):
        """Right-continuous cumulative mass on [0, theta], atoms included."""
        theta = np.asarray(theta, dtype=float)
        return _unwrap(self.cdf_continuous(theta) + self.atom_half_pi * (theta >= HALF_PI))

    def sample(self, n: int, rng: np.random.Generator) -> BivariateSample:
        """Draw n bivariate observations; n must be a positive integer."""
        return self.sampler(_check_integer(n, "sample size", 1), rng)


# ---------------------------------------------------------------------------
# interior cdfs


def _norm_ratio(theta, p: float):
    """rho = ||(sin, cos)||_p / (sin + cos) and its derivative rho'."""
    s = np.sin(theta)
    c = np.cos(theta)
    norm = lp_norm(s, c, p)
    # at p = inf the powers are 1 or 0: c where s > c, -s where s < c (no float angle has s == c)
    slope = c * (s / norm) ** (p - 1.0) - s * (c / norm) ** (p - 1.0)
    rho = norm / (s + c)
    return rho, (slope - rho * (c - s)) / (s + c)


def _by_parts_cdf(phi1: Callable, p: float) -> Callable:
    """Interior cdf under the norm order p from the sum-norm one, phi1.

    Phi_p = rho Phi_1 - int_0^theta rho' Phi_1.  The bounded integrand is
    sampled once at ``_NODES``, and the integral comes from its panel
    antiderivatives.
    """
    if p == 1.0:  # rho = 1 and rho' = 0 exactly, so the formula gives phi1; skipped for speed
        return phi1
    integral = _panel_antiderivatives([_norm_ratio(_NODES, p)[1] * phi1(_NODES)])
    return lambda t: _norm_ratio(t, p)[0] * phi1(t) - integral(t)[0]


# ---------------------------------------------------------------------------
# asymmetric logistic family


def _logistic_factor(theta, r: float, psi1: float, psi2: float):
    """The p-free density factor g of the asymmetric logistic measure,

        (r - 1) (psi1 psi2)**r (sin cos)**(r-2) ((psi1 cos)**r + (psi2 sin)**r)**(1/r - 2),

    the second derivative of the Pickands function carried to the
    angular scale.  For 1 < r < 2 the factor (sin cos)**(r-2) is an
    integrable singularity at both endpoints.
    """
    theta = np.asarray(theta, dtype=float)
    s = np.sin(theta)
    # cos as sin(pi/2 - theta), so the float HALF_PI is the end point
    c = np.sin(HALF_PI - theta)
    return (
        (r - 1.0)
        * (psi1 * psi2) ** r
        * (s * c) ** (r - 2.0)
        * lp_norm(psi1 * c, psi2 * s, r) ** (1.0 - 2.0 * r)
    )


def _logistic_sum_norm_cdf(t, r: float, psi1: float, psi2: float):
    """Interior cdf of the asymmetric logistic measure under the sum norm.

    H([0, theta]) = 1 + A'(w) at w = sin / (sin + cos), with A the
    Pickands function of the stable tail dependence function
    l(x1, x2) = (1 - psi1) x1 + (1 - psi2) x2 + ||(psi1 x1, psi2 x2)||_r.
    With a = psi1 cos,
    b = psi2 sin and B = ||(a, b)||_r the interior part is

        psi1 (1 - (a / B)**(r-1)) + psi2 (b / B)**(r-1),

    evaluated with B in the scaled form hi (1 + (lo/hi)**r)**(1/r).
    """
    t = np.asarray(t, dtype=float)
    # cos as sin of the complement, so that HALF_PI stands for pi/2
    # exactly: for r < 2 the cdf has infinite slope there
    a = psi1 * np.sin(HALF_PI - t)
    b = psi2 * np.sin(t)
    hi = np.maximum(a, b)
    ratio = np.minimum(a, b) / hi
    hi_pow = (1.0 + ratio**r) ** ((1.0 - r) / r)  # (hi / B)**(r-1)
    lo_pow = ratio ** (r - 1.0) * hi_pow
    return np.where(
        a >= b,
        psi1 * (1.0 - hi_pow) + psi2 * lo_pow,
        psi1 * (1.0 - lo_pow) + psi2 * hi_pow,
    )


def _sample_asym_logistic(
    n: int, rng: np.random.Generator, r: float, psi1: float, psi2: float
) -> BivariateSample:
    """Tawn's asymmetric logistic law with unit Frechet margins.

    V, with joint law exp(-(v1**-r + v2**-r)**(1/r)), comes from the
    positive stable mixing construction: with S positive alpha-stable
    (alpha = 1/r, Laplace transform exp(-t**alpha)) drawn by the
    Kanter / Chambers-Mallows-Stuck formula and E1, E2 unit exponentials,
    V_j = (S / E_j)**(1/r); r = 1 gives independent V_j = 1 / E_j.
    Stephenson's componentwise maxima then mix in Z_j, independent unit
    Frechet: X_j = max((1 - psi_j) Z_j, psi_j V_j) has joint law
    exp(-(1 - psi1)/x1 - (1 - psi2)/x2 - ((psi1/x1)**r + (psi2/x2)**r)**(1/r)).
    Z_j is drawn only for a column with psi_j < 1.
    """
    if r == 1.0:
        v = 1.0 / np.clip(rng.exponential(size=(n, 2)), 1e-300, None)
    else:
        alpha = 1.0 / r
        theta = math.pi * np.clip(rng.random(n), 1e-16, 1.0 - 1e-16)
        w = np.clip(rng.exponential(size=n), 1e-300, None)
        # log S keeps the heavy-tailed stable factor out of overflow range
        log_s = (
            np.log(np.sin(alpha * theta))
            - r * np.log(np.sin(theta))
            + ((1.0 - alpha) / alpha) * (np.log(np.sin((1.0 - alpha) * theta)) - np.log(w))
        )
        e = np.clip(rng.exponential(size=(n, 2)), 1e-300, None)
        v = np.exp(alpha * (log_s[:, None] - np.log(e)))
    for j, psi in enumerate((psi1, psi2)):
        if psi < 1.0:
            z = 1.0 / np.clip(rng.exponential(size=n), 1e-300, None)
            v[:, j] = np.maximum((1.0 - psi) * z, psi * v[:, j])
    return BivariateSample(v)


def asym_logistic_model(
    r: float, psi1: float = 1.0, psi2: float = 1.0, p: float = 1.0
) -> SpectralModel:
    """Spectral measure of the (asymmetric) logistic model.

    Endpoint atoms 1 - psi2 at angle 0 and 1 - psi1 at pi/2 when
    r > 1 and psi1 psi2 > 0; tail independence (r = 1 or a vanishing
    weight) concentrates mass 1 on each endpoint with empty interior.
    """
    r = float(r)
    if not (r >= 1.0 and math.isfinite(r)):
        raise ValueError(f"dependence parameter must satisfy 1 <= r < inf, got {r!r}")
    psi1 = float(psi1)
    psi2 = float(psi2)
    if not (0.0 <= psi1 <= 1.0 and 0.0 <= psi2 <= 1.0):
        raise ValueError("asymmetry weights must lie in [0, 1]")
    dependent = r > 1.0 and psi1 * psi2 > 0.0
    parts = {"r": r, "psi1": psi1, "psi2": psi2}
    label = ",".join(f"{key}={value:g}" for key, value in parts.items())
    return SpectralModel(
        name=f"logistic(r={r:g})" if psi1 == psi2 == 1.0 else f"asymmetric-logistic({label})",
        p=p,
        atom_zero=1.0 - psi2 if dependent else 1.0,
        atom_half_pi=1.0 - psi1 if dependent else 1.0,
        density_factor=partial(_logistic_factor, **parts) if dependent else None,
        sum_norm_cdf=partial(_logistic_sum_norm_cdf, **parts),
        sampler=partial(_sample_asym_logistic, **parts),
    )


# ---------------------------------------------------------------------------
# Cauchy models


def _sample_cauchy(n: int, rng: np.random.Generator, fold: bool) -> BivariateSample:
    """(Z1, Z2) / |Z0| for iid standard normals, folded into the positive
    quadrant by absolute values when ``fold``."""
    z = rng.standard_normal((n, 3))
    denom = np.clip(np.abs(z[:, 0]), 1e-300, None)
    pair = np.abs(z[:, 1:]) if fold else z[:, 1:]
    return BivariateSample(pair / denom[:, None])


def _cauchy_model(p: float, fold: bool) -> SpectralModel:
    """The quadrant Cauchy measure, or with ``fold`` False its unfolded law:
    atoms of 0 or 1/2 at both endpoints, and 1 - atom times the quadrant's
    density factor and sum-norm cdf (1.0 * x is x, so folded they are bitwise
    the unscaled ones)."""
    atom = 0.0 if fold else 0.5
    return SpectralModel(
        name="cauchy-quadrant" if fold else "cauchy-fullplane",
        p=p,
        atom_zero=atom,
        atom_half_pi=atom,
        density_factor=lambda t: np.full_like(t, 1.0 - atom, dtype=float),
        sum_norm_cdf=lambda t: (1.0 - atom) * (np.sin(t) - np.cos(t) + 1.0),
        sampler=partial(_sample_cauchy, fold=fold),
    )


def cauchy_quadrant_model(p: float = 1.0) -> SpectralModel:
    """Spectral measure of the positive-quadrant bivariate Cauchy law.

    Atomless with interior density exactly ||(sin, cos)||_p, so the
    angular cdf for p = 2 is the identity.  The sampler folds a
    symmetric Cauchy pair into the quadrant:
    (|Z1|, |Z2|) / |Z0| for iid standard normals.
    """
    return _cauchy_model(p, fold=True)


def cauchy_fullplane_model(p: float = 1.0) -> SpectralModel:
    """Spectral measure of the unfolded (full-plane) bivariate Cauchy law.

    Sign mixing moves half of the quadrant measure onto the endpoint
    atoms: masses 1/2 at 0 and pi/2, interior density
    ||(sin, cos)||_p / 2.
    """
    return _cauchy_model(p, fold=False)


# ---------------------------------------------------------------------------
# Pareto-margin mixture family


def _invert_mixture_conditional(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve the dependent-component conditional cdf F(y | x) = q for y by
    Newton on the cubic (y**2 - 1)(y + 2x) - q y (x + y)**2, expanded so
    that a tiny 1 - q does not cancel.  It is convex for y > 0 and
    negative at 1, and the start, the root of (1 - q) y**2 - q x y - 1,
    lies at or above its root: each draw descends until a step no longer
    lowers it, and a settled draw takes that same step again and stays."""
    p = 1.0 - q
    c = 1.0 + q * x * x
    y = (q * x + np.sqrt((q * x) ** 2 + 4.0 * p)) / (2.0 * p)
    for _ in range(100):  # x in [1, 2**53] with the clipped q took at most 53, at q = 1 - 1e-16
        g = ((p * y + 2.0 * x * p) * y - c) * y - 2.0 * x
        slope = (3.0 * p * y + 4.0 * x * p) * y - c
        step = y - g / slope
        lower = step < y
        if not lower.any():
            return y
        np.copyto(y, step, where=lower)
    raise ArithmeticError("mixture inversion did not settle in 100 Newton steps")


def _sample_mixture(n: int, rng: np.random.Generator, r: float) -> BivariateSample:
    dependent = rng.random(n) < r
    g = 1.0 - rng.random((n, 2))
    x = 1.0 / g[:, 0]
    y = 1.0 / g[:, 1]
    q = np.clip(g[dependent, 1], 1e-16, 1.0 - 1e-16)
    y[dependent] = _invert_mixture_conditional(x[dependent], q)
    return BivariateSample(np.column_stack([x, y]))


def mixture_model(r: float, p: float = 1.0) -> SpectralModel:
    """Two-component mixture with Pareto(1) margins and tunable dependence.

    With probability 1 - r the pair is independent; with probability r
    it follows the joint cdf (1 - 1/x)(1 - 1/y)(1 + 1/(x + y)).  The
    spectral measure has endpoint atoms of mass 1 - r each and interior
    density 2 r ||(sin, cos)||_p / (sin + cos)**3.  The sampler inverts
    the dependent-component conditional cdf, a cubic in y, by Newton.
    """
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"mixture weight must lie in [0, 1], got {r!r}")
    return SpectralModel(
        name=f"mixture(r={r:g})",
        p=p,
        atom_zero=1.0 - r,
        atom_half_pi=1.0 - r,
        density_factor=(lambda t: 2.0 * r / (np.sin(t) + np.cos(t)) ** 3) if r > 0.0 else None,
        sum_norm_cdf=lambda t: r * (1.0 + np.tan(np.asarray(t, dtype=float) - QUARTER_PI)),
        sampler=partial(_sample_mixture, r=r),
        default_ise_interval=(0.05 * HALF_PI, 0.95 * HALF_PI),
    )


# ---------------------------------------------------------------------------
# validation helpers


def moment_sums(model: SpectralModel) -> tuple[float, float]:
    """Check of the two marginal moment integrals.

    Returns (sin integral, cos integral) of weight/||(sin, cos)||_p
    against the model's spectral measure.  Both equal 1 for every
    genuine spectral measure; endpoint atoms contribute exactly 0 or 1.
    The interior parts are integrated by parts against the model's own
    ``cdf_continuous``: with F its interior part and g = sin/||.||_p
    (g(pi/2) = 1) or g = cos/||.||_p (g(pi/2) = 0),
    int g dF = g(pi/2) F(pi/2) - int g' F.
    """
    interior = (model.cdf_continuous(_NODES) - model.atom_zero) * _WEIGHTS
    s = np.sin(_NODES)
    c = np.cos(_NODES)
    rho, slope = _norm_ratio(_NODES, model.p)
    # sin/||.||_p = (s / (s + c)) / rho and cos/||.||_p = (c / (s + c)) / rho,
    # where d/dtheta [s / (s + c)] = 1 / (s + c)**2 = -d/dtheta [c / (s + c)]
    step = 1.0 / (s + c) ** 2
    sin_slope = (step - s / (s + c) * slope / rho) / rho
    cos_slope = (-step - c / (s + c) * slope / rho) / rho
    top = model.cdf_continuous(HALF_PI) - model.atom_zero
    sin_sum = model.atom_half_pi + top - np.sum(sin_slope * interior)
    cos_sum = model.atom_zero - np.sum(cos_slope * interior)
    return float(sin_sum), float(cos_sum)
