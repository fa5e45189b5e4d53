"""Independent reference implementations used to validate the package.

Everything here recomputes a quantity through a different algorithm
than the production code: direct constrained optimization, or the dual
root in 40-digit mpmath, instead of the float multiplier root find,
quadratic-time counting instead of sorting, exact integer or 50-digit
arithmetic instead of floats, library quadrature instead of the
package's integrators, and plain string handling instead of batched C
parsing.
"""

import math
import types
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np
from scipy import integrate, stats
from scipy.linalg import null_space
from scipy.optimize import minimize


def scores_feasible(scores) -> bool:
    """True when weights with Sum w = 1, Sum w*score = 0, w > 0 exist."""
    a = np.asarray(scores, dtype=float)
    if np.all(a == 0.0):
        return True
    return a.min() < 0.0 < a.max()


def mele_oracle(scores) -> np.ndarray:
    """Maximize Sum log w subject to Sum w = 1 and Sum w*score = 0.

    SLSQP start, exact affine projection, then Newton over the
    constraint null space; converges to machine precision and never
    touches the production multiplier equation.
    """
    a = np.asarray(scores, dtype=float)
    n = a.size
    if np.all(a == 0.0):
        return np.full(n, 1.0 / n)
    c = np.vstack([np.ones(n), a])
    d = np.array([1.0, 0.0])

    res = minimize(
        lambda w: -np.sum(np.log(np.clip(w, 1e-300, None))),
        np.full(n, 1.0 / n),
        jac=lambda w: -1.0 / np.clip(w, 1e-300, None),
        method="SLSQP",
        constraints=[{"type": "eq", "fun": lambda w: c @ w - d, "jac": lambda w: c}],
        bounds=[(1e-12, 1.0)] * n,
        options={"maxiter": 1000, "ftol": 1e-14},
    )
    w = np.clip(res.x, 1e-12, None)
    gram = c @ c.T
    for _ in range(3):
        w = w + c.T @ np.linalg.solve(gram, d - c @ w)
    z = null_space(c)
    for _ in range(100):
        if z.shape[1] == 0:
            break
        grad = z.T @ (1.0 / w)
        if np.max(np.abs(grad)) < 1e-13:
            break
        hess = z.T @ (z / np.square(w)[:, None])
        direction = z @ np.linalg.solve(hess, grad)
        step = 1.0
        while np.any(w + step * direction <= 0.0):
            step *= 0.5
        w = w + step * direction
    return w


class DualFit(NamedTuple):
    """:func:`dual_mele_oracle`'s fit, one entry per distinct ratio m2/m1."""

    ratios: list  # the distinct ratios, as fractions in increasing order
    counts: list  # the members of each ratio
    scores: list  # (r - 1) / ||(1, r)||_p
    prob: list  # the probability weights c / (N (1 + mu A))
    normalizer: mpmath.mpf  # sum of prob / ||(1, r)||_p
    weights: list  # the spectral weights prob / normalizer


def dual_mele_oracle(rank_pairs, p: float, digits: int = 40) -> DualFit:
    """The MELE fit of members with integer ranks (m1, m2), exact by its dual.

    A ratio r = m2/m1 with c members has the score A = (r - 1)/||(1, r)||_p
    and the cosine factor cos/||(sin, cos)||_p = 1/||(1, r)||_p, in
    ``digits``-digit mpmath.  The root mu of Psi(mu) = sum c A / (1 + mu A),
    which falls from +inf to -inf between -1/max A and -1/min A, is found
    by Newton steps kept inside a sign bracket, bisecting where a step
    leaves it, until a step moves mu by less than 10**(5 - digits)
    relative.  It uses none of the library's floats, scores or solver, and
    shares only the dual form of the weights.  Raises if the scores do not
    straddle 0.
    """
    counts = Counter(Fraction(m2, m1) for m1, m2 in rank_pairs)
    ratios = sorted(counts)
    c = [counts[r] for r in ratios]
    with mpmath.workdps(digits):
        x = [mpmath.mpf(r.numerator) / r.denominator for r in ratios]
        if math.isinf(p):
            norm = [max(1, xi) for xi in x]
        else:
            norm = [(1 + xi ** mpmath.mpf(p)) ** (1 / mpmath.mpf(p)) for xi in x]
        a = [(xi - 1) / ni for xi, ni in zip(x, norm)]
        mu = mpmath.mpf(0)
        if any(a):
            if not min(a) < 0 < max(a):
                raise ValueError("the scores do not straddle 0: no MELE fit")
            lo, hi, tol = -1 / max(a), -1 / min(a), mpmath.mpf(10) ** (5 - digits)
            for _ in range(500):
                terms = [ci * ai / (1 + mu * ai) for ci, ai in zip(c, a)]
                value = mpmath.fsum(terms)
                if not value:
                    break
                lo, hi = (mu, hi) if value > 0 else (lo, mu)
                step = mu + value / mpmath.fsum(t * t / ci for t, ci in zip(terms, c))
                step = step if lo < step < hi else (lo + hi) / 2
                moved, mu = abs(step - mu), step
                if moved <= tol * (1 + abs(mu)):
                    break
            else:
                raise ArithmeticError("the dual root did not settle in 500 steps")
        total = sum(c)
        prob = [ci / (total * (1 + mu * ai)) for ci, ai in zip(c, a)]
        normalizer = mpmath.fsum(q / ni for q, ni in zip(prob, norm))
        return DualFit(ratios, c, a, prob, normalizer, [q / normalizer for q in prob])


def rank_oracle(column, keys=None) -> np.ndarray:
    """Quadratic-time maximal ranks R_i = #{l : x_l <= x_i}, of the
    column's own values or of ``keys``."""
    col = np.asarray(column, dtype=float)
    keys = col if keys is None else np.asarray(keys, dtype=float)
    return np.array([int(np.sum(col <= x)) for x in keys], dtype=np.int64)


def sample_text_oracle(text: str):
    """The two-column text format read line by line in plain Python: the
    rows as float pairs, or the 1-based line number of the first bad record.

    Lines end at newlines only, as a StringIO splits them.  One leading
    byte order mark is dropped; a line is cut at its first '#'; a comma
    left anywhere makes it comma-separated, else whitespace-separated; a
    line without fields is skipped; the first record is a header, and is
    skipped, iff its first field is not a number.
    """

    def number(field):
        try:
            float(field)
        except ValueError:
            return False
        return True

    rows = []
    header_decided = False
    for lineno, line in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
        content = line.split("#", 1)[0]
        fields = content.split(",") if "," in content else content.split()
        if not fields:
            continue
        if not header_decided:
            header_decided = True
            if not number(fields[0]):
                continue
        if len(fields) != 2 or not (number(fields[0]) and number(fields[1])):
            return lineno
        rows.append((float(fields[0]), float(fields[1])))
    return rows


def parse_rows(text: str) -> list[tuple]:
    """A MISE table's text back as its ``MiseTable.rows`` tuples."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "k,estimator,mise,stderr,infeasible_count":
        raise ValueError("missing or unexpected table header")
    rows = []
    for line in lines[1:]:
        k, est, mise, se, cnt = line.split(",")
        rows.append((int(k), est, float(mise), float(se), int(cnt)))
    return rows


def membership_oracle(m1: int, m2: int, k: int, p: float) -> bool:
    """Exact tail-set membership from integer ranks m = n*u.

    The rule ||(1/u1, 1/u2)||_p >= n/k reduces to integer comparisons for
    integer p and for the max norm; Python integers make it exact at any
    size.  Fractional p is decided in mpmath at 50 digits, or at more where
    the pair lies too near the boundary for those to resolve (a far-out
    rank's term (k/m)^p can be below 1e-50); it raises if 400 digits cannot.
    """
    if math.isinf(p):
        return min(m1, m2) <= k
    if float(p).is_integer():
        q = int(p)
        return (k**q) * (m1**q + m2**q) >= (m1 * m2) ** q
    for digits in (50, 100, 200, 400):
        with mpmath.workdps(digits):
            q = mpmath.mpf(p)
            gap = k * (mpmath.mpf(m1) ** -q + mpmath.mpf(m2) ** -q) ** (1 / q) - 1
            # the gap carries a few units in the last of those digits
            if abs(gap) > mpmath.mpf(10) ** (10 - digits):
                return gap > 0
    raise ArithmeticError(f"ranks {(m1, m2)} at k = {k}, p = {p} are undecided")


def ise_oracle(measure, truth_cdf, a: float, b: float) -> float:
    """Piecewise library quadrature of the squared cdf gap.

    Splits at the measure's atoms so each panel integrates a smooth
    function; relies on scipy's QUADPACK, not the package integrators.
    """
    atoms = measure.angles
    inner = atoms[(atoms > a) & (atoms < b)]
    edges = np.unique(np.concatenate([[a, b], inner]))
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        level = measure.cdf(0.5 * (lo + hi))
        val, _ = integrate.quad(
            lambda t: (level - truth_cdf(t)) ** 2,
            lo,
            hi,
            limit=400,
            epsabs=1e-13,
            epsrel=1e-11,
        )
        total += val
    return total


def mise_oracle(model, n: int, reps: int, k_grid, seed: int, interval):
    """MISE, standard errors and infeasible counts of both estimators, as
    arrays ``[k_index, estimator]`` with estimators (empirical, mele),
    from a plain loop over (replication, k).

    Only ``model.sample`` (on the stream ``default_rng([seed, rep])``) and
    the model's truth cdf come from the package.  Ranks are counted,
    membership is the integer rule, and a member with integer ranks m = n*u
    has the angle arctan(m2 / m1); the MELE weight of each ratio m2/m1
    comes from :func:`dual_mele_oracle`, shared equally among its members,
    and the ISE from library quadrature of the squared step-cdf gap.
    """
    p, (a, b) = model.p, interval
    ises = np.empty((reps, len(k_grid), 2))
    for rep in range(reps):
        values = model.sample(n, np.random.default_rng([seed, rep])).values
        m1s, m2s = (n + 1 - rank_oracle(column) for column in values.T)
        for i, k in enumerate(k_grid):
            ranks = [
                (m1, m2)
                for m1, m2 in zip(m1s.tolist(), m2s.tolist())
                if membership_oracle(m1, m2, k, p)
            ]
            angles = [math.atan2(m2, m1) for m1, m2 in ranks]
            ises[rep, i, 0] = _step_ise(angles, [1.0 / k] * len(ranks), model, a, b)
            try:
                fit = dual_mele_oracle(ranks, p)
            except ValueError:  # the scores do not straddle 0
                ises[rep, i, 1] = math.nan
                continue
            share = {r: float(w / c) for r, c, w in zip(fit.ratios, fit.counts, fit.weights)}
            weights = [share[Fraction(m2, m1)] for m1, m2 in ranks]
            ises[rep, i, 1] = _step_ise(angles, weights, model, a, b)
    mise = np.empty((len(k_grid), 2))
    stderr = np.zeros((len(k_grid), 2))
    infeasible = np.zeros((len(k_grid), 2), dtype=np.int64)
    for i in range(len(k_grid)):
        for j in range(2):
            column = ises[:, i, j]
            column = column[~np.isnan(column)]
            infeasible[i, j] = reps - column.size
            mise[i, j] = math.fsum(column) / column.size if column.size else math.nan
            if column.size > 1:
                spread = math.fsum((column - mise[i, j]) ** 2) / (column.size - 1)
                stderr[i, j] = math.sqrt(spread / column.size)
    return mise, stderr, infeasible


def _step_ise(angles, weights, model, a: float, b: float) -> float:
    """:func:`ise_oracle` of the atoms (angles, weights) against the model's
    truth cdf, the atoms' step cdf summed from the atoms directly."""
    pairs = list(zip(angles, weights))

    def cdf(x):
        return math.fsum(w for angle, w in pairs if angle <= x)

    step = types.SimpleNamespace(angles=np.array(sorted(angles)), cdf=cdf)
    return ise_oracle(step, model.cdf_continuous, a, b)


#: cut points of the split quadratures: the max-norm kink pi/4, and
#: geometric steps toward both ends, where logistic cdfs with r < 2 have
#: infinite slope
_SPLITS = sorted(
    [math.pi / 4]
    + [t for eps in (1e-12, 1e-9, 1e-6, 1e-3) for t in (eps, math.pi / 2 - eps)]
)


def cdf_power_integral(cdf, theta: float, power: int) -> float:
    """Integral of cdf(t)**power over [0, theta] by split library quadrature."""
    edges = [0.0] + [t for t in _SPLITS if t < theta] + [theta]
    return math.fsum(
        integrate.quad(
            lambda t: cdf(t) ** power, lo, hi, limit=200, epsabs=1e-15, epsrel=1e-13
        )[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )


def dkw_epsilon(n: int, alpha: float) -> float:
    """Uniform empirical-cdf deviation bound at confidence 1 - alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def logistic_joint_cdf(x, y, r: float):
    """exp(-(x^-r + y^-r)^(1/r)) with unit Frechet margins."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.exp(-((x ** -r + y ** -r) ** (1.0 / r)))


def asym_logistic_joint_cdf(x, y, r: float, psi1: float, psi2: float):
    """Tawn's asymmetric logistic law with unit Frechet margins:
    exp(-(1 - psi1)/x - (1 - psi2)/y - ((psi1/x)^r + (psi2/y)^r)^(1/r))."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    joint = ((psi1 / x) ** r + (psi2 / y) ** r) ** (1.0 / r)
    return np.exp(-(1.0 - psi1) / x - (1.0 - psi2) / y - joint)


def frechet_cdf(x):
    return np.exp(-1.0 / np.asarray(x, dtype=float))


def cauchy_quadrant_joint_cdf(x: float, y: float) -> float:
    """P(|Z1| <= x |Z0|, |Z2| <= y |Z0|) for independent standard normals."""
    val, _ = integrate.quad(
        lambda s: 2.0
        * stats.norm.pdf(s)
        * (2.0 * stats.norm.cdf(x * s) - 1.0)
        * (2.0 * stats.norm.cdf(y * s) - 1.0),
        0.0,
        np.inf,
        limit=400,
        epsabs=1e-12,
    )
    return val


def cauchy_quadrant_margin_cdf(x) -> np.ndarray:
    """|Z1/Z0| is standard half Cauchy: cdf (2/pi) arctan x."""
    return (2.0 / math.pi) * np.arctan(np.asarray(x, dtype=float))


def cauchy_fullplane_joint_cdf(x: float, y: float) -> float:
    """P(Z1/Z0 <= x, Z2/Z0 <= y) for independent standard normals."""
    val, _ = integrate.quad(
        lambda s: 2.0 * stats.norm.pdf(s) * stats.norm.cdf(x * s) * stats.norm.cdf(y * s),
        0.0,
        np.inf,
        limit=400,
        epsabs=1e-12,
    )
    return val


def cauchy_fullplane_margin_cdf(x) -> np.ndarray:
    """Z1/Z0 is standard Cauchy."""
    return 0.5 + np.arctan(np.asarray(x, dtype=float)) / math.pi


def mixture_joint_cdf(x, y, r: float):
    """(1 - 1/x)(1 - 1/y)(1 + r/(x + y)) on x, y >= 1, Pareto margins."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (1.0 - 1.0 / x) * (1.0 - 1.0 / y) * (1.0 + r / (x + y))


def pareto_cdf(x):
    return 1.0 - 1.0 / np.asarray(x, dtype=float)


def pickands_max_kernel(points, weights, v) -> np.ndarray:
    """A(v) = integral of max{(1-v) w, v (1-w)} against the w-measure."""
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    kernel = np.maximum(
        (1.0 - v)[:, None] * points[None, :],
        v[:, None] * (1.0 - points[None, :]),
    )
    return kernel @ weights


def logistic_pickands(v, r: float):
    """((1-v)^r + v^r)^(1/r), the dependence function of the symmetric model."""
    v = np.asarray(v, dtype=float)
    return ((1.0 - v) ** r + v ** r) ** (1.0 / r)
