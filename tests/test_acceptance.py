"""Acceptance gate: end-to-end guarantees at their contract tolerances.

Each test prints one PASS line when its guarantee holds; pytest -v shows
one verdict per criterion either way.  Tolerances here are the binding
ones; unit modules probe the same machinery more finely.
"""

import math

import numpy as np
import pytest

from specmeasure.cli import run_cli
from specmeasure.empirical import select_extremes
from specmeasure.evaluation import mise_sweep
from specmeasure.lp_geometry import score_f
from specmeasure.mele import (
    mele_spectral_measure,
    mele_weights,
    solve_multiplier,
)
from specmeasure.models import (
    asym_logistic_model,
    cauchy_fullplane_model,
    cauchy_quadrant_model,
    mixture_model,
    moment_sums,
)
from specmeasure.pickands import pickands_function
from specmeasure.pseudo_obs import read_sample

from oracles import (
    asym_logistic_joint_cdf,
    cauchy_fullplane_joint_cdf,
    cauchy_fullplane_margin_cdf,
    cauchy_quadrant_joint_cdf,
    cauchy_quadrant_margin_cdf,
    dkw_epsilon,
    frechet_cdf,
    logistic_joint_cdf,
    logistic_pickands,
    mele_oracle,
    mixture_joint_cdf,
    pareto_cdf,
    scores_feasible,
)

HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4

MISE_SEED = 20260814


def announce(name):
    print(f"PASS {name}")


def test_moment_constraint_guarantee():
    # 100 seeded samples, every norm order: the reweighted estimate
    # satisfies the defining constraints to solver precision
    model = cauchy_quadrant_model(1.0)
    worst_score = worst_sum = worst_mass = 0.0
    for i in range(100):
        sample = model.sample(1000, np.random.default_rng([101, i]))
        for p in [1.0, 2.0, math.inf]:
            ang = select_extremes(sample, 30, p)
            solution = solve_multiplier(ang.scores)
            weights = mele_weights(solution, ang.scores)
            balance = abs(float(weights @ score_f(ang.angles, p)))
            worst_score = max(worst_score, balance)
            assert balance <= 1e-10

            phi = mele_spectral_measure(ang)
            sin_sum, cos_sum = phi.moment_sums()
            gap = max(abs(sin_sum - 1.0), abs(cos_sum - 1.0))
            worst_sum = max(worst_sum, gap)
            assert gap <= 1e-8
            if p == 1.0:
                worst_mass = max(worst_mass, abs(phi.total_mass - 2.0))
                assert abs(phi.total_mass - 2.0) <= 1e-8
    announce(
        "moment constraints: worst |sum w f| = "
        f"{worst_score:.2e}, worst moment gap = {worst_sum:.2e}, "
        f"worst p=1 mass gap = {worst_mass:.2e}"
    )


def test_minimum_mise_ordering():
    # at its best k the constrained estimator beats the raw one for
    # both models and both norm orders, at the recorded seed
    k_grid = np.arange(10, 201, 10)
    cells = []
    for label, build in [
        ("logistic r=2", lambda p: asym_logistic_model(2.0, p=p)),
        ("cauchy quadrant", cauchy_quadrant_model),
    ]:
        for p in [1.0, math.inf]:
            model = build(p)
            table = mise_sweep(model, 1000, 200, k_grid, seed=MISE_SEED)
            emp = float(np.nanmin(table.mise[:, 0]))
            mel = float(np.nanmin(table.mise[:, 1]))
            cells.append((label, p, emp, mel))
            assert mel < emp, (label, p, emp, mel)
    detail = "; ".join(
        f"{label} p={p:g}: {mel:.4g} < {emp:.4g}" for label, p, emp, mel in cells
    )
    announce(f"minimum MISE ordering in all four cells ({detail})")


@pytest.fixture(scope="module")
def cdf_at_quarter_pi():
    # the true p = 1 angular cdf of the quadrant model at pi/4 is 1;
    # 200 replications of the constrained estimate there
    values = np.empty(200)
    model = cauchy_quadrant_model(1.0)
    for rep in range(200):
        sample = model.sample(1000, np.random.default_rng([303, rep]))
        ang = select_extremes(sample, 30, 1.0)
        values[rep] = mele_spectral_measure(ang).cdf(QUARTER_PI)
    return values


def test_consistency_at_known_point_absolute(cdf_at_quarter_pi):
    mean = cdf_at_quarter_pi.mean()
    assert abs(mean - 1.0) <= 0.1
    announce(f"estimated cdf at pi/4: mean = {mean:.4f}, within 0.1 of 1")


def test_consistency_at_known_point_three_se(cdf_at_quarter_pi):
    # Known to fail: rank ties m1 = m2 place an atom of mean mass 0.067
    # exactly at pi/4 and the right-continuous cdf counts all of it, a
    # +0.028 lattice artifact at k = 30 that a 3-standard-error band
    # (about 0.015 at 200 replications) cannot absorb.  Splitting the
    # atom evenly would re-centre the mean to 0.994.  The bias changes
    # sign across pi/4 and fades at angles away from the diagonal.
    mean = cdf_at_quarter_pi.mean()
    stderr = cdf_at_quarter_pi.std(ddof=1) / math.sqrt(cdf_at_quarter_pi.size)
    assert abs(mean - 1.0) <= 3.0 * stderr, (
        f"mean = {mean:.4f}, |bias| = {abs(mean - 1.0):.4f} "
        f"exceeds 3 x SE = {3.0 * stderr:.4f}; the diagonal rank-tie atom "
        "is captured whole by the right-continuous cdf"
    )
    announce(f"estimated cdf at pi/4 within 3 SE ({stderr:.4f}) of 1")


def test_weights_match_direct_maximization():
    # the multiplier solution agrees with direct constrained
    # maximization of the empirical likelihood
    rng = np.random.default_rng(404)
    checked = 0
    worst = 0.0
    while checked < 500:
        m = int(rng.integers(2, 7))
        p = [1.0, 2.0, math.inf][int(rng.integers(3))]
        angles = np.sort(rng.uniform(0.02, HALF_PI - 0.02, size=m))
        scores = score_f(angles, p)
        if not scores_feasible(scores):
            continue
        solution = solve_multiplier(scores)
        weights = mele_weights(solution, scores)
        reference = mele_oracle(scores)
        gap = float(np.max(np.abs(weights - reference)))
        worst = max(worst, gap)
        assert gap <= 1e-8
        checked += 1

    # closed-form two-point case: scores (-0.2, 0.6)
    angles = np.array([math.atan(2.0 / 3.0), math.atan(4.0)])
    scores = score_f(angles, 1.0)
    np.testing.assert_allclose(scores, [-0.2, 0.6], atol=1e-15)
    solution = solve_multiplier(scores)
    weights = mele_weights(solution, scores)
    assert abs(solution.mu - 5.0 / 3.0) <= 1e-10
    np.testing.assert_allclose(weights, [0.75, 0.25], atol=1e-10)
    announce(f"500 feasible multisets: worst weight gap = {worst:.2e}; "
             "two-point multiplier exact to 1e-10")


def test_dependence_function_genuineness():
    # constrained estimates transport to genuine dependence functions
    grid = np.linspace(0.0, 1.0, 1001)
    envelope = np.maximum(grid, 1.0 - grid)
    mids = np.empty(100)
    for i in range(100):
        sample = asym_logistic_model(2.0).sample(1000, np.random.default_rng([505, i]))
        ang = select_extremes(sample, 40, 1.0)
        A = pickands_function(mele_spectral_measure(ang))
        assert abs(A(0.0) - 1.0) <= 1e-8
        assert abs(A(1.0) - 1.0) <= 1e-8
        assert np.all(np.diff(A.slopes) >= -1e-9)
        values = A(grid)
        assert np.all(values <= 1.0 + 1e-8)
        assert np.all(values >= envelope - 1e-8)
        mids[i] = A(0.5)
    truth = logistic_pickands(0.5, 2.0)
    assert abs(mids.mean() - truth) <= 0.05
    announce(
        "100 dependence functions genuine; mean A(1/2) = "
        f"{mids.mean():.4f} vs {truth:.4f}"
    )


def test_sampler_distributions():
    # empirical joint and marginal distribution functions sit inside
    # the 99.9% DKW band at n = 1e5
    n = 100_000
    eps = dkw_epsilon(n, 0.001)
    levels = np.array([0.1, 0.3, 0.5, 0.7, 0.9])

    cases = [
        (
            "logistic r=2",
            asym_logistic_model(2.0).sample(n, np.random.default_rng(606)).values,
            lambda q: -1.0 / np.log(q),
            lambda x, y: logistic_joint_cdf(x, y, 2.0),
            frechet_cdf,
        ),
        # the joint cdf is not symmetric in psi, so the band also pins
        # psi1 to the first column
        (
            "asymmetric logistic r=3 psi=(0.7, 0.9)",
            asym_logistic_model(3.0, 0.7, 0.9).sample(n, np.random.default_rng(610)).values,
            lambda q: -1.0 / np.log(q),
            lambda x, y: asym_logistic_joint_cdf(x, y, 3.0, 0.7, 0.9),
            frechet_cdf,
        ),
        (
            "asymmetric logistic r=1.5 psi=(1, 0.3)",
            asym_logistic_model(1.5, 1.0, 0.3).sample(n, np.random.default_rng(611)).values,
            lambda q: -1.0 / np.log(q),
            lambda x, y: asym_logistic_joint_cdf(x, y, 1.5, 1.0, 0.3),
            frechet_cdf,
        ),
        (
            "cauchy quadrant",
            cauchy_quadrant_model(1.0).sample(n, np.random.default_rng(607)).values,
            lambda q: np.tan(HALF_PI * q),
            cauchy_quadrant_joint_cdf,
            cauchy_quadrant_margin_cdf,
        ),
        (
            "cauchy fullplane",
            cauchy_fullplane_model(1.0).sample(n, np.random.default_rng(608)).values,
            lambda q: np.tan(math.pi * (q - 0.5)),
            cauchy_fullplane_joint_cdf,
            cauchy_fullplane_margin_cdf,
        ),
        (
            "mixture r=0.5",
            mixture_model(0.5).sample(n, np.random.default_rng(609)).values,
            lambda q: 1.0 / (1.0 - q),
            lambda x, y: mixture_joint_cdf(x, y, 0.5),
            pareto_cdf,
        ),
    ]
    worst = 0.0
    for label, values, quantile, joint_cdf, margin_cdf in cases:
        x_grid = quantile(levels)
        for xq in x_grid:
            for yq in x_grid:
                emp = np.mean((values[:, 0] <= xq) & (values[:, 1] <= yq))
                gap = abs(emp - joint_cdf(xq, yq))
                worst = max(worst, gap)
                assert gap < eps, (label, xq, yq)
        for j in range(2):
            col = np.sort(values[:, j])
            ref = margin_cdf(col)
            hi = np.max(np.arange(1, n + 1) / n - ref)
            lo = np.max(ref - np.arange(0, n) / n)
            assert max(hi, lo) < eps, (label, j)
    announce(f"six samplers inside DKW band (eps = {eps:.5f}, worst joint gap = {worst:.5f})")


def test_model_self_consistency():
    # the instance zoo mirrors every model parameterization exercised
    # anywhere in the test suite
    zoo = [
        asym_logistic_model(1.0),
        asym_logistic_model(2.0, p=1.0),
        asym_logistic_model(2.0, p=2.0),
        asym_logistic_model(2.0, p=math.inf),
        asym_logistic_model(1.2, p=1.0),
        asym_logistic_model(1.5, p=1.0),
        asym_logistic_model(4.0, p=2.0),
        asym_logistic_model(2.0, psi1=1.0, psi2=0.89, p=1.0),
        asym_logistic_model(3.0, psi1=0.5, psi2=1.0, p=1.0),
        asym_logistic_model(1.5, psi1=0.9, psi2=0.6, p=1.0),
        asym_logistic_model(1.5, psi1=0.9, psi2=0.6, p=math.inf),
        asym_logistic_model(5.0, psi1=0.7, psi2=0.0),
        cauchy_quadrant_model(1.0),
        cauchy_quadrant_model(2.0),
        cauchy_quadrant_model(3.0),
        cauchy_quadrant_model(math.inf),
        cauchy_fullplane_model(1.0),
        cauchy_fullplane_model(2.5),
        cauchy_fullplane_model(math.inf),
        mixture_model(0.0, p=1.0),
        mixture_model(0.4, p=math.inf),
        mixture_model(0.5, p=1.0),
        mixture_model(0.5, p=2.0),
        mixture_model(0.7, p=math.inf),
        mixture_model(1.0, p=1.0),
    ]
    worst = 0.0
    for model in zoo:
        sin_sum, cos_sum = moment_sums(model)
        gap = max(abs(sin_sum - 1.0), abs(cos_sum - 1.0))
        worst = max(worst, gap)
        assert gap <= 1e-8, model.name

    for r in [0.0, 0.5, 1.0]:
        mass = mixture_model(r, p=1.0).total_mass
        assert abs(mass - 2.0) <= 1e-8, r
    # the interior mass identity behind it, by brute-force quadrature
    grid = (np.arange(2_000_000) + 0.5) * (HALF_PI / 2_000_000)
    integral = np.mean(1.0 / (1.0 + np.sin(2.0 * grid))) * HALF_PI
    assert abs(integral - 1.0) <= 1e-9
    announce(
        f"{len(zoo)} model instances pass the moment check "
        f"(worst gap {worst:.2e}); mixture mass identity holds"
    )


def test_rank_invariance_end_to_end(tmp_path):
    # strictly increasing transforms of the data change nothing in the
    # emitted estimate, byte for byte
    base = tmp_path / "base.csv"
    assert run_cli([
        "simulate", "--model", "cauchy-quadrant", "--n", "400",
        "--seed", "808", "--output", str(base),
    ]) == 0
    values = read_sample(str(base)).values

    scale = values.max()
    variants = {
        "exp": np.exp(values / scale),
        "cube": values ** 3,
        "affine": 2.5 * values + 7.0,
    }
    outputs = {}
    for p_label, p_flag in [("p1", "1"), ("pinf", "inf")]:
        ref = tmp_path / f"ref_{p_label}.csv"
        assert run_cli([
            "estimate", "--k", "40", "--p", p_flag,
            "--input", str(base), "--output", str(ref),
        ]) == 0
        outputs[p_label] = ref.read_bytes()
        assert len(outputs[p_label]) > 0

        for name, cols in variants.items():
            data = tmp_path / f"{name}.csv"
            with open(data, "w") as handle:
                handle.write("x,y\n")
                for x, y in cols:
                    handle.write(f"{float(x)!r},{float(y)!r}\n")
            out = tmp_path / f"out_{name}_{p_label}.csv"
            assert run_cli([
                "estimate", "--k", "40", "--p", p_flag,
                "--input", str(data), "--output", str(out),
            ]) == 0
            assert out.read_bytes() == outputs[p_label], (name, p_label)
    announce("estimate output byte-identical under exp, cube and affine transforms")
