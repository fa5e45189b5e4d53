"""Empirical versus reweighted spectral measure on heavy-tailed data.

Simulates a bivariate Cauchy sample restricted to the positive quadrant,
whose true angular measure under the sum norm has density
sin(theta) + cos(theta) and cdf exactly 1 at pi/4.  Both estimators see
only the within-column ranks of the data, so any monotone distortion of
the margins is invisible to them.
"""

import numpy as np

from specmeasure import (
    cauchy_quadrant_model,
    empirical_spectral_measure,
    mele_spectral_measure,
    select_extremes,
)

model = cauchy_quadrant_model(p=1.0)
rng = np.random.default_rng(7)
sample = model.sample(2000, rng)

ang = select_extremes(sample, k=60, p=1.0)
print(f"n = {sample.n} observations, {ang.n_members} selected as extreme")

empirical = empirical_spectral_measure(ang)
mele = mele_spectral_measure(ang)

# the defining property of a spectral measure: both angular moments are 1
print("\n                 sin-moment  cos-moment  total mass")
for name, est in [("empirical", empirical), ("reweighted", mele)]:
    s1, s2 = est.moment_sums()
    print(f"{name:>10s}   {s1:10.6f}  {s2:10.6f}  {est.total_mass:10.6f}")
print("true            1.000000    1.000000    2.000000")

# pointwise comparison of the cdfs against the closed form
print("\ntheta/pi    true cdf   empirical   reweighted")
for frac in (0.10, 0.20, 0.25, 0.30, 0.40):
    theta = frac * np.pi
    truth = float(model.cdf(theta))
    print(
        f"{frac:8.2f}  {truth:10.6f}  {float(empirical.cdf(theta)):10.6f}"
        f"  {float(mele.cdf(theta)):10.6f}"
    )
