"""Pickands dependence function from the estimated spectral measure.

A spectral measure under the sum norm transports to a measure H on
[0, 1] via w = sin(theta) / (sin(theta) + cos(theta)); integrating the
kernel max((1 - v) w, v (1 - w)) against H yields the convex Pickands
function A on [0, 1] with A(0) = A(1) = 1, squeezed between max(v, 1-v)
(complete dependence) and 1 (independence).  Because the reweighted
estimate satisfies the moment constraints exactly, its A inherits every
one of these shape properties; the raw empirical measure does not even
return to 1 at the endpoints.

Data are simulated from the symmetric logistic model with r = 2, whose
true dependence function is A(v) = sqrt((1 - v)^2 + v^2).
"""

import numpy as np

from specmeasure import (
    asym_logistic_model,
    mele_spectral_measure,
    pickands_function,
    select_extremes,
)

model = asym_logistic_model(r=2.0, p=1.0)
rng = np.random.default_rng(21)
sample = model.sample(3000, rng)

ang = select_extremes(sample, k=80, p=1.0)
mele = mele_spectral_measure(ang)
A = pickands_function(mele)

print(f"A has {A.knots.size} knots, A(0) = {A(0.0):.12f}, A(1) = {A(1.0):.12f}")

slopes = A.slopes
print(f"slope range [{slopes.min():+.4f}, {slopes.max():+.4f}], convex:",
      bool(np.all(np.diff(slopes) >= -1e-12)))

print("\n    v     estimate      true   max(v,1-v)")
for v in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
    truth = ((1.0 - v) ** 2 + v ** 2) ** 0.5
    print(f"{v:5.2f}  {A(v):10.6f}  {truth:8.6f}   {max(v, 1 - v):8.4f}")

# A(1/2) measures dependence strength: 1/2 complete, 1 independent
print(f"\n2 A(1/2) = {2 * A(0.5):.6f}  versus true sqrt(2) = {2 ** 0.5:.6f}")
