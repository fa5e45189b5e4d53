"""Inside the reweighting step: scores, multiplier, weights.

The empirical measure puts mass 1/k on each selected angle and misses
the moment constraints by O(k^{-1/2}).  Reweighting tilts the masses to
w_j proportional to 1 / (1 + mu f(theta_j)) where f is the centered
score function and mu solves the one-dimensional dual equation
sum f(theta_j) / (1 + mu f(theta_j)) = 0.  Both moment constraints then
hold simultaneously because f was built to encode their difference and
the total mass is renormalized afterwards.
"""

import numpy as np

from specmeasure import (
    cauchy_quadrant_model,
    mele_weights,
    score_f,
    select_extremes,
    solve_multiplier,
)

rng = np.random.default_rng(11)
sample = cauchy_quadrant_model(p=1.0).sample(800, rng)
ang = select_extremes(sample, k=25, p=1.0)

print(f"k = {ang.k}, members = {ang.n_members}")
print(f"score range: [{ang.scores.min():+.4f}, {ang.scores.max():+.4f}]")
print(f"mean raw score: {ang.scores.mean():+.6f}  (target 0)")

solution = solve_multiplier(ang.scores)
lo, hi = solution.feasible_interval
print(f"\nmultiplier mu = {solution.mu:+.8f}")
print(f"residual = {solution.residual:.3e} in {solution.iterations} iterations")
print(f"feasible interval for mu: ({lo:+.4f}, {hi:+.4f})")

weights = mele_weights(solution, ang.scores)
print(f"\nweights sum to {weights.sum():.12f} (probability scale)")
print(f"reweighted mean score: {weights @ ang.scores:+.3e}  (target 0)")
print(f"weight spread: {weights.min():.6f} .. {weights.max():.6f}")
print(f"uniform would be {1.0 / ang.n_members:.6f}")

# angles on the heavy side of the constraint get shrunk, the rest grow
order = np.argsort(ang.angles)
print("\n   angle     score    weight")
for j in order[:: max(1, order.size // 8)]:
    print(f"{ang.angles[j]:8.4f}  {ang.scores[j]:+8.4f}  {weights[j]:.6f}")
