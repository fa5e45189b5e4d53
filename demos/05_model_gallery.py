"""Tour of the ground-truth spectral models and their shared identities.

Every genuine spectral measure Phi_p on [0, pi/2] integrates the two
functions sin(theta) / ||(sin, cos)||_p and cos(theta) / ||(sin, cos)||_p
to exactly 1; under the sum norm this forces total mass 2 regardless of
the model.  The gallery below checks both identities numerically for
each family and shows how atoms at the endpoint angles encode partial
or complete tail independence.
"""

import numpy as np

from specmeasure import (
    asym_logistic_model,
    cauchy_fullplane_model,
    cauchy_quadrant_model,
    mixture_model,
    moment_sums,
)

QUARTER_PI = np.pi / 4

gallery = [
    asym_logistic_model(r=2.0, p=1.0),
    asym_logistic_model(r=1.5, psi1=0.9, psi2=0.6, p=1.0),
    asym_logistic_model(r=1.0, p=1.0),
    cauchy_quadrant_model(p=1.0),
    cauchy_fullplane_model(p=1.0),
    mixture_model(r=0.5, p=1.0),
    mixture_model(r=0.0, p=1.0),
]

print(f"{'model':>42s}  atom@0  atom@pi/2  sin-mom  cos-mom   mass")
for model in gallery:
    s1, s2 = moment_sums(model)
    print(
        f"{model.name:>42s}  {model.atom_zero:6.3f}  {model.atom_half_pi:9.3f}"
        f"  {s1:7.4f}  {s2:7.4f}  {model.total_mass:6.4f}"
    )

# r = 1 is complete tail independence: all mass sits on the axes
indep = asym_logistic_model(r=1.0, p=1.0)
print(f"\nindependence case interior density is None: "
      f"{indep.interior_density is None}")

# the quadrant Cauchy cdf at pi/4 is exactly 1 under the sum norm
quadrant = cauchy_quadrant_model(p=1.0)
print(f"quadrant model cdf at pi/4: {quadrant.cdf(QUARTER_PI):.12f}")

# the same angular family under the max norm carries mass sqrt(2)
print(f"quadrant model mass under max norm: "
      f"{cauchy_quadrant_model(p=np.inf).total_mass:.12f}")

# samplers round-trip: margins of the logistic samplers are unit Frechet,
# the asymmetric one built as max((1 - psi_j) Z_j, psi_j V_j)
grid = np.array([0.5, 1.0, 2.0, 5.0])
frechet = np.exp(-1.0 / grid)
for model in (asym_logistic_model(r=2.0, p=1.0), asym_logistic_model(r=3.0, psi1=0.7, psi2=0.9)):
    sample = model.sample(50000, np.random.default_rng(5))
    for label, column in (("x1", sample.values[:, 0]), ("x2", sample.values[:, 1])):
        empirical = (column[:, None] <= grid).mean(axis=0)
        gap = np.abs(empirical - frechet).max()
        print(f"{model.name} margin {label}: max |F_n - Frechet| on grid = {gap:.4f}")
