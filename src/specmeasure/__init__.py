"""Rank-based estimation of the spectral measure of bivariate extremes.

The spectral (angular) measure on [0, pi/2] describes how extreme
observations split their magnitude between the two components.  This
package estimates it from raw data using only within-column ranks, in
two flavors: the plain empirical measure of the angular atoms, and a
reweighted version (maximum empirical likelihood) that is guaranteed to
satisfy the moment constraints characterizing genuine spectral
measures.  Ground-truth models, a Pickands dependence function
transform, and a Monte Carlo MISE harness support evaluation.
"""

from . import empirical, evaluation, lp_geometry, mele, models, pickands, pseudo_obs
from .empirical import *  # noqa: F403
from .evaluation import *  # noqa: F403
from .lp_geometry import *  # noqa: F403
from .mele import *  # noqa: F403
from .models import *  # noqa: F403
from .pickands import *  # noqa: F403
from .pseudo_obs import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (empirical, evaluation, lp_geometry, mele, models, pickands, pseudo_obs)
    for name in module.__all__
]
