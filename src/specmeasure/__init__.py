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

from .empirical import (
    AngularSample,
    DiscreteSpectralMeasure,
    empirical_spectral_measure,
    select_extremes,
)
from .evaluation import (
    MiseTable,
    integrated_squared_error,
    mise_sweep,
    replication_ise,
)
from .lp_geometry import (
    check_norm_order,
    lp_norm,
    score_f,
)
from .mele import (
    ConstraintInfeasible,
    MultiplierSolution,
    mele_spectral_measure,
    mele_spectral_prob,
    mele_weights,
    psi,
    solve_multiplier,
    spectral_normalizer,
)
from .models import (
    SpectralModel,
    asym_logistic_model,
    asym_logistic_spectral_density,
    cauchy_fullplane_model,
    cauchy_quadrant_model,
    mixture_model,
    moment_sums,
    sample_logistic,
)
from .pickands import PickandsFunction, pickands_function
from .pseudo_obs import (
    BivariateSample,
    InputError,
    ParseError,
    PseudoObservations,
    column_ranks,
    pseudo_observations,
    read_sample,
    write_sample,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AngularSample",
    "BivariateSample",
    "ConstraintInfeasible",
    "DiscreteSpectralMeasure",
    "InputError",
    "MiseTable",
    "MultiplierSolution",
    "ParseError",
    "PickandsFunction",
    "PseudoObservations",
    "SpectralModel",
    "asym_logistic_model",
    "asym_logistic_spectral_density",
    "cauchy_fullplane_model",
    "cauchy_quadrant_model",
    "check_norm_order",
    "column_ranks",
    "empirical_spectral_measure",
    "integrated_squared_error",
    "lp_norm",
    "mele_spectral_measure",
    "mele_spectral_prob",
    "mele_weights",
    "mise_sweep",
    "mixture_model",
    "moment_sums",
    "pickands_function",
    "pseudo_observations",
    "psi",
    "read_sample",
    "replication_ise",
    "sample_logistic",
    "score_f",
    "select_extremes",
    "solve_multiplier",
    "spectral_normalizer",
    "write_sample",
]
