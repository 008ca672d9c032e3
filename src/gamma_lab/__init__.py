"""gamma-lab: diffusion-operator calculus for product Gaussian/Gamma/Beta
measures, probability-distance estimation, and the quantitative chain that
bounds total-variation distance by Fortet-Mourier distance for bounded-degree
multilinear functionals.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConsistencyError,
    DegenerateFunctionalError,
    DimensionMismatchError,
    GammaLabError,
    PreconditionError,
)
from .measures import (
    BasisPolynomial,
    MeasureFamily,
    basis,
    beta,
    expectation,
    gamma,
    gaussian,
    raw_moment,
    sample,
    variance,
)
from .operators import (
    DiffusionOperator,
    SpectralDecomposition,
    apply_generator,
    carre_du_champ,
    check_diffusion,
    dirichlet_energy,
    eigenspace_gamma_identity,
    poincare_check,
    spectral_decompose,
    spectral_gap,
)
from .poly import Polynomial, variables
from .distances import (
    AnalyticLaw,
    DistanceReport,
    SampleSet,
    fortet_mourier,
    functional_samples,
    kolmogorov,
    total_variation,
)
from .anticoncentration import (
    CWReport,
    SmallBallCurve,
    carbery_wright_check,
    kappa_fit,
    smoothed_indicator_functional,
)
from .tv_bound import (
    BoundReport,
    MomentBudget,
    evaluate_bound,
    hypercontractivity_ratio,
    linear_sum_sequence,
    moment_budget,
    optimize_bound,
    pair_product_sequence,
    run_chain_replicate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
