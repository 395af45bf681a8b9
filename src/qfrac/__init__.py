"""Generalized q-fractional calculus: q-special functions, Jackson
integration, fractional integral and Caputo-type derivative operators, and a
Picard solver for q-fractional Cauchy problems."""

from .cauchy import (
    CauchyProblem,
    SolverReport,
    apriori_bound,
    estimate_lipschitz,
    picard_iterate,
    q_mittag_leffler,
    solve,
    solver_nodes,
)
from .errors import (
    ConvergenceError,
    DomainError,
    MissingLipschitzError,
    PoleError,
    QfracError,
    TrustRegionError,
)
from .operators import (
    FracOrder,
    LatticeKernel,
    OperatorContext,
    bound_constant,
    caputo_derivative,
    caputo_derivative_simplified,
    caputo_rl_relation_residual,
    frac_derivative_rl,
    frac_integral,
    inversion_residuals,
    lemma_beta_integral,
)
from .qcalc import (
    QLattice,
    ScalarFunction,
    jackson_integral,
    jackson_integral_zero,
    q_derivative,
    sup_norm,
)
from .qcore import (
    DEFAULT_INTEGRATION_CTRL,
    QParams,
    SeriesControl,
    q_factorial,
    q_gamma,
    q_number,
    q_power_general,
)

__version__ = "0.1.0"
