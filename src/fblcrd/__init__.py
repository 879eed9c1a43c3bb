"""Conditional rate-distortion toolkit.

Numerical machinery for lossy source coding with side information at both
terminals: the conditional rate-distortion function and its optimal test
channel, tilted information densities and dispersions, non-asymptotic
achievability/converse bounds with Monte-Carlo evaluation, and the
closed-form Gaussian and Markov specializations of the second-order rate.
"""

from .bounds import (
    BoundResult,
    ConverseBound,
    FblQuery,
    ForwardBoundParams,
    SumDistribution,
    achievable_rate_estimate,
    converse_lower,
    converse_rate_bound,
    forward_bound,
    second_order_rate,
    simulate_random_code,
    sum_distribution,
    tilted_sum_distribution,
)
from .coremath import (
    binary_entropy,
    chi2_cdf,
    chi2_logpdf,
    chi2_sf,
    entropy,
    gaussian_cdf,
    gaussian_q,
    gaussian_q_inv,
    pow_one_minus_log,
)
from .exceptions import (
    ConvergenceError,
    FblcrdError,
    InfeasibleDistortionError,
    ValidationError,
)
from .gaussian import (
    GAUSSIAN_DISPERSION,
    GaussianModel,
    SphereCapParams,
    cap_code_eps,
    gaussian_converse_eps,
    gaussian_crd,
    gaussian_second_order_rate,
    gaussian_simulate,
    sphere_cap_bound,
    sphere_cap_params,
    tilted_density_samples,
)
from .markov import (
    CovarianceLadder,
    MarkovModel,
    MarkovTiltedQuantities,
    iid_kernel,
    load_markov_model,
    markov_tilted_quantities,
    sample_markov,
    stationary_law,
    v_inf_spectral,
    v_n,
)
from .mc import McEstimate, chunked_monte_carlo
from .solver import (
    CrdSolution,
    PerStateSolution,
    rd_gradient,
    solve_crd,
    solve_rd_per_state,
)
from .source import (
    DistortionSpec,
    Instance,
    JointSource,
    SequencePair,
    binary_hamming_instance,
    load_model,
    parse_model,
    validate,
)
from .tilted import (
    InfoDensities,
    TiltedField,
    TiltedIdentityReport,
    VarianceDecomposition,
    dispersion_v,
    info_densities,
    tilted_density,
    verify_tilted_identities,
)

__version__ = "0.1.0"
