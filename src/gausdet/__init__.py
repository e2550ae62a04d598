"""Minimax detection of Gaussian stochastic signals in white Gaussian noise.

Library layout:

* ``model``      statistical model, scalar statistics, decision rules
* ``exponents``  Chernoff exponents, upper/lower bounds on the miss probability
* ``tails``      Gaussian and chi-square tail sandwiches, normal approximation
* ``reduction``  uncertainty-set reduction and domination certificates
* ``simulate``   Monte Carlo ground truth
* ``oracle``     the exact weighted chi-square oracle (Ruben's mixture)
* ``cli``        the ``gausdet`` command line interface
"""

from .errors import DimensionMismatch, GausdetError, InvalidInput, OutOfRegime
from .exponents import (
    BetaLowerBound,
    ConditionCheck,
    ExponentSolution,
    TransferBound,
    alpha_upper_bound,
    beta_lower_bound,
    beta_mismatch_upper,
    beta_upper_bound,
    bound_transfer,
    g_eval,
    mismatch_profile,
    solve_u0,
    sufficient_condition_check,
)
from .model import (
    BayesTest,
    DiscretePrior,
    FinitePoints,
    GlrtTest,
    Hypothesis,
    IntensityVector,
    NpTest,
    Observation,
    ProductFloor,
    SignalStatistics,
    SumFloor,
    bayes_decide,
    bayes_log_ratio,
    glrt_decide,
    log_likelihood_ratio,
    np_decide,
    signal_statistics,
)
from .reduction import (
    CanonicalReduction,
    PartitionCertificate,
    ReductionResult,
    canonical_reduction,
    dominance_check,
    find_lemma2_certificate,
    lemma2_certificate,
    reduce_to_minimal,
)
from .simulate import (
    Box,
    Ellipsoid,
    Example3Report,
    Lemma1Result,
    MonteCarloEstimate,
    estimate_error_probs,
    example3_experiment,
    lemma1_check,
)
from .oracle import np_test_exact_probs, weighted_chi2_cdf
from .tails import (
    TailSandwich,
    berry_esseen_alpha,
    chi2_lower_tail_sandwich,
    chi2_upper_tail_sandwich,
    normal_tail_bounds,
    prop4_threshold,
    standard_normal_upper_tail,
)

BoundInterval = TailSandwich  # the former name of the ln(beta) sandwich
__version__ = "0.1.0"
