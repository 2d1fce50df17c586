"""varest: unbiased signal/noise estimation for high-dimensional linear models.

The setting: ``Y = beta' X + eps`` with p comparable to n, no sparsity
assumption, and a covariate distribution known exactly (as if from unlimited
unlabeled data).  The library estimates the explained variance
``tau^2 = ||beta||^2`` and the noise ``sigma^2 = Var(Y) - tau^2``, improves
the baseline estimator with mean-zero corrections built from the known
covariate moments, and quantifies the variance of every estimator both in
theory and from data.  A Monte Carlo harness and CLI reproduce the benchmark
table at desk scale.
"""

from .errors import (
    DegenerateZeroEstimator,
    DimensionMismatch,
    IndexOutOfRange,
    InitialEstimatorFailure,
    InsufficientRecords,
    InvalidInput,
    InvalidScenario,
    LengthMismatch,
    NearSingularCovariance,
    NonFiniteResult,
    TooFewColumns,
    TooFewObservations,
    UnsupportedDependenceStructure,
    VarestError,
)
from .estimators import (
    ESTIMATOR_IDS,
    EstimateReport,
    build_single_zero,
    c_hat_numerator,
    c_hat_star,
    c_star_oracle,
    dicker_tau2,
    naive_tau2,
    pairwise_zero_variance,
    psi_hat,
    sigma2_from,
    t_b,
    t_c_hat_star,
    t_full,
    t_oracle,
)
from .harness import (
    INITIAL_IDS,
    HarnessOptions,
    RepRecord,
    SummaryStats,
    estimate,
    run_scenario,
    summarize,
)
from .kernels import (
    GramMatrix,
    chain_sum_distinct,
    gram,
    offdiag_square_sum,
    pair_sum_distinct,
    triple_sum_distinct,
)
from .model import (
    CoefficientVector,
    CovariateModel,
    LabeledDataset,
    WMatrix,
    Whitening,
    build_w,
    column_set,
    sample_variance_y,
    whiten,
)
from .selection import SelectionResult, beta_squared_estimates, gap_select, t_gamma
from .simgen import (
    ScenarioConfig,
    build_beta,
    covariate_model_for,
    fourth_moment_of,
    generate_dataset,
)
from .variance import (
    asymptotic_psi,
    var_hat_naive_gaussian,
    var_hat_t_gamma,
    var_naive_theory,
    var_t_b_theory,
    var_t_cstar_theory,
    var_t_full_theory,
    var_t_oracle_theory,
    var_tilde_naive,
    var_tilde_t_chat,
    var_tilde_t_gamma,
)
from .zeroboost import BootstrapConfig, empirical_estimator

__version__ = "0.1.0"
