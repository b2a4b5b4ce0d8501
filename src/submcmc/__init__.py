"""Subsampling MCMC: pseudo-marginal samplers built on survey-sampling
difference estimators with control variates, a signed pseudo-marginal
sampler driven by the block product estimator, Hamiltonian Monte Carlo
with energy conserving subsampling, and the chain diagnostics that govern
tuning."""

__version__ = "0.1.0"

from .control_variates import (
    ClusteringResult,
    DataExpandedCache,
    ExactControlVariate,
    ParamExpandedCache,
    build_data_expanded,
    build_param_expanded,
    differences,
    kmeans_cluster,
    select_expansion_point,
)
from .diagnostics import (
    CtReport,
    IactEstimate,
    autocorrelations,
    ct,
    ct_signed,
    iact,
    make_ct_report,
    mc_standard_error,
    summarize,
    write_summary_csv,
)
from .errors import (
    CacheBuildError,
    ConfigError,
    CsvParseError,
    DomainError,
    SamplerError,
)
from .estimators import (
    BlockPoissonConfig,
    LogLikEstimate,
    PlanningInputs,
    SubsampleState,
    block_poisson_evaluate,
    default_soft_bound,
    difference_estimate,
    draw_block_poisson,
    draw_bpm,
    draw_cpm,
    draw_srs,
    estimate_sigma2_pilot,
    gaussian_to_index,
    optimal_m_srs_wor,
    plan_subsample_size,
    srs_wr_estimate,
    wor_sampling_fraction,
)
from .models import (
    Dataset,
    GaussianPrior,
    GlmModel,
    LogisticRegression,
    ModelSpec,
    NormalMeanModel,
    PoissonRegression,
    load_dataset,
    save_dataset,
    simulate_poisson,
)
from .samplers import (
    ChainTrace,
    DependenceConfig,
    DifferenceConfig,
    HmcConfig,
    ProposalConfig,
    hmc_ecs_run,
    hmc_run,
    leapfrog,
    log_accept_ratio,
    mh_run,
    pmmh_run,
    propose_u,
    signed_expectation,
    subsampled_potential,
)
