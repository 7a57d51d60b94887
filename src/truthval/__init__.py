"""Truthful, collaboratively fair data valuation for Bayesian models.

The library values submitted datasets by how much they improve the log
density of a held-out validation set under an agreed Bayesian model, turns
those values into semivalue rewards (Shapley and friends), post-processes
rewards for budget or no-validation-set constraints, simulates manipulation
strategies, and verifies the truthfulness guarantees exactly on small
discrete instances by exact enumeration.
"""

from .data import (
    BINARY,
    REGRESSION,
    Dataset,
    binary_dataset,
    concat_datasets,
    empty_like,
    take_rows,
)
from .datagen import (
    Strategy,
    apply_strategy,
    derive_seed,
    friedman_generate,
    load_csv,
    output_moments,
    perturb_validation,
    shift_scale_outputs,
    split_train_validation,
)
from .errors import (
    ConfigurationError,
    InputError,
    NumericalError,
    TruthvalError,
    UnsupportedConfigurationError,
)
from .experiment import ExperimentConfig, RunReport, emit_report, run_experiment
from .gp import GpHyper, se_ard_kernel
from .mechanisms import CrossGameRewards, cross_validation_rewards
from .models import (
    BetaBernoulliModel,
    GaussianMeanModel,
    LinearRegressionModel,
    log_predictive,
    mean_log_predictive,
    posterior_params,
    prior_params,
    suff_stats,
)
from .oracle import (
    OracleVerdict,
    oracle_dvf_truthfulness,
    oracle_rank_gap,
    oracle_semivalue_truthfulness,
)
from .semivalues import (
    SemivalueEstimate,
    SemivalueWeights,
    budget_cap,
    exact_semivalue,
    make_weights,
    sampled_semivalue,
    scaled_reward,
)
from .valuation import (
    CoalitionScorer,
    DvfSpec,
    build_char_table,
    dvf_value,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
