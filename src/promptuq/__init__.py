"""Posterior inference over low-dimensional prompt parameters of black-box
classifiers, with calibration, selective-classification and OOD evaluation."""

from .abc_smc import (RejectionConfig, SmcConfig, abc_smc, decay_tolerance,
                      distance_error_rate, effective_sample_size, initial_tolerance,
                      rejection_abc, update_kernel_variance, update_weights)
from .blackbox import (EvalBudget, FrozenClassifier, LabeledSet, SyntheticSimulator,
                       SyntheticTask, TaskConfig, make_synthetic_task)
from .cmaes import MinimizeResult, SearchState, ask, es_init, minimize, tell
from .errors import (AccessDeniedError, BudgetExhaustedError, ConfigError,
                     DegenerateWeightsError, EvaluationError,
                     NumericalBreakdownError, ProtocolError, StagnationError)
from .estimators import (EnsembleConfig, EsConfig, GfviConfig, PosteriorEnsemble,
                         elbo_estimate, ensemble_tune, gfvi_tune,
                         kl_diag_gaussian_to_prior, load_ensemble,
                         negative_log_likelihood, point_estimate, save_ensemble)
from .experiment import (ExperimentConfig, compare_methods,
                         experiment_config_from_dict, run_experiment)
from .predictive import (PredictiveTable, predictive_from_labels,
                         predictive_from_logits)
from .prompt_space import PriorSpec, make_projection, prior_log_density, sample_prior
from .protocol import ExternalSimulator, serve, serve_stdio, serve_tcp
from .uqeval import (RiskRejectionCurve, ece, ood_detection_eval, oracle_lower_bound,
                     risk_rejection_curve, selective_classification_eval)

__version__ = "0.1.0"
