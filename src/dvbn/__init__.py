"""Discrete-valued Bayesian networks from mixed continuous/discrete data.

The package discretizes continuous variables so that the resulting
discrete-valued network explains the data best, either under a Dirichlet
marginal-likelihood objective or a minimum-description-length objective, and
couples that discretization with greedy structure search and cross-validated
evaluation.
"""

from .dataset import (DiscreteDataset, MixedDataset, SortedColumn, Variable,
                      infer_schema, load_csv, load_schema, sorted_column,
                      sorted_view)
from .discretizer import discretize_one
from .errors import (ConfigError, CycleError, DataError, DvbnError,
                     ValidationError)
from .evaluation import (CvReport, TrainedModel, cross_validate, fit_parameters,
                         fold_indices, loglik_density, loglik_discrete,
                         naive_bayes_protocol, naive_bayes_structure)
from .graph import Dag
from .multivar import (PolicySet, apply_policies, discretize_all,
                       equal_width_set, initial_interval_count)
from .policy import (DiscretizationPolicy, equal_width, midpoint_candidates,
                     policy_from_lambda, representations)
from .scoring import objective
from .structure import (LearnResult, family_score, k2_multi_restart, k2_pass,
                        learn_dvbn, multi_restart, network_score)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "CvReport", "CycleError", "Dag", "DataError",
    "DiscreteDataset", "DiscretizationPolicy", "DvbnError", "LearnResult",
    "MixedDataset", "PolicySet", "SortedColumn", "TrainedModel",
    "ValidationError", "Variable", "apply_policies", "cross_validate",
    "discretize_all", "discretize_one", "equal_width", "equal_width_set",
    "family_score", "fit_parameters", "fold_indices", "infer_schema",
    "initial_interval_count", "k2_multi_restart", "k2_pass", "learn_dvbn",
    "load_csv", "load_schema", "loglik_density", "loglik_discrete",
    "midpoint_candidates", "multi_restart",
    "naive_bayes_protocol", "naive_bayes_structure", "network_score",
    "objective", "policy_from_lambda", "representations", "sorted_column",
    "sorted_view",
]
