"""Experiment harness: profiles, dataset/method factories and the per-table
runners behind the paper's benchmark scripts."""

from .profiles import Profile, get_profile, FAST, FULL
from .configs import (
    TABLE3_GRID,
    TABLE3_METHODS,
    PROBABILISTIC_METHODS,
    DEEP_METHODS,
    build_dataset,
    build_method,
    build_pristi_config,
)
from .runner import (
    train_method,
    evaluate_method,
    run_imputation_benchmark,
    run_crps_benchmark,
    run_downstream_forecasting,
    run_ablation_study,
    run_missing_rate_sweep,
    run_sensor_failure,
    run_hyperparameter_sweep,
    run_time_costs,
)

__all__ = [
    "Profile",
    "get_profile",
    "FAST",
    "FULL",
    "TABLE3_GRID",
    "TABLE3_METHODS",
    "PROBABILISTIC_METHODS",
    "DEEP_METHODS",
    "build_dataset",
    "build_method",
    "build_pristi_config",
    "train_method",
    "evaluate_method",
    "run_imputation_benchmark",
    "run_crps_benchmark",
    "run_downstream_forecasting",
    "run_ablation_study",
    "run_missing_rate_sweep",
    "run_sensor_failure",
    "run_hyperparameter_sweep",
    "run_time_costs",
]
