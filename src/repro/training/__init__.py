"""Training protocol, experiment runner, and table formatting."""

from .trainer import DivergenceDetected, Trainer, TrainingConfig, TrainingHistory
from .experiment import (
    ExperimentResult,
    RepeatedResult,
    default_tgcrn_kwargs,
    run_experiment,
    run_repeated,
)
from .analysis import (
    SignificanceReport,
    horizon_curve_text,
    improvement_over_best_baseline,
    improvement_table,
    paired_significance,
)
from .tables import (
    format_ablation_table,
    format_cost_table,
    format_demand_table,
    format_electricity_table,
    format_metro_table,
    format_relative_series,
)

__all__ = [
    "DivergenceDetected",
    "ExperimentResult",
    "RepeatedResult",
    "Trainer",
    "TrainingConfig",
    "TrainingHistory",
    "SignificanceReport",
    "horizon_curve_text",
    "improvement_over_best_baseline",
    "improvement_table",
    "paired_significance",
    "default_tgcrn_kwargs",
    "format_ablation_table",
    "format_cost_table",
    "format_demand_table",
    "format_electricity_table",
    "format_metro_table",
    "format_relative_series",
    "run_experiment",
    "run_repeated",
]
