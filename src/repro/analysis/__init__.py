"""Per-table/figure experiment modules, registry and CLI."""

from .registry import EXPERIMENTS, experiment_ids, run_experiment
from .result import ExperimentResult, format_value, render_table

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "experiment_ids",
    "format_value",
    "render_table",
    "run_experiment",
]
