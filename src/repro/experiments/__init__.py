"""The paper's tables and figures, one registered function per results file."""

from .registry import (
    FULL,
    QUICK,
    SCALES,
    SMOKE,
    ExperimentScale,
    experiment,
    list_experiments,
    run,
    save,
)

__all__ = ["FULL", "QUICK", "SCALES", "SMOKE", "ExperimentScale", "experiment",
           "list_experiments", "run", "save"]
