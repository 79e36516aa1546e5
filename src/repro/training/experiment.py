"""Experiment runner: one (model, dataset) cell of a paper table.

Wraps training, evaluation, parameter counting, and timing so every
benchmark regenerates its table row through the same code path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..baselines.registry import NEURAL_BASELINES, STATISTICAL_BASELINES, build_baseline
from ..core.tgcrn import TGCRN
from ..core.variants import build_variant
from ..data.datasets import ForecastingTask
from ..metrics.errors import MetricReport, evaluate, horizon_report
from .trainer import Trainer, TrainingConfig


@dataclass
class ExperimentResult:
    """Everything a table/figure needs about one trained model."""

    model_name: str
    dataset: str
    overall: MetricReport
    per_horizon: list[MetricReport]
    num_parameters: int
    seconds_per_epoch: float
    epochs_run: int
    history: Any = None
    model: Any = None

    def horizon_metric(self, metric: str) -> list[float]:
        return [getattr(report, metric.lower()) for report in self.per_horizon]


def default_tgcrn_kwargs(task: ForecastingTask, hidden_dim: int = 32, node_dim: int = 16, time_dim: int = 8, num_layers: int = 2) -> dict:
    """CPU-scaled TGCRN configuration for a task (paper scale: 64/2/64/32)."""
    return dict(
        num_nodes=task.num_nodes,
        in_dim=task.in_dim,
        out_dim=task.out_dim,
        horizon=task.horizon,
        hidden_dim=hidden_dim,
        num_layers=num_layers,
        node_dim=node_dim,
        time_dim=time_dim,
        steps_per_day=task.steps_per_day,
    )


def run_experiment(
    model_name: str,
    task: ForecastingTask,
    config: TrainingConfig | None = None,
    model_kwargs: dict | None = None,
    hidden_dim: int = 32,
    num_layers: int = 2,
    seed: int = 0,
    keep_model: bool = False,
    logger=None,
    trainer=None,
) -> ExperimentResult:
    """Train/fit ``model_name`` on ``task`` and report test metrics.

    ``model_name`` is "tgcrn", a variant key ("wo_tagsl", ...), or any
    baseline name from the registry.  ``logger`` is an optional
    :class:`~repro.obs.RunLogger` forwarded to :meth:`Trainer.fit`.
    ``trainer`` substitutes a pre-built trainer — e.g. a
    :class:`~repro.resilience.GuardedTrainer` for divergence-protected
    runs; when given, its own config wins over ``config``.
    """
    if trainer is not None:
        config = trainer.config
    else:
        config = config or TrainingConfig(seed=seed)
        trainer = Trainer(config)
    rng = np.random.default_rng(seed)

    if model_name in STATISTICAL_BASELINES:
        start = time.perf_counter()
        model = build_baseline(model_name, task, seed=seed)
        fit_seconds = time.perf_counter() - start
        prediction, target = model.evaluate(task, "test")
        return ExperimentResult(
            model_name=model_name,
            dataset=task.name,
            overall=evaluate(prediction, target),
            per_horizon=horizon_report(prediction, target),
            num_parameters=0,
            seconds_per_epoch=fit_seconds,
            epochs_run=1,
            model=model if keep_model else None,
        )

    use_tdl: bool | None = None
    if model_name == "tgcrn" or model_name in _variant_names():
        kwargs = default_tgcrn_kwargs(task, hidden_dim=hidden_dim, num_layers=num_layers)
        if model_kwargs:
            kwargs.update(model_kwargs)
        variant_key = "tgcrn" if model_name == "tgcrn" else model_name
        model, spec = build_variant(variant_key, kwargs, rng=rng)
        use_tdl = spec.use_tdl
    elif model_name in NEURAL_BASELINES:
        model = build_baseline(model_name, task, hidden_dim=hidden_dim, num_layers=num_layers, seed=seed)
    else:
        raise ValueError(f"unknown model {model_name!r}")

    history = trainer.fit(model, task, use_tdl=use_tdl, logger=logger)
    overall, per_horizon = trainer.test_report(model, task)
    return ExperimentResult(
        model_name=model_name,
        dataset=task.name,
        overall=overall,
        per_horizon=per_horizon,
        num_parameters=model.num_parameters(),
        seconds_per_epoch=float(np.mean(history.epoch_seconds)) if history.epoch_seconds else 0.0,
        epochs_run=history.epochs_run,
        history=history,
        model=model if keep_model else None,
    )


@dataclass
class RepeatedResult:
    """Aggregate of one model trained on several seeds."""

    model_name: str
    dataset: str
    runs: list[ExperimentResult]

    def mean(self, metric: str = "mae") -> float:
        return float(np.mean([getattr(r.overall, metric) for r in self.runs]))

    def std(self, metric: str = "mae") -> float:
        return float(np.std([getattr(r.overall, metric) for r in self.runs]))

    def __str__(self) -> str:
        return (
            f"{self.model_name} on {self.dataset} over {len(self.runs)} seeds: "
            f"MAE {self.mean('mae'):.3f} ± {self.std('mae'):.3f}, "
            f"RMSE {self.mean('rmse'):.3f} ± {self.std('rmse'):.3f}"
        )


def run_repeated(
    model_name: str,
    task: ForecastingTask,
    config: TrainingConfig | None = None,
    seeds: tuple[int, ...] = (0, 1, 2),
    **kwargs,
) -> RepeatedResult:
    """Train ``model_name`` on several seeds and aggregate (mean ± std).

    Accepts the same keyword arguments as :func:`run_experiment`; each
    run gets its own seed in both the model init and the training config.
    """
    base = config or TrainingConfig()
    runs = []
    for seed in seeds:
        seeded = TrainingConfig(**{**base.__dict__, "seed": seed})
        runs.append(run_experiment(model_name, task, seeded, seed=seed, **kwargs))
    return RepeatedResult(model_name=model_name, dataset=task.name, runs=runs)


def _variant_names() -> set[str]:
    from ..core.variants import VARIANTS

    return set(VARIANTS)
