"""Paper-style result table formatting.

Benchmarks print the same rows the paper reports; these helpers keep the
formatting consistent and machine-greppable for EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Sequence

from .experiment import ExperimentResult


def format_metro_table(results: Sequence[ExperimentResult], interval_minutes: int = 15) -> str:
    """Table IV layout: per-horizon MAE/RMSE/MAPE columns."""
    if not results:
        return "(no results)"
    horizons = len(results[0].per_horizon)
    header = f"{'Method':<14}"
    for q in range(horizons):
        header += f" | {str((q + 1) * interval_minutes) + ' min':^24}"
    sub = f"{'':<14}"
    for _ in range(horizons):
        sub += f" | {'MAE':>7} {'RMSE':>8} {'MAPE%':>7}"
    lines = [header, sub, "-" * len(sub)]
    for result in results:
        row = f"{result.model_name:<14}"
        for report in result.per_horizon:
            row += f" | {report.mae:7.2f} {report.rmse:8.2f} {report.mape:7.2f}"
        lines.append(row)
    return "\n".join(lines)


def format_demand_table(results: Sequence[ExperimentResult]) -> str:
    """Table V layout: overall MAE/RMSE/PCC."""
    lines = [f"{'Method':<14} | {'MAE':>8} {'RMSE':>8} {'PCC':>7}", "-" * 44]
    for result in results:
        r = result.overall
        lines.append(f"{result.model_name:<14} | {r.mae:8.4f} {r.rmse:8.4f} {r.pcc:7.4f}")
    return "\n".join(lines)


def format_electricity_table(results: Sequence[ExperimentResult]) -> str:
    """Table VI layout: MSE/MAE."""
    lines = [f"{'Method':<14} | {'MSE':>8} {'MAE':>8}", "-" * 35]
    for result in results:
        r = result.overall
        lines.append(f"{result.model_name:<14} | {r.mse:8.4f} {r.mae:8.4f}")
    return "\n".join(lines)


def format_ablation_table(results: Sequence[ExperimentResult]) -> str:
    """Table VII layout: average-horizon MAE/RMSE/MAPE per variant."""
    lines = [f"{'Variant':<12} | {'MAE':>7} {'RMSE':>8} {'MAPE%':>7}", "-" * 40]
    for result in results:
        r = result.overall
        lines.append(f"{result.model_name:<12} | {r.mae:7.2f} {r.rmse:8.2f} {r.mape:7.2f}")
    return "\n".join(lines)


def format_cost_table(rows: Sequence[tuple[str, int | None, float | None]]) -> str:
    """Table VIII layout: parameter count + seconds per epoch ("-" for None)."""
    lines = [f"{'Model':<22} | {'# Parameters':>12} | {'s/epoch':>8}", "-" * 50]
    for name, params, seconds in rows:
        count = "-" if params is None else f"{params:,d}"
        per_epoch = "-" if seconds is None else f"{seconds:.3f}"
        lines.append(f"{name:<22} | {count:>12} | {per_epoch:>8}")
    return "\n".join(lines)


def format_relative_series(name: str, values: Sequence[float], benchmark: Sequence[float]) -> str:
    """Fig. 8 layout: metric per horizon relative to the FC-LSTM benchmark."""
    ratio = " ".join(f"{v / b:6.3f}" for v, b in zip(values, benchmark))
    return f"{name:<14} | {ratio}"
