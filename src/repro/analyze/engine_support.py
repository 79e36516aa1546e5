"""EN rules: which models the capture/replay engine can compile.

The execution engine (:mod:`repro.autodiff.engine`, docs/engine.md)
captures a training step once and replays it with precompiled kernels.
Graphs it cannot mirror bitwise raise ``PlanUnsupported`` at capture and
run eager forever — correct, but silently forfeiting the speedup.  This
lint makes that visible at analysis time instead of in production logs:
it drives one real forward + loss + backward through an
:class:`~repro.autodiff.engine.ExecutionEngine` per model and reports

* **EN001** (warning) — the step could not be captured (or was demoted
  after replay guard failures); the finding carries the engine's reason
  so the unsupported op is named, not guessed.

A clean model produces no findings: capture succeeds and one validation
replay passes its guards.
"""

from __future__ import annotations

import numpy as np

from .findings import Finding

__all__ = ["check_engine_support"]


def check_engine_support(
    model,
    *,
    history: int,
    horizon: int,
    num_nodes: int,
    in_dim: int,
    out_dim: int,
    batch: int = 2,
    model_name: str | None = None,
    seed: int = 0,
) -> list[Finding]:
    """Report signatures of ``model``'s training step the engine cannot compile.

    Runs capture plus one validation replay of ``forward -> mae_loss ->
    backward`` on synthetic data (same dims the model probe uses).  The
    model's parameters and training flag are left as found; gradients
    written by the probe are cleared.
    """
    from ..autodiff import Tensor, mae_loss
    from ..autodiff.engine import ExecutionEngine, discover_rngs

    name = model_name or type(model).__name__
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, history, num_nodes, in_dim))
    y = rng.standard_normal((batch, horizon, num_nodes, out_dim))
    time_indices = (
        np.arange(history + horizon)[None, :] + np.arange(batch)[:, None] + 3
    )

    def step(x_t, y_t, t):
        loss = mae_loss(model(x_t, t), y_t)
        loss.backward()
        return loss

    engine = ExecutionEngine(f"lint:{name}", rngs=discover_rngs(model))
    was_training = getattr(model, "training", None)
    if hasattr(model, "train"):
        model.train(True)
    try:
        engine.run(step, Tensor(x), Tensor(y), time_indices)  # capture
        engine.run(step, Tensor(x), Tensor(y), time_indices)  # validate replay
    finally:
        if was_training is not None and hasattr(model, "train"):
            model.train(was_training)
        if hasattr(model, "zero_grad"):
            model.zero_grad()

    findings: list[Finding] = []
    for entry in engine.describe()["plans"]:
        if not (entry["eager_only"] or entry["failures"]):
            continue
        reason = entry.get("reason") or "replay guard failure"
        findings.append(
            Finding(
                rule_id="EN001",
                severity="warning",
                location=f"model:{name}",
                anchor=f"model:{name}",
                message=(
                    f"training step is not engine-compilable for signature "
                    f"{entry['signature']}: {reason}"
                ),
                fix_hint=(
                    "route the op through the autodiff vocabulary the engine "
                    "mirrors (docs/engine.md) or accept eager execution for "
                    "this model"
                ),
            )
        )
    return findings
