"""Correctness oracle: every output the benchmark times is also checked.

Each check returns a list of human-readable violations; the run fails
(non-zero exit, ``"correct": false``) when any list is non-empty.

* Serving: a model-sourced answer must equal the benchmark's own
  single-window forward of an independently built, identically seeded
  model — ``model(Tensor(x[None]), t[None])`` followed by
  ``task.inverse_targets`` — within rtol 1e-9.  For the fleet the
  reference is one model per shard, built by the replicas' own factory,
  reassembled on the node axis.  Every attempted request must end as
  exactly one of model / fallback / shed / rejected.
* Fleet teardown: no replica process may outlive ``fleet.stop()``.
* Training: every epoch loss is finite and the last epoch beats the
  first; the compiled twin's loss curve equals the eager one bitwise.
"""

from __future__ import annotations

import contextlib
import math
import os
import signal

import numpy as np

from repro.autodiff import Tensor, no_grad

RTOL = 1e-9
OUTCOMES = ("model", "fallback", "shed", "rejected")


class Reference:
    """Memoized single-window forecasts, one per test window."""

    def __init__(self, task, shards):
        """``shards`` is a list of ``(nodes, model)``; ``nodes=None`` is the full graph."""
        self.task = task
        self.shards = shards
        self._cache: dict[int, np.ndarray] = {}

    def __call__(self, window: int) -> np.ndarray:
        if window not in self._cache:
            x = self.task.test.inputs[window][None]
            t = self.task.test.time_indices[window][None]
            out = np.empty((self.task.horizon, self.task.num_nodes, self.task.out_dim))
            with no_grad():
                for nodes, model in self.shards:
                    model.eval()
                    cols = slice(None) if nodes is None else np.asarray(nodes)
                    scaled = model(Tensor(x[:, :, cols, :]), t).numpy()[0]
                    out[:, cols, :] = self.task.inverse_targets(scaled)
            self._cache[window] = out
        return self._cache[window]


def check_requests(phases, reference: Reference) -> list[str]:
    """Outcome accounting plus the value check of every model answer."""
    problems = []
    for phase in phases:
        counts = {k: 0 for k in OUTCOMES}
        for req in phase.requests:
            if req.outcome not in counts:
                problems.append(f"{phase.name}: request {req.rid} ended as {req.outcome or 'nothing'}")
                continue
            counts[req.outcome] += 1
            if req.outcome != "model":
                continue
            expected = reference(req.window)
            got = np.asarray(req.response.prediction, dtype=float)
            if got.shape != expected.shape or not np.allclose(got, expected, rtol=RTOL, atol=0.0):
                problems.append(f"{phase.name}: request {req.rid} (window {req.window}) "
                                "answered by the model with a wrong forecast")
        if sum(counts.values()) != len(phase.requests):
            problems.append(f"{phase.name}: outcomes {counts} do not sum to "
                            f"{len(phase.requests)} attempts")
        if phase.unexpected:
            problems.append(f"{phase.name}: {len(phase.unexpected)} response(s) for ids "
                            f"never sent or already answered, e.g. {phase.unexpected[0]}")
    return problems


def check_no_survivors(pids) -> list[str]:
    """Replica processes still running (zombies excepted)."""
    alive = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state != "Z":
            alive.append(pid)
    for pid in alive:  # the benchmark must not leave them behind either
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)
    return [f"replica process(es) {alive} outlived fleet.stop()"] if alive else []


def check_training(losses, twin_losses=None) -> list[str]:
    problems = []
    if not losses or not all(math.isfinite(v) for v in losses):
        problems.append(f"non-finite or missing epoch losses: {losses}")
    elif len(losses) > 1 and not losses[-1] < losses[0]:
        problems.append(f"last epoch loss {losses[-1]!r} does not beat the first {losses[0]!r}")
    if twin_losses is not None and list(twin_losses) != list(losses[: len(twin_losses)]):
        problems.append(f"compiled loss curve {twin_losses} differs from eager "
                        f"{losses[: len(twin_losses)]}")
    return problems
