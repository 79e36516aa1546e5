"""Deterministic fault injectors: prove the recovery paths actually fire.

Resilience code that is never exercised is decoration.  Every injector
here is seedable/deterministic so tests can stage a precise failure —
NaN gradients at a chosen step, a SIGTERM-style abort between epochs,
checkpoint truncation or bit-flips, transient dataset-read failures —
and assert the matching recovery path (sentinel → rollback, checkpoint
→ resume, integrity hash → :class:`~repro.nn.CheckpointCorruptionError`,
IO retry) engages.

Injector catalog (docs/resilience.md):

==========================  ===============================================
:class:`NaNGradientInjector`  poisons a gradient at (epoch, batch)
:class:`AbortInjector`        raises :class:`SimulatedCrash` after an epoch
:func:`corrupt_checkpoint`    truncates or bit-flips a checkpoint on disk
:class:`FlakyReader`          fails the first N dataset reads transiently
:class:`ChaosSchedule`        composes injectors into one ``fault_hook``
==========================  ===============================================
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


class SimulatedCrash(RuntimeError):
    """A SIGTERM/SIGKILL stand-in raised between epochs by :class:`AbortInjector`.

    Deliberately *not* an ``Exception`` subclass the trainer handles:
    like a real kill it unwinds straight through ``Trainer.fit``, leaving
    only the atomic checkpoint behind.
    """


class TransientIOError(OSError):
    """An injected transient read failure (flaky NFS, network blip)."""


class ChaosSchedule:
    """Compose injectors into a single ``fault_hook`` callable.

    ``Trainer.fit`` invokes the hook as ``hook(point, **context)`` at
    ``"after_backward"`` (model, epoch, batch) and ``"epoch_end"``
    (model, epoch); every member injector sees every call.
    """

    def __init__(self, *injectors):
        self.injectors = list(injectors)

    def __call__(self, point: str, **context) -> None:
        # Lock-order sanitizer seam: a fault injected while the caller
        # holds a lock can deadlock recovery, so sanitized runs record
        # it.  No-op (getattr miss) outside sanitized runs.
        import threading

        hook = getattr(threading, "_repro_lockorder_checkpoint", None)
        if hook is not None:
            hook(f"fault_hook:{point}")
        for injector in self.injectors:
            injector(point, **context)


class NaNGradientInjector:
    """Overwrite one parameter's gradient with NaN at (epoch, batch).

    Fires at the ``"after_backward"`` hook point — after autodiff, before
    gradient clipping — exactly where a numerically diverged backward
    pass would surface.  ``once=True`` (default) arms it for a single
    shot so a rolled-back retry passes clean; ``once=False`` re-fires
    every attempt (for testing bounded-retry exhaustion).
    """

    def __init__(self, epoch: int, batch: int = 0, once: bool = True):
        self.epoch = epoch
        self.batch = batch
        self.once = once
        self.fired = 0

    def __call__(self, point: str, **context) -> None:
        if point != "after_backward":
            return
        if context["epoch"] != self.epoch or context["batch"] != self.batch:
            return
        if self.once and self.fired:
            return
        for param in context["model"].parameters():
            if param.grad is not None:
                # analyze: allow[RL007] fault injection mutates gradients on purpose
                param.grad[...] = np.nan
                self.fired += 1
                return


class AbortInjector:
    """Raise :class:`SimulatedCrash` at the end of a chosen epoch.

    The hook point runs *after* the checkpoint write, mimicking a process
    killed between epochs: the checkpoint survives, the process state is
    gone, and ``resume=True`` must reconstruct the run bit-compatibly.
    """

    def __init__(self, epoch: int, once: bool = True):
        self.epoch = epoch
        self.once = once
        self.fired = 0

    def __call__(self, point: str, **context) -> None:
        if point != "epoch_end" or context["epoch"] != self.epoch:
            return
        if self.once and self.fired:
            return
        self.fired += 1
        raise SimulatedCrash(f"injected abort after epoch {self.epoch}")


def corrupt_checkpoint(path: str | Path, mode: str = "truncate", seed: int = 0, flips: int = 16) -> None:
    """Deterministically damage a checkpoint file on disk.

    ``mode="truncate"`` keeps only the first half of the file (a crash
    mid-copy / full disk); ``mode="bitflip"`` XOR-flips one bit at
    ``flips`` seeded positions (bit rot).  Used by tests to prove the
    integrity hash rejects damaged state instead of resuming from it.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"{path} is empty; nothing to corrupt")
    if mode == "truncate":
        # analyze: allow[RL003] corrupting the file is the whole point here
        path.write_bytes(bytes(data[: len(data) // 2]))
    elif mode == "bitflip":
        rng = np.random.default_rng(seed)
        for position in rng.integers(0, len(data), size=flips):
            data[int(position)] ^= 1 << int(rng.integers(0, 8))
        # analyze: allow[RL003] corrupting the file is the whole point here
        path.write_bytes(bytes(data))
    else:
        raise ValueError(f"unknown corruption mode {mode!r}; use 'truncate' or 'bitflip'")


class FlakyReader:
    """Archive opener that fails the first ``failures`` calls transiently.

    Drop-in for the ``reader`` seam of
    :func:`repro.data.io.load_dataset`: raises :class:`TransientIOError`
    deterministically until its budget is spent, then delegates to
    ``np.load``.  ``attempts`` counts every call for assertions.
    """

    def __init__(self, failures: int = 1):
        if failures < 0:
            raise ValueError("failures must be >= 0")
        self.remaining = failures
        self.attempts = 0

    def __call__(self, path):
        self.attempts += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise TransientIOError(f"injected transient read failure for {path}")
        return np.load(path)
