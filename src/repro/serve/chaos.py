"""Serve-side fault injectors: prove the containment paths actually fire.

Training chaos (:mod:`repro.resilience.chaos`) stages failures inside
``Trainer.fit``; the injectors here stage them at the *serving* boundary
instead — a model that goes numerically bad mid-flight
(:class:`NaNModel`), a model that blows its latency budget
(:class:`SlowModel`), callers sending garbage
(:func:`malformed_payloads`), and a checkpoint corrupted between write
and warm reload (reuse :func:`repro.resilience.chaos.corrupt_checkpoint`).
Each is deterministic and togglable so tests walk the breaker through
closed → open → half-open → closed on a fake clock.
"""

from __future__ import annotations

import time

import numpy as np

from ..autodiff import Tensor


class _ModelWrapper:
    """Delegate everything (state_dict, num_nodes, eval, ...) to the inner model."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        if name == "inner":  # guard: deepcopy probes before __dict__ exists
            raise AttributeError(name)
        return getattr(self.inner, name)

    def eval(self):
        self.inner.eval()
        return self

    def __call__(self, x, t):
        return self.inner(x, t)


class NaNModel(_ModelWrapper):
    """Poison the wrapped model's output with NaN while ``failing`` is set.

    The shape/dtype stay exactly right — only the values are garbage, the
    way real weight divergence looks to a caller.  Flip ``failing = False``
    to clear the fault and let a half-open probe succeed.
    """

    def __init__(self, inner, failing: bool = True):
        super().__init__(inner)
        self.failing = failing
        self.calls = 0

    def __call__(self, x, t):
        self.calls += 1
        out = self.inner(x, t)
        if not self.failing:
            return out
        return Tensor(np.full_like(out.numpy(), np.nan))


class SlowModel(_ModelWrapper):
    """Add ``delay`` seconds of wall time per forward pass.

    ``sleep`` is injectable: ``sleep=clock.advance`` makes each forward
    cost ``delay`` seconds on a test's fake clock without sleeping.
    """

    def __init__(self, inner, delay: float = 0.5, sleep=time.sleep):
        super().__init__(inner)
        self.delay = delay
        self._sleep = sleep
        self.calls = 0

    def __call__(self, x, t):
        self.calls += 1
        self._sleep(self.delay)
        return self.inner(x, t)


def malformed_payloads(spec) -> list[tuple[str, dict]]:
    """A deterministic catalog of bad requests, one per front-door check.

    Returns ``(expected_code, payload)`` pairs; every payload must be
    rejected with :class:`~repro.serve.InvalidRequestError` carrying that
    code (asserted by ``tests/test_serve_validation.py``).
    """
    good_window = np.zeros(spec.window_shape)
    good_times = np.arange(spec.span)
    nan_window = good_window.copy()
    nan_window.flat[0] = np.nan
    drifted = good_window.copy()
    if spec.scale_limit is not None:
        drifted.flat[0] = spec.scale_limit * 100.0
    catalog = [
        ("schema", {"time_index": good_times}),                        # window missing
        ("schema", {"window": good_window, "time_index": good_times,
                    "bogus_field": 1}),                                # unknown field
        ("shape", {"window": good_window[:, :-1], "time_index": good_times}),
        ("dtype", {"window": np.full(spec.window_shape, "x", dtype=object),
                   "time_index": good_times}),
        ("non_finite", {"window": nan_window, "time_index": good_times}),
        ("time_index", {"window": good_window,
                        "time_index": good_times[::-1].copy()}),       # decreasing
    ]
    if spec.scale_limit is not None:
        catalog.append(("scale_drift", {"window": drifted, "time_index": good_times}))
    return catalog
