"""End-to-end containment: the acceptance scenarios for repro.serve.

Two storylines (docs/serving.md):

* **NaN-emitting model** — zero valid requests see a 5xx-style error:
  every response is a healthy model forecast or an explicitly-marked
  ``historical_average`` fallback; the breaker trips within its
  configured threshold, recovers via half-open probe once the fault
  clears, and every transition lands in the JSONL log.
* **kill-mid-reload** — a checkpoint corrupted between write and warm
  reload is rejected by the integrity hash; the previously-live model
  keeps serving and a structured ``checkpoint_rejected`` record is
  logged.
"""

import json

import numpy as np
import pytest

from repro.core import TGCRN
from repro.nn import save_checkpoint
from repro.obs import RunLogger
from repro.resilience import corrupt_checkpoint
from repro.serve import CircuitBreaker, ForecastServer, NaNModel, SlowModel
from repro.training import default_tgcrn_kwargs
from repro.verify import named_rng


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


FAILURE_THRESHOLD = 2
COOLDOWN = 10.0


def _model(task, name="chaos-serve-model"):
    return TGCRN(
        **default_tgcrn_kwargs(task, hidden_dim=4, node_dim=3, time_dim=3, num_layers=1),
        rng=named_rng(5, name),
    )


def _submit_valid(server, task, count, tag):
    for i in range(count):
        j = i % len(task.test)
        server.submit({"window": task.test.inputs[j],
                       "time_index": task.test.time_indices[j],
                       "id": f"{tag}-{i}"})


@pytest.fixture
def harness(tiny_task, tmp_path):
    clock = FakeClock()
    log_path = tmp_path / "serve.jsonl"
    logger = RunLogger(path=str(log_path), console=False)
    nan_model = NaNModel(_model(tiny_task), failing=False)
    server = ForecastServer(
        nan_model, tiny_task, queue_depth=64, max_batch=2,
        breaker=CircuitBreaker(failure_threshold=FAILURE_THRESHOLD,
                               cooldown=COOLDOWN, clock=clock),
        logger=logger, clock=clock,
    )
    yield server, nan_model, clock, log_path, logger
    logger.close()


def _events(log_path):
    return [json.loads(line) for line in log_path.open()]


class TestNaNContainment:
    def test_end_to_end_containment_and_recovery(self, tiny_task, harness):
        server, nan_model, clock, log_path, logger = harness

        # Phase 1: healthy traffic.
        _submit_valid(server, tiny_task, 4, "pre")
        healthy = server.drain()
        assert all(r.source == "model" for r in healthy)

        # Phase 2: the model goes bad mid-flight.
        nan_model.failing = True
        _submit_valid(server, tiny_task, 8, "nan")
        poisoned = server.drain()

        # Zero 5xx: every request answered, each explicitly marked.
        assert len(poisoned) == 8
        assert all(r.source == "historical_average" and r.degraded for r in poisoned)
        assert all(np.all(np.isfinite(r.prediction)) for r in poisoned)
        # Breaker tripped within the configured threshold: only the first
        # FAILURE_THRESHOLD batches ever reached the model.
        model_calls_during_fault = nan_model.calls - 2  # phase 1 used 2 batches
        assert model_calls_during_fault == FAILURE_THRESHOLD
        assert server.breaker.state == "open"

        # Phase 3: fault clears, but cooldown still routes to fallback.
        nan_model.failing = False
        clock.advance(COOLDOWN / 2)
        _submit_valid(server, tiny_task, 2, "cool")
        cooling = server.drain()
        assert all(r.source == "historical_average" for r in cooling)

        # Phase 4: cooldown over -> half-open probe -> closed.
        clock.advance(COOLDOWN)
        _submit_valid(server, tiny_task, 2, "post")
        recovered = server.drain()
        assert all(r.source == "model" for r in recovered)
        assert server.breaker.state == "closed"

        # Every transition appears in the JSONL log.
        logger.close()
        events = [r["event"] for r in _events(log_path)]
        assert "breaker_open" in events
        assert "breaker_half_open" in events
        assert "breaker_closed" in events
        assert "fallback_served" in events
        order = [e for e in events
                 if e in ("breaker_open", "breaker_half_open", "breaker_closed")]
        assert order == ["breaker_open", "breaker_half_open", "breaker_closed"]

    def test_probe_failure_reopens(self, tiny_task, harness):
        server, nan_model, clock, _, _ = harness
        nan_model.failing = True
        _submit_valid(server, tiny_task, 2 * FAILURE_THRESHOLD, "nan")
        server.drain()
        assert server.breaker.state == "open"
        clock.advance(COOLDOWN + 1)  # fault has NOT cleared: probe fails
        _submit_valid(server, tiny_task, 2, "probe")
        responses = server.drain()
        assert all(r.source == "historical_average" for r in responses)
        assert server.breaker.state == "open"


class TestSlowModelTimeout:
    def test_slow_batches_count_as_breaker_failures(self, tiny_task):
        clock = FakeClock()
        slow = SlowModel(_model(tiny_task), delay=0.05, sleep=clock.advance)
        server = ForecastServer(
            slow, tiny_task, max_batch=2, batch_timeout=0.001,
            breaker=CircuitBreaker(failure_threshold=2, cooldown=5.0, clock=clock),
            clock=clock,
        )
        _submit_valid(server, tiny_task, 6, "slow")
        responses = server.drain()
        # Valid output is still served while the breaker is counting...
        assert all(r.source in ("model", "historical_average") for r in responses)
        # ...but persistent slowness trips it, flipping traffic to fallback.
        assert server.breaker.state == "open"
        assert slow.calls == 2
        assert server.metrics._counters["serve.timeouts"].value == 2
        fallbacks = [r for r in responses if r.source == "historical_average"]
        assert len(fallbacks) == 2  # third batch never touched the slow model


class TestKillMidReload:
    def test_corruption_racing_the_reload_is_contained(self, tiny_task, tmp_path):
        """The checkpoint is corrupted *during* reload (after the reload
        begins, before the archive is read) — the tightest race there is."""
        log_path = tmp_path / "serve.jsonl"
        logger = RunLogger(path=str(log_path), console=False)
        live = _model(tiny_task)
        ckpt = tmp_path / "candidate.npz"
        save_checkpoint(ckpt, _model(tiny_task, name="chaos-serve-next"))

        def factory_then_corrupt():
            # Runs inside reload_checkpoint, before load: simulates the
            # file being damaged mid-reload (partial overwrite, bit rot).
            corrupt_checkpoint(ckpt, mode="truncate")
            return _model(tiny_task)

        server = ForecastServer(live, tiny_task, logger=logger,
                                model_factory=factory_then_corrupt)
        version_before = server.model_version
        assert not server.reload_checkpoint(ckpt)
        assert server.model_version == version_before

        # Previously-live model keeps serving.
        server.submit({"window": tiny_task.test.inputs[0],
                       "time_index": tiny_task.test.time_indices[0]})
        (response,) = server.drain()
        assert response.source == "model"
        assert response.model_version == version_before

        logger.close()
        rejected = [r for r in _events(log_path) if r["event"] == "checkpoint_rejected"]
        assert len(rejected) == 1
        assert rejected[0]["path"] == str(ckpt)
        assert rejected[0]["live_model_version"] == version_before
        assert [r for r in _events(log_path) if r["event"] == "model_reloaded"] == []
