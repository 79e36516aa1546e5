"""ForecastServer lifecycle: serving, shedding, reload, drain, probes."""

import threading
import time

import numpy as np
import pytest

from repro.core import TGCRN
from repro.nn import save_checkpoint
from repro.obs import MetricsRegistry, RunLogger, SLObjective, SLOMonitor
from repro.resilience import corrupt_checkpoint
from repro.serve import (
    CircuitBreaker,
    ForecastServer,
    ServiceOverloadedError,
    SlowModel,
)
from repro.training import default_tgcrn_kwargs
from repro.verify import named_rng


@pytest.fixture(autouse=True)
def lockorder_sanitizer():
    """Run every server test under the lock-order sanitizer: the tests
    pass only if no observed pair of locks was ever taken in opposite
    orders (and no lock was held across a fault-injection seam)."""
    from repro.analyze import LockOrderSanitizer

    sanitizer = LockOrderSanitizer().install()
    try:
        yield sanitizer
    finally:
        sanitizer.uninstall()
    sanitizer.check()


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def _model(task, name="serve-test-model"):
    return TGCRN(
        **default_tgcrn_kwargs(task, hidden_dim=4, node_dim=3, time_dim=3, num_layers=1),
        rng=named_rng(3, name),
    )


def _payload(task, i, **extra):
    j = i % len(task.test)
    return {"window": task.test.inputs[j],
            "time_index": task.test.time_indices[j],
            "id": f"req-{i}", **extra}


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def server(tiny_task, clock):
    return ForecastServer(
        _model(tiny_task), tiny_task, queue_depth=8, max_batch=4,
        breaker=CircuitBreaker(failure_threshold=2, cooldown=10.0, clock=clock),
        clock=clock,
    )


class TestServing:
    def test_healthy_requests_get_model_forecasts(self, tiny_task, server):
        for i in range(5):
            server.submit(_payload(tiny_task, i))
        responses = server.drain()
        assert len(responses) == 5
        for r in responses:
            assert r.source == "model" and not r.degraded
            assert r.prediction.shape == (tiny_task.horizon, tiny_task.num_nodes,
                                          tiny_task.out_dim)
            assert np.all(np.isfinite(r.prediction))
            assert r.model_version == server.model_version

    def test_micro_batching_coalesces(self, tiny_task, server):
        for i in range(5):
            server.submit(_payload(tiny_task, i))
        server.drain()
        batch = server.metrics.histogram("serve.batch_size")
        assert batch.count == 2  # 4 + 1
        assert batch.high == 4.0

    def test_overload_rejected_with_503(self, tiny_task, server):
        for i in range(8):
            server.submit(_payload(tiny_task, i))
        with pytest.raises(ServiceOverloadedError):
            server.submit(_payload(tiny_task, 99))
        assert server.metrics._counters["serve.shed"].value == 1

    def test_abort_drops_queued_work_and_closes_spans(self, tiny_task, server):
        from repro.obs.spans import collect_spans

        with collect_spans() as collector:
            ids = [server.submit(_payload(tiny_task, i)) for i in range(3)]
            dropped = server.abort(reason="crash teardown")
        assert dropped == ids
        assert len(server.queue) == 0
        assert server.take_responses() == []  # nothing answered, by design
        roots = [r for r in collector.records if r["name"] == "request"]
        assert len(roots) == 3
        assert all(r["status"] == "canceled" for r in roots)

    def test_deadline_shed_at_dequeue_answers_explicitly(self, tiny_task, server, clock):
        server.submit(_payload(tiny_task, 0, deadline=5.0))
        server.submit(_payload(tiny_task, 1))
        clock.advance(6.0)
        responses = server.process_once()
        by_id = {r.request_id: r for r in responses}
        assert by_id["req-0"].source == "shed"
        assert by_id["req-0"].prediction is None and by_id["req-0"].deadline_missed
        assert by_id["req-1"].source == "model"

    def test_responses_accumulate_in_sink(self, tiny_task, server):
        server.submit(_payload(tiny_task, 0))
        server.drain()
        taken = server.take_responses()
        assert [r.request_id for r in taken] == ["req-0"]
        assert server.take_responses() == []

    def test_latency_uses_injected_clock(self, tiny_task, server, clock):
        server.submit(_payload(tiny_task, 0))
        clock.advance(0.25)
        (response,) = server.process_once()
        assert response.latency_ms == pytest.approx(250.0)

    def test_latency_includes_the_forward_pass(self, tiny_task, clock):
        # The forward costs 250 ms of fake time, so the answer exists
        # only after the request's 100 ms deadline has passed.
        slo = SLOMonitor([SLObjective("latency", 0.9, latency_ms=200.0)], clock=clock)
        server = ForecastServer(
            SlowModel(_model(tiny_task), delay=0.25, sleep=clock.advance),
            tiny_task, clock=clock, slo=slo)
        server.submit(_payload(tiny_task, 0, deadline=clock() + 0.1))
        (response,) = server.process_once()
        assert response.source == "model"
        assert response.latency_ms == pytest.approx(250.0)
        assert response.deadline_missed
        assert server.metrics.histogram("serve.latency_ms").last == pytest.approx(250.0)
        (status,) = slo.evaluate()
        assert status.events == 1 and status.bad == 1  # 250 ms > the 200 ms objective


class TestLifecycle:
    def test_health_and_ready(self, tiny_task, server):
        health = server.health()
        assert health["status"] == "ok" and health["breaker"] == "closed"
        assert health["queue_depth"] == 0
        assert health["model_version"] == server.model_version
        assert server.ready()

    def test_stop_refuses_new_traffic(self, tiny_task, server):
        server.submit(_payload(tiny_task, 0))
        server.stop(drain=True)
        assert not server.ready()
        assert len(server.take_responses()) == 1  # drained before stopping
        with pytest.raises(ServiceOverloadedError, match="draining"):
            server.submit(_payload(tiny_task, 1))

    def test_worker_thread_serves_and_drains(self, tiny_task):
        server = ForecastServer(_model(tiny_task), tiny_task, queue_depth=32, max_batch=4)
        server.start(poll_interval=0.005)
        for i in range(6):
            server.submit(_payload(tiny_task, i))
        deadline = time.monotonic() + 10.0
        got = []
        while len(got) < 6 and time.monotonic() < deadline:
            got.extend(server.take_responses())
            time.sleep(0.005)
        server.stop(drain=True)
        got.extend(server.take_responses())
        assert len(got) == 6
        assert all(r.source == "model" for r in got)

    def test_concurrent_submitters_all_answered(self, tiny_task):
        server = ForecastServer(_model(tiny_task), tiny_task, queue_depth=64, max_batch=4)
        server.start(poll_interval=0.005)
        errors = []

        def feed(base):
            try:
                for i in range(4):
                    server.submit(_payload(tiny_task, base + i))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=feed, args=(base,)) for base in (0, 10, 20)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        server.stop(drain=True)
        assert not errors
        assert len(server.take_responses()) == 12


class TestDrainTimeout:
    def test_wedged_worker_is_reported_not_swallowed(self, tiny_task):
        events = []

        class Recorder:
            def log(self, event, **fields):
                events.append({"event": event, **fields})

        server = ForecastServer(_model(tiny_task), tiny_task, queue_depth=8,
                                max_batch=4, logger=Recorder())
        release = threading.Event()
        real_process_once = server.process_once

        def wedged_process_once(*args, **kwargs):
            release.wait(10.0)
            return real_process_once(*args, **kwargs)

        server.process_once = wedged_process_once
        server.start(poll_interval=0.005)
        server.submit(_payload(tiny_task, 0))
        deadline = time.monotonic() + 5.0
        while not release.is_set() and time.monotonic() < deadline:
            time.sleep(0.005)  # let the worker pick the request up
            break
        assert server.stop(drain=True, timeout=0.05) is False
        drain_timeouts = [e for e in events if e["event"] == "drain_timeout"]
        assert len(drain_timeouts) == 1
        assert drain_timeouts[0]["timeout_s"] == 0.05
        assert server.metrics._counters["serve.drain_timeouts"].value == 1
        # the wedge clears: a later stop() succeeds and drains cleanly
        release.set()
        assert server.stop(drain=True, timeout=10.0) is True
        assert [r.request_id for r in server.take_responses()] == ["req-0"]

    def test_clean_stop_returns_true(self, tiny_task):
        server = ForecastServer(_model(tiny_task), tiny_task, queue_depth=8,
                                max_batch=4)
        server.start(poll_interval=0.005)
        assert server.stop(drain=True) is True


class TestWarmReload:
    def test_good_checkpoint_swaps_atomically(self, tiny_task, server, tmp_path):
        other = _model(tiny_task, name="serve-other-model")
        path = tmp_path / "good.npz"
        save_checkpoint(path, other, metadata={"tag": "v2"})
        before = server.model_version
        assert server.reload_checkpoint(path)
        assert server.model_version != before
        assert server.metrics._counters["serve.reloads"].value == 1

    def test_corrupt_checkpoint_rejected_live_model_survives(
        self, tiny_task, server, tmp_path
    ):
        other = _model(tiny_task, name="serve-other-model")
        path = tmp_path / "bad.npz"
        save_checkpoint(path, other)
        corrupt_checkpoint(path, mode="truncate")
        before = server.model_version
        assert not server.reload_checkpoint(path)
        assert server.model_version == before
        # The previously-live model keeps serving.
        server.submit(_payload(tiny_task, 0))
        (response,) = server.drain()
        assert response.source == "model" and response.model_version == before

    def test_bitflip_checkpoint_rejected(self, tiny_task, server, tmp_path):
        other = _model(tiny_task, name="serve-other-model")
        path = tmp_path / "flip.npz"
        save_checkpoint(path, other)
        corrupt_checkpoint(path, mode="bitflip", seed=11)
        assert not server.reload_checkpoint(path)

    def test_missing_checkpoint_rejected_gracefully(self, tiny_task, server, tmp_path):
        assert not server.reload_checkpoint(tmp_path / "nope.npz")

    def test_rejection_logged_structured(self, tiny_task, clock, tmp_path):
        log = tmp_path / "serve.jsonl"
        logger = RunLogger(path=str(log), console=False)
        server = ForecastServer(
            _model(tiny_task), tiny_task, logger=logger, clock=clock,
            metrics=MetricsRegistry(run="reload-test"),
        )
        path = tmp_path / "bad.npz"
        save_checkpoint(path, _model(tiny_task, name="serve-other-model"))
        corrupt_checkpoint(path, mode="truncate")
        assert not server.reload_checkpoint(path)
        logger.close()
        import json

        records = [json.loads(line) for line in log.open()]
        rejected = [r for r in records if r["event"] == "checkpoint_rejected"]
        assert len(rejected) == 1
        assert rejected[0]["live_model_version"] == server.model_version
        assert "reason" in rejected[0]


def _mis_shaped_gate_model(task, name):
    """A TGCRN whose first GCGRU gate emits one column too many."""
    from repro.core import NodeAdaptiveGraphConv

    bad = _model(task, name=name)
    cell = bad.encoder_cells[0]
    cell.gate_conv = NodeAdaptiveGraphConv(
        cell.in_dim + cell.hidden_dim, 2 * cell.hidden_dim + 1,
        embed_dim=6, rng=named_rng(9, "serve-bad-gate"),
    )
    return bad


class TestStaticShapeGate:
    """A served model is probed against its task (one real forward,
    repro.analyze.probe) before it can take traffic."""

    def test_mis_shaped_model_is_rejected_at_construction(self, tiny_task, clock):
        from repro.analyze import ModelShapeError

        bad = _mis_shaped_gate_model(tiny_task, "serve-bad-model")
        with pytest.raises(ModelShapeError) as excinfo:
            ForecastServer(bad, tiny_task, clock=clock)
        assert any(f.severity == "error" for f in excinfo.value.findings)

    def test_reload_rejects_candidate_that_fails_the_probe(self, tiny_task, clock, tmp_path):
        """The checkpoint loads (its shapes match the factory's model), but
        the candidate fails the gate: the live model keeps serving."""
        import json

        log = tmp_path / "serve.jsonl"
        logger = RunLogger(path=str(log), console=False)
        server = ForecastServer(
            _model(tiny_task), tiny_task, logger=logger, clock=clock,
            model_factory=lambda: _mis_shaped_gate_model(tiny_task, "serve-bad-candidate"),
        )
        path = tmp_path / "bad-gate.npz"
        save_checkpoint(path, _mis_shaped_gate_model(tiny_task, "serve-bad-saved"))
        before = server.model_version
        assert not server.reload_checkpoint(path)
        assert server.model_version == before
        assert server.metrics._counters["serve.reload_rejected"].value == 1
        server.submit(_payload(tiny_task, 0))
        (response,) = server.drain()
        assert response.source == "model" and response.model_version == before
        logger.close()

        records = [json.loads(line) for line in log.open()]
        (rejected,) = [r for r in records if r["event"] == "checkpoint_rejected"]
        assert rejected["live_model_version"] == before
        assert [f["location"] for f in rejected["findings"]] == [
            "model:TGCRN/encoder_cells.0"]
