"""SLO burn-rate alerting: window edges, fast/slow burn, recovery, wiring.

Everything runs on an injected fake clock set to exact instants, so the
multi-window conjunction (long window = evidence, short window = still
happening) is exercised at exact boundaries.
"""

import pytest

from repro.obs import MetricsRegistry
from repro.obs.slo import (
    BurnAlert,
    SLObjective,
    SLOMonitor,
    default_serving_objectives,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


class RecordingLogger:
    """Captures ``log(event, **fields)`` calls like a RunLogger would."""

    def __init__(self):
        self.records = []

    def log(self, event, **fields):
        self.records.append({"event": event, **fields})


def _objective(**overrides):
    """A small availability objective with round windows for the tests."""
    kwargs = dict(
        name="avail", target=0.9,  # budget 0.1
        fast=BurnAlert("fast_burn", long_window=100.0, short_window=10.0,
                       threshold=5.0),
        slow=BurnAlert("slow_burn", long_window=1000.0, short_window=100.0,
                       threshold=2.0),
        min_events=4,
    )
    kwargs.update(overrides)
    return SLObjective(**kwargs)


class TestObjective:
    def test_target_must_be_a_proper_fraction(self):
        with pytest.raises(ValueError):
            SLObjective("bad", target=1.0)
        with pytest.raises(ValueError):
            SLObjective("bad", target=0.0)

    def test_is_bad_combines_failure_and_latency(self):
        latency = SLObjective("lat", target=0.95, latency_ms=250.0)
        assert latency.is_bad(latency_ms=300.0, failure=False)
        assert not latency.is_bad(latency_ms=100.0, failure=False)
        assert latency.is_bad(latency_ms=100.0, failure=True)
        availability = SLObjective("avail", target=0.99)
        assert not availability.is_bad(latency_ms=9999.0, failure=False)

    def test_default_serving_pair(self):
        lat, avail = default_serving_objectives()
        assert lat.latency_ms == 250.0 and avail.latency_ms is None
        assert lat.fast.threshold > lat.slow.threshold
        assert lat.fast.long_window < lat.slow.long_window

    def test_duplicate_objective_names_rejected(self):
        with pytest.raises(ValueError):
            SLOMonitor([_objective(), _objective()])


class TestBurnRateWindows:
    def test_event_exactly_on_the_window_edge_is_excluded(self):
        obj = _objective()
        clock = FakeClock(100.0)
        monitor = SLOMonitor([obj], clock=clock)
        monitor.observe(0.0, failure=True)
        # Window (now-10, now]: an event at exactly now-10 does not count.
        clock.t = 110.0
        assert monitor.burn_rate(obj, window=10.0) == 0.0
        # One tick inside the edge it does: 100% bad / 0.1 budget = 10.
        clock.t = 109.9
        assert monitor.burn_rate(obj, window=10.0) == pytest.approx(10.0)

    def test_empty_window_burns_nothing(self):
        obj = _objective()
        monitor = SLOMonitor([obj], clock=FakeClock())
        assert monitor.burn_rate(obj, window=10.0) == 0.0

    def test_burn_is_error_ratio_over_budget(self):
        obj = _objective()  # budget 0.1
        clock = FakeClock()
        monitor = SLOMonitor([obj], clock=clock)
        for i in range(10):
            clock.t = float(i)
            monitor.observe(0.0, failure=(i < 3))
        # 3/10 bad over a window covering everything: 0.3 / 0.1 = 3.
        assert monitor.burn_rate(obj, window=50.0) == pytest.approx(3.0)

    def test_events_past_the_longest_window_are_pruned(self):
        obj = _objective()
        clock = FakeClock()
        monitor = SLOMonitor([obj], clock=clock)
        monitor.observe(0.0, failure=True)
        clock.t = 2000.0
        monitor.observe(0.0, failure=False)  # prunes ts=0
        assert len(monitor._events["avail"]) == 1


class TestAlerting:
    def test_fast_burn_needs_both_windows_hot(self):
        obj = _objective()
        clock = FakeClock()
        monitor = SLOMonitor([obj], clock=clock)
        # Cliff: 5 failures just now — long and short window both at
        # burn 10 ≥ 5 → fast_burn fires (slow_burn too: 10 ≥ 2).
        for i in range(5):
            clock.t = 100.0 + i
            monitor.observe(0.0, failure=True)
        (status,) = monitor.evaluate()
        assert "fast_burn" in status.firing
        assert not status.ok and not monitor.ok()

    def test_old_failures_alone_do_not_page(self):
        obj = _objective()
        clock = FakeClock()
        monitor = SLOMonitor([obj], clock=clock)
        # Same 5 failures, but the short window (10 s) has since drained:
        # evidence without "still happening" must not fire fast burn.
        for i in range(5):
            clock.t = float(i)
            monitor.observe(0.0, failure=True)
        clock.t = 50.0
        (status,) = monitor.evaluate()
        assert "fast_burn" not in status.firing
        # The slow alert's short window (100 s) still sees them.
        assert "slow_burn" in status.firing

    def test_min_events_guards_an_idle_service(self):
        obj = _objective(min_events=4)
        monitor = SLOMonitor([obj], clock=FakeClock(100.0))
        monitor.observe(0.0, failure=True)  # 1 event, burn 10
        (status,) = monitor.evaluate()
        assert status.firing == [] and status.events == 1

    def test_latency_objective_counts_slow_answers_as_bad(self):
        obj = _objective(name="lat", latency_ms=250.0)
        clock = FakeClock()
        monitor = SLOMonitor([obj], clock=clock)
        for i in range(5):
            clock.t = 100.0 + i
            monitor.observe(1000.0, failure=False)
        (status,) = monitor.evaluate()
        assert status.bad == 5 and "fast_burn" in status.firing


class TestTransitions:
    def test_firing_then_recovery_emits_one_record_each(self):
        logger = RecordingLogger()
        metrics = MetricsRegistry()
        clock = FakeClock()
        monitor = SLOMonitor([_objective()], clock=clock, logger=logger,
                             metrics=metrics)
        for i in range(5):
            clock.t = 100.0 + i
            monitor.observe(0.0, failure=True)
        monitor.evaluate()            # t=104 -> firing
        clock.t = 104.5
        monitor.evaluate()            # still firing: no duplicate record
        # Good traffic dilutes, then the short window drains the failures.
        for i in range(40):
            clock.t = 120.0 + i
            monitor.observe(0.0, failure=False)
        clock.t = 160.0
        monitor.evaluate()            # -> recovered

        # One slo_burn record per transition, none for the steady state.
        burn = [r for r in logger.records if r["event"] == "slo_burn"]
        states = [(r["alert"], r["state"]) for r in burn]
        assert ("fast_burn", "firing") in states
        assert ("fast_burn", "recovered") in states
        assert len([s for s in states if s[0] == "fast_burn"]) == 2
        fired = metrics.counter("slo.avail.fast_burn_firing")
        recovered = metrics.counter("slo.avail.fast_burn_recovered")
        assert fired.value == 1 and recovered.value == 1

    def test_status_to_dict_is_json_ready(self):
        monitor = SLOMonitor([_objective()], clock=FakeClock())
        (status,) = monitor.evaluate()
        payload = status.to_dict()
        assert payload["objective"] == "avail" and payload["ok"] is True
        assert set(payload["burn"]) == {"fast_burn", "slow_burn"}


class TestServerWiring:
    @pytest.fixture
    def gated_server(self, tiny_task):
        from repro.core import TGCRN
        from repro.serve import ForecastServer
        from repro.training import default_tgcrn_kwargs
        from repro.verify import named_rng

        clock = FakeClock(1000.0)
        model = TGCRN(
            **default_tgcrn_kwargs(
                tiny_task, hidden_dim=4, node_dim=3, time_dim=3, num_layers=1),
            rng=named_rng(3, "slo-server"),
        )
        server = ForecastServer(
            model, tiny_task, queue_depth=8, max_batch=4, clock=clock,
            slo_ready_gate=True,
        )
        return server, clock

    def test_health_reports_slo_and_fast_burn_flips_readiness(
            self, gated_server):
        server, clock = gated_server
        assert server.ready()
        health = server.health()
        assert health["status"] == "ok"
        assert {s["objective"] for s in health["slo"]} \
            == {"latency", "availability"}

        # A failure cliff through the monitor the server actually owns.
        for _ in range(10):
            server.slo.observe(0.0, failure=True)
            clock.t += 1.0
        health = server.health()
        assert health["status"] == "degraded"
        assert not server.ready()  # fast burn + slo_ready_gate

    def test_slo_opt_out(self, gated_server, tiny_task):
        from repro.core import TGCRN
        from repro.serve import ForecastServer
        from repro.training import default_tgcrn_kwargs
        from repro.verify import named_rng

        model = TGCRN(
            **default_tgcrn_kwargs(
                tiny_task, hidden_dim=4, node_dim=3, time_dim=3, num_layers=1),
            rng=named_rng(3, "slo-off"),
        )
        server = ForecastServer(model, tiny_task, slo=False)
        assert server.slo is None
        assert server.health()["slo"] == []
