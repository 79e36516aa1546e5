"""ReplicaSupervisor state machine on a fake handle and a fake clock.

Every transition in the lifecycle diagram (supervisor.py docstring) is
driven explicitly: ready, ready-deadline kill, heartbeat staleness with
TERM→KILL escalation, backoff-scheduled restarts, crash-loop parking,
operator unpark, and both shutdown flavors.  No real processes, no real
time.
"""

import pytest

from repro.resilience import Backoff, ReplicaSupervisor, RestartPolicy
from repro.resilience.supervisor import (
    BACKOFF,
    PARKED,
    RUNNING,
    STARTING,
    STOPPED,
    TERMINATING,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class FakeHandle:
    """Scriptable replica handle satisfying the supervisor protocol."""

    def __init__(self, *, ready=True, alive=True):
        self.ready = ready
        self.alive = alive
        self.last_heartbeat = None
        self.pid = 4242
        self.calls = []
        self.ignore_term = False
        self.pumps = 0

    def is_alive(self):
        return self.alive

    def poll_transport(self):
        self.pumps += 1

    def respawn(self):
        self.calls.append("respawn")
        self.alive = True
        self.ready = False
        self.pid += 1

    def terminate_process(self):
        self.calls.append("term")
        if not self.ignore_term:
            self.alive = False

    def kill_process(self):
        self.calls.append("kill")
        self.alive = False


class RecordingLogger:
    def __init__(self):
        self.events = []

    def log(self, event, **fields):
        self.events.append({"event": event, **fields})


def _supervisor(policy=None, backoff=None, clock=None, logger=None):
    clock = clock or FakeClock()
    policy = policy or RestartPolicy(max_restarts=2, window_s=10.0,
                                     ready_deadline_s=1.0,
                                     heartbeat_timeout_s=0.5,
                                     term_deadline_s=0.3)
    backoff = backoff or Backoff(base=0.1, factor=2.0, jitter=0.0)
    return ReplicaSupervisor(policy, backoff, clock=clock,
                             logger=logger), clock


class TestLifecycle:
    def test_register_adopts_current_readiness(self):
        sup, _ = _supervisor()
        sup.register("up", FakeHandle(ready=True))
        sup.register("booting", FakeHandle(ready=False))
        assert sup.states() == {"up": RUNNING, "booting": STARTING}

    def test_starting_becomes_running_when_ready(self):
        ups = []
        sup, _ = _supervisor()
        handle = FakeHandle(ready=False)
        sup.register("r0", handle, on_up=ups.append)
        sup.poll()
        assert sup.state("r0") == STARTING
        handle.ready = True
        sup.poll()
        assert sup.state("r0") == RUNNING
        assert ups == ["r0"]

    def test_poll_pumps_handle_transport_every_round(self):
        sup, _ = _supervisor()
        handle = FakeHandle()
        sup.register("r0", handle)
        for _ in range(3):
            sup.poll()
        assert handle.pumps == 3

    def test_ready_deadline_kills_and_reschedules(self):
        logger = RecordingLogger()
        sup, clock = _supervisor(logger=logger)
        handle = FakeHandle(ready=False)
        sup.register("r0", handle)
        clock.advance(1.5)  # past ready_deadline_s=1.0
        sup.poll()
        assert handle.calls == ["kill"]
        assert sup.state("r0") == BACKOFF
        events = [e["event"] for e in logger.events]
        assert "replica_start_timeout" in events
        assert "replica_restart_scheduled" in events

    def test_death_notifies_and_schedules_backoff_restart(self):
        downs = []
        sup, clock = _supervisor()
        handle = FakeHandle()
        sup.register("r0", handle, on_down=lambda rid, why: downs.append((rid, why)))
        handle.alive = False
        sup.poll()
        assert sup.state("r0") == BACKOFF
        assert downs == [("r0", "process exited")]
        # first restart: attempt 0 -> base delay 0.1, not a tick earlier
        clock.advance(0.05)
        sup.poll()
        assert sup.state("r0") == BACKOFF and "respawn" not in handle.calls
        clock.advance(0.1)
        sup.poll()
        assert handle.calls[-1] == "respawn"
        assert sup.state("r0") == STARTING
        assert sup.restart_count("r0") == 1

    def test_restart_delays_follow_the_backoff_schedule(self):
        logger = RecordingLogger()
        sup, clock = _supervisor(logger=logger)
        handle = FakeHandle()
        sup.register("r0", handle)
        delays = []
        for _ in range(2):
            handle.alive = False
            handle.ready = False
            sup.poll()
            sched = [e for e in logger.events
                     if e["event"] == "replica_restart_scheduled"][-1]
            delays.append(sched["delay_s"])
            clock.advance(sched["delay_s"] + 0.01)
            sup.poll()          # respawn
            handle.ready = True
            sup.poll()          # back to running
        assert delays == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_stale_heartbeat_terms_then_kill_escalates(self):
        logger = RecordingLogger()
        sup, clock = _supervisor(logger=logger)
        handle = FakeHandle()
        handle.ignore_term = True  # wedged child that also ignores SIGTERM
        sup.register("r0", handle)
        handle.last_heartbeat = clock()
        clock.advance(0.6)  # past heartbeat_timeout_s=0.5
        sup.poll()
        assert sup.state("r0") == TERMINATING
        assert handle.calls == ["term"] and handle.alive
        clock.advance(0.4)  # past term_deadline_s=0.3
        sup.poll()
        assert handle.calls == ["term", "kill"]
        assert sup.state("r0") == BACKOFF
        events = [e["event"] for e in logger.events]
        assert events.count("replica_unresponsive") == 1
        assert events.count("replica_kill_escalated") == 1

    def test_compliant_term_skips_the_kill(self):
        sup, clock = _supervisor()
        handle = FakeHandle()
        sup.register("r0", handle)
        handle.last_heartbeat = clock()
        clock.advance(0.6)
        sup.poll()  # TERM; FakeHandle honors it
        sup.poll()
        assert handle.calls == ["term"]
        assert sup.state("r0") == BACKOFF


class TestCrashLoopParking:
    def test_exceeding_the_restart_budget_parks(self):
        logger = RecordingLogger()
        sup, clock = _supervisor(logger=logger)  # max_restarts=2 / 10s
        handle = FakeHandle()
        sup.register("r0", handle)
        for _ in range(3):  # third down in the window crosses the budget
            handle.alive = False
            handle.ready = False
            sup.poll()
            if sup.state("r0") == PARKED:
                break
            clock.advance(1.0)
            sup.poll()  # respawn
            handle.ready = True
            sup.poll()
        assert sup.is_parked("r0")
        parked = [e for e in logger.events if e["event"] == "replica_parked"]
        assert len(parked) == 1
        assert parked[0]["restarts_in_window"] == 3
        # parked replicas are inert: polling never respawns them
        respawns = handle.calls.count("respawn")
        clock.advance(100.0)
        sup.poll()
        assert handle.calls.count("respawn") == respawns

    def test_slow_crashes_outside_the_window_never_park(self):
        sup, clock = _supervisor()  # window_s=10
        handle = FakeHandle()
        sup.register("r0", handle)
        for _ in range(5):
            handle.alive = False
            handle.ready = False
            sup.poll()
            assert sup.state("r0") == BACKOFF
            clock.advance(11.0)  # next death lands in a fresh window
            sup.poll()
            handle.ready = True
            sup.poll()
            assert sup.state("r0") == RUNNING

    def test_unpark_clears_history_and_restarts(self):
        logger = RecordingLogger()
        sup, clock = _supervisor(logger=logger)
        handle = FakeHandle()
        sup.register("r0", handle)
        for _ in range(3):
            handle.alive = False
            handle.ready = False
            sup.poll()
            clock.advance(1.0)
            sup.poll()
            handle.ready = True
            sup.poll()
        assert sup.is_parked("r0")
        sup.unpark("r0")
        assert sup.state("r0") == BACKOFF
        sup.poll()  # not_before == now: restart immediately
        assert sup.state("r0") == STARTING
        assert any(e["event"] == "replica_unparked" for e in logger.events)


class TestShutdown:
    def test_shutdown_terms_then_kills_survivors(self):
        logger = RecordingLogger()
        sup, _ = _supervisor(logger=logger)
        polite = FakeHandle()
        stubborn = FakeHandle()
        stubborn.ignore_term = True
        sup.register("polite", polite)
        sup.register("stubborn", stubborn)
        sleeps = []
        result = sup.shutdown(timeout=0.1, sleep=sleeps.append)
        assert result == {"terminated": 2, "killed": 1}
        assert polite.calls == ["term"]
        assert stubborn.calls == ["term", "kill"]
        assert sup.states() == {"polite": STOPPED, "stubborn": STOPPED}
        assert sleeps, "the grace loop should actually wait"
        assert any(e["event"] == "supervisor_shutdown" for e in logger.events)
        sup.poll()  # a stopped supervisor is inert
        assert polite.calls == ["term"]

    def test_disable_stands_down_without_touching_children(self):
        sup, _ = _supervisor()
        handle = FakeHandle()
        sup.register("r0", handle)
        sup.disable()
        handle.alive = False
        sup.poll()
        assert handle.calls == []  # no respawn, no kill: caller owns teardown
        assert sup.state("r0") == RUNNING  # state frozen where it stood
