"""Replica supervision: heartbeat watchdog, restart budgets, parking.

The process transport (:mod:`repro.serve.proc`) makes replica death a
*normal* event — so something has to notice deaths, restart within a
budget, and refuse to restart-storm a replica that is crash-looping.
:class:`ReplicaSupervisor` is that something: a single-threaded state
machine over duck-typed replica handles, driven by ``poll()`` from
whoever already owns a loop (the fleet router calls it once per
``process_once`` round), on an **injectable clock** so every transition
is unit-testable without real processes or real time.

Per-replica lifecycle::

            spawn                ready
    (start) ─────► starting ────────────► running
                      │  ready deadline      │ heartbeat stale
                      │  or early exit       ▼
                      │               terminating ── SIGTERM sent
                      │                      │ term deadline → SIGKILL
                      ▼                      ▼
                    down ◄────────── process exited
                      │
        restarts in window ≤ budget?
          yes │                │ no
              ▼                ▼
           backoff          parked  (inert until unpark())
              │ delay due
              ▼
           starting  (handle.respawn())

Restart delays route through the existing
:class:`~repro.resilience.backoff.Backoff` seam (the supervisor never
sleeps — it schedules ``not_before`` on its clock).  Every transition
lands as a structured JSONL record (``replica_down``,
``replica_restart_scheduled``, ``replica_restarted``,
``replica_unresponsive``, ``replica_kill_escalated``,
``replica_parked``, ``supervisor_shutdown``) so chaos runs are
auditable after the fact.

Handle protocol (satisfied by
:class:`~repro.serve.proc.ProcReplicaClient`, faked in tests)::

    is_alive() -> bool          ready -> bool (property)
    last_heartbeat -> float|None  (same clock domain as the supervisor)
    pid -> int|None             poll_transport() -> ...
    respawn()  terminate_process()  kill_process()
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from .backoff import Backoff

STARTING = "starting"
RUNNING = "running"
TERMINATING = "terminating"
BACKOFF = "backoff"
PARKED = "parked"
STOPPED = "stopped"


@dataclass(frozen=True)
class RestartPolicy:
    """Budgets and deadlines governing one replica's lifecycle.

    ``max_restarts`` restarts within ``window_s`` seconds is the
    crash-loop line: one more and the replica is **parked** (taken out
    of supervision until an operator calls ``unpark``) instead of
    restart-stormed.  ``ready_deadline_s`` bounds startup (a fork that
    never says READY is killed and counted as a down),
    ``heartbeat_timeout_s`` bounds silence from a live process (a
    wedged child is SIGTERMed), and ``term_deadline_s`` bounds how long
    a SIGTERM may be ignored before SIGKILL escalation.
    """

    max_restarts: int = 5
    window_s: float = 30.0
    ready_deadline_s: float = 5.0
    heartbeat_timeout_s: float = 1.0
    term_deadline_s: float = 2.0


class _Entry:
    def __init__(self, replica_id: str, handle, on_down, on_up):
        self.replica_id = replica_id
        self.handle = handle
        self.on_down = on_down
        self.on_up = on_up
        self.state = STARTING
        self.state_since = 0.0
        self.restarts: deque[float] = deque()
        self.not_before = 0.0
        self.total_restarts = 0


class ReplicaSupervisor:
    """Watchdog + restart scheduler over a set of replica handles.

    Parameters
    ----------
    policy:
        A :class:`RestartPolicy` (defaults are test-friendly seconds;
        production callers pass their own).
    backoff:
        The restart-delay schedule — a
        :class:`~repro.resilience.backoff.Backoff`; only ``delay()`` is
        used, on the attempt count within the current window.
    clock:
        Injectable monotonic time source.  ``handle.last_heartbeat``
        values must be on the same clock.
    logger / metrics:
        Structured JSONL sink and counter registry (both optional).
    """

    def __init__(self, policy: RestartPolicy | None = None,
                 backoff: Backoff | None = None, *,
                 clock=time.monotonic, logger=None, metrics=None):
        self.policy = policy if policy is not None else RestartPolicy()
        self.backoff = (backoff if backoff is not None
                        else Backoff(base=0.05, max_delay=2.0, jitter=0.5))
        self._clock = clock
        self.logger = logger
        self.metrics = metrics
        self._entries: dict[str, _Entry] = {}
        self._shutdown = False

    # -- registration ----------------------------------------------------- #

    def register(self, replica_id: str, handle, *,
                 on_down=None, on_up=None) -> None:
        """Adopt a (already spawned) replica handle into supervision.

        ``on_down(replica_id, reason)`` fires the moment the replica
        leaves rotation (death, staleness, start timeout) — the fleet
        uses it to mark the replica down so routing fails over
        immediately.  ``on_up(replica_id)`` fires when a (re)start
        reports READY.
        """
        entry = _Entry(replica_id, handle, on_down, on_up)
        entry.state = RUNNING if handle.ready else STARTING
        entry.state_since = self._clock()
        self._entries[replica_id] = entry

    # -- introspection ---------------------------------------------------- #

    def state(self, replica_id: str) -> str:
        return self._entries[replica_id].state

    def states(self) -> dict[str, str]:
        return {rid: e.state for rid, e in self._entries.items()}

    def is_parked(self, replica_id: str) -> bool:
        return self._entries[replica_id].state == PARKED

    def restart_count(self, replica_id: str) -> int:
        return self._entries[replica_id].total_restarts

    def unpark(self, replica_id: str) -> None:
        """Operator override: forget the crash-loop history, restart."""
        now = self._clock()
        entry = self._entries[replica_id]
        if entry.state != PARKED:
            return
        entry.restarts.clear()
        entry.state = BACKOFF
        entry.state_since = now
        entry.not_before = now
        self._log("replica_unparked", replica_id=replica_id)

    # -- the watchdog ------------------------------------------------------ #

    def poll(self) -> None:
        """One supervision round over every registered replica."""
        if self._shutdown:
            return
        now = self._clock()
        for entry in self._entries.values():
            if entry.state in (PARKED, STOPPED):
                continue
            self._pump(entry)
            handler = getattr(self, f"_poll_{entry.state}")
            handler(entry, now)

    @staticmethod
    def _pump(entry: _Entry) -> None:
        # Drain the handle's transport even when the router is not
        # routing to it (killed / restarting replicas would otherwise
        # never get their READY or heartbeat frames read).
        poll_transport = getattr(entry.handle, "poll_transport", None)
        if poll_transport is not None:
            try:
                poll_transport()
            except Exception:  # analyze: allow[RL006] best-effort pump; state polls judge the handle
                pass

    def _poll_starting(self, entry: _Entry, now: float) -> None:
        if entry.handle.ready:
            self._mark_up(entry, now)
        elif not entry.handle.is_alive():
            self._down(entry, now, reason="exited during startup")
        elif now - entry.state_since > self.policy.ready_deadline_s:
            self._count("supervisor.start_timeouts")
            self._log("replica_start_timeout", replica_id=entry.replica_id,
                      waited_s=now - entry.state_since,
                      deadline_s=self.policy.ready_deadline_s)
            entry.handle.kill_process()
            self._down(entry, now, reason="ready deadline exceeded")

    def _poll_running(self, entry: _Entry, now: float) -> None:
        if not entry.handle.is_alive():
            self._down(entry, now, reason="process exited")
            return
        heartbeat = entry.handle.last_heartbeat
        if (heartbeat is not None
                and now - heartbeat > self.policy.heartbeat_timeout_s):
            self._count("supervisor.unresponsive")
            self._log("replica_unresponsive", replica_id=entry.replica_id,
                      heartbeat_age_s=now - heartbeat,
                      timeout_s=self.policy.heartbeat_timeout_s)
            self._notify_down(entry, "heartbeat stale")
            entry.handle.terminate_process()
            entry.state = TERMINATING
            entry.state_since = now

    def _poll_terminating(self, entry: _Entry, now: float) -> None:
        if not entry.handle.is_alive():
            self._down(entry, now, reason="terminated")
        elif now - entry.state_since > self.policy.term_deadline_s:
            self._count("supervisor.kill_escalations")
            self._log("replica_kill_escalated", replica_id=entry.replica_id,
                      waited_s=now - entry.state_since)
            entry.handle.kill_process()
            self._down(entry, now, reason="kill escalated")

    def _poll_backoff(self, entry: _Entry, now: float) -> None:
        if now >= entry.not_before:
            entry.handle.respawn()
            entry.total_restarts += 1
            entry.state = STARTING
            entry.state_since = now
            self._count("supervisor.restarts")
            self._log("replica_restarted", replica_id=entry.replica_id,
                      pid=entry.handle.pid,
                      restarts_in_window=len(entry.restarts))

    # -- transitions ------------------------------------------------------- #

    def _mark_up(self, entry: _Entry, now: float) -> None:
        entry.state = RUNNING
        entry.state_since = now
        self._log("replica_up", replica_id=entry.replica_id,
                  pid=entry.handle.pid)
        if entry.on_up is not None:
            entry.on_up(entry.replica_id)

    def _notify_down(self, entry: _Entry, reason: str) -> None:
        if entry.on_down is not None:
            entry.on_down(entry.replica_id, reason)

    def _down(self, entry: _Entry, now: float, reason: str) -> None:
        self._log("replica_down", replica_id=entry.replica_id,
                  reason=reason, pid=entry.handle.pid)
        self._notify_down(entry, reason)
        entry.restarts.append(now)
        while entry.restarts and now - entry.restarts[0] > self.policy.window_s:
            entry.restarts.popleft()
        if len(entry.restarts) > self.policy.max_restarts:
            entry.state = PARKED
            entry.state_since = now
            self._count("supervisor.parked")
            self._log("replica_parked", replica_id=entry.replica_id,
                      reason=reason,
                      restarts_in_window=len(entry.restarts),
                      window_s=self.policy.window_s,
                      max_restarts=self.policy.max_restarts)
            return
        attempt = max(0, len(entry.restarts) - 1)
        delay = self.backoff.delay(attempt)
        entry.state = BACKOFF
        entry.state_since = now
        entry.not_before = now + delay
        self._log("replica_restart_scheduled", replica_id=entry.replica_id,
                  reason=reason, delay_s=delay, attempt=attempt)

    # -- shutdown ---------------------------------------------------------- #

    def disable(self) -> None:
        """Stop supervising without touching the children.

        For callers that own an orderly per-replica close (the fleet's
        ``stop``) and only need the watchdog to stand down so it cannot
        restart what is being torn down.
        """
        self._shutdown = True

    def shutdown(self, timeout: float | None = None, sleep=time.sleep) -> dict:
        """Stop supervising; TERM every child, KILL the survivors.

        Returns ``{"terminated": n, "killed": m}``.  ``sleep`` is
        injectable so tests with fake handles never block.
        """
        self._shutdown = True
        timeout = (self.policy.term_deadline_s if timeout is None
                   else timeout)
        terminated = 0
        for entry in self._entries.values():
            if entry.handle.is_alive():
                entry.handle.terminate_process()
                terminated += 1
        step = 0.02
        for _ in range(max(1, int(timeout / step))):
            if not any(e.handle.is_alive() for e in self._entries.values()):
                break
            for entry in self._entries.values():
                self._pump(entry)
            sleep(step)
        killed = 0
        for entry in self._entries.values():
            if entry.handle.is_alive():
                entry.handle.kill_process()
                killed += 1
            entry.state = STOPPED
        self._log("supervisor_shutdown", terminated=terminated, killed=killed)
        return {"terminated": terminated, "killed": killed}

    # -- plumbing ---------------------------------------------------------- #

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _log(self, event: str, **fields) -> None:
        if self.logger is not None:
            self.logger.log(event, **fields)
