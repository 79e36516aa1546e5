"""Per-model circuit breaker: stop hammering a model that has gone bad.

A model that starts emitting NaN (diverged weights hot-swapped in, an
input regime that saturates the TagSL gate) fails *every* request — and
each failure still pays full inference cost before
``validate_output`` rejects it.  The breaker turns that into a cheap
fast-path: after ``failure_threshold`` consecutive failures it OPENs and
the server routes straight to the historical-average fallback for
``cooldown`` seconds, then HALF_OPENs to let a bounded number of probe
requests test whether the fault cleared, closing again only on probe
success.

The clock is injectable so tests drive the full state machine
deterministically without sleeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass
class BreakerTransition:
    """One state change, recorded for observability."""

    ts: float
    old: str
    new: str
    reason: str


class CircuitBreaker:
    """Consecutive-failure breaker with cooldown and half-open probing.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures (validation rejects, inference exceptions,
        timeouts) in CLOSED before tripping OPEN.
    cooldown:
        Seconds OPEN before probes are allowed (on ``clock``'s scale).
    half_open_probes:
        Probes admitted in HALF_OPEN before further traffic waits on
        their outcome; any probe failure re-OPENs immediately.
    clock:
        Monotonic time source; injectable for deterministic tests.
    on_transition:
        ``callback(transition: BreakerTransition)`` fired on every state
        change — the server wires this into metrics + the JSONL log.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 30.0,
        half_open_probes: int = 1,
        clock=time.monotonic,
        on_transition=None,
    ):
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if half_open_probes < 1:
            raise ValueError(f"half_open_probes must be >= 1, got {half_open_probes}")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._on_transition = on_transition
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        self._probes_in_flight = 0
        self.transitions: list[BreakerTransition] = []

    # -- queries -------------------------------------------------------- #

    def allow(self) -> bool:
        """May the next request hit the model?  (May HALF_OPEN the breaker.)

        OPEN + cooldown elapsed transitions to HALF_OPEN and admits a
        probe; OPEN within cooldown (and HALF_OPEN with all probe slots
        taken) answers False — serve the fallback instead.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            now = self._clock()
            if self.opened_at is not None and now - self.opened_at >= self.cooldown:
                self._transition(HALF_OPEN, "cooldown elapsed; probing", now)
                self._probes_in_flight = 1
                return True
            return False
        # HALF_OPEN: admit up to half_open_probes concurrent probes.
        if self._probes_in_flight < self.half_open_probes:
            self._probes_in_flight += 1
            return True
        return False

    # -- outcome reports ------------------------------------------------ #

    def record_success(self) -> None:
        if self.state == HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._transition(CLOSED, "probe succeeded", self._clock())
        self.consecutive_failures = 0

    def record_failure(self, reason: str = "") -> None:
        now = self._clock()
        if self.state == HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._trip(f"probe failed: {reason}" if reason else "probe failed", now)
            return
        self.consecutive_failures += 1
        if self.state == CLOSED and self.consecutive_failures >= self.failure_threshold:
            detail = f"{self.consecutive_failures} consecutive failure(s)"
            if reason:
                detail += f"; last: {reason}"
            self._trip(detail, now)

    # -- internals ------------------------------------------------------ #

    def _trip(self, reason: str, now: float) -> None:
        self.opened_at = now
        self.consecutive_failures = 0
        self._probes_in_flight = 0
        self._transition(OPEN, reason, now)

    def _transition(self, new: str, reason: str, now: float) -> None:
        if new == self.state:
            return
        transition = BreakerTransition(ts=now, old=self.state, new=new, reason=reason)
        self.state = new
        self.transitions.append(transition)
        if self._on_transition is not None:
            self._on_transition(transition)
