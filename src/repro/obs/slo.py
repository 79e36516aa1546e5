"""Declarative SLOs with multi-window burn-rate evaluation.

An SLO is "``target`` of requests succeed" — where *succeed* means "was
answered by the model under ``latency_ms``" for a latency objective, or
just "was not degraded" for an availability objective.  The interesting
signal is not the instantaneous error rate but the **burn rate**: how
fast the error budget (``1 - target``) is being consumed.  Burn rate 1
means the budget lasts exactly the SLO period; burn rate 14.4 on a
99.9% objective exhausts a 30-day budget in ~2 days.

Each objective carries two alerts in the standard multi-window shape:

* **fast burn** — short windows, high threshold: pages quickly on a
  cliff (model NaN storm, breaker flapping) and, because the short
  window drains fast, *recovers* quickly once the bleeding stops;
* **slow burn** — long windows, low threshold: catches a persistent
  trickle that would silently eat the budget.

An alert fires only when *both* its windows exceed the threshold — the
long window supplies evidence, the short window proves it is still
happening (that conjunction is what makes recovery prompt).  Everything
is evaluated on an injectable clock, so tests drive the windows
deterministically, and every state transition emits a structured
``slo_burn`` JSONL record the fleet front door can aggregate.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "BurnAlert",
    "SLOMonitor",
    "SLOStatus",
    "SLObjective",
    "default_serving_objectives",
]


@dataclass(frozen=True)
class BurnAlert:
    """One (long window, short window, threshold) burn-rate alert."""

    name: str            # "fast_burn" | "slow_burn"
    long_window: float   # seconds of evidence
    short_window: float  # seconds proving it is still happening
    threshold: float     # fires when BOTH window burn rates reach this


@dataclass(frozen=True)
class SLObjective:
    """One declarative objective over the response stream.

    ``latency_ms=None`` makes it a pure availability objective (a
    response is bad only when degraded/shed); otherwise a model answer
    slower than ``latency_ms`` is also bad.  ``min_events`` keeps a
    single unlucky request from paging an idle service.
    """

    name: str
    target: float                       # e.g. 0.99 → 1% error budget
    latency_ms: float | None = None
    fast: BurnAlert = BurnAlert("fast_burn", 3600.0, 300.0, 14.4)
    slow: BurnAlert = BurnAlert("slow_burn", 21600.0, 1800.0, 6.0)
    min_events: int = 4

    def __post_init__(self):
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")

    @property
    def budget(self) -> float:
        return 1.0 - self.target

    def is_bad(self, latency_ms: float, failure: bool) -> bool:
        if failure:
            return True
        return self.latency_ms is not None and latency_ms > self.latency_ms


def default_serving_objectives(
    latency_ms: float = 250.0,
    latency_target: float = 0.95,
    availability_target: float = 0.99,
) -> tuple[SLObjective, ...]:
    """The stock pair every :class:`~repro.serve.ForecastServer` gets."""
    return (
        SLObjective("latency", latency_target, latency_ms=latency_ms),
        SLObjective("availability", availability_target),
    )


@dataclass
class SLOStatus:
    """Evaluation snapshot of one objective at one instant."""

    objective: str
    firing: list[str]          # subset of {"fast_burn", "slow_burn"}
    burn: dict = field(default_factory=dict)   # alert -> {"long": r, "short": r}
    events: int = 0
    bad: int = 0

    @property
    def ok(self) -> bool:
        return not self.firing

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "ok": self.ok,
            "firing": list(self.firing),
            "burn": {k: dict(v) for k, v in self.burn.items()},
            "events": self.events,
            "bad": self.bad,
        }


class SLOMonitor:
    """Feed responses in, get burn-rate verdicts out.

    ``observe`` records one response against every objective;
    ``evaluate`` computes per-alert burn rates and, on any firing-state
    transition, emits an ``slo_burn`` record through ``logger`` (a
    :class:`~repro.obs.RunLogger`) and bumps ``metrics`` counters.  Every
    method reads the injectable clock once, so tests set a fake clock to
    an exact window edge.
    """

    def __init__(self, objectives=None, *, clock=time.monotonic,
                 logger=None, metrics=None, max_events: int = 65536):
        self.objectives = tuple(objectives) if objectives is not None \
            else default_serving_objectives()
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names: {names}")
        self._clock = clock
        self.logger = logger
        self.metrics = metrics
        # objective -> deque of (ts, bad); bounded, pruned past the
        # longest window on every observe.
        self._events: dict[str, deque] = {
            o.name: deque(maxlen=max_events) for o in self.objectives
        }
        self._firing: dict[tuple[str, str], bool] = {
            (o.name, alert.name): False
            for o in self.objectives for alert in (o.fast, o.slow)
        }

    # -- recording ------------------------------------------------------- #

    def observe(self, latency_ms: float, failure: bool = False) -> None:
        """Record one answered request against every objective."""
        now = self._clock()
        for objective in self.objectives:
            events = self._events[objective.name]
            events.append((now, objective.is_bad(latency_ms, failure)))
            horizon = now - max(objective.fast.long_window,
                                objective.slow.long_window)
            while events and events[0][0] <= horizon:
                events.popleft()

    # -- evaluation ------------------------------------------------------ #

    def burn_rate(self, objective: SLObjective, window: float) -> float:
        """Error-budget burn over the trailing ``window`` seconds.

        Events strictly inside ``(now - window, now]`` count; an empty
        window burns nothing.
        """
        return self._burn_rate(objective, window, self._clock())

    def evaluate(self) -> list[SLOStatus]:
        """Burn-rate verdict per objective; emits transitions as they flip."""
        now = self._clock()
        statuses = []
        for objective in self.objectives:
            events = self._events[objective.name]
            status = SLOStatus(
                objective=objective.name,
                firing=[],
                events=len(events),
                bad=sum(int(is_bad) for _, is_bad in events),
            )
            for alert in (objective.fast, objective.slow):
                long_rate = self._burn_rate(objective, alert.long_window, now)
                short_rate = self._burn_rate(objective, alert.short_window, now)
                status.burn[alert.name] = {"long": long_rate, "short": short_rate}
                firing = (
                    len(events) >= objective.min_events
                    and long_rate >= alert.threshold
                    and short_rate >= alert.threshold
                )
                if firing:
                    status.firing.append(alert.name)
                self._transition(objective, alert, firing, long_rate, short_rate, now)
            statuses.append(status)
        return statuses

    def ok(self) -> bool:
        """True when no alert of any objective is firing."""
        return all(status.ok for status in self.evaluate())

    # -- plumbing -------------------------------------------------------- #

    def _burn_rate(self, objective: SLObjective, window: float,
                   now: float) -> float:
        edge = now - window
        total = bad = 0
        for ts, is_bad in self._events[objective.name]:
            if ts > edge:
                total += 1
                bad += int(is_bad)
        if total == 0:
            return 0.0
        return (bad / total) / objective.budget

    def _transition(self, objective: SLObjective, alert: BurnAlert,
                    firing: bool, long_rate: float, short_rate: float,
                    now: float) -> None:
        key = (objective.name, alert.name)
        if firing == self._firing[key]:
            return
        self._firing[key] = firing
        state = "firing" if firing else "recovered"
        if self.metrics is not None:
            self.metrics.counter(f"slo.{objective.name}.{alert.name}_{state}").inc()
        if self.logger is not None:
            self.logger.log(
                "slo_burn",
                objective=objective.name,
                alert=alert.name,
                state=state,
                burn_long=long_rate,
                burn_short=short_rate,
                threshold=alert.threshold,
                target=objective.target,
                window_long=alert.long_window,
                window_short=alert.short_window,
                now=now,
            )
