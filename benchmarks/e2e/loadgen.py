"""Single-threaded load generation against the synchronous serving core.

One thread both submits and pumps: ``target.submit(payload)`` hands a
request in, ``target.process_once()`` runs one serving round and returns
the responses it completed.  Every time is taken here, on the client
side, with ``perf_counter``; the ``latency_ms`` a response reports is
never used as a latency.

* :func:`open_loop` sends on a Poisson schedule regardless of progress,
  so its queue can grow.  A request is timed from the moment it was
  *due*, which charges a stall to every request it delayed.
* :func:`closed_loop` keeps a fixed number of requests outstanding and
  sends the next one only when one completes; its completion rate is the
  saturation throughput.

A refused request (:class:`~repro.serve.InvalidRequestError`, overload,
dead on arrival) is recorded as ``rejected``; a shed or fallback answer
as ``shed``/``fallback``.  All three count as infinite latency.
"""

from __future__ import annotations

import contextlib
import math
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.obs.spans import span
from repro.serve import DeadlineExceededError, InvalidRequestError, ServiceOverloadedError

DRAIN_TIMEOUT_S = 30.0


@dataclass
class Request:
    """One attempted request, with every client-side timestamp."""

    rid: str
    window: int
    due: float
    submit_start: float = math.nan
    submit_end: float = math.nan
    pump_start: float = math.nan
    delivered: float = math.nan
    outcome: str = ""          # model | fallback | shed | rejected | unanswered
    response: object = None

    @property
    def latency_ms(self) -> float:
        if self.outcome != "model":
            return math.inf
        return (self.delivered - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.submit_start - self.due) * 1e3


@dataclass
class Phase:
    """The requests of one load phase and what the generator saw."""

    name: str
    seconds: float
    requests: list = field(default_factory=list)
    backlog_end: int = 0        # outstanding when the arrival window closed
    window_end: float = 0.0
    unexpected: list = field(default_factory=list)  # response ids never sent

    def latencies(self) -> list[float]:
        return [r.latency_ms for r in self.requests]

    def round_rates(self) -> list[float]:
        """Per serving round within the arrival window: the model answers it
        delivered over the time since the previous delivering round."""
        counts = Counter(r.delivered for r in self.requests
                         if r.outcome == "model" and r.delivered <= self.window_end)
        times = sorted(counts)
        return [counts[t1] / (t1 - t0) for t0, t1 in zip(times, times[1:])]


def _outcome(response) -> str:
    if response.source == "model":
        return "model"
    return "shed" if response.source == "shed" else "fallback"


class _Client:
    def __init__(self, target, payload_for, traced: bool):
        self.target = target
        self.payload_for = payload_for
        self.traced = traced
        self.inflight: dict[str, Request] = {}
        self.unexpected: list[str] = []

    def submit(self, req: Request) -> None:
        payload = self.payload_for(req.window, req.rid)
        scope = span("bench.submit", trace_id=req.rid) if self.traced else contextlib.nullcontext()
        req.submit_start = perf_counter()
        try:
            with scope:
                self.target.submit(payload)
        except (InvalidRequestError, ServiceOverloadedError, DeadlineExceededError):
            req.outcome = "rejected"
        else:
            self.inflight[req.rid] = req
        req.submit_end = perf_counter()

    def pump(self) -> None:
        started = perf_counter()
        responses = self.target.process_once()
        ended = perf_counter()
        for response in responses:
            req = self.inflight.pop(response.request_id, None)
            if req is None:
                self.unexpected.append(response.request_id)
                continue
            req.pump_start, req.delivered = started, ended
            req.response = response
            req.outcome = _outcome(response)

    def drain(self) -> None:
        deadline = perf_counter() + DRAIN_TIMEOUT_S
        while self.inflight and perf_counter() < deadline:
            self.pump()
        for req in self.inflight.values():
            req.outcome = "unanswered"
        self.inflight.clear()


def _wait_until(due: float) -> None:
    # Spin, never sleep: sleep wakes late, and on a virtual machine a core
    # that went idle serves the next request about a millisecond slower and
    # far less predictably (50 req/s, 8 seeds: p50 4.1 ms with a 20% spread
    # when sleeping, 3.1 ms with 4.5% when spinning).
    while perf_counter() < due:
        pass


def arrivals(rate: float, seconds: float, rng: np.random.Generator) -> np.ndarray:
    """Poisson arrival offsets (seconds) in [0, seconds)."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < seconds]


def open_loop(target, payload_for, name: str, rate: float, seconds: float,
              rng: np.random.Generator, num_windows: int, traced: bool = False) -> Phase:
    """Send at ``rate`` req/s (Poisson) for ``seconds``, then drain."""
    phase = Phase(name, seconds)
    client = _Client(target, payload_for, traced)
    offsets = arrivals(rate, seconds, rng)
    windows = rng.integers(num_windows, size=len(offsets))
    phase.requests = [Request(f"{name}-{i}", int(w), float(off))
                      for i, (off, w) in enumerate(zip(offsets, windows))]
    start = perf_counter()
    for req in phase.requests:
        req.due += start
    window_end = start + seconds
    nxt = 0
    while nxt < len(phase.requests):
        now = perf_counter()
        while nxt < len(phase.requests) and phase.requests[nxt].due <= now:
            client.submit(phase.requests[nxt])
            nxt += 1
        if client.inflight:
            client.pump()
        elif nxt < len(phase.requests):
            _wait_until(phase.requests[nxt].due)
    while client.inflight and perf_counter() < window_end:
        client.pump()
    phase.backlog_end = len(client.inflight)
    phase.window_end = window_end
    client.drain()
    phase.unexpected = client.unexpected
    return phase


def burst(target, payload_for, name: str, count: int, rng: np.random.Generator,
          num_windows: int) -> Phase:
    """Submit ``count`` requests at once and serve them (warm-up)."""
    phase = Phase(name, 0.0)
    client = _Client(target, payload_for, traced=False)
    for i in range(count):
        req = Request(f"{name}-{i}", int(rng.integers(num_windows)), perf_counter())
        phase.requests.append(req)
        client.submit(req)
    client.drain()
    phase.unexpected = client.unexpected
    return phase


def closed_loop(target, payload_for, name: str, outstanding: int, seconds: float,
                rng: np.random.Generator, num_windows: int, traced: bool = False) -> Phase:
    """Keep ``outstanding`` requests in flight for ``seconds``, then drain."""
    phase = Phase(name, seconds)
    client = _Client(target, payload_for, traced)
    end = perf_counter() + seconds
    while perf_counter() < end:
        while len(client.inflight) < outstanding:
            req = Request(f"{name}-{len(phase.requests)}", int(rng.integers(num_windows)),
                          perf_counter())
            phase.requests.append(req)
            client.submit(req)
            if req.outcome == "rejected":
                break
        client.pump()
    phase.backlog_end = len(client.inflight)
    phase.window_end = end
    client.drain()
    phase.unexpected = client.unexpected
    return phase
