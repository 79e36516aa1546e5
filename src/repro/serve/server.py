"""The forecast service: a synchronous core with a thread-driven rim.

Design: every serving decision — validate, admit, batch, infer, contain,
respond — lives in synchronous methods (:meth:`ForecastServer.submit`,
:meth:`ForecastServer.process_once`) that tests drive deterministically
with an injected clock.  A single worker thread (:meth:`start` /
:meth:`stop`) merely loops ``process_once`` for real deployments; no
correctness lives in the thread.

Time has one source, the server's clock, read three times per request:
at admission, at dequeue, and once when the request's batch has its
answer (after the model or the fallback).  That completion stamp alone
yields the batch time ``batch_timeout`` judges and each response's
``latency_ms``, ``deadline_missed``, latency histogram entry and SLO
event, so a slow forward shows up in every one of them.

Containment contract (docs/serving.md): a *valid, admitted* request is
always answered — by the live model when its output passes
:func:`~repro.resilience.degrade.validate_output`, by the
:class:`~repro.baselines.historical.HistoricalAverage` fallback
(explicitly marked ``source="historical_average"``) when the model
fails or the circuit breaker is open.  The only structured refusals are
at the front door (:class:`~.validation.InvalidRequestError`,
:class:`~.queueing.ServiceOverloadedError`,
:class:`~.queueing.DeadlineExceededError`) plus deadline sheds, which get
an explicit ``source="shed"`` response rather than silence.
"""

from __future__ import annotations

import copy
import functools
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..autodiff import Tensor, no_grad
from ..baselines.historical import HistoricalAverage
from ..nn.serialization import (
    CheckpointCorruptionError,
    load_checkpoint,
    state_hash,
)
from ..obs import MetricsRegistry, SLOMonitor
from ..obs.spans import finish_span, start_span, use_span
from ..resilience.degrade import output_bound, validate_output
from .breaker import CircuitBreaker
from .queueing import MicroBatcher, RequestQueue
from .validation import ForecastRequest, RequestSpec, validate_request


@dataclass
class ForecastResponse:
    """One answered request, with full provenance.

    ``source`` is ``"model"`` (healthy forecast), ``"historical_average"``
    (explicitly-marked fallback), or ``"shed"`` (deadline passed while
    queued; ``prediction`` is ``None``).  ``degraded`` is True for every
    non-model answer; ``reason`` says why.  ``latency_ms`` runs from
    admission to the moment the answer existed, forward pass included.
    """

    request_id: str
    prediction: np.ndarray | None
    source: str = "model"
    degraded: bool = False
    reason: str | None = None
    latency_ms: float = 0.0
    deadline_missed: bool = False
    model_version: str | None = None
    metadata: dict = field(default_factory=dict)


class ForecastServer:
    """Fault-contained serving of one live model over one task.

    Parameters
    ----------
    model:
        Trainer-compatible module: ``model(Tensor(x), t)`` over scaled
        windows.  Swappable at runtime via :meth:`reload_checkpoint`.
    task:
        The :class:`~repro.data.datasets.ForecastingTask` the model was
        trained on — source of the request spec, the output sanity bound,
        and the historical-average fallback.
    queue_depth / max_batch:
        Admission bound and micro-batch budget.
    breaker:
        A :class:`~.breaker.CircuitBreaker`; built with defaults when
        omitted.  Its transitions are re-emitted to metrics + log (this
        replaces any ``on_transition`` hook it was built with).
    batch_timeout:
        Seconds (on ``clock``) a single model batch may take before it
        counts as a breaker *timeout* failure (the output, if valid, is
        still served).  ``None`` disables.
    model_factory:
        Zero-arg callable building a fresh, architecture-identical model
        for :meth:`reload_checkpoint` to load into (so a bad checkpoint
        never touches the live instance).  Defaults to deep-copying the
        initial model.
    logger:
        A :class:`~repro.obs.RunLogger` (or None); every admission,
        shed, trip, fallback, and reload event lands in its JSONL.
    slo:
        A :class:`~repro.obs.SLOMonitor` evaluated over the response
        stream (burn-rate transitions land in the log as ``slo_burn``
        records and in :meth:`health`).  ``None`` (default) builds one
        from :func:`~repro.obs.default_serving_objectives` on the
        server's clock; ``False`` disables SLO monitoring entirely.
    slo_ready_gate:
        When True, :meth:`ready` also reports not-ready while any
        objective's *fast-burn* alert is firing, so an orchestrator
        stops routing new traffic at a latency/error cliff.  Off by
        default (readiness stays purely lifecycle-based).
    clock:
        Monotonic time source shared with deadlines and the breaker;
        injectable for deterministic tests.

    Every model is probed against the task before it takes traffic
    (:func:`repro.analyze.probe.check_served_model`: one real forward in
    eval mode): construction raises
    :class:`~repro.analyze.probe.ModelShapeError` on error-severity
    findings, and :meth:`reload_checkpoint` rejects a candidate that
    fails the same probe while the live model keeps serving.
    """

    def __init__(
        self,
        model,
        task,
        *,
        queue_depth: int = 64,
        max_batch: int = 8,
        breaker: CircuitBreaker | None = None,
        batch_timeout: float | None = None,
        model_factory=None,
        metrics: MetricsRegistry | None = None,
        logger=None,
        clock=time.monotonic,
        slo: SLOMonitor | None | bool = None,
        slo_ready_gate: bool = False,
    ):
        self.task = task
        self.spec = RequestSpec.for_task(task)
        self.queue = RequestQueue(max_depth=queue_depth)
        self.batcher = MicroBatcher(max_batch=max_batch)
        self.batch_timeout = batch_timeout
        self.metrics = metrics if metrics is not None else MetricsRegistry(run="serve")
        self.logger = logger
        self._clock = clock
        self.breaker = breaker if breaker is not None else CircuitBreaker(clock=clock)
        # The hook holds the metrics and logger, not the server: one over
        # ``self`` would make every server a reference cycle that keeps its
        # model alive until the cyclic GC runs.
        self.breaker._on_transition = functools.partial(
            _record_breaker_transition, self.metrics, logger)

        self._model_lock = threading.RLock()
        self._model = model
        self._model_version = self._version_of(model)
        self._model_factory = model_factory or (lambda: copy.deepcopy(model))
        self._fallback = HistoricalAverage.for_task(task)
        self._bound = output_bound(task)

        errors = self._shape_errors(model)
        if errors:
            from ..analyze.probe import ModelShapeError

            raise ModelShapeError(errors)

        if slo is None:
            slo = SLOMonitor(clock=clock, logger=logger, metrics=self.metrics)
        self.slo = slo if slo is not False else None
        self._slo_ready_gate = slo_ready_gate

        # Causal spans (repro.obs.spans): contextvars cannot cross the
        # submit-thread → worker-thread handoff, so open Span objects are
        # captured here per request id and resumed stage by stage on
        # whichever thread dequeues the request.  No-ops (None entries
        # are never stored) unless a SpanCollector is installed.
        self._request_spans: dict[str, dict] = {}
        self._span_lock = threading.Lock()

        self._responses: list[ForecastResponse] = []
        self._responses_lock = threading.Lock()
        self._worker: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._draining = False
        self._started_at = self._clock()
        self._log("server_start", queue_depth=queue_depth, max_batch=max_batch,
                  model_version=self._model_version,
                  failure_threshold=self.breaker.failure_threshold,
                  cooldown=self.breaker.cooldown)

    # -- front door ----------------------------------------------------- #

    def submit(self, payload, *, parent_span=None) -> str:
        """Validate + admit one request; returns its id.

        Raises :class:`~.validation.InvalidRequestError` (bad payload),
        :class:`~.queueing.DeadlineExceededError` (dead on arrival), or
        :class:`~.queueing.ServiceOverloadedError` (queue full, or the
        server is draining).  Purged-on-admission expired entries get a
        shed response.

        ``parent_span`` nests this request's span tree under a caller
        span (the fleet router's per-shard ``dispatch`` span), so one
        trace covers the whole router → replica causal path; without it
        the request span is its own root.
        """
        now = self._clock()
        if self._draining or self._stop_event.is_set():
            self.metrics.counter("serve.rejected").inc()
            self._log("request_rejected", code="draining")
            from .queueing import ServiceOverloadedError

            raise ServiceOverloadedError(len(self.queue), self.queue.max_depth,
                                         detail="server is draining")
        # Span timebase is perf_counter (same as the op tracer), captured
        # before validation so the root span covers the whole front door.
        arrived = time.perf_counter()  # analyze: allow[RL004] span timebase
        try:
            request = validate_request(payload, self.spec, now=now)
        except Exception as exc:
            self.metrics.counter("serve.rejected").inc()
            code = getattr(exc, "code", "invalid")
            self._log("request_rejected", code=code, detail=str(exc))
            requested_id = payload.get("id") if isinstance(payload, dict) else None
            root = start_span(
                "request", parent=parent_span, inherit=False, at=arrived,
                trace_id=None if parent_span is not None
                else (str(requested_id) if requested_id else None))
            admission = start_span("admission", parent=root, inherit=False, at=arrived)
            finish_span(admission, status="error", code=code)
            finish_span(root, status="rejected", code=code)
            raise
        root = start_span("request", parent=parent_span, inherit=False, at=arrived,
                          trace_id=None if parent_span is not None
                          else request.request_id,
                          attrs={"deadline": request.deadline,
                                 "request_id": request.request_id})
        admission = start_span("admission", parent=root, inherit=False, at=arrived)
        finish_span(admission)
        # The queue_wait span and the request-spans entry MUST exist
        # before queue.put: the worker thread can dequeue and answer the
        # request the instant it lands, and it resumes the captured spans.
        queue_span = start_span("queue_wait", parent=root, inherit=False,
                                attrs={"queue_depth": len(self.queue)})
        if root is not None:
            with self._span_lock:
                self._request_spans[request.request_id] = {
                    "root": root, "queue": queue_span,
                }
        try:
            purged = self.queue.put(request, now)
        except Exception as exc:
            self.metrics.counter("serve.shed").inc()
            self._log("request_shed", request_id=request.request_id,
                      stage="admission", detail=str(exc))
            entry = self._span_pop(request.request_id)
            finish_span(entry.get("queue"), status="error")
            finish_span(entry.get("root"), status="rejected", detail=str(exc))
            raise
        for dead in purged:
            self._shed(dead, now, stage="purged_on_admission")
        self.metrics.counter("serve.admitted").inc()
        self.metrics.gauge("serve.queue_depth").set(len(self.queue))
        self._log("request_admitted", request_id=request.request_id,
                  deadline=request.deadline, queue_depth=len(self.queue))
        return request.request_id

    # -- the synchronous core ------------------------------------------- #

    def process_once(self) -> list[ForecastResponse]:
        """Serve one round of micro-batches from the queue.

        Returns the responses produced this round (they are also
        appended to the internal sink for :meth:`take_responses`).
        """
        now = self._clock()
        admitted, shed = self.queue.next_batch(self.batcher.max_batch, now)
        # Dequeue happens here, possibly on the worker thread: resume the
        # captured queue_wait spans and close them at the handoff point.
        for request in admitted:
            finish_span(self._span_entry(request.request_id).get("queue"))
        self.metrics.gauge("serve.queue_depth").set(len(self.queue))
        produced: list[ForecastResponse] = []
        for dead in shed:
            produced.append(self._shed(dead, now, stage="dequeue"))
        started = now
        for group in self.batcher.groups(admitted):
            # A batch's time runs from the dequeue (or the previous
            # batch's answer) to its own answer.
            answered, started = self._serve_batch(group, started)
            produced.extend(answered)
        if self.slo is not None and produced:
            self.slo.evaluate()
        return produced

    def drain(self) -> list[ForecastResponse]:
        """Synchronously serve until the queue is empty."""
        produced: list[ForecastResponse] = []
        while len(self.queue):
            produced.extend(self.process_once())
        return produced

    def take_responses(self) -> list[ForecastResponse]:
        """Pop every completed response (thread-safe sink for callers)."""
        with self._responses_lock:
            out, self._responses = self._responses, []
        return out

    def abort(self, reason: str = "aborted") -> list[str]:
        """Drop everything queued without answering; return the ids.

        Crash teardown: the fleet calls this when a replica is killed so
        the span trees of requests the replica dies holding are closed
        (status ``canceled``) instead of dangling unfinished.  No
        responses are produced — the caller owns the failover.
        """
        dropped = self.queue.clear()
        for request in dropped:
            entry = self._span_pop(request.request_id)
            finish_span(entry.get("queue"), status="canceled")
            finish_span(entry.get("root"), status="canceled", reason=reason)
        if dropped:
            self.metrics.gauge("serve.queue_depth").set(len(self.queue))
            self._log("server_abort", dropped=len(dropped), reason=reason)
        return [request.request_id for request in dropped]

    # -- batch serving -------------------------------------------------- #

    def _serve_batch(self, batch: list[ForecastRequest],
                     started: float) -> tuple[list[ForecastResponse], float]:
        """Answer one micro-batch; returns its responses and their stamp."""
        roots = [self._span_entry(r.request_id).get("root") for r in batch]
        assembly = self._stage_spans(roots, "batch_assembly", batch=len(batch))
        x, t = self.batcher.collate(batch)
        for sp in assembly:
            finish_span(sp)
        prediction, failure = None, "breaker open"
        if self.breaker.allow():
            predict_spans = self._stage_spans(
                roots, "predict", batch=len(batch), breaker=self.breaker.state)
            anchor = next((sp for sp in predict_spans if sp is not None), None)
            with use_span(anchor):
                prediction, failure = self._model_predict(x, t, len(batch))
            for sp in predict_spans:
                finish_span(sp, status="ok" if failure is None else "error")
            if failure is not None:
                self.breaker.record_failure(failure)
        source = "model"
        if failure is not None:
            source = "historical_average"
            self._log("fallback_served", reason=failure, batch=len(batch),
                      breaker_state=self.breaker.state)
            fallback_spans = self._stage_spans(roots, "fallback", reason=failure)
            prediction = self._fallback_predict(batch)
            for sp in fallback_spans:
                finish_span(sp)
        done = self._clock()
        if failure is None:
            elapsed = done - started
            if self.batch_timeout is not None and elapsed > self.batch_timeout:
                # Output is usable but the model is too slow to meet
                # deadlines — feed the breaker so persistent slowness
                # flips traffic to the (fast) fallback.
                self.breaker.record_failure(
                    f"batch took {elapsed:.3f}s > timeout {self.batch_timeout:.3f}s")
                self.metrics.counter("serve.timeouts").inc()
            else:
                self.breaker.record_success()
        return [self._respond(r, prediction[i], source, failure, done)
                for i, r in enumerate(batch)], done

    def _model_predict(self, x: np.ndarray, t: np.ndarray, batch_size: int):
        """(prediction | None, failure_reason | None)."""
        try:
            with self._model_lock, no_grad():
                model = self._model
                model.eval()
                raw = model(Tensor(x), t).numpy()
            prediction = self.task.inverse_targets(raw)
            reason = validate_output(prediction, bound=self._bound)
        except Exception as exc:  # containment boundary: no model error escapes
            return None, f"inference raised {type(exc).__name__}: {exc}"
        if reason is not None:
            return None, reason
        self.metrics.histogram("serve.batch_size").observe(batch_size)
        return prediction, None

    def _fallback_predict(self, batch: list[ForecastRequest]) -> np.ndarray:
        time_indices = np.stack([r.time_index for r in batch])
        scaled = self._fallback.predict_windows(
            time_indices, self.spec.history, self.task.out_dim
        )
        return self.task.inverse_targets(scaled)

    def _respond(self, request: ForecastRequest, prediction, source: str,
                 reason: str | None, done: float) -> ForecastResponse:
        degraded = source != "model"
        response = ForecastResponse(
            request_id=request.request_id,
            prediction=prediction,
            source=source,
            degraded=degraded,
            reason=reason,
            latency_ms=max(0.0, (done - request.received_at) * 1000.0),
            deadline_missed=request.expired(done),
            model_version=self.model_version if source == "model" else None,
            metadata=request.metadata,
        )
        self.metrics.counter(f"serve.{'fallback' if degraded else 'model'}").inc()
        self.metrics.histogram("serve.latency_ms").observe(response.latency_ms)
        if self.slo is not None:
            self.slo.observe(response.latency_ms, failure=degraded)
        entry = self._span_pop(request.request_id)
        finish_span(entry.get("queue"))  # defensive: normally closed at dequeue
        finish_span(entry.get("root"), status="ok" if not degraded else "degraded",
                    source=source, latency_ms=response.latency_ms)
        with self._responses_lock:
            self._responses.append(response)
        return response

    def _shed(self, request: ForecastRequest, now: float, stage: str) -> ForecastResponse:
        self.metrics.counter("serve.shed").inc()
        self._log("request_shed", request_id=request.request_id, stage=stage,
                  deadline=request.deadline)
        response = ForecastResponse(
            request_id=request.request_id,
            prediction=None,
            source="shed",
            degraded=True,
            reason=f"deadline passed while queued ({stage})",
            latency_ms=max(0.0, (now - request.received_at) * 1000.0),
            deadline_missed=True,
            metadata=request.metadata,
        )
        if self.slo is not None:
            self.slo.observe(response.latency_ms, failure=True)
        entry = self._span_pop(request.request_id)
        finish_span(entry.get("queue"), status="shed")
        finish_span(entry.get("root"), status="shed", stage=stage)
        with self._responses_lock:
            self._responses.append(response)
        return response

    # -- lifecycle ------------------------------------------------------ #

    def start(self, poll_interval: float = 0.01) -> None:
        """Spawn the worker thread (idempotent)."""
        if self._worker is not None and self._worker.is_alive():
            return
        self._stop_event.clear()
        self._draining = False

        def loop():
            while not self._stop_event.is_set():
                if self.queue.wait_nonempty(poll_interval):
                    self.process_once()
            if self._draining:
                self.drain()

        self._worker = threading.Thread(target=loop, name="forecast-serve", daemon=True)
        self._worker.start()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> bool:
        """Stop the worker; with ``drain`` answer everything queued first.

        Returns ``True`` on a clean stop.  If the worker thread is still
        alive after ``join(timeout)`` — wedged mid-batch, most likely —
        the failure is **not** swallowed: a structured ``drain_timeout``
        record is emitted, ``serve.drain_timeouts`` is counted, the
        thread handle is kept (so a later call can re-check), the
        synchronous drain is skipped (the queue is not safe to touch
        while the wedged worker may still be consuming it), and the
        method returns ``False`` so callers (the fleet, the replica
        supervisor) can escalate instead of believing the replica
        stopped.
        """
        self._draining = drain
        self._stop_event.set()
        if self._worker is not None:
            self._worker.join(timeout)
            if self._worker.is_alive():
                self.metrics.counter("serve.drain_timeouts").inc()
                self._log("drain_timeout", timeout_s=timeout, drain=drain,
                          queue_depth=len(self.queue),
                          worker=self._worker.name)
                return False
            self._worker = None
        if drain:
            self.drain()  # no-op when the worker already emptied it
        self._log("server_drain", drained=drain, queue_depth=len(self.queue))
        return True

    def health(self) -> dict:
        """Liveness probe: one JSON-ready snapshot of serving state."""
        snap = self.metrics.snapshot()
        statuses = self.slo.evaluate() if self.slo is not None else []
        degraded = self.breaker.state != "closed" or any(not s.ok for s in statuses)
        return {
            "status": "degraded" if degraded else "ok",
            "breaker": self.breaker.state,
            "queue_depth": len(self.queue),
            "model_version": self.model_version,
            "uptime_s": self._clock() - self._started_at,
            "slo": [s.to_dict() for s in statuses],
            "counters": snap["counters"],
        }

    def ready(self) -> bool:
        """Readiness probe: accepting traffic (not stopped/draining).

        With ``slo_ready_gate=True``, a firing *fast-burn* alert on any
        objective also reports not-ready: the error budget is burning fast
        enough that routing more traffic here only deepens the incident.
        Slow burn alone never flips readiness — it pages, it doesn't shed.
        """
        if self._draining or self._stop_event.is_set():
            return False
        if self._slo_ready_gate and self.slo is not None:
            statuses = self.slo.evaluate()
            if any("fast_burn" in s.firing for s in statuses):
                return False
        return True

    # -- warm reload ---------------------------------------------------- #

    @property
    def model_version(self) -> str:
        with self._model_lock:  # paired with the reload swap; RLock, so
            return self._model_version  # callers already holding it are fine

    def reload_checkpoint(self, path) -> bool:
        """Atomically swap in a checkpoint; never disturb the live model.

        The checkpoint loads into a *fresh* instance from
        ``model_factory``; the integrity hash embedded by
        :func:`repro.nn.serialization.save_checkpoint` is verified before
        any parameter lands.  On corruption (or any load failure) the
        previously-live model keeps serving and a structured
        ``checkpoint_rejected`` record is logged; on success the live
        model is swapped under the model lock between batches.
        """
        reload_span = start_span("reload", parent=None, inherit=False,
                                 attrs={"path": str(path)})
        try:
            candidate = self._model_factory()
            metadata = load_checkpoint(path, candidate)
        except CheckpointCorruptionError as exc:
            self.metrics.counter("serve.reload_rejected").inc()
            self._log("checkpoint_rejected", path=str(path), reason=exc.reason,
                      expected_hash=exc.expected, actual_hash=exc.actual,
                      live_model_version=self.model_version)
            finish_span(reload_span, status="rejected", reason=exc.reason)
            return False
        except Exception as exc:
            self.metrics.counter("serve.reload_rejected").inc()
            self._log("checkpoint_rejected", path=str(path),
                      reason=f"{type(exc).__name__}: {exc}",
                      live_model_version=self.model_version)
            finish_span(reload_span, status="rejected",
                        reason=f"{type(exc).__name__}")
            return False
        shape_errors = self._shape_errors(candidate)
        if shape_errors:
            self.metrics.counter("serve.reload_rejected").inc()
            self._log("checkpoint_rejected", path=str(path),
                      reason="load-time probe failed",
                      findings=[f.to_dict() for f in shape_errors],
                      live_model_version=self.model_version)
            finish_span(reload_span, status="rejected",
                        reason="load-time probe failed")
            return False
        version = self._version_of(candidate)
        with self._model_lock:
            old = self._model_version
            self._model = candidate
            self._model_version = version
        self.metrics.counter("serve.reloads").inc()
        self._log("model_reloaded", path=str(path), old_version=old,
                  new_version=version, metadata=metadata)
        finish_span(reload_span, status="ok", old_version=old,
                    new_version=version)
        return True

    # -- plumbing ------------------------------------------------------- #

    def _shape_errors(self, model) -> list:
        """Error-severity findings from the load-time probe (or [])."""
        from ..analyze.probe import check_served_model
        from ..nn import Module

        # Chaos/fault wrappers delegate to an inner model; check that one
        # so the wrapper's own behavior (call counting, induced latency,
        # value poisoning) is not perturbed or misread as a shape defect.
        while not isinstance(model, Module) and hasattr(model, "inner"):
            model = model.inner
        if not isinstance(model, Module):
            return []
        findings = check_served_model(model, self.task)
        self.metrics.counter("serve.shape_check_findings").inc(len(findings))
        errors = [f for f in findings if f.severity == "error"]
        if errors:
            self.metrics.counter("serve.shape_check_rejected").inc()
            self._log("shape_check_failed",
                      findings=[f.to_dict() for f in errors])
        return errors

    def _version_of(self, model) -> str:
        # Hash the state dict (not the instance) so chaos wrappers that
        # delegate ``state_dict`` still get a real version fingerprint.
        try:
            return state_hash(dict(model.state_dict()))[:12]
        except Exception:
            return "unhashable"

    def _span_entry(self, request_id: str) -> dict:
        """Captured spans for a live request ({} when tracing is off)."""
        with self._span_lock:
            return self._request_spans.get(request_id, {})

    def _span_pop(self, request_id: str) -> dict:
        with self._span_lock:
            return self._request_spans.pop(request_id, {})

    def _stage_spans(self, roots: list, name: str, **attrs) -> list:
        """One child stage span per request root (None where untraced)."""
        return [start_span(name, parent=root, inherit=False, attrs=attrs)
                if root is not None else None
                for root in roots]

    def _log(self, event: str, **fields) -> None:
        if self.logger is not None:
            self.logger.log(event, **fields)


def _record_breaker_transition(metrics: MetricsRegistry, logger, transition) -> None:
    """A server's breaker hook: count the transition and log it."""
    metrics.counter(f"serve.breaker_{transition.new}").inc()
    if transition.new == "open":
        metrics.counter("serve.breaker_trips").inc()
    if logger is not None:
        logger.log(f"breaker_{transition.new}", old=transition.old, reason=transition.reason)
