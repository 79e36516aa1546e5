"""Observability: tracing, spans, metrics, SLOs, run logging, monitors.

Six pillars (see docs/observability.md):

* :mod:`~repro.obs.trace` — ``with trace() as tr:`` op profiler over the
  autodiff engine (hot-op table, Chrome-trace export, strict no-op when
  inactive).
* :mod:`~repro.obs.spans` — causal span tracer: one tree per serving
  request / training step, contextvars propagation plus explicit
  context capture across thread handoffs, JSONL + Chrome-trace merge.
* :mod:`~repro.obs.slo` — declarative latency/error objectives with
  multi-window burn-rate alerts on an injectable clock; structured
  ``slo_burn`` records.
* :mod:`~repro.obs.metrics` — counters/gauges/histograms/timers with
  JSONL emission; one schema for trainer, experiments, and CLI.
* :mod:`~repro.obs.runlog` — structured per-epoch run logger replacing
  the trainer's bare ``print`` (JSONL file + compatible console line),
  span-correlated when a span is active.
* :mod:`~repro.obs.graphwatch` — TagSL monitors: adjacency
  entropy/sparsity, trend-factor magnitude, saturation-gate activation,
  embedding-table drift (§IV-E, live).

Post-hoc analysis of the span stream (tree assembly, per-stage latency
percentiles, critical paths, the perf-regression sentinel) lives in
:mod:`repro.obs.report`, surfaced as ``repro.cli obs-report``.
"""

from .graphwatch import (
    GraphWatch,
    adjacency_entropy,
    adjacency_sparsity,
    embedding_drift,
    gate_activation_rate,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, read_jsonl
from .runlog import Console, RunLogger
from .slo import SLOMonitor, SLOStatus, SLObjective, default_serving_objectives
from .spans import (
    Span,
    SpanCollector,
    collect_spans,
    current_span,
    finish_span,
    is_collecting,
    span,
    start_span,
    use_span,
)
from .trace import OpStats, Tracer, is_tracing, record_replay, trace

__all__ = [
    "Console",
    "Counter",
    "Gauge",
    "GraphWatch",
    "Histogram",
    "MetricsRegistry",
    "OpStats",
    "RunLogger",
    "SLOMonitor",
    "SLOStatus",
    "SLObjective",
    "Span",
    "SpanCollector",
    "Tracer",
    "adjacency_entropy",
    "adjacency_sparsity",
    "collect_spans",
    "current_span",
    "default_serving_objectives",
    "embedding_drift",
    "finish_span",
    "gate_activation_rate",
    "is_collecting",
    "is_tracing",
    "read_jsonl",
    "record_replay",
    "span",
    "start_span",
    "trace",
    "use_span",
]
