"""The benchmark's four workloads.

Each workload function takes ``(seed, seconds, trace=False)`` and returns
a :class:`Result`.  ``seed`` fixes the generated data, every model's
initial weights, the windows requests carry and their arrival times;
``seconds`` sets how long the load phases last (training: how many steps
run).  The program is driven only through its public calls —
``Trainer.fit``, ``ForecastServer``/``ForecastFleet`` ``submit`` and
``process_once``, a model's ``forward`` — and every time is taken here.

End-to-end metrics (measured with tracing off):

* ``setup_s`` — start of the workload to its first timed operation
  (data generation, model build, server or fleet start incl. fork and
  READY, warm-up); median of five set-ups in the run.
* ``peak_rss_mb`` — the process's peak RSS; for the fleet plus each
  replica process's peak (``VmHWM``), read before it stops.
* ``throughput_per_s`` — upper quartile of per-step rates (training:
  samples ÷ step interval) or per-round rates (serving, 16 requests kept
  outstanding: answers a round delivered ÷ time since the previous
  delivering round).
* ``latency_ms_p50`` / ``latency_ms_p90`` — training: the interval
  between consecutive ``after_backward`` hooks within an epoch.
  Serving: p50 at the low open-loop rate and p90 at the high one, each
  request timed from its due time; a refused, shed or fallback answer
  counts as infinite.  Both through :func:`steady_pct`, over runs of 10
  steps or of 20 (p50) / 50 (p90) requests.

With ``trace=True`` the workload then runs again under a
:class:`~tracing.Probe` and fills :attr:`Result.layers`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import resource
import statistics
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import repro.serve.fleet as fleet_module
import repro.serve.server as server_module
import repro.training.trainer as trainer_module
from repro.autodiff import Tensor, no_grad
from repro.core import TGCRN
from repro.data import load_task
from repro.data.windows import WindowSet
from repro.graph import learned_adjacency
from repro.nn.optim import Adam
from repro.obs import trace as op_trace
from repro.obs.spans import SpanCollector
from repro.serve import ForecastFleet, ForecastResponse, ForecastServer
from repro.serve.proc import FRAME_RESPONSE, FRAME_SUBMIT, encode_frame
from repro.training.experiment import default_tgcrn_kwargs
from repro.training.trainer import Trainer, TrainingConfig
from repro.verify import named_rng

import check
import loadgen
import tracing

SETUPS = 5
# Samples per run of steady_pct: a training step takes 50 ms to 2 s, a
# request a few milliseconds.
STEPS_PER_RUN = 10
REQUESTS_PER_RUN = {50: 20, 90: 50}


@dataclass(frozen=True)
class Scale:
    nodes: int
    days: int
    hidden: int
    node_dim: int
    time_dim: int
    layers: int


# The quick and full scales of benchmarks/bench_utils.py on HZMetro, copied
# so that the benchmark's inputs change only when this directory does.
QUICK = Scale(nodes=12, days=10, hidden=16, node_dim=16, time_dim=8, layers=1)
FULL = Scale(nodes=40, days=25, hidden=64, node_dim=32, time_dim=16, layers=2)


@dataclass
class Result:
    metrics: dict                 # end-to-end: name -> (value, unit)
    attempted: int
    failed: int
    problems: list
    layers: dict = field(default_factory=dict)   # per-layer, traced runs only
    details: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def pct(values, q: float) -> float:
    """Percentile ``q`` (0-100); infinite samples sort last."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return math.nan
    method = "higher" if np.isinf(arr).any() else "linear"
    return float(np.percentile(arr, q, method=method))


def steady_pct(values, q: float, chunk: int) -> float:
    """Percentile ``q`` of each run of ``chunk`` consecutive samples; the
    lower quartile of those across the runs.

    On a host shared with other tenants, a neighbour can slow every
    operation by half for stretches of a second or more.  A plain
    percentile moves with how much of the measured time such stretches
    cover.  Per short run of samples, the slowed runs sort to the top, and
    the lower quartile across runs holds until they are three quarters of
    the measurement; a change in the program's own cost moves every run.
    """
    runs = [values[i:i + chunk] for i in range(0, len(values) - chunk + 1, chunk)]
    return pct([pct(run, q) for run in runs], 25) if runs else pct(values, q)


def _task(scale: Scale, seed: int, train_windows: int | None = None,
          val_windows: int | None = None):
    task = load_task("hzmetro", seed=seed, num_nodes=scale.nodes, num_days=scale.days)
    if train_windows is not None:
        head = lambda w, n: WindowSet(w.inputs[:n], w.targets[:n], w.time_indices[:n])
        task = dataclasses.replace(task, train=head(task.train, train_windows),
                                   val=head(task.val, val_windows))
    return task


def _model(task, scale: Scale, seed: int, name: str) -> TGCRN:
    return TGCRN(**default_tgcrn_kwargs(task, hidden_dim=scale.hidden, node_dim=scale.node_dim,
                                        time_dim=scale.time_dim, num_layers=scale.layers),
                 rng=named_rng(seed, name))


def _own_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ops_per_forward(shards, x, t, grad: bool) -> float:
    """Autodiff ops one model forward creates (mean over the fleet's shards)."""
    counts = []
    for nodes, model in shards:
        cols = slice(None) if nodes is None else np.asarray(nodes)
        with op_trace() as tracer, (contextlib.nullcontext() if grad else no_grad()):
            model(Tensor(x[:, :, cols, :]), t)
        counts.append(tracer.graph_nodes)
    return float(np.mean(counts))


def _layer_defaults() -> dict:
    """Per-layer metrics of layers a workload may not enter: shares, counts, ratios."""
    out = tracing.shares({}, tracing.TRAIN_SHARES + tracing.SERVE_SHARES, 1.0)
    out["serve.reported_gap_share"] = (0.0, "%")
    for name in ("requests.fallback", "requests.shed", "requests.rejected",
                 "fleet.retries", "fleet.failovers", "fleet.shard_fallbacks",
                 "supervisor.restarts", "engine.eager_fallbacks", "loadgen.backlog_end"):
        out[name] = (0.0, "count")
    out["engine.compiled_over_eager"] = (0.0, "ratio")
    out["proc.frame_bytes_per_request"] = (0.0, "B")
    return out


def _check_coverage(result: Result) -> None:
    coverage = result.layers["trace.coverage"][0]
    if abs(coverage - 1.0) > 0.05:
        result.problems.append(f"layer times cover {coverage:.1%} of the traced total, not 95-105%")


# --------------------------------------------------------------------- #
# training
# --------------------------------------------------------------------- #


class _FirstStep(Exception):
    """Raised from the fault hook to end a set-up-only fit."""


class StepClock:
    """``Trainer.fit`` fault hook stamping every ``after_backward``."""

    def __init__(self, stop_at_first: bool = False):
        self.stop_at_first = stop_at_first
        self.stamps: list[tuple[int, int, float]] = []

    def __call__(self, point, epoch=None, batch=None, **_):
        if point != "after_backward":
            return
        self.stamps.append((epoch, batch, perf_counter()))
        if self.stop_at_first:
            raise _FirstStep

    def intervals(self, warmup_epochs: int) -> list[tuple[float, float, int]]:
        """(start, end, batch index ending it) of within-epoch step intervals."""
        return [(s0[2], s1[2], s1[1]) for s0, s1 in zip(self.stamps, self.stamps[1:])
                if s0[0] == s1[0] and s1[0] >= warmup_epochs]


@dataclass(frozen=True)
class TrainSpec:
    scale: Scale
    name: str
    batch: int
    warmup_epochs: int
    twin_epochs: int                                # compiled twin (0: none)
    epochs: Callable[[float], int]                  # seconds -> epochs
    train_windows: Callable[[float], int] | None = None  # seconds -> windows kept
    val_windows: int | None = None


def _train_task(spec: TrainSpec, seed: int, seconds: float):
    windows = spec.train_windows(seconds) if spec.train_windows else None
    return _task(spec.scale, seed, windows, spec.val_windows)


def _fit(spec: TrainSpec, seed: int, seconds: float, clock: StepClock,
         epochs: int | None = None, compile: bool = False, probe=None):
    task = _train_task(spec, seed, seconds)
    model = _model(task, spec.scale, seed, spec.name)
    trainer = Trainer(TrainingConfig(epochs=epochs or spec.epochs(seconds),
                                     batch_size=spec.batch, seed=seed))
    if probe is not None:
        probe.model(model)
        probe.loader(task)
        probe.method(trainer, "validate", "trainer.validate")
        probe.method(Tensor, "backward", "autodiff.backward")
        probe.method(Adam, "step", "optim.step")
        probe.method(trainer_module, "clip_grad_norm", "trainer.clip")
    try:
        history = trainer.fit(model, task, fault_hook=clock, compile=compile)
    except _FirstStep:
        history = None
    return task, trainer, history


def _step_stats(clock: StepClock, spec: TrainSpec, num_train: int):
    """Timed step intervals, their lengths in ms, and samples/s of each step."""
    intervals = clock.intervals(spec.warmup_epochs)
    steps_ms = [(end - start) * 1e3 for start, end, _ in intervals]
    rates = [min(spec.batch, num_train - b * spec.batch) * 1e3 / ms
             for (_, _, b), ms in zip(intervals, steps_ms)]
    return intervals, steps_ms, rates


def _train(spec: TrainSpec, seed: int, seconds: float, trace: bool) -> Result:
    setups = []
    for rep in range(SETUPS):
        started = perf_counter()
        clock = StepClock(stop_at_first=rep < SETUPS - 1)
        task, trainer, history = _fit(spec, seed, seconds, clock)
        setups.append(clock.stamps[0][2] - started)
    _, steps_ms, rates = _step_stats(clock, spec, len(task.train))
    step_p50 = steady_pct(steps_ms, 50, STEPS_PER_RUN)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (_own_peak_mb(), "MB"),
        "throughput_per_s": (pct(rates, 75), "1/s"),
        "latency_ms_p50": (step_p50, "ms"),
        "latency_ms_p90": (steady_pct(steps_ms, 90, STEPS_PER_RUN), "ms"),
    }
    losses = history.train_losses
    details = {"epochs": len(losses), "timed_steps": len(steps_ms),
               "step_ms": {"p50": pct(steps_ms, 50), "p90": pct(steps_ms, 90)},
               "train_losses": losses, "setup_s": setups}
    layers = _layer_defaults()

    twin_losses = None
    if spec.twin_epochs:
        twin_clock = StepClock()
        _, twin_trainer, twin = _fit(spec, seed, seconds, twin_clock,
                                     epochs=spec.twin_epochs, compile=True)
        twin_losses = twin.train_losses
        _, twin_ms, _ = _step_stats(twin_clock, spec, len(task.train))
        stats = twin_trainer.last_engine.stats
        layers["engine.compiled_over_eager"] = (
            steady_pct(twin_ms, 50, STEPS_PER_RUN) / step_p50, "ratio")
        layers["engine.eager_fallbacks"] = (float(stats["eager_steps"]), "count")
        details["engine"] = dict(stats)
    problems = check.check_training(losses, twin_losses)
    result = Result(metrics, attempted=len(clock.stamps), failed=0, problems=problems,
                    layers=layers, details=details)
    if trace:
        _trace_train(spec, seed, seconds, result, losses)
    return result


def _trace_train(spec: TrainSpec, seed: int, seconds: float, result: Result, losses) -> None:
    clock = StepClock()
    probe = tracing.Probe(memory=True)
    collector = SpanCollector().install()
    try:
        task, _, history = _fit(spec, seed, seconds, clock, probe=probe)
    finally:
        collector.close()
        probe.restore()
    intervals, steps_ms, _ = _step_stats(clock, spec, len(task.train))
    if history.train_losses != losses:
        result.problems.append("traced training loss curve differs from the untraced one")
    result.layers.update(tracing.train_layers(
        collector.records, [(s, e) for s, e, _ in intervals], spec.batch))
    _check_coverage(result)
    x, _, t = next(iter(task.loader("train", spec.batch)))
    model = _model(task, spec.scale, seed, spec.name)
    result.layers["autodiff.ops_per_forward"] = (_ops_per_forward([(None, model)], x, t, True), "count")
    untraced = result.metrics["latency_ms_p50"][0]
    result.layers["trace.overhead_frac"] = (
        steady_pct(steps_ms, 50, STEPS_PER_RUN) / untraced - 1.0, "ratio")
    result.spans = collector.records


TRAIN_QUICK = TrainSpec(QUICK, "train-quick", batch=16, warmup_epochs=1, twin_epochs=2,
                        epochs=lambda s: 1 + max(1, round(s / 3)))
# Full scale keeps 4 windows of validation and a few steps per epoch: on a
# 2-vCPU Xeon VM one step takes ~2.2 s and peaks at ~3.5 GB at batch 4.
TRAIN_FULL = TrainSpec(FULL, "train-full", batch=4, warmup_epochs=0, twin_epochs=0,
                       epochs=lambda s: 2, train_windows=lambda s: 4 * max(2, round(s / 3)),
                       val_windows=4)


def train_quick(seed: int, seconds: float, trace: bool = False) -> Result:
    """Quick config, batch 16: one warm-up epoch, then timed epochs, then a
    two-epoch ``compile=True`` twin whose loss curve must match bitwise."""
    return _train(TRAIN_QUICK, seed, seconds, trace)


def train_full(seed: int, seconds: float, trace: bool = False) -> Result:
    """Full config, batch 4, two short epochs; the first step is the warm-up."""
    return _train(TRAIN_FULL, seed, seconds, trace)


# --------------------------------------------------------------------- #
# serving
# --------------------------------------------------------------------- #

OUTSTANDING = 16
MAX_BATCH = 8
QUEUE_DEPTH = 64
# Share of ``seconds`` given to the low-rate, high-rate and closed-loop phases.
PHASE_SPLIT = (0.4, 0.4, 0.2)


def _payload_for(task):
    def payload(window: int, rid: str) -> dict:
        return {"window": task.test.inputs[window],
                "time_index": task.test.time_indices[window], "id": rid}
    return payload


def _drive(target, task, seed: int, seconds: float, rates, traced: bool) -> list:
    """Low rate, high rate (open loop), then saturation (closed loop)."""
    payload = _payload_for(task)
    n = len(task.test)
    low, high = rates
    split = [seconds * f for f in PHASE_SPLIT]
    return [
        loadgen.open_loop(target, payload, "low", low, split[0],
                          named_rng(seed, "arrivals-low"), n, traced),
        loadgen.open_loop(target, payload, "high", high, split[1],
                          named_rng(seed, "arrivals-high"), n, traced),
        loadgen.closed_loop(target, payload, "saturation", OUTSTANDING, split[2],
                            named_rng(seed, "arrivals-closed"), n, traced),
    ]


def _warm_up(target, task, seed: int):
    return loadgen.burst(target, _payload_for(task), "warmup", MAX_BATCH,
                         named_rng(seed, "warmup"), len(task.test))


def _serving_result(phases, setups: list, peak_mb: float, problems: list) -> Result:
    low, high, saturation = phases
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "throughput_per_s": (pct(saturation.round_rates(), 75), "1/s"),
        "latency_ms_p50": (steady_pct(low.latencies(), 50, REQUESTS_PER_RUN[50]), "ms"),
        "latency_ms_p90": (steady_pct(high.latencies(), 90, REQUESTS_PER_RUN[90]), "ms"),
    }
    requests = [r for p in phases for r in p.requests]
    layers = _layer_defaults()
    for outcome in ("fallback", "shed", "rejected"):
        layers[f"requests.{outcome}"] = (float(sum(r.outcome == outcome for r in requests)), "count")
    layers["loadgen.backlog_end"] = (float(sum(p.backlog_end for p in phases)), "count")
    answered = [r for r in requests if r.outcome == "model"]
    client = sum(r.latency_ms for r in answered)
    reported = sum(r.response.latency_ms for r in answered)
    layers["serve.reported_gap_share"] = (100.0 * (client - reported) / max(client, 1e-12), "%")
    details = {"setup_s": setups, "phases": {p.name: _phase_details(p) for p in phases}}
    failed = sum(r.outcome != "model" for r in requests)
    return Result(metrics, attempted=len(requests), failed=failed, problems=problems,
                  layers=layers, details=details)


def _phase_details(phase) -> dict:
    lat = phase.latencies()
    late = [r.late_ms for r in phase.requests]
    return {
        "requests": len(phase.requests), "seconds": phase.seconds,
        "answered_by_model": sum(r.outcome == "model" for r in phase.requests),
        "latency_ms": {"p50": pct(lat, 50), "p90": pct(lat, 90), "p99": pct(lat, 99)},
        "late_ms_p99": pct(late, 99), "backlog_end": phase.backlog_end,
        "round_rate_p75": pct(phase.round_rates(), 75),
    }


SERVE_RATES = (50.0, 400.0)


def serve_open(seed: int, seconds: float, trace: bool = False, model_wrapper=None) -> Result:
    """One ForecastServer (quick config, max_batch 8) driven synchronously.

    ``model_wrapper`` wraps the served model (tests plant wrong answers).
    """
    def start():
        task = _task(QUICK, seed)
        model = _model(task, QUICK, seed, "serve")
        served = model_wrapper(model) if model_wrapper is not None else model
        server = ForecastServer(served, task, queue_depth=QUEUE_DEPTH, max_batch=MAX_BATCH)
        return task, model, server, _warm_up(server, task, seed)

    setups = []
    for _ in range(SETUPS):
        started = perf_counter()
        task, model, server, warm = start()
        setups.append(perf_counter() - started)
    phases = _drive(server, task, seed, seconds, SERVE_RATES, traced=False)
    reference = check.Reference(task, [(None, _model(task, QUICK, seed, "serve"))])
    problems = check.check_requests([warm, *phases], reference)
    result = _serving_result(phases, setups, _own_peak_mb(), problems)
    if trace:
        task, model, server, _ = start()
        probe = tracing.Probe(memory=False)
        probe.model(model)
        probe.method(server_module, "validate_request", "serve.validate")
        _trace_serving(result, server, task, seed, seconds, SERVE_RATES, probe, reference,
                       fleet=False)
        x = task.test.inputs[:1]
        t = task.test.time_indices[:1]
        result.layers["autodiff.ops_per_forward"] = (
            _ops_per_forward(reference.shards, x, t, False), "count")
    return result


def _trace_serving(result: Result, target, task, seed, seconds, rates, probe, reference,
                   fleet: bool) -> None:
    collector = SpanCollector().install()
    try:
        phases = _drive(target, task, seed, seconds, rates, traced=True)
    finally:
        collector.close()
        probe.restore()
    result.problems.extend(check.check_requests(phases, reference))
    requests = [r for p in phases for r in p.requests]
    layers, incomplete = tracing.serve_layers(collector.records, requests, fleet)
    if incomplete:
        result.problems.append(f"{incomplete} traced request(s) without a complete span tree")
    result.layers.update(layers)
    _check_coverage(result)
    traced_p50 = steady_pct(phases[0].latencies(), 50, REQUESTS_PER_RUN[50])
    result.layers["trace.overhead_frac"] = (
        traced_p50 / result.metrics["latency_ms_p50"][0] - 1.0, "ratio")
    result.spans = collector.records


# --------------------------------------------------------------------- #
# fleet
# --------------------------------------------------------------------- #

FLEET_RATES = (40.0, 80.0)


def _replica_factory(seed: int, hook=None, traced: bool = False):
    """Build one replica model; runs inside the forked replica process."""
    def factory(sub_task, shard_id, replica_id):
        model = _model(sub_task, QUICK, seed, f"fleet-shard-{shard_id}")
        if hook is not None:
            hook(model, shard_id, replica_id)
        if traced:
            # Never restored: the probe lives and dies with the replica process.
            tracing.Probe(memory=False).model(model)
        return model
    return factory


def _start_fleet(seed: int, factory):
    task = _task(QUICK, seed)
    adjacency = learned_adjacency(_model(task, QUICK, seed, "fleet-partition"))
    fleet = ForecastFleet(task, factory, num_shards=2, replicas_per_shard=1,
                          queue_depth=QUEUE_DEPTH, max_batch=MAX_BATCH, replica_timeout=5.0,
                          transport="process", adjacency=adjacency)
    return task, fleet


def _stop_fleet(fleet) -> list[str]:
    pids = [rep.server.pid for rep in fleet.replicas]
    fleet.stop()
    return check.check_no_survivors(pids)


def _replica_peak_mb(fleet) -> float:
    total = 0.0
    for rep in fleet.replicas:
        with open(f"/proc/{rep.server.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
    return total


def _frame_bytes(task, partition) -> float:
    """Bytes on the wire for one request: SUBMIT + RESPONSE per shard."""
    total = 0
    for shard_id, nodes in enumerate(partition.shards):
        nodes = np.asarray(nodes)
        rid = f"req/s{shard_id}a0"
        payload = {"window": task.test.inputs[0][:, nodes, :],
                   "time_index": task.test.time_indices[0], "id": rid}
        total += len(encode_frame(FRAME_SUBMIT, {
            "id": rid, "payload": payload, "trace": {"trace_id": "req", "span_id": "s000001"}}))
        response = ForecastResponse(
            request_id=rid, prediction=np.zeros((task.horizon, len(nodes), task.out_dim)),
            model_version="0" * 12)
        total += len(encode_frame(FRAME_RESPONSE, {"response": vars(response), "spans": []}))
    return float(total)


def fleet_open(seed: int, seconds: float, trace: bool = False, replica_hook=None) -> Result:
    """ForecastFleet, 2 shards x 1 replica, each replica its own process.

    ``replica_hook(model, shard_id, replica_id)`` edits a replica's model
    inside its process (tests plant wrong answers).
    """
    factory = _replica_factory(seed, replica_hook)
    setups, problems = [], []
    fleet = None
    for _ in range(SETUPS):
        if fleet is not None:
            problems += _stop_fleet(fleet)
        started = perf_counter()
        task, fleet = _start_fleet(seed, factory)
        warm = _warm_up(fleet, task, seed)
        setups.append(perf_counter() - started)
    try:
        phases = _drive(fleet, task, seed, seconds, FLEET_RATES, traced=False)
        peak_mb = _own_peak_mb() + _replica_peak_mb(fleet)
        counters = fleet.metrics.snapshot()["counters"]
    finally:
        problems += _stop_fleet(fleet)
    clean = _replica_factory(seed)
    shards = [(nodes, clean(task.node_subset(nodes), sid, f"s{sid}r0"))
              for sid, nodes in enumerate(fleet.partition.shards)]
    reference = check.Reference(task, shards)
    problems += check.check_requests([warm, *phases], reference)
    result = _serving_result(phases, setups, peak_mb, problems)
    for name in ("fleet.retries", "fleet.failovers", "fleet.shard_fallbacks", "supervisor.restarts"):
        result.layers[name] = (float(counters.get(name, 0.0)), "count")
    result.layers["proc.frame_bytes_per_request"] = (_frame_bytes(task, fleet.partition), "B")
    if trace:
        task, fleet = _start_fleet(seed, _replica_factory(seed, replica_hook, traced=True))
        try:
            _warm_up(fleet, task, seed)
            probe = tracing.Probe(memory=False)
            probe.method(fleet_module, "validate_request", "serve.validate")
            for rep in fleet.replicas:
                probe.method(rep.server, "submit", "proc.submit_rpc", parent_kwarg="parent_span")
            _trace_serving(result, fleet, task, seed, seconds, FLEET_RATES, probe, reference,
                           fleet=True)
        finally:
            result.problems.extend(_stop_fleet(fleet))
        x = task.test.inputs[:1]
        t = task.test.time_indices[:1]
        result.layers["autodiff.ops_per_forward"] = (_ops_per_forward(shards, x, t, False), "count")
    return result


WORKLOADS = {
    "train_quick": train_quick,
    "train_full": train_full,
    "serve_open": serve_open,
    "fleet_open": fleet_open,
}
