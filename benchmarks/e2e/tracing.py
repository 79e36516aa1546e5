"""Outside-in layer tracing for the traced benchmark run.

:class:`Probe` replaces the public entry points of each layer — instance
methods of the benchmark's own model, trainer, task and replica-client
objects, plus a few class attributes and module functions — with
wrappers that open a :mod:`repro.obs.spans` span around the call.  The
spans land in the same :class:`~repro.obs.spans.SpanCollector` as the
program's own request and step spans (and the spans replica children
ship back), so they nest with them.  With ``memory=True`` each span also
carries the net bytes ``tracemalloc`` saw retained across the call; the
serving workloads trace without it, because under ``tracemalloc`` a
serving round runs about six times slower and the load phases would
measure their own backlog.  :meth:`Probe.restore` puts every original
back.

The functions below turn a span list plus the client-side timestamps of
the step clock and the load generator into per-layer metrics:

* ``*_ms_per_op`` / ``*_mb_per_op``: cost of one model layer per
  operation (a timed training step, or a delivered request), summed over
  every forward those operations ran.  Self time is a span's duration
  minus its direct children.  ``*_per_forward``: calls per forward.
* ``*_share``: the part of each operation's end-to-end time (the step
  interval, or a request's latency from its due time) spent in a layer
  around the model, in percent.  ``trace.coverage`` is the measured
  segments' sum over the measured total; it must stay within 5% of 1.
"""

from __future__ import annotations

import bisect
import tracemalloc
from collections import defaultdict

from repro.obs.spans import finish_span, start_span, use_span

# Span name -> metric prefix of the model's layers.
MODEL_SPANS = {
    "tgcrn.forward": "tgcrn",
    "tgcrn.head": "tgcrn.head",
    "tagsl": "tagsl",
    "time_encoding": "time_encoding",
    "gcgru.cell": "gcgru.cell",
    "gcgru.gate_conv": "gcgru.gate_conv",
    "gcgru.candidate_conv": "gcgru.candidate_conv",
}

# Layers around the model, as tiled by train_layers / serve_layers.
TRAIN_PARTS = ("data.batch", "autodiff.backward", "trainer.clip", "optim.step")
TRAIN_SHARES = (*TRAIN_PARTS, "tgcrn.forward", "trainer.other", "trainer.validate")
SERVE_SHARES = ("loadgen.late", "serve.submit", "serve.validate", "serve.queue_wait",
                "serve.batch_assembly", "tgcrn.forward", "serve.predict", "serve.other",
                "fleet.router", "proc.wire", "proc.submit_rpc")


class Probe:
    """Install span wrappers on layer entry points; undo them all on restore."""

    def __init__(self, memory: bool = True):
        self.memory = memory
        self._undo: list = []
        if memory:
            tracemalloc.start()

    def method(self, owner, attr: str, name: str, parent_kwarg: str | None = None) -> None:
        """Wrap ``owner.attr``: an instance, class or module attribute."""
        own = vars(owner)
        had_own, original = attr in own, own.get(attr)
        setattr(owner, attr, self._wrap(getattr(owner, attr), name, parent_kwarg))

        def undo():
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._undo.append(undo)

    def loader(self, task) -> None:
        """Time every minibatch the task's loaders hand out as ``data.batch``."""
        build = task.loader
        task.loader = lambda *a, **k: TimedLoader(build(*a, **k))
        self._undo.append(lambda: delattr(task, "loader"))

    def model(self, model) -> None:
        """Wrap every layer of a TGCRN instance."""
        self.method(model, "forward", "tgcrn.forward")
        self.method(model.tagsl, "normalized", "tagsl")
        self.method(model.time_encoder, "forward", "time_encoding")
        for cell in [*model.encoder_cells, *model.decoder_cells]:
            self.method(cell, "forward", "gcgru.cell")
            self.method(cell.gate_conv, "forward", "gcgru.gate_conv")
            self.method(cell.candidate_conv, "forward", "gcgru.candidate_conv")
        self.method(model.output_layer, "forward", "tgcrn.head")

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()
        if self.memory and tracemalloc.is_tracing():
            tracemalloc.stop()

    def _wrap(self, fn, name: str, parent_kwarg: str | None):
        memory = self.memory

        def wrapper(*args, **kwargs):
            parent = kwargs.get(parent_kwarg) if parent_kwarg else None
            opened = start_span(name, parent=parent)
            before = tracemalloc.get_traced_memory()[0] if memory else 0
            try:
                with use_span(opened):
                    out = fn(*args, **kwargs)
            except BaseException:
                finish_span(opened, status="error")
                raise
            retained = tracemalloc.get_traced_memory()[0] - before if memory else 0
            finish_span(opened, retained=retained)
            return out

        return wrapper


class TimedLoader:
    """A :class:`~repro.data.loader.DataLoader` whose batches are spans."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __len__(self) -> int:
        return len(self._inner)

    def __iter__(self):
        batches = iter(self._inner)
        while True:
            opened = start_span("data.batch")
            try:
                batch = next(batches)
            except StopIteration:
                finish_span(opened, status="end")
                return
            finish_span(opened)
            yield batch


# --------------------------------------------------------------------- #
# span bookkeeping
# --------------------------------------------------------------------- #


def _dur(record) -> float:
    return record["end"] - record["start"]


def _process(record) -> str:
    """Replica children prefix their span ids with ``replica_id.pid.``."""
    return record["span_id"].rpartition(".")[0]


class SpanIndex:
    """Finished span records indexed by id, parent, trace and name."""

    def __init__(self, records):
        self.spans = [r for r in records if r.get("end") is not None]
        self.by_id = {r["span_id"]: r for r in self.spans}
        self.children = defaultdict(list)
        self.by_trace = defaultdict(list)
        self.by_name = defaultdict(list)
        for r in self.spans:
            if r["parent_id"] is not None:
                self.children[r["parent_id"]].append(r)
            self.by_trace[r["trace_id"]].append(r)
            self.by_name[r["name"]].append(r)
        self._starts = {}
        for name, spans in self.by_name.items():
            spans.sort(key=lambda r: r["start"])
            self._starts[name] = [r["start"] for r in spans]

    def self_time(self, record) -> float:
        return _dur(record) - sum(_dur(c) for c in self.children[record["span_id"]])

    def within(self, name: str, start: float, end: float, process: str | None = None) -> list:
        """Spans called ``name`` lying inside [start, end]."""
        spans = self.by_name.get(name, [])
        first = bisect.bisect_left(self._starts.get(name, []), start)
        out = []
        for r in spans[first:]:
            if r["start"] > end:
                break
            if r["end"] <= end and (process is None or _process(r) == process):
                out.append(r)
        return out

    def overlapping(self, name: str, start: float, end: float) -> list:
        return [r for r in self.by_name.get(name, []) if r["start"] < end and r["end"] > start]

    def child(self, record, name: str):
        return next((c for c in self.children[record["span_id"]] if c["name"] == name), None)


def _union_length(segments) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(segments):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


# --------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------- #


def model_layers(index: SpanIndex, forwards: list, ops: int) -> dict:
    """Cost per operation of each model layer over the given forwards."""
    self_s = defaultdict(float)
    retained = defaultdict(float)
    calls = defaultdict(int)
    stack = list(forwards)
    while stack:
        record = stack.pop()
        name = record["name"]
        if name not in MODEL_SPANS:
            continue
        self_s[name] += index.self_time(record)
        retained[name] += record.get("attrs", {}).get("retained", 0)
        calls[name] += 1
        stack.extend(index.children[record["span_id"]])
    ops = max(ops, 1)
    nfwd = max(len(forwards), 1)
    out = {f"{prefix}.self_ms_per_op": (self_s[name] * 1e3 / ops, "ms")
           for name, prefix in MODEL_SPANS.items()}
    out["tgcrn.forward_ms_per_op"] = (sum(map(_dur, forwards)) * 1e3 / ops, "ms")
    for name in ("tagsl", "gcgru.gate_conv", "gcgru.candidate_conv"):
        out[f"{name}.retained_mb_per_op"] = (retained[name] / ops / 1e6, "MB")
    out["autodiff.retained_mb_per_op"] = (retained["tgcrn.forward"] / ops / 1e6, "MB")
    out["tagsl.calls_per_forward"] = (calls["tagsl"] / nfwd, "count")
    out["time_encoding.calls_per_forward"] = (calls["time_encoding"] / nfwd, "count")
    out["gcgru.conv_calls_per_forward"] = (
        (calls["gcgru.gate_conv"] + calls["gcgru.candidate_conv"]) / nfwd, "count")
    return out


def shares(totals: dict, names, whole: float) -> dict:
    """``<layer>_share`` in percent of ``whole``; 0 for layers not in ``totals``."""
    whole = max(whole, 1e-12)
    return {f"{name}_share": (100.0 * totals.get(name, 0.0) / whole, "%") for name in names}


def train_layers(records, intervals, batch_size: int) -> dict:
    """Per-layer metrics of training steps.

    ``intervals`` are the (start, end) stamps of the timed steps:
    consecutive ``after_backward`` calls within one epoch, so validation
    (between epochs) lies outside every interval.  ``trainer.other`` is
    what the layers leave of the interval: the loss and time-discrepancy
    terms inside the trainer's ``step`` span, plus untraced bookkeeping.
    ``trace.coverage`` is the part of the intervals inside any span.
    """
    index = SpanIndex(records)
    totals = defaultdict(float)
    covered = 0.0
    whole = sum(end - start for start, end in intervals)
    forwards = []
    for start, end in intervals:
        fwd = index.within("tgcrn.forward", start, end)
        forwards.extend(fwd)
        measured = sum(map(_dur, fwd))
        totals["tgcrn.forward"] += measured
        for name in TRAIN_PARTS:
            part = sum(map(_dur, index.within(name, start, end)))
            totals[name] += part
            measured += part
        totals["trainer.other"] += (end - start) - measured
        covered += _union_length(
            (max(r["start"], start), min(r["end"], end))
            for name in ("step", *TRAIN_PARTS) for r in index.overlapping(name, start, end))
    epochs = sum(map(_dur, index.by_name.get("epoch", [])))
    totals["trainer.validate"] = sum(map(_dur, index.by_name.get("trainer.validate", [])))
    out = model_layers(index, forwards, len(intervals))
    out.update(shares(totals, TRAIN_SHARES[:-1], whole))
    out.update(shares(totals, ("trainer.validate",), epochs))
    out["trace.coverage"] = (covered / max(whole, 1e-12), "ratio")
    out["model.batch_size_mean"] = (float(batch_size), "count")
    return out


def serve_layers(records, requests, fleet: bool) -> tuple[dict, int]:
    """Per-layer metrics of model-answered requests; also returns how many
    of them had an incomplete span tree.

    Each request's latency (due time → delivery) is tiled into disjoint
    segments.  Client side: ``loadgen.late`` (due → submit call) and
    ``serve.submit`` (the submit call less ``serve.validate``).  Single
    server: ``serve.queue_wait`` (submit returned → the delivering
    ``process_once`` began), then that call split into
    ``serve.batch_assembly``, ``tgcrn.forward``, ``serve.predict`` (the
    predict stage less the forward) and ``serve.other``.  Fleet:
    ``fleet.router`` (router time before the last-answering shard's
    dispatch and after its answer came back), ``proc.wire`` (that
    dispatch less the replica's request span), then the replica's own
    ``serve.queue_wait`` / ``serve.batch_assembly`` / ``tgcrn.forward`` /
    ``serve.predict`` / ``serve.other``.  ``proc.submit_rpc`` (the router
    blocked in SUBMIT→ACK, both shards) overlaps the wire and replica
    segments and is reported beside them, outside the tiling.
    """
    index = SpanIndex(records)
    totals = defaultdict(float)
    forwards = {}
    whole = covered = 0.0
    answered = [r for r in requests if r.outcome == "model"]
    incomplete = 0
    for req in answered:
        trace = index.by_trace.get(req.rid, [])
        validate = sum(_dur(r) for r in trace if r["name"] == "serve.validate")
        seg = {
            "loadgen.late": req.submit_start - req.due,
            "serve.validate": validate,
            "serve.submit": (req.submit_end - req.submit_start) - validate,
        }
        if fleet:
            dispatches = [r for r in trace if r["name"] == "dispatch" and r["status"] == "ok"]
            crit = max(dispatches, key=lambda r: r["end"], default=None)
            request_span = crit and index.child(crit, "request")
            if request_span is None:
                incomplete += 1
                continue
            seg["fleet.router"] = (crit["start"] - req.submit_end) + (req.delivered - crit["end"])
            seg["proc.wire"] = _dur(crit) - _dur(request_span)
            queue = index.child(request_span, "queue_wait")
            seg["serve.queue_wait"] = _dur(queue) if queue is not None else 0.0
            outer = _dur(request_span) - seg["serve.queue_wait"]
            totals["proc.submit_rpc"] += sum(
                _dur(r) for r in trace if r["name"] == "proc.submit_rpc")
        else:
            request_span = next((r for r in trace if r["name"] == "request"), None)
            if request_span is None:
                incomplete += 1
                continue
            seg["serve.queue_wait"] = req.pump_start - req.submit_end
            outer = req.delivered - req.pump_start
        predict = index.child(request_span, "predict")
        if predict is None:
            incomplete += 1
            continue
        assembly = index.child(request_span, "batch_assembly")
        fwd = index.within("tgcrn.forward", predict["start"], predict["end"],
                           _process(predict) if fleet else None)
        for f in fwd:
            forwards[f["span_id"]] = f
        seg["tgcrn.forward"] = sum(map(_dur, fwd))
        seg["serve.batch_assembly"] = _dur(assembly) if assembly is not None else 0.0
        seg["serve.predict"] = _dur(predict) - seg["tgcrn.forward"]
        seg["serve.other"] = outer - seg["serve.batch_assembly"] - _dur(predict)
        for name, value in seg.items():
            totals[name] += value
        whole += req.delivered - req.due
        covered += sum(seg.values())
    forward_list = list(forwards.values())
    out = model_layers(index, forward_list, len(answered) - incomplete)
    out.update(shares(totals, SERVE_SHARES, whole))
    out["trace.coverage"] = (covered / max(whole, 1e-12), "ratio")
    batches = []
    for f in forward_list:
        predict = index.by_id.get(f["parent_id"])
        if predict is not None and "batch" in predict.get("attrs", {}):
            batches.append(predict["attrs"]["batch"])
    out["model.batch_size_mean"] = (sum(batches) / max(len(batches), 1), "count")
    return out, incomplete
