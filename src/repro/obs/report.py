"""Post-hoc span analysis and the perf-regression sentinel.

Consumes the JSONL stream a :class:`~repro.obs.spans.SpanCollector`
writes and answers the questions a trace viewer can't be scripted to:

* **tree assembly** — group span records by ``trace_id`` and rebuild the
  parent/child forest (:func:`assemble_traces`);
* **completeness** — did every completed request produce one single-rooted
  tree with the stages the serving path promises (admission →
  queue_wait → predict/fallback), no orphans, nothing left unfinished
  (:func:`check_request_traces`)?
* **latency breakdown** — per-stage p50/p95/p99 across every trace
  (:func:`stage_breakdown`) and the critical path of any single tree
  (:func:`critical_path`);
* **perf regression** — a noise-aware comparison of a fresh
  ``table8_cost`` experiment against the committed
  ``benchmarks/results/table8_cost.json`` (:func:`check_bench_regression`).

The sentinel's noise model: per-model epoch times are normalized by the
geometric mean across the models *common to both runs*, which cancels
any uniform machine-speed difference (a slower CI runner shifts every
model equally, so every normalized ratio stays ~1).  Only a *relative*
slowdown of one model against its peers — the signature of a real code
regression — moves its ratio toward the threshold.

Surfaced on the command line as ``python -m repro.cli obs-report``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .metrics import Histogram, read_jsonl

__all__ = [
    "RegressionFinding",
    "TraceCheck",
    "TraceNode",
    "TraceTree",
    "assemble_traces",
    "check_bench_regression",
    "check_fleet_traces",
    "check_request_traces",
    "critical_path",
    "load_spans",
    "render_report",
    "stage_breakdown",
]


# --------------------------------------------------------------------- #
# tree assembly
# --------------------------------------------------------------------- #


@dataclass
class TraceNode:
    """One span record plus its resolved children."""

    record: dict
    children: list["TraceNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.record.get("name", "?")

    @property
    def span_id(self) -> str:
        return self.record.get("span_id", "?")

    @property
    def status(self) -> str:
        return self.record.get("status", "ok")

    @property
    def duration_ms(self) -> float | None:
        return self.record.get("duration_ms")

    @property
    def finished(self) -> bool:
        return (self.record.get("end") is not None
                and self.status != "unfinished")


@dataclass
class TraceTree:
    """Every span sharing one ``trace_id``, assembled into a forest.

    A healthy trace has exactly one root; ``orphans`` holds nodes whose
    ``parent_id`` never appeared in the stream (a broken handoff).
    """

    trace_id: str
    roots: list[TraceNode] = field(default_factory=list)
    orphans: list[TraceNode] = field(default_factory=list)
    nodes: dict = field(default_factory=dict)

    @property
    def root(self) -> TraceNode | None:
        return self.roots[0] if self.roots else None

    @property
    def span_count(self) -> int:
        return len(self.nodes)

    def walk(self):
        """Every node, depth-first from the roots, then orphans."""
        stack = list(reversed(self.roots + self.orphans))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def unfinished(self) -> list[TraceNode]:
        return [n for n in self.walk() if not n.finished]


def load_spans(path) -> list[dict]:
    """Span records (``event == "span"``) from a JSONL file.

    Tolerates mixed streams: a run log that interleaves epoch records
    with span records yields only the spans.
    """
    return [r for r in read_jsonl(path) if r.get("event") == "span"]


def assemble_traces(records) -> dict[str, TraceTree]:
    """Group span records by ``trace_id`` and rebuild parent links."""
    trees: dict[str, TraceTree] = {}
    for record in records:
        if record.get("event") != "span":
            continue
        trace_id = str(record.get("trace_id"))
        tree = trees.setdefault(trace_id, TraceTree(trace_id=trace_id))
        tree.nodes[record.get("span_id")] = TraceNode(record)
    for tree in trees.values():
        for node in tree.nodes.values():
            parent_id = node.record.get("parent_id")
            if parent_id is None:
                tree.roots.append(node)
            elif parent_id in tree.nodes:
                tree.nodes[parent_id].children.append(node)
            else:
                tree.orphans.append(node)
        # Stable order: children sorted by start time, roots likewise.
        for node in tree.nodes.values():
            node.children.sort(key=lambda n: n.record.get("start") or 0.0)
        tree.roots.sort(key=lambda n: n.record.get("start") or 0.0)
    return trees


# --------------------------------------------------------------------- #
# completeness
# --------------------------------------------------------------------- #

# What a ForecastServer request tree must contain, by root status.
_REQUIRED_STAGES = {
    "ok": ({"admission", "queue_wait"}, ("predict", "fallback")),
    "degraded": ({"admission", "queue_wait"}, ("predict", "fallback")),
    "shed": ({"admission"}, ()),
    "rejected": ({"admission"}, ()),
}


@dataclass
class TraceCheck:
    """Verdict of :func:`check_request_traces` over a span stream."""

    total: int = 0
    complete: int = 0
    incomplete: list = field(default_factory=list)  # {"trace_id", "reasons"}
    orphan_spans: int = 0
    unfinished_spans: int = 0
    other_traces: int = 0  # trees not rooted at a "request" span

    @property
    def ok(self) -> bool:
        return not self.incomplete

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "complete": self.complete,
            "incomplete": list(self.incomplete),
            "orphan_spans": self.orphan_spans,
            "unfinished_spans": self.unfinished_spans,
            "other_traces": self.other_traces,
            "ok": self.ok,
        }


def _structural_reasons(tree: TraceTree, check: TraceCheck) -> list[str]:
    """Shape defects shared by every trace kind (roots/orphans/closure)."""
    reasons = []
    if len(tree.roots) != 1:
        reasons.append(f"multi_root:{len(tree.roots)}")
    if tree.orphans:
        reasons.append(f"orphan_spans:{len(tree.orphans)}")
        check.orphan_spans += len(tree.orphans)
    unfinished = tree.unfinished()
    if unfinished:
        reasons.append(
            "unfinished:" + ",".join(sorted(n.name for n in unfinished)))
        check.unfinished_spans += len(unfinished)
    return reasons


def check_request_traces(trees) -> TraceCheck:
    """Verify every request trace is single-rooted, closed, and staged.

    A tree counts as a *request trace* when any root span is named
    ``"request"``.  Requirements scale with the root's outcome: an
    answered request (``ok``/``degraded``) must show admission,
    queue_wait, and a predict or fallback stage; shed and rejected
    requests only owe the stages they reached.
    """
    check = TraceCheck()
    for tree in trees.values():
        if not any(r.name == "request" for r in tree.roots):
            check.other_traces += 1
            continue
        check.total += 1
        reasons = _structural_reasons(tree, check)
        root = next(r for r in tree.roots if r.name == "request")
        required, alternatives = _REQUIRED_STAGES.get(
            root.status, (set(), ()))
        stages = {child.name for child in root.children}
        missing = required - stages
        if missing:
            reasons.append("missing_stages:" + ",".join(sorted(missing)))
        if alternatives and not any(alt in stages for alt in alternatives):
            reasons.append("missing_stages:" + "|".join(alternatives))
        if reasons:
            check.incomplete.append(
                {"trace_id": tree.trace_id, "reasons": reasons})
        else:
            check.complete += 1
    return check


# What a ForecastFleet request tree must contain, by root status.  An
# answered request must show the admission gate, at least one dispatch
# to a replica, and the final gather; sheds and rejections only owe the
# stages they reached (a backpressure shed never dispatches).
_FLEET_REQUIRED_STAGES = {
    "ok": {"admission", "dispatch", "gather"},
    "degraded": {"admission", "dispatch", "gather"},
    "shed": {"admission"},
    "rejected": {"admission"},
}


def check_fleet_traces(trees) -> TraceCheck:
    """Verify fleet traces show the full router → replica causal path.

    A tree counts as a *fleet trace* when any root span is named
    ``"fleet_request"``.  On top of the structural checks shared with
    :func:`check_request_traces`, an answered fleet request must contain
    admission, at least one ``dispatch``, and a ``gather`` — and every
    dispatch that completed ``ok`` must hold the replica's nested
    ``request`` subtree (the handoff span actually crossed the router →
    replica boundary; a missing child means the causal link was
    dropped).  Dispatches that ended in error/timeout/supersession owe
    no subtree — the replica may never have seen them.
    """
    check = TraceCheck()
    for tree in trees.values():
        if not any(r.name == "fleet_request" for r in tree.roots):
            check.other_traces += 1
            continue
        check.total += 1
        reasons = _structural_reasons(tree, check)
        root = next(r for r in tree.roots if r.name == "fleet_request")
        required = _FLEET_REQUIRED_STAGES.get(root.status, set())
        stages = {child.name for child in root.children}
        missing = required - stages
        if missing:
            reasons.append("missing_stages:" + ",".join(sorted(missing)))
        unlinked = [
            d for d in root.children
            if d.name == "dispatch" and d.status == "ok"
            and not any(c.name == "request" for c in d.children)
        ]
        if unlinked:
            reasons.append(f"dispatch_without_replica_request:{len(unlinked)}")
        if reasons:
            check.incomplete.append(
                {"trace_id": tree.trace_id, "reasons": reasons})
        else:
            check.complete += 1
    return check


# --------------------------------------------------------------------- #
# latency breakdown + critical path
# --------------------------------------------------------------------- #


def stage_breakdown(trees, sample_size: int = 4096) -> dict:
    """Per-span-name latency summary (count/mean/p50/p95/p99, in ms)."""
    histograms: dict[str, Histogram] = {}
    for tree in trees.values():
        for node in tree.walk():
            duration = node.duration_ms
            if duration is None:
                continue
            histograms.setdefault(
                node.name, Histogram(sample_size=sample_size)).observe(duration)
    return {
        name: {"count": h.count, "mean": h.mean, **h.percentiles()}
        for name, h in sorted(histograms.items())
    }


def critical_path(node: TraceNode) -> list[dict]:
    """Longest-duration chain from ``node`` down to a leaf."""
    path = []
    current: TraceNode | None = node
    while current is not None:
        path.append({"name": current.name, "span_id": current.span_id,
                     "duration_ms": current.duration_ms,
                     "status": current.status})
        timed = [c for c in current.children if c.duration_ms is not None]
        current = max(timed, key=lambda c: c.duration_ms) if timed else None
    return path


def slowest_request(trees) -> TraceTree | None:
    """The request trace with the longest root duration (or None)."""
    candidates = [
        t for t in trees.values()
        if t.root is not None and t.root.name == "request"
        and t.root.duration_ms is not None
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda t: t.root.duration_ms)


def render_report(trees, check: TraceCheck, breakdown: dict) -> str:
    """Human-readable span report: completeness, stage table, slow path."""
    lines = [
        f"traces: {len(trees)} ({check.total} request, "
        f"{check.other_traces} other)  "
        f"complete: {check.complete}/{check.total}"
    ]
    if check.incomplete:
        for entry in check.incomplete[:8]:
            lines.append(f"  INCOMPLETE {entry['trace_id']}: "
                         + "; ".join(entry["reasons"]))
        if len(check.incomplete) > 8:
            lines.append(f"  ... and {len(check.incomplete) - 8} more")
    if breakdown:
        lines.append("")
        lines.append(f"{'stage':<16} {'count':>6} {'mean':>10} "
                     f"{'p50':>10} {'p95':>10} {'p99':>10}")
        for name, stats in breakdown.items():
            lines.append(
                f"{name:<16} {stats['count']:>6d} {stats['mean']:>8.2f}ms "
                f"{stats['p50']:>8.2f}ms {stats['p95']:>8.2f}ms "
                f"{stats['p99']:>8.2f}ms")
    slowest = slowest_request(trees)
    if slowest is not None and slowest.root is not None:
        chain = critical_path(slowest.root)
        rendered = " -> ".join(
            f"{hop['name']} {hop['duration_ms']:.2f}ms" for hop in chain
            if hop["duration_ms"] is not None)
        lines.append("")
        lines.append(f"critical path (slowest request {slowest.trace_id}): "
                     f"{rendered}")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# perf-regression sentinel
# --------------------------------------------------------------------- #


@dataclass
class RegressionFinding:
    """One sentinel verdict: a model's relative cost vs history."""

    kind: str                 # "per_model" | "coverage"
    subject: str
    verdict: str              # "ok" | "regression" | "improvement" | "missing"
    ratio: float | None = None
    current: float | None = None
    history: float | None = None
    detail: str = ""

    @property
    def is_regression(self) -> bool:
        return self.verdict == "regression"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "subject": self.subject,
                "verdict": self.verdict, "ratio": self.ratio,
                "current": self.current, "history": self.history,
                "detail": self.detail}


def _geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 1.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _bench_data(payload: dict) -> dict:
    """Accept either a saved artifact ({"data": ...}) or bare data."""
    return payload.get("data", payload)


def check_bench_regression(
    current: dict,
    history: dict,
    *,
    threshold: float = 2.0,
) -> list[RegressionFinding]:
    """Compare a fresh bench run against history, machine-speed invariant.

    Per-model epoch seconds are divided by the geometric mean across the
    models common to both runs before comparing, so a uniformly faster or
    slower machine cancels out; a model whose *normalized* cost grew by
    ``threshold``× is flagged.  With six models, a planted 3× slowdown in
    one model lands at ~2.5× normalized (the slowdown inflates the mean
    by 3^(1/6)) while ±20% per-model noise stays near 1×.

    With fewer than two common models, normalization would cancel the
    signal entirely, so the raw ratio is used (noted in ``detail``).
    """
    cur = _bench_data(current)
    hist = _bench_data(history)
    cur_seconds = dict(cur.get("seconds_per_epoch", {}))
    hist_seconds = dict(hist.get("seconds_per_epoch", {}))
    findings: list[RegressionFinding] = []

    for name in sorted(set(hist_seconds) - set(cur_seconds)):
        findings.append(RegressionFinding(
            kind="coverage", subject=name, verdict="missing",
            history=hist_seconds[name],
            detail="model present in history but absent from the fresh run"))

    common = sorted(set(cur_seconds) & set(hist_seconds))
    if common:
        normalized = len(common) >= 2
        cur_gm = _geomean([cur_seconds[m] for m in common]) if normalized else 1.0
        hist_gm = _geomean([hist_seconds[m] for m in common]) if normalized else 1.0
        for name in common:
            cur_v, hist_v = cur_seconds[name], hist_seconds[name]
            if cur_v <= 0 or hist_v <= 0:
                continue
            ratio = (cur_v / cur_gm) / (hist_v / hist_gm)
            if ratio >= threshold:
                verdict = "regression"
            elif ratio <= 1.0 / threshold:
                verdict = "improvement"
            else:
                verdict = "ok"
            findings.append(RegressionFinding(
                kind="per_model", subject=name, verdict=verdict, ratio=ratio,
                current=cur_v, history=hist_v,
                detail=("normalized by run geometric mean" if normalized
                        else "raw ratio (single common model)")))
    return findings


def render_regressions(findings) -> str:
    """One line per finding, regressions first."""
    if not findings:
        return "bench sentinel: nothing to compare"
    ordered = sorted(findings, key=lambda f: f.verdict != "regression")
    lines = [f"{'verdict':<12} {'kind':<10} {'subject':<28} "
             f"{'ratio':>7} {'current':>10} {'history':>10}"]
    for f in ordered:
        ratio = f"{f.ratio:.2f}x" if f.ratio is not None else "-"
        cur = f"{f.current:.4f}" if f.current is not None else "-"
        hist = f"{f.history:.4f}" if f.history is not None else "-"
        lines.append(f"{f.verdict:<12} {f.kind:<10} {f.subject:<28} "
                     f"{ratio:>7} {cur:>10} {hist:>10}")
    regressions = sum(1 for f in findings if f.is_regression)
    lines.append("")
    lines.append(f"bench sentinel: {regressions} regression(s) across "
                 f"{len(findings)} check(s)")
    return "\n".join(lines)
