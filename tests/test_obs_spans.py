"""Causal span tracing: propagation, handoffs, collection, server trees.

Covers the two propagation mechanisms (contextvars on one thread,
explicit ``Span`` capture across thread handoffs), the strict no-op
contract when nothing is collecting, unfinished/orphan evidence, the
Chrome-trace merge, and — end to end — that a threaded
:class:`~repro.serve.ForecastServer` produces one complete single-rooted
tree per request, which ``obs-report --fail-on incomplete`` accepts.
"""

import json
import threading

import pytest

from repro.cli import main
from repro.core import TGCRN
from repro.obs import (
    SpanCollector,
    collect_spans,
    current_span,
    finish_span,
    is_collecting,
    span,
    start_span,
    use_span,
)
from repro.obs.report import assemble_traces, check_request_traces
from repro.serve import CircuitBreaker, ForecastServer
from repro.training import default_tgcrn_kwargs
from repro.verify import named_rng


def _records(collector, name=None):
    if name is None:
        return collector.records
    return [r for r in collector.records if r["name"] == name]


class TestNoCollector:
    def test_everything_is_a_noop_without_a_collector(self):
        assert not is_collecting()
        opened = start_span("orphan")
        assert opened is None
        finish_span(opened)  # must not raise
        with span("block") as s:
            assert s is None
        with use_span(None) as s:
            assert s is None
        assert current_span() is None


class TestContextvarPropagation:
    def test_span_blocks_nest_into_one_tree(self):
        with collect_spans() as collector:
            with span("fit") as fit:
                with span("epoch") as epoch:
                    child = start_span("step")
                    finish_span(child, loss=0.5)
            (step,) = _records(collector, "step")
            (ep,) = _records(collector, "epoch")
            (root,) = _records(collector, "fit")
        assert step["parent_id"] == epoch.span_id
        assert ep["parent_id"] == fit.span_id
        assert root["parent_id"] is None
        assert step["trace_id"] == ep["trace_id"] == root["trace_id"]
        assert step["attrs"] == {"loss": 0.5}

    def test_explicit_parent_beats_contextvar_and_inherit_false_roots(self):
        with collect_spans():
            with span("outer") as outer:
                with span("inner"):
                    adopted = start_span("adopted", parent=outer)
                    fresh = start_span("fresh", inherit=False)
            finish_span(adopted)
            finish_span(fresh)
        assert adopted.parent_id == outer.span_id
        assert fresh.parent_id is None
        assert fresh.trace_id == fresh.span_id

    def test_exception_marks_span_error_and_restores_current(self):
        with collect_spans() as collector:
            with pytest.raises(ValueError):
                with span("doomed"):
                    raise ValueError("boom")
            assert current_span() is None
            (rec,) = _records(collector, "doomed")
        assert rec["status"] == "error"
        assert rec["end"] is not None

    def test_finish_is_idempotent(self):
        with collect_spans() as collector:
            opened = start_span("once")
            finish_span(opened, at=opened.start + 1.0)
            finish_span(opened, at=opened.start + 99.0, status="error")
        (rec,) = collector.records
        assert rec["duration_ms"] == pytest.approx(1000.0)
        assert rec["status"] == "ok"


class TestThreadHandoff:
    def test_contextvars_do_not_cross_threads_but_captured_spans_do(self):
        seen = {}

        def worker(captured):
            # contextvar did NOT flow to this thread...
            seen["inherited"] = current_span()
            # ...but resuming the captured Span restores causality.
            with use_span(captured):
                child = start_span("stage")
                finish_span(child)
                seen["child"] = child

        with collect_spans():
            root = start_span("request", trace_id="req-x")
            t = threading.Thread(target=worker, args=(root,), name="hand-off")
            t.start()
            t.join()
            finish_span(root)

        assert seen["inherited"] is None
        assert seen["child"].parent_id == root.span_id
        assert seen["child"].trace_id == "req-x"
        assert seen["child"].thread == "hand-off"
        assert root.thread != "hand-off"

    def test_use_span_restores_previous_current_on_exit(self):
        with collect_spans():
            with span("outer") as outer:
                detached = start_span("detached", inherit=False)
                with use_span(detached):
                    assert current_span() is detached
                assert current_span() is outer
                finish_span(detached)


class TestCollector:
    def test_close_flushes_open_spans_as_unfinished(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        collector = SpanCollector(path=path).install()
        done = start_span("done")
        finish_span(done)
        start_span("leaked")  # never finished — simulated crash
        collector.close()

        from repro.obs.report import load_spans

        records = {r["name"]: r for r in load_spans(path)}
        assert records["done"]["status"] == "ok"
        assert records["leaked"]["status"] == "unfinished"
        assert records["leaked"]["end"] is None

    def test_chrome_events_align_to_origin_and_skip_unfinished(self):
        with collect_spans() as collector:
            opened = start_span("work", at=10.0)
            finish_span(opened, at=10.005)
            start_span("leak", at=10.0)
        events = collector.chrome_events(origin=10.0)
        (event,) = events  # unfinished span excluded
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(0.0)
        assert event["dur"] == pytest.approx(5000.0)  # microseconds
        assert event["args"]["trace_id"] == opened.trace_id

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            SpanCollector(path=None, mode="x")


class TestOrphanDetection:
    def test_missing_parent_surfaces_as_orphan(self):
        with collect_spans() as collector:
            root = start_span("request", trace_id="req-1")
            child = start_span("stage", parent=root)
            finish_span(child)
            finish_span(root)
        records = list(collector.records)
        # Drop the root from the stream: the child's parent never appears.
        broken = [r for r in records if r["name"] != "request"]
        trees = assemble_traces(broken)
        tree = trees["req-1"]
        assert tree.roots == []
        assert [n.name for n in tree.orphans] == ["stage"]


class TestServerSpans:
    """End to end: the threaded serving path emits complete trees."""

    @pytest.fixture
    def threaded_server(self, tiny_task):
        model = TGCRN(
            **default_tgcrn_kwargs(
                tiny_task, hidden_dim=4, node_dim=3, time_dim=3, num_layers=1),
            rng=named_rng(3, "span-server"),
        )
        server = ForecastServer(
            model, tiny_task, queue_depth=16, max_batch=4,
            breaker=CircuitBreaker(failure_threshold=3, cooldown=10.0),
        )
        yield server
        server.stop(drain=False)

    def test_worker_thread_requests_form_complete_trees(
            self, tiny_task, threaded_server, tmp_path):
        spans_path = tmp_path / "spans.jsonl"
        collector = SpanCollector(path=spans_path).install()
        try:
            threaded_server.start(poll_interval=0.002)
            for i in range(8):
                j = i % len(tiny_task.test)
                threaded_server.submit({
                    "window": tiny_task.test.inputs[j],
                    "time_index": tiny_task.test.time_indices[j],
                    "id": f"req-{i}",
                })
            threaded_server.stop(drain=True)
        finally:
            collector.close()

        trees = assemble_traces(collector.records)
        check = check_request_traces(trees)
        assert check.total == 8
        assert check.ok, check.to_dict()
        assert check.orphan_spans == 0 and check.unfinished_spans == 0
        # Submission happened here; the stages ran on the worker thread —
        # the tree is stitched across that handoff.
        threads = {r["thread"] for r in collector.records}
        assert len(threads) >= 2, threads
        tree = trees["req-0"]
        stages = {c.name for c in tree.root.children}
        assert {"admission", "queue_wait"} <= stages
        assert "predict" in stages or "fallback" in stages

        # The same stream read back from disk through the obs-report CLI.
        report_path = tmp_path / "obs-report.json"
        assert main(["obs-report", "--spans", str(spans_path), "--out", str(report_path),
                     "--fail-on", "incomplete", "--quiet"]) == 0
        report = json.loads(report_path.read_text())["spans"]
        assert report["check"]["complete"] == 8 and report["check"]["ok"]
        assert {"queue_wait", "predict"} <= set(report["stages"])

    def test_rejected_submission_still_closes_its_tree(
            self, tiny_task, threaded_server):
        with collect_spans() as collector:
            with pytest.raises(Exception):
                threaded_server.submit({"id": "bad-1"})  # no window
        trees = assemble_traces(collector.records)
        check = check_request_traces(trees)
        assert check.total == 1 and check.ok, check.to_dict()
        (tree,) = trees.values()
        assert tree.root.status == "rejected"
