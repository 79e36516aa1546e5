"""Span-report analysis and the noise-aware perf-regression sentinel.

Trace records are hand-built dicts (the JSONL schema, not live spans),
so assembly, completeness verdicts, breakdowns, and critical paths are
exercised on exactly known shapes; the sentinel half plants a 3× slowdown
(must flag) and a uniformly-slower noisy machine (must not).
"""

import json

import pytest

from repro.obs.report import (
    assemble_traces,
    check_bench_regression,
    check_fleet_traces,
    check_request_traces,
    critical_path,
    load_spans,
    render_regressions,
    render_report,
    slowest_request,
    stage_breakdown,
)


def _rec(name, trace_id, span_id, parent_id=None, start=0.0, dur=1.0,
         status="ok", **extra):
    end = None if dur is None else start + dur
    return {
        "event": "span", "name": name, "trace_id": trace_id,
        "span_id": span_id, "parent_id": parent_id, "start": start,
        "end": end, "duration_ms": None if dur is None else dur * 1e3,
        "status": status, "thread": "t", **extra,
    }


def _request(trace_id, base, status="ok", stage="predict", stage_dur=0.03):
    """A complete serving trace: request → admission/queue_wait/stage."""
    sid = trace_id
    return [
        _rec("request", trace_id, f"{sid}-root", start=base, dur=0.05,
             status=status),
        _rec("admission", trace_id, f"{sid}-adm", f"{sid}-root",
             start=base, dur=0.001),
        _rec("queue_wait", trace_id, f"{sid}-q", f"{sid}-root",
             start=base + 0.001, dur=0.01),
        _rec(stage, trace_id, f"{sid}-st", f"{sid}-root",
             start=base + 0.015, dur=stage_dur),
    ]


class TestAssembly:
    def test_records_group_by_trace_and_children_sort_by_start(self):
        records = _request("req-0", 0.0) + _request("req-1", 1.0)
        trees = assemble_traces(records)
        assert set(trees) == {"req-0", "req-1"}
        tree = trees["req-0"]
        assert tree.root.name == "request" and len(tree.roots) == 1
        assert [c.name for c in tree.root.children] \
            == ["admission", "queue_wait", "predict"]
        assert tree.span_count == 4

    def test_walk_is_depth_first(self):
        records = _request("req-0", 0.0)
        records.append(_rec("engine_replay", "req-0", "req-0-rep",
                            "req-0-st", start=0.016, dur=0.02))
        (tree,) = assemble_traces(records).values()
        names = [n.name for n in tree.walk()]
        assert names.index("engine_replay") == names.index("predict") + 1

    def test_non_span_records_are_ignored(self):
        records = _request("req-0", 0.0) + [{"event": "epoch", "loss": 1.0}]
        trees = assemble_traces(records)
        assert trees["req-0"].span_count == 4


class TestCompleteness:
    def test_complete_ok_and_fallback_traces_pass(self):
        records = (_request("req-0", 0.0)
                   + _request("req-1", 1.0, status="degraded",
                              stage="fallback"))
        check = check_request_traces(assemble_traces(records))
        assert check.total == 2 and check.complete == 2 and check.ok

    def test_shed_trace_only_owes_admission(self):
        records = [
            _rec("request", "req-s", "s-root", start=0.0, dur=0.02,
                 status="shed"),
            _rec("admission", "req-s", "s-adm", "s-root", dur=0.001),
            _rec("queue_wait", "req-s", "s-q", "s-root", dur=0.01,
                 status="shed"),
        ]
        check = check_request_traces(assemble_traces(records))
        assert check.ok and check.complete == 1

    def test_missing_stage_orphan_and_unfinished_are_reported(self):
        records = _request("req-0", 0.0)
        records = [r for r in records if r["name"] != "queue_wait"]
        records.append(_rec("lost", "req-0", "x-lost", "never-seen",
                            dur=0.01))
        records.append(_rec("leak", "req-0", "x-leak", "req-0-root",
                            dur=None, status="unfinished"))
        check = check_request_traces(assemble_traces(records))
        assert not check.ok
        (entry,) = check.incomplete
        reasons = ";".join(entry["reasons"])
        assert "missing_stages:queue_wait" in reasons
        assert "orphan_spans:1" in reasons and "unfinished:leak" in reasons
        assert check.orphan_spans == 1 and check.unfinished_spans == 1

    def test_answered_request_without_predict_or_fallback_fails(self):
        records = [r for r in _request("req-0", 0.0)
                   if r["name"] != "predict"]
        check = check_request_traces(assemble_traces(records))
        (entry,) = check.incomplete
        assert "missing_stages:predict|fallback" in entry["reasons"]

    def test_non_request_trees_counted_separately(self):
        records = _request("req-0", 0.0)
        records.append(_rec("fit", "train-1", "f1", dur=2.0))
        check = check_request_traces(assemble_traces(records))
        assert check.total == 1 and check.other_traces == 1


def _fleet_request(trace_id, base=0.0, status="ok", with_replica=True):
    """A complete fleet trace: fleet_request → admission/dispatch/gather,
    with the replica's nested request subtree hanging off the dispatch."""
    sid = trace_id
    records = [
        _rec("fleet_request", trace_id, f"{sid}-root", start=base, dur=0.1,
             status=status),
        _rec("admission", trace_id, f"{sid}-adm", f"{sid}-root",
             start=base, dur=0.001),
        _rec("dispatch", trace_id, f"{sid}-d0", f"{sid}-root",
             start=base + 0.002, dur=0.05),
        _rec("gather", trace_id, f"{sid}-g", f"{sid}-root",
             start=base + 0.08, dur=0.001),
    ]
    if with_replica:
        records.append(_rec("request", trace_id, f"{sid}-rep", f"{sid}-d0",
                            start=base + 0.003, dur=0.04))
    return records


class TestFleetCompleteness:
    def test_complete_fleet_trace_passes(self):
        check = check_fleet_traces(assemble_traces(_fleet_request("f-0")))
        assert check.ok and check.total == 1 and check.complete == 1

    def test_ok_dispatch_must_hold_the_replica_subtree(self):
        records = _fleet_request("f-0", with_replica=False)
        check = check_fleet_traces(assemble_traces(records))
        (entry,) = check.incomplete
        assert "dispatch_without_replica_request:1" in entry["reasons"]

    def test_failed_dispatch_owes_no_replica_subtree(self):
        # An errored handoff never reached the replica — a missing child
        # subtree is expected, not a broken causal link.
        records = _fleet_request("f-0")
        records.append(_rec("dispatch", "f-0", "f-0-d1", "f-0-root",
                            start=0.06, dur=0.01, status="error"))
        check = check_fleet_traces(assemble_traces(records))
        assert check.ok and check.complete == 1

    def test_shed_fleet_request_only_owes_admission(self):
        records = [
            _rec("fleet_request", "f-s", "fs-root", dur=0.02, status="shed"),
            _rec("admission", "f-s", "fs-adm", "fs-root", dur=0.001),
        ]
        check = check_fleet_traces(assemble_traces(records))
        assert check.ok and check.complete == 1

    def test_answered_fleet_request_missing_gather_fails(self):
        records = [r for r in _fleet_request("f-0") if r["name"] != "gather"]
        check = check_fleet_traces(assemble_traces(records))
        (entry,) = check.incomplete
        assert "missing_stages:gather" in ";".join(entry["reasons"])

    def test_server_traces_counted_as_other(self):
        records = _fleet_request("f-0") + _request("req-0", 5.0)
        check = check_fleet_traces(assemble_traces(records))
        assert check.total == 1 and check.other_traces == 1


class TestBreakdownAndPaths:
    def test_stage_breakdown_reports_percentiles_in_ms(self):
        records = []
        for i in range(10):
            records.extend(_request(f"req-{i}", float(i),
                                    stage_dur=0.01 * (i + 1)))
        breakdown = stage_breakdown(assemble_traces(records))
        predict = breakdown["predict"]
        assert predict["count"] == 10
        assert predict["p50"] == pytest.approx(55.0)  # ms, midpoint
        assert predict["p99"] <= 100.0
        assert set(predict) == {"count", "mean", "p50", "p95", "p99"}

    def test_critical_path_descends_into_the_slowest_child(self):
        records = _request("req-0", 0.0)
        records.append(_rec("engine_replay", "req-0", "rep", "req-0-st",
                            start=0.016, dur=0.02))
        (tree,) = assemble_traces(records).values()
        names = [hop["name"] for hop in critical_path(tree.root)]
        assert names == ["request", "predict", "engine_replay"]

    def test_slowest_request_picks_longest_root(self):
        records = _request("req-a", 0.0) + _request("req-b", 1.0)
        records[4]["end"] = 1.4  # req-b root: 400 ms
        records[4]["duration_ms"] = 400.0
        trees = assemble_traces(records)
        assert slowest_request(trees).trace_id == "req-b"

    def test_render_report_mentions_critical_path(self):
        records = _request("req-0", 0.0)
        trees = assemble_traces(records)
        text = render_report(trees, check_request_traces(trees),
                             stage_breakdown(trees))
        assert "complete: 1/1" in text
        assert "critical path" in text and "queue_wait" in text

    def test_load_spans_filters_mixed_jsonl(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        with path.open("w") as fh:
            for record in _request("req-0", 0.0):
                fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps({"event": "epoch", "loss": 0.1}) + "\n")
        assert len(load_spans(path)) == 4


# ------------------------------------------------------------------ #
# perf-regression sentinel
# ------------------------------------------------------------------ #

_MODELS = ["dcrnn", "agcrn", "gwnet", "pvcgn", "esg", "tgcrn"]


def _bench(seconds):
    return {"name": "table8_cost", "data": {"seconds_per_epoch": dict(seconds)}}


def _history():
    return _bench({m: 1.0 + 0.1 * i for i, m in enumerate(_MODELS)})


class TestSentinel:
    def test_planted_3x_slowdown_is_the_only_regression(self):
        hist = _history()
        cur_seconds = dict(hist["data"]["seconds_per_epoch"])
        cur_seconds["pvcgn"] *= 3.0
        findings = check_bench_regression(_bench(cur_seconds), hist)
        regressions = [f for f in findings if f.is_regression]
        assert [f.subject for f in regressions] == ["pvcgn"]
        # Normalization eats 3^(1/6) of the raw 3×: ~2.5 stays over 2.0.
        assert regressions[0].ratio == pytest.approx(3.0 / 3.0 ** (1 / 6),
                                                     rel=1e-6)

    def test_uniformly_slower_noisy_machine_passes(self):
        rng_noise = [1.18, 0.85, 1.1, 0.92, 1.2, 0.88]
        hist = _history()
        cur_seconds = {
            m: v * 2.0 * rng_noise[i]  # 2× slower machine, ±20% noise
            for i, (m, v) in enumerate(hist["data"]["seconds_per_epoch"].items())
        }
        findings = check_bench_regression(_bench(cur_seconds), hist)
        assert not any(f.is_regression for f in findings)

    def test_missing_model_surfaces_as_coverage_finding(self):
        hist = _history()
        cur_seconds = dict(hist["data"]["seconds_per_epoch"])
        del cur_seconds["esg"]
        findings = check_bench_regression(_bench(cur_seconds), hist)
        missing = [f for f in findings if f.verdict == "missing"]
        assert [f.subject for f in missing] == ["esg"]
        assert not any(f.is_regression for f in findings)

    def test_single_common_model_falls_back_to_raw_ratio(self):
        hist = _bench({"tgcrn": 1.0})
        cur = _bench({"tgcrn": 2.5})
        findings = check_bench_regression(cur, hist)
        (per_model,) = [f for f in findings if f.kind == "per_model"]
        assert per_model.is_regression
        assert "raw ratio" in per_model.detail

    def test_accepts_bare_data_without_wrapper(self):
        hist = _history()
        findings = check_bench_regression(
            hist["data"], hist["data"], threshold=2.0)
        assert all(f.verdict == "ok" for f in findings)

    def test_render_orders_regressions_first(self):
        hist = _history()
        cur_seconds = dict(hist["data"]["seconds_per_epoch"])
        cur_seconds["gwnet"] *= 4.0
        text = render_regressions(
            check_bench_regression(_bench(cur_seconds), hist))
        first_row = text.splitlines()[1]
        assert first_row.startswith("regression") and "gwnet" in first_row
        assert "1 regression(s)" in text
        assert render_regressions([]) == "bench sentinel: nothing to compare"


class TestObsReportCli:
    def test_spans_mode_gates_on_incomplete(self, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "good.jsonl"
        with good.open("w") as fh:
            for record in _request("req-0", 0.0):
                fh.write(json.dumps(record) + "\n")
        out = tmp_path / "report.json"
        assert main(["obs-report", "--spans", str(good), "--out", str(out),
                     "--fail-on", "incomplete", "--quiet"]) == 0
        payload = json.loads(out.read_text())
        assert payload["spans"]["check"]["ok"] is True
        assert "request" in payload["spans"]["stages"]
        assert payload["spans"]["critical_path"][0]["name"] == "request"

        bad = tmp_path / "bad.jsonl"
        with bad.open("w") as fh:
            for record in _request("req-0", 0.0):
                if record["name"] != "queue_wait":
                    fh.write(json.dumps(record) + "\n")
        assert main(["obs-report", "--spans", str(bad),
                     "--fail-on", "incomplete", "--quiet"]) == 1
        assert main(["obs-report", "--spans", str(bad),
                     "--fail-on", "never", "--quiet"]) == 0

    def test_bench_mode_gates_on_regression(self, tmp_path, capsys):
        from repro.cli import main

        hist = _history()
        cur_seconds = dict(hist["data"]["seconds_per_epoch"])
        cur_seconds["dcrnn"] *= 3.0
        hist_path = tmp_path / "hist.json"
        cur_path = tmp_path / "cur.json"
        hist_path.write_text(json.dumps(hist))
        cur_path.write_text(json.dumps(_bench(cur_seconds)))

        assert main(["obs-report", "--bench-current", str(cur_path),
                     "--bench-history", str(hist_path),
                     "--fail-on", "regression", "--quiet"]) == 1
        cur_path.write_text(json.dumps(hist))  # unmodified rerun
        assert main(["obs-report", "--bench-current", str(cur_path),
                     "--bench-history", str(hist_path),
                     "--fail-on", "regression", "--quiet"]) == 0
