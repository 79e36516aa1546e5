"""Tests of the end-to-end benchmark; about two minutes.  From the repo root:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

Each workload runs with short phases and tracing on; every metric
BENCHMARK.json names must come out with its unit, and planted wrong
answers must fail the run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import workloads  # noqa: E402
import repro.serve.server as server_module  # noqa: E402
from repro.serve import NaNModel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SHORT_S = 2.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_emits_every_declared_metric(name):
    result = workloads.WORKLOADS[name](seed=1, seconds=SHORT_S, trace=True)
    assert result.problems == []
    assert result.attempted >= 1 and result.failed == 0
    for key, measured in (("end_to_end", result.metrics), ("per_layer", result.layers)):
        for metric in SPEC[key]:
            value, unit = measured[metric["name"]]
            assert unit == metric["unit"], metric["name"]
            assert np.isfinite(value), metric["name"]
    for metric in SPEC["end_to_end"]:
        assert result.metrics[metric["name"]][0] > 0, metric["name"]
    assert result.layers["trace.coverage"][0] == pytest.approx(1.0, abs=0.05)


def test_nan_answers_reported_as_model_fail_the_run(monkeypatch):
    # Planted bug: output validation lets NaN through, so the served
    # NaNModel's answers reach the client as source="model".
    monkeypatch.setattr(server_module, "validate_output", lambda *a, **k: None)
    result = workloads.serve_open(seed=0, seconds=1.0, model_wrapper=NaNModel)
    assert any("wrong forecast" in p for p in result.problems)


def test_perturbed_replica_weight_fails_the_run():
    def perturb(model, shard_id, replica_id):
        if shard_id == 0:
            model.output_layer.bias.data += 1e-3

    result = workloads.fleet_open(seed=0, seconds=1.0, replica_hook=perturb)
    assert any("wrong forecast" in p for p in result.problems)


def test_run_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "serve_open", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_verdicts():
    parent = [100.0 + i for i in range(10)]
    assert compare.verdict(parent, [v * 0.7 for v in parent], "lower", 0.1)["verdict"] == "improved"
    assert compare.verdict(parent, [v * 1.3 for v in parent], "lower", 0.1)["verdict"] == "regressed"
    assert compare.verdict(parent, [v * 1.3 for v in parent], "higher", 0.1)["verdict"] == "improved"
    assert compare.verdict(parent, list(parent), "lower", 0.1)["verdict"] == "within bound"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)["verdict"] == "unresolved"
