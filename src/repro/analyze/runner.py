"""Orchestrates the analyzers over the repo and its model catalog.

``run_analysis`` is what ``repro.cli analyze`` and CI call: AST lint and
concurrency rules over ``src/repro``, then the model probe and the
engine-support check over TGCRN and every neural baseline in
``baselines/registry.py``, all merged into one finding list with
per-rule ``repro.obs`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..obs.metrics import MetricsRegistry
from .concurrency import analyze_concurrency
from .engine_support import check_engine_support
from .findings import Baseline, Finding
from .lint import lint_paths
from .probe import check_forecast_model

#: tiny synthetic task used to instantiate the model catalog for checking;
#: batch (2), history, horizon and nodes all differ so a swapped axis shows
_CHECK_TASK = dict(name="hzmetro", size="small", seed=0, num_nodes=5, num_days=5,
                   history=3, horizon=4)


@dataclass
class AnalysisReport:
    """Outcome of one analyzer run, pre/post baseline split."""

    findings: list[Finding] = field(default_factory=list)  # new (not baselined)
    suppressed: list[Finding] = field(default_factory=list)  # matched the baseline
    metrics: dict = field(default_factory=dict)

    @property
    def all_findings(self) -> list[Finding]:
        return self.findings + self.suppressed


def _model_catalog(hidden_dim: int = 8, num_layers: int = 2, seed: int = 0):
    """Yield (name, model, dims) for TGCRN and every neural baseline."""
    from ..baselines.registry import NEURAL_BASELINES, build_baseline
    from ..core.tgcrn import TGCRN
    from ..data.datasets import load_task
    from ..training.experiment import default_tgcrn_kwargs

    task = load_task(**_CHECK_TASK)
    dims = dict(
        history=task.history,
        horizon=task.horizon,
        num_nodes=task.num_nodes,
        in_dim=task.in_dim,
        out_dim=task.out_dim,
    )
    tgcrn_kwargs = default_tgcrn_kwargs(task, hidden_dim=hidden_dim, node_dim=4, time_dim=4, num_layers=num_layers)
    import numpy as np

    yield "tgcrn", TGCRN(rng=np.random.default_rng(seed), **tgcrn_kwargs), dims
    for name in NEURAL_BASELINES:
        yield name, build_baseline(name, task, hidden_dim=hidden_dim, num_layers=num_layers, seed=seed), dims


def analyze_models(rules: Sequence[str] | None = None, seed: int = 0) -> list[Finding]:
    """Probe (SH/GF) and engine-check (EN) the full model catalog."""
    wants = lambda rule_id: rules is None or any(rule_id.startswith(p) for p in rules)
    run_probe = wants("SH") or wants("GF")
    run_engine = wants("EN")
    if not run_probe and not run_engine:
        return []
    findings: list[Finding] = []
    for name, model, dims in _model_catalog(seed=seed):
        if run_probe:
            findings.extend(check_forecast_model(model, model_name=name, **dims))
        if run_engine:
            findings.extend(check_engine_support(model, model_name=name, seed=seed, **dims))
    return [f for f in findings if rules is None or any(f.rule_id.startswith(p) for p in rules)]


def run_analysis(
    *,
    root: str | Path = ".",
    paths: Sequence[str | Path] | None = None,
    rules: Sequence[str] | None = None,
    include_models: bool = True,
    baseline: Baseline | None = None,
    metrics: MetricsRegistry | None = None,
    seed: int = 0,
) -> AnalysisReport:
    """Run lint (+ optionally model checks), apply the baseline, count findings."""
    root = Path(root)
    if paths is None:
        paths = [root / "src" / "repro"]
    findings = lint_paths(paths, root=root, rules=rules)
    findings.extend(analyze_concurrency(paths, root=root, rules=rules))
    if include_models:
        findings.extend(analyze_models(rules=rules, seed=seed))

    new, suppressed = (baseline or Baseline()).split(findings)

    registry = metrics or MetricsRegistry(run="analyze")
    for finding in findings:
        registry.counter(f"analyze.findings.{finding.rule_id}").inc()
    registry.counter("analyze.findings.new").inc(len(new))
    registry.counter("analyze.findings.baselined").inc(len(suppressed))

    return AnalysisReport(
        findings=new,
        suppressed=suppressed,
        metrics={
            "by_rule": _count_by(findings, lambda f: f.rule_id),
            "by_severity": _count_by(findings, lambda f: f.severity),
            "new": len(new),
            "baselined": len(suppressed),
        },
    )


def _count_by(findings: Sequence[Finding], key) -> dict[str, int]:
    out: dict[str, int] = {}
    for finding in findings:
        out[key(finding)] = out.get(key(finding), 0) + 1
    return dict(sorted(out.items()))
