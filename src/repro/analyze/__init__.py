"""Analysis layer: model probe, repo lint, concurrency checks.

Every analyzer reports through one :class:`~repro.analyze.findings.Finding` model:

* :mod:`repro.analyze.probe` — one real forward/backward per model (SH and GF rules)
* :mod:`repro.analyze.lint` — repo-invariant AST lint (RL rules)
* :mod:`repro.analyze.engine_support` — capture/replay compilability (EN rules)
* :mod:`repro.analyze.concurrency` — cross-module lock-discipline lint (CC rules)
* :mod:`repro.analyze.lockorder` — runtime lock-order sanitizer (witness graph)

See ``docs/analysis.md`` for the rule catalog and baseline workflow.
"""

from .concurrency import CONCURRENCY_RULES, analyze_concurrency
from .findings import (
    Baseline,
    DEFAULT_BASELINE_NAME,
    Finding,
    SEVERITIES,
    fingerprints,
    max_severity,
    render_json,
    render_text,
    severity_rank,
)
from .engine_support import check_engine_support
from .lint import LintRule, lint_paths, registered_rules, rule
from .lockorder import LockOrderSanitizer, LockOrderViolation, checkpoint
from .probe import ModelShapeError, check_forecast_model, check_served_model
from .runner import AnalysisReport, analyze_models, run_analysis

__all__ = [
    "AnalysisReport",
    "Baseline",
    "CONCURRENCY_RULES",
    "DEFAULT_BASELINE_NAME",
    "Finding",
    "LintRule",
    "LockOrderSanitizer",
    "LockOrderViolation",
    "ModelShapeError",
    "SEVERITIES",
    "analyze_concurrency",
    "analyze_models",
    "check_engine_support",
    "checkpoint",
    "check_forecast_model",
    "check_served_model",
    "fingerprints",
    "lint_paths",
    "max_severity",
    "registered_rules",
    "render_json",
    "render_text",
    "rule",
    "run_analysis",
    "severity_rank",
]
