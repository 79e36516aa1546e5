"""Static analysis layer: shape checking, gradient-flow lint, repo lint.

Every analyzer reports through one :class:`~repro.analyze.findings.Finding` model:

* :mod:`repro.analyze.shapes` — abstract shape/dtype interpreter (SH rules)
* :mod:`repro.analyze.gradflow` — gradient-flow linter (GF rules)
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
from .gradflow import lint_gradient_flow
from .lint import LintRule, lint_paths, registered_rules, rule
from .lockorder import LockOrderSanitizer, LockOrderViolation, checkpoint
from .runner import AnalysisReport, analyze_models, run_analysis
from .shapes import (
    ModelShapeError,
    SymDim,
    SymTensor,
    SymbolicShapeError,
    check_forecast_model,
    check_micro_batch_shapes,
    check_served_model,
    sym_window,
    symbolic_execution,
)

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
    "SymDim",
    "SymTensor",
    "SymbolicShapeError",
    "analyze_concurrency",
    "analyze_models",
    "check_engine_support",
    "checkpoint",
    "check_forecast_model",
    "check_micro_batch_shapes",
    "check_served_model",
    "fingerprints",
    "lint_gradient_flow",
    "lint_paths",
    "max_severity",
    "registered_rules",
    "render_json",
    "render_text",
    "rule",
    "run_analysis",
    "severity_rank",
    "sym_window",
    "symbolic_execution",
]
