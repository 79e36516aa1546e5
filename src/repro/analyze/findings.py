"""Finding model, baseline/suppression file, and reporters for `repro.analyze`.

Every analyzer (model probe, AST lint, concurrency rules) emits
:class:`Finding` records through one schema so the CLI, the CI gate, and
the baseline workflow treat them uniformly.

Baselines are keyed by *fingerprints* that deliberately exclude line
numbers: a finding keeps its identity when unrelated edits move it around
a file, but a genuinely new finding (new rule, new location, new message)
never matches an old fingerprint.  Identical findings in the same anchor
are disambiguated by an occurrence index so baselining two of them does
not suppress a third.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ..ioutil import atomic_write_text

#: severity vocabulary, weakest to strongest
SEVERITIES = ("info", "warning", "error")
_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

DEFAULT_BASELINE_NAME = "analyze-baseline.json"
_BASELINE_VERSION = 1


def severity_rank(severity: str) -> int:
    """Numeric rank for gating (info=0 < warning=1 < error=2)."""
    try:
        return _SEVERITY_RANK[severity]
    except KeyError:
        raise ValueError(f"unknown severity {severity!r}; choose from {SEVERITIES}") from None


@dataclass(frozen=True)
class Finding:
    """One analyzer result.

    ``location`` is the human-facing position (may include a line number);
    ``anchor`` is the stable part used for fingerprinting (file path or
    ``model:<name>`` — never a line number).  When ``anchor`` is empty the
    location itself is used.
    """

    rule_id: str
    severity: str
    location: str
    message: str
    fix_hint: str = ""
    anchor: str = ""

    def __post_init__(self):
        severity_rank(self.severity)  # validate eagerly

    @property
    def stable_anchor(self) -> str:
        return self.anchor or self.location

    def to_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "severity": self.severity,
            "location": self.location,
            "message": self.message,
            "fix_hint": self.fix_hint,
        }


def fingerprint(finding: Finding, occurrence: int = 0) -> str:
    """Stable identity of a finding: rule + anchor + message + occurrence."""
    payload = "\x1f".join(
        [finding.rule_id, finding.stable_anchor, finding.message, str(occurrence)]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def fingerprints(findings: Sequence[Finding]) -> list[str]:
    """Fingerprint a batch, numbering identical findings per anchor."""
    seen: Counter[tuple[str, str, str]] = Counter()
    out = []
    for finding in findings:
        key = (finding.rule_id, finding.stable_anchor, finding.message)
        out.append(fingerprint(finding, occurrence=seen[key]))
        seen[key] += 1
    return out


# --------------------------------------------------------------------- #
# baseline file
# --------------------------------------------------------------------- #


@dataclass
class Baseline:
    """The committed set of accepted findings, keyed by fingerprint."""

    entries: dict[str, dict] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        path = Path(path)
        if not path.exists():
            return cls()
        payload = json.loads(path.read_text())
        if payload.get("version") != _BASELINE_VERSION:
            raise ValueError(
                f"unsupported baseline version {payload.get('version')!r} in {path}"
            )
        return cls(entries={e["fingerprint"]: e for e in payload.get("findings", [])})

    def save(self, path: str | Path) -> None:
        findings = sorted(
            self.entries.values(),
            key=lambda e: (e.get("rule_id", ""), e.get("location", ""), e["fingerprint"]),
        )
        payload = {
            "version": _BASELINE_VERSION,
            "tool": "repro.analyze",
            "findings": findings,
        }
        atomic_write_text(Path(path), json.dumps(payload, indent=2) + "\n")

    @classmethod
    def from_findings(cls, findings: Sequence[Finding]) -> "Baseline":
        entries = {}
        for finding, print_ in zip(findings, fingerprints(findings)):
            entries[print_] = {
                "fingerprint": print_,
                "rule_id": finding.rule_id,
                "severity": finding.severity,
                "location": finding.location,
                "message": finding.message,
            }
        return cls(entries=entries)

    def split(self, findings: Sequence[Finding]) -> tuple[list[Finding], list[Finding]]:
        """Partition into (new, suppressed) against this baseline."""
        new: list[Finding] = []
        suppressed: list[Finding] = []
        for finding, print_ in zip(findings, fingerprints(findings)):
            (suppressed if print_ in self.entries else new).append(finding)
        return new, suppressed


# --------------------------------------------------------------------- #
# reporters
# --------------------------------------------------------------------- #


def render_text(
    findings: Sequence[Finding],
    *,
    suppressed: Sequence[Finding] = (),
    show_fix_hints: bool = True,
) -> str:
    """Human-readable report grouped by anchor, errors first within groups."""
    lines: list[str] = []
    by_anchor: dict[str, list[Finding]] = {}
    for finding in findings:
        by_anchor.setdefault(finding.stable_anchor, []).append(finding)
    for anchor in sorted(by_anchor):
        lines.append(anchor)
        group = sorted(
            by_anchor[anchor], key=lambda f: (-severity_rank(f.severity), f.rule_id, f.location)
        )
        for finding in group:
            lines.append(f"  {finding.severity:<7} {finding.rule_id}  {finding.location}")
            lines.append(f"          {finding.message}")
            if show_fix_hints and finding.fix_hint:
                lines.append(f"          fix: {finding.fix_hint}")
        lines.append("")
    counts = Counter(f.severity for f in findings)
    summary = ", ".join(f"{counts.get(s, 0)} {s}" for s in reversed(SEVERITIES))
    lines.append(f"{len(findings)} finding(s) ({summary}); {len(suppressed)} baselined")
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding],
    *,
    suppressed: Sequence[Finding] = (),
    metrics: dict | None = None,
) -> str:
    """Machine-readable report (the CI artifact format)."""
    prints = fingerprints(list(findings))
    payload = {
        "tool": "repro.analyze",
        "version": _BASELINE_VERSION,
        "summary": {
            "new": len(findings),
            "baselined": len(suppressed),
            "by_severity": dict(Counter(f.severity for f in findings)),
            "by_rule": dict(Counter(f.rule_id for f in findings)),
        },
        "findings": [
            {**finding.to_dict(), "fingerprint": print_}
            for finding, print_ in zip(findings, prints)
        ],
        "baselined": [f.to_dict() for f in suppressed],
    }
    if metrics is not None:
        payload["metrics"] = metrics
    return json.dumps(payload, indent=2)


def max_severity(findings: Iterable[Finding]) -> str | None:
    """Strongest severity present, or None for an empty set."""
    best: str | None = None
    for finding in findings:
        if best is None or severity_rank(finding.severity) > severity_rank(best):
            best = finding.severity
    return best
