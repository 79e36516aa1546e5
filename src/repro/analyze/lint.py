"""Repo-invariant AST lint with an extensible rule registry.

Rules encode invariants the rest of the codebase relies on:

======  ========  =====================================================
RL001   error     global ``np.random.*`` call (must use seeded Generators)
RL002   warning   ``default_rng()`` with no seed (nondeterministic)
RL003   error     raw artifact write outside ``repro.ioutil`` atomics
RL004   error     direct clock read (wall clock or ``time.perf_counter``) in
                  injectable-clock-seam modules (serve/resilience)
RL005   error     bare ``except:``
RL006   warning   silent handler (``except ...: pass``)
RL007   warning   ``Tensor.data``/``.grad`` mutation outside framework modules
RL008   error     class attribute written both inside and outside its lock
RL009   error     ``time.time()`` outside the clock-seam modules (wall-clock
                  discipline: durations must use monotonic sources; real
                  timestamps carry an ``allow[RL009]`` note saying so)
RL010   error     hand-rolled retry loop (``for _ in range``/``while`` +
                  inline ``sleep`` around a ``try``) outside
                  ``repro.resilience`` — retries must use the
                  ``resilience.backoff`` seam
======  ========  =====================================================

A finding on line *L* is suppressed by ``# analyze: allow[RL00x]`` on *L*
or on the line directly above; ``allow[*]`` suppresses every rule.  New
rules register with :func:`rule` and are picked up by the CLI
automatically.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .findings import Finding

#: modules allowed to mutate Tensor.data / .grad (the framework itself:
#: optimizers, serialization, gradient checkers, checkpoint restore)
DATA_MUTATION_WHITELIST = (
    "autodiff/",
    "nn/",
    "verify/",
    "resilience/checkpoint.py",
)

#: modules allowed to open files for writing directly (the atomic-write seam)
RAW_WRITE_WHITELIST = ("ioutil.py",)

#: modules with an injectable clock seam — wall-clock calls break testability
CLOCK_SEAM_PREFIXES = ("serve/", "resilience/")

_WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("date", "today"),
}

_ALLOW_RE = re.compile(r"#\s*analyze:\s*allow\[([A-Za-z0-9*,\s]+)\]")


@dataclass(frozen=True)
class LintRule:
    rule_id: str
    name: str
    severity: str
    description: str
    fix_hint: str
    checker: Callable[["FileContext"], Iterator[tuple[int, str]]]


_REGISTRY: dict[str, LintRule] = {}


def rule(rule_id: str, name: str, severity: str, description: str, fix_hint: str):
    """Register a lint rule; the checker yields ``(line, message)`` pairs."""

    def register(checker: Callable[["FileContext"], Iterator[tuple[int, str]]]):
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate lint rule {rule_id}")
        _REGISTRY[rule_id] = LintRule(rule_id, name, severity, description, fix_hint, checker)
        return checker

    return register


def registered_rules() -> dict[str, LintRule]:
    return dict(_REGISTRY)


class FileContext:
    """One parsed file plus the path views the rules key their policy on."""

    def __init__(self, path: Path, display: str, pkg_rel: str, source: str):
        self.path = path
        self.display = display  # shown in findings (repo-relative when possible)
        self.pkg_rel = pkg_rel  # relative to the scanned tree (whitelist matching)
        self.source = source
        self.tree = ast.parse(source)
        self.lines = source.splitlines()

    def in_any(self, prefixes: Iterable[str]) -> bool:
        return any(
            self.pkg_rel == p or self.pkg_rel.startswith(p) or f"/{p}" in f"/{self.pkg_rel}"
            for p in prefixes
        )

    def allowed_rules_by_line(self) -> dict[int, set[str]]:
        allows: dict[int, set[str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _ALLOW_RE.search(line)
            if match:
                ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
                allows[lineno] = ids
        return allows


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an expression (``np.random.rand`` etc.)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


# --------------------------------------------------------------------- #
# RNG discipline
# --------------------------------------------------------------------- #


@rule(
    "RL001",
    "legacy-np-random",
    "error",
    "calls into the legacy global numpy RNG (np.random.rand, .seed, ...)",
    "thread a seeded np.random.Generator (see verify.determinism.named_rng) instead",
)
def _check_legacy_np_random(ctx: FileContext) -> Iterator[tuple[int, str]]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        parts = dotted.split(".")
        if len(parts) >= 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
            if parts[2] not in ("default_rng", "Generator", "SeedSequence", "PCG64"):
                yield node.lineno, f"global numpy RNG call {dotted}()"


@rule(
    "RL002",
    "unseeded-default-rng",
    "warning",
    "default_rng() without a seed draws OS entropy and breaks reproducibility",
    "pass an explicit seed or derive one via verify.determinism.named_rng",
)
def _check_unseeded_default_rng(ctx: FileContext) -> Iterator[tuple[int, str]]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted.endswith("default_rng") and not node.args and not node.keywords:
            yield node.lineno, "default_rng() called without a seed"


# --------------------------------------------------------------------- #
# artifact writes
# --------------------------------------------------------------------- #


def _mode_is_write(call: ast.Call, position: int) -> bool:
    mode: ast.expr | None = None
    if len(call.args) > position:
        mode = call.args[position]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    return (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and ("w" in mode.value or "x" in mode.value)
    )


@rule(
    "RL003",
    "raw-artifact-write",
    "error",
    "artifact written without the atomic temp+fsync+rename protocol",
    "use ioutil.atomic_write / atomic_write_text / atomic_savez",
)
def _check_raw_artifact_write(ctx: FileContext) -> Iterator[tuple[int, str]]:
    if ctx.in_any(RAW_WRITE_WHITELIST):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open" and _mode_is_write(node, 1):
            yield node.lineno, "open(..., 'w') writes in place; a crash leaves a torn file"
        elif isinstance(func, ast.Attribute):
            if func.attr in ("write_text", "write_bytes"):
                yield node.lineno, f".{func.attr}() writes in place; a crash leaves a torn file"
            elif func.attr == "open" and _mode_is_write(node, 0):
                yield node.lineno, ".open('w') writes in place; a crash leaves a torn file"
            elif _dotted(func) in ("np.save", "np.savez", "np.savez_compressed"):
                yield node.lineno, f"{_dotted(func)}() writes in place; a crash leaves a torn file"


# --------------------------------------------------------------------- #
# clock discipline
# --------------------------------------------------------------------- #


@rule(
    "RL004",
    "wall-clock-in-clock-seam",
    "error",
    "direct clock read in a module with an injectable clock seam",
    "take a clock callable (default time.monotonic) as a parameter, as CircuitBreaker does",
)
def _check_wall_clock(ctx: FileContext) -> Iterator[tuple[int, str]]:
    if not ctx.in_any(CLOCK_SEAM_PREFIXES):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        parts = tuple(dotted.split(".")[-2:])
        if len(parts) == 2 and parts in _WALL_CLOCK_CALLS:
            yield node.lineno, f"direct clock read {dotted}() bypasses the injectable clock"


@rule(
    "RL009",
    "wall-clock-latency",
    "error",
    "time.time() is non-monotonic (NTP steps, DST) and corrupts latency math",
    "use time.monotonic()/time.perf_counter() for durations; annotate genuine "
    "wall timestamps with '# analyze: allow[RL009]'",
)
def _check_wall_clock_latency(ctx: FileContext) -> Iterator[tuple[int, str]]:
    if ctx.in_any(CLOCK_SEAM_PREFIXES):
        return  # RL004 already polices these modules with a stricter rule
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if tuple(dotted.split(".")[-2:]) == ("time", "time"):
            yield node.lineno, (
                "time.time() in a potential latency path; use a monotonic "
                "source for durations or mark the call as a timestamp"
            )


# --------------------------------------------------------------------- #
# retry discipline
# --------------------------------------------------------------------- #

#: the package that owns the retry/backoff seam (exempt from RL010)
RETRY_SEAM_EXEMPT = ("resilience/",)


@rule(
    "RL010",
    "hand-rolled-retry-loop",
    "error",
    "retry loop sleeps inline instead of using the jittered-backoff seam; "
    "fixed delays synchronize retries into thundering herds and cannot be "
    "tested without real sleeping",
    "route the loop through resilience.backoff (retry_call, or Backoff's "
    "delay()/wait() with injected sleep/rng); annotate deliberate "
    "exceptions with '# analyze: allow[RL010]'",
)
def _check_hand_rolled_retry(ctx: FileContext) -> Iterator[tuple[int, str]]:
    if ctx.in_any(RETRY_SEAM_EXEMPT):
        return  # the seam itself
    seen: set[int] = set()
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        sleeps = [
            child
            for child in ast.walk(node)
            if isinstance(child, ast.Call)
            and _dotted(child.func).split(".")[-1] == "sleep"
        ]
        if not sleeps:
            continue
        # A retry loop either swallows failures inline (try inside the
        # loop) or counts attempts (for ... in range(...)).  Plain
        # poll/wait loops — while + sleep with no exception handling —
        # are not retries and stay legal.
        has_try = any(isinstance(child, ast.Try) for child in ast.walk(node))
        counted = (
            isinstance(node, ast.For)
            and isinstance(node.iter, ast.Call)
            and _dotted(node.iter.func).split(".")[-1] == "range"
        )
        if not (has_try or counted):
            continue
        lineno = min(s.lineno for s in sleeps)
        if lineno in seen:
            continue
        seen.add(lineno)
        shape = "for-range" if counted else "while"
        yield lineno, (
            f"hand-rolled {shape} retry loop with inline sleep; use the "
            "resilience.backoff seam (jittered, injectable)"
        )


# --------------------------------------------------------------------- #
# exception hygiene
# --------------------------------------------------------------------- #


@rule(
    "RL005",
    "bare-except",
    "error",
    "bare except catches KeyboardInterrupt/SystemExit and hides real faults",
    "catch the narrowest exception type that the handler can actually handle",
)
def _check_bare_except(ctx: FileContext) -> Iterator[tuple[int, str]]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield node.lineno, "bare except:"


@rule(
    "RL006",
    "silent-except",
    "warning",
    "exception handler swallows the error without logging or re-raising",
    "log, annotate, or narrow the handler; if truly best-effort, add an allow comment saying why",
)
def _check_silent_except(ctx: FileContext) -> Iterator[tuple[int, str]]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ExceptHandler):
            body = [s for s in node.body if not _is_docstring(s)]
            if body and all(
                isinstance(s, ast.Pass)
                or (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant) and s.value.value is Ellipsis)
                for s in body
            ):
                kind = _dotted(node.type) if node.type is not None else "Exception"
                yield node.lineno, f"except {kind}: pass silently swallows the error"


def _is_docstring(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


# --------------------------------------------------------------------- #
# tensor state mutation
# --------------------------------------------------------------------- #


def _is_tensor_state_target(target: ast.expr) -> str | None:
    if isinstance(target, ast.Attribute) and target.attr in ("data", "grad"):
        return f"{_dotted(target)}"
    if (
        isinstance(target, ast.Subscript)
        and isinstance(target.value, ast.Attribute)
        and target.value.attr in ("data", "grad")
    ):
        return f"{_dotted(target.value)}[...]"
    return None


@rule(
    "RL007",
    "tensor-state-mutation",
    "warning",
    "writes Tensor.data/.grad in place outside framework modules, bypassing autodiff",
    "compute a new Tensor instead; in-place mutation invalidates recorded gradients",
)
def _check_tensor_state_mutation(ctx: FileContext) -> Iterator[tuple[int, str]]:
    if ctx.in_any(DATA_MUTATION_WHITELIST):
        return
    for node in ast.walk(ctx.tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            described = _is_tensor_state_target(target)
            if described:
                yield node.lineno, f"in-place mutation of {described}"


# --------------------------------------------------------------------- #
# lock discipline
# --------------------------------------------------------------------- #


_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}


def _lock_attrs_of(cls: ast.ClassDef) -> set[str]:
    locks: set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                value = node.value
                dotted = _dotted(value.func) if isinstance(value, ast.Call) else ""
                if dotted.split(".")[-1] in _LOCK_FACTORIES or "lock" in target.attr.lower():
                    locks.add(target.attr)
    return locks


def _self_attr_writes(node: ast.AST, lock_attrs: set[str], depth: int, out: dict[str, dict[str, list[int]]]):
    """Collect self.<attr> writes, tracking whether a lock guards them."""
    for child in ast.iter_child_nodes(node):
        child_depth = depth
        if isinstance(child, ast.With):
            holds_lock = any(
                isinstance(item.context_expr, ast.Attribute)
                and isinstance(item.context_expr.value, ast.Name)
                and item.context_expr.value.id == "self"
                and item.context_expr.attr in lock_attrs
                for item in child.items
            )
            if holds_lock:
                child_depth = depth + 1
        if isinstance(child, (ast.Assign, ast.AugAssign)) or (
            isinstance(child, ast.AnnAssign) and child.value is not None
        ):
            targets = child.targets if isinstance(child, ast.Assign) else [child.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr not in lock_attrs
                ):
                    bucket = out.setdefault(target.attr, {"locked": [], "unlocked": []})
                    bucket["locked" if depth > 0 else "unlocked"].append(child.lineno)
        _self_attr_writes(child, lock_attrs, child_depth, out)


@rule(
    "RL008",
    "unlocked-shared-write",
    "error",
    "instance attribute written both under a lock and without it — a data race",
    "take the lock on every write path (reads may stay lock-free only for atomic swaps)",
)
def _check_unlocked_shared_write(ctx: FileContext) -> Iterator[tuple[int, str]]:
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        lock_attrs = _lock_attrs_of(cls)
        if not lock_attrs:
            continue
        writes: dict[str, dict[str, list[int]]] = {}
        for method in cls.body:
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and method.name != "__init__":
                _self_attr_writes(method, lock_attrs, 0, writes)
        for attr, lines in sorted(writes.items()):
            if lines["locked"] and lines["unlocked"]:
                yield (
                    min(lines["unlocked"]),
                    f"{cls.name}.{attr} is written under {sorted(lock_attrs)} "
                    f"(line {min(lines['locked'])}) but also without it",
                )


# --------------------------------------------------------------------- #
# engine
# --------------------------------------------------------------------- #


#: directory names that never hold source (caches, VCS, envs, build output)
_NON_SOURCE_DIRS = {
    "__pycache__", ".git", ".hg", ".venv", "venv", "build", "dist",
    ".eggs", "node_modules", ".mypy_cache", ".pytest_cache", ".ruff_cache",
}


def _iter_py_files(paths: Sequence[str | Path]) -> Iterator[tuple[Path, Path]]:
    """Yield (file, scanned_top) pairs for every python file under paths.

    Skips ``__pycache__``/VCS/virtualenv/build directories and hidden
    files — bytecode caches and vendored envs are not our source.
    """
    for top in paths:
        top = Path(top)
        if top.is_file():
            yield top, top.parent
        else:
            for path in sorted(top.rglob("*.py")):
                rel = path.relative_to(top)
                if any(
                    part in _NON_SOURCE_DIRS or part.startswith(".")
                    for part in rel.parts[:-1]
                ):
                    continue
                if path.name.startswith("."):
                    continue
                yield path, top


def lint_paths(
    paths: Sequence[str | Path],
    *,
    root: str | Path | None = None,
    rules: Sequence[str] | None = None,
) -> list[Finding]:
    """Run the registered AST rules over every ``.py`` file under ``paths``.

    ``root`` anchors finding locations (defaults to each file's own path);
    ``rules`` restricts to rule-id prefixes (e.g. ``["RL00", "RL1"]``).
    """
    selected = [
        r
        for r in _REGISTRY.values()
        if rules is None or any(r.rule_id.startswith(p) for p in rules)
    ]
    findings: list[Finding] = []
    for path, top in _iter_py_files(paths):
        display = str(path)
        if root is not None:
            try:
                display = path.resolve().relative_to(Path(root).resolve()).as_posix()
            except ValueError:
                display = str(path)
        pkg_rel = path.resolve().relative_to(top.resolve()).as_posix()
        source = path.read_text()
        try:
            ctx = FileContext(path, display, pkg_rel, source)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule_id="RL000",
                    severity="warning",
                    location=f"{display}:{exc.lineno or 0}",
                    anchor=display,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        allows = ctx.allowed_rules_by_line()
        for lint_rule in selected:
            for lineno, message in lint_rule.checker(ctx):
                allowed = allows.get(lineno, set()) | allows.get(lineno - 1, set())
                if lint_rule.rule_id in allowed or "*" in allowed:
                    continue
                findings.append(
                    Finding(
                        rule_id=lint_rule.rule_id,
                        severity=lint_rule.severity,
                        location=f"{display}:{lineno}",
                        anchor=display,
                        message=message,
                        fix_hint=lint_rule.fix_hint,
                    )
                )
    return findings
