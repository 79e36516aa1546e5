"""Command-line interface: train, evaluate, compare, profile, inspect,
experiments, analyze, verify, obs-report.

Usage::

    python -m repro.cli train --dataset hzmetro --model tgcrn --epochs 10
    python -m repro.cli train --checkpoint run.npz --resume   # crash recovery
    python -m repro.cli compare --dataset hzmetro --models ha,agcrn,tgcrn
    python -m repro.cli inspect --dataset hzmetro
    python -m repro.cli evaluate --dataset hzmetro --checkpoint model.npz
    python -m repro.cli profile --dataset hzmetro --epochs 1   # hot-op table
    python -m repro.cli experiments fig10_lambda --scale smoke   # one paper artifact
    python -m repro.cli analyze             # static analysis vs the baseline
    python -m repro.cli verify              # correctness harness outside pytest
    python -m repro.cli obs-report --spans spans.jsonl   # span-tree analysis

Fault-injection and serving scenarios live in the test suite
(docs/testing.md); serving latency is measured by ``benchmarks/e2e``.

The dataset commands accept ``--nodes/--days/--seed`` to control the synthetic
dataset scale, so quick experiments stay quick.  ``--quiet`` silences the
console (benchmark mode); ``--log-jsonl PATH`` records structured
per-epoch run logs; ``--trace`` profiles autodiff ops; ``--spans-jsonl
PATH`` records causal span trees (docs/observability.md).  ``train``
takes ``--checkpoint/--resume/--guard`` for fault-tolerant runs
(docs/resilience.md).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from .baselines.registry import ALL_BASELINES
from .core import TGCRN
from .core.variants import VARIANTS
from .data import load_task
from .data.datasets import SPECS
from .experiments import SCALES, list_experiments, run, save
from .nn.serialization import load_checkpoint, save_checkpoint
from .obs import Console, trace
from .training import Trainer, TrainingConfig, default_tgcrn_kwargs, run_experiment
from .training.analysis import horizon_curve_text, improvement_table
from .viz import render_heatmap, side_by_side


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=sorted(SPECS), default="hzmetro")
    parser.add_argument("--nodes", type=int, default=None, help="override node count")
    parser.add_argument("--days", type=int, default=None, help="override calendar length")
    parser.add_argument("--size", choices=("small", "paper"), default="small")
    parser.add_argument("--seed", type=int, default=0)


def _add_training_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--hidden", type=int, default=16)
    parser.add_argument("--layers", type=int, default=1)
    parser.add_argument("--node-dim", type=int, default=8)
    parser.add_argument("--time-dim", type=int, default=8)
    parser.add_argument("--lambda-time", type=float, default=0.1)
    parser.add_argument("--compile", action="store_true",
                        help="capture each training-step signature once, then "
                             "replay the recorded plan with precompiled kernels "
                             "(bitwise-identical to eager; docs/engine.md)")


def _add_obs_args(parser: argparse.ArgumentParser, tracing: bool = False) -> None:
    parser.add_argument("--quiet", action="store_true",
                        help="suppress console chatter (for benchmark scripts)")
    parser.add_argument("--log-jsonl", default=None, metavar="PATH",
                        help="write structured per-epoch run records (JSONL)")
    parser.add_argument("--spans-jsonl", default=None, metavar="PATH",
                        help="record causal span trees (request/epoch/step) "
                             "to a JSONL file (docs/observability.md)")
    if tracing:
        parser.add_argument("--trace", action="store_true",
                            help="profile autodiff ops and print a hot-op table")
        parser.add_argument("--trace-out", default="trace.json", metavar="PATH",
                            help="Chrome-trace JSON destination (with --trace)")


def _load(args) -> "ForecastingTask":
    return load_task(args.dataset, size=args.size, seed=args.seed,
                     num_nodes=args.nodes, num_days=args.days)


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="write an atomic full-training-state checkpoint "
                             "(.npz) for crash recovery (docs/resilience.md)")
    parser.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                        help="epochs between checkpoints (default 1)")
    parser.add_argument("--resume", action="store_true",
                        help="resume bit-compatibly from --checkpoint if it exists")
    parser.add_argument("--guard", action="store_true",
                        help="wrap training in the divergence sentinel: roll back "
                             "to the last checkpoint with lr backoff on NaN/Inf "
                             "loss or exploding gradients")
    parser.add_argument("--max-retries", type=int, default=3,
                        help="recovery attempts before a structured failure (with --guard)")
    parser.add_argument("--lr-backoff", type=float, default=0.5,
                        help="lr multiplier applied on each rollback (with --guard)")


def _config(args) -> TrainingConfig:
    return TrainingConfig(
        epochs=args.epochs, batch_size=args.batch_size,
        lambda_time=args.lambda_time, seed=args.seed,
        verbose=not getattr(args, "quiet", False),
        log_path=getattr(args, "log_jsonl", None),
        checkpoint_path=getattr(args, "checkpoint", None),
        checkpoint_every=getattr(args, "checkpoint_every", 1),
        resume=getattr(args, "resume", False),
        compile=getattr(args, "compile", False),
    )


def _console(args) -> Console:
    return Console(enabled=not getattr(args, "quiet", False))


@contextlib.contextmanager
def _maybe_spans(args):
    """Install a SpanCollector for the block when ``--spans-jsonl`` is set."""
    path = getattr(args, "spans_jsonl", None)
    if not path:
        yield None
        return
    from .obs import SpanCollector

    collector = SpanCollector(path=path).install()
    try:
        yield collector
    finally:
        collector.close()


def _run_traced(args, fn):
    """Run ``fn()`` under the op tracer when ``--trace`` is set.

    Prints the hot-op table and writes the Chrome trace afterwards.
    Span collection (``--spans-jsonl``) composes: span events are merged
    into the same Chrome trace on the shared perf_counter timebase.
    """
    console = _console(args)
    if not getattr(args, "trace", False):
        with _maybe_spans(args) as collector:
            result = fn()
        if collector is not None:
            console.print(f"spans written to {args.spans_jsonl} "
                          f"({len(collector.records)} spans)")
        return result
    with trace() as tracer:
        with _maybe_spans(args) as collector:
            result = fn()
    console.print()
    console.print(tracer.table())
    extra = (collector.chrome_events(origin=tracer.origin)
             if collector is not None else None)
    path = tracer.export_chrome_trace(args.trace_out, extra_events=extra)
    merged = f" + {len(extra)} span(s)" if extra else ""
    console.print(f"chrome trace written to {path} "
                  f"({len(tracer.events)} events{merged}; open in chrome://tracing)")
    return result


def _trainer(args) -> "Trainer":
    """Build the trainer from CLI args: guarded when ``--guard`` is set."""
    config = _config(args)
    if getattr(args, "guard", False):
        from .resilience import DivergenceSentinel, GuardedTrainer

        if config.checkpoint_path is None:
            raise SystemExit("--guard needs --checkpoint PATH (rollback target)")
        return GuardedTrainer(
            Trainer(config), sentinel=DivergenceSentinel(),
            max_retries=args.max_retries, lr_backoff=args.lr_backoff,
        )
    return Trainer(config)


def _model_kwargs(args) -> dict:
    """TGCRN dims from CLI args; baselines ignore them (and read ``num_layers``)."""
    return dict(node_dim=args.node_dim, time_dim=args.time_dim, num_layers=args.layers)


def _train_once(args, task, keep_model: bool = True, trainer=None):
    """Shared train/profile path: run one experiment from CLI args."""
    trainer = trainer if trainer is not None else _trainer(args)
    return run_experiment(
        args.model, task, hidden_dim=args.hidden, num_layers=args.layers,
        model_kwargs=_model_kwargs(args), keep_model=keep_model, trainer=trainer,
    )


def cmd_train(args) -> int:
    console = _console(args)
    task = _load(args)
    trainer = _trainer(args)
    result = _run_traced(args, lambda: _train_once(args, task, trainer=trainer))
    console.print(f"\n{args.model} on {args.dataset}: {result.overall}")
    console.print(f"parameters: {result.num_parameters:,}  time/epoch: {result.seconds_per_epoch:.2f}s")
    engine = getattr(getattr(trainer, "trainer", trainer), "last_engine", None)
    if engine is not None:
        stats = engine.stats
        console.print(f"engine: {stats['captures']} plan(s) captured, "
                      f"{stats['replays']} replay(s), {stats['eager_steps']} "
                      f"eager step(s), {stats['invalidations']} invalidation(s)")
    if args.summary and hasattr(result.model, "summary"):
        console.print()
        console.print(result.model.summary())
    if result.history is not None and result.history.val_maes:
        from .viz import training_curve

        console.print()
        console.print(training_curve(result.history.train_losses, result.history.val_maes))
    if args.save and hasattr(result.model, "state_dict"):
        save_checkpoint(args.save, result.model, metadata={
            "model": args.model, "dataset": args.dataset,
            "hidden": args.hidden, "layers": args.layers,
            "node_dim": args.node_dim, "time_dim": args.time_dim,
            "nodes": task.num_nodes, "test_mae": result.overall.mae,
        })
        console.print(f"checkpoint written to {args.save}")
    return 0


def cmd_profile(args) -> int:
    """Train briefly under the op tracer; report the hot-op table."""
    console = _console(args)
    task = _load(args)
    with trace(max_events=args.max_events) as tracer:
        result = _train_once(args, task, keep_model=False)
    console.print(f"\nprofile: {args.model} on {args.dataset}, "
                  f"{result.epochs_run} epoch(s), "
                  f"{result.seconds_per_epoch:.2f}s/epoch")
    console.print()
    console.print(tracer.table(args.top_k))
    path = tracer.export_chrome_trace(args.trace_out)
    console.print(f"\nchrome trace written to {path} "
                  f"({len(tracer.events)} events"
                  + (f", {tracer.events_dropped} dropped" if tracer.events_dropped else "")
                  + "; open in chrome://tracing)")
    return 0


def cmd_evaluate(args) -> int:
    from .metrics import evaluate as evaluate_metrics
    from .metrics import horizon_report
    from .nn.serialization import CheckpointCorruptionError
    from .resilience import safe_predict

    console = _console(args)
    task = _load(args)
    model = TGCRN(
        **default_tgcrn_kwargs(task, hidden_dim=args.hidden, node_dim=args.node_dim,
                               time_dim=args.time_dim, num_layers=args.layers),
        rng=np.random.default_rng(args.seed),
    )
    try:
        metadata = load_checkpoint(args.checkpoint, model)
    except FileNotFoundError:
        console.print(f"error: checkpoint {args.checkpoint} does not exist")
        return 2
    except CheckpointCorruptionError as exc:
        console.print(f"error: {exc}")
        console.print("the file is damaged (truncated write, bit rot, or manual "
                      "edit) — re-train or restore it from a backup; checkpoints "
                      "written by this version are atomic and integrity-hashed")
        return 2
    trainer = Trainer(TrainingConfig(batch_size=args.batch_size))
    result = safe_predict(trainer, model, task, "test")
    if result.degraded:
        console.print(f"WARNING: model output invalid ({result.reason}); metrics "
                      "below come from the historical-average fallback")
    overall = evaluate_metrics(result.prediction, result.target)
    per_horizon = horizon_report(result.prediction, result.target)
    console.print(f"checkpoint metadata: {metadata}")
    console.print(f"test: {overall}")
    for q, report in enumerate(per_horizon, start=1):
        console.print(f"  t+{q}: MAE {report.mae:.3f}  RMSE {report.rmse:.3f}")
    return 0


def cmd_compare(args) -> int:
    console = _console(args)
    task = _load(args)
    config = _config(args)
    config.verbose = False
    logger = None
    if args.log_jsonl:
        from .obs import RunLogger

        logger = RunLogger(path=args.log_jsonl, console=False,
                           metadata={"command": "compare", "dataset": args.dataset,
                                     "models": args.models})
    results = []

    def _run_all():
        for name in args.models.split(","):
            name = name.strip()
            console.print(f"running {name}...", flush=True)
            if logger is not None:
                logger.log("model_start", model=name)
            results.append(run_experiment(name, task, config, hidden_dim=args.hidden,
                                          num_layers=args.layers,
                                          model_kwargs=_model_kwargs(args), logger=logger))

    try:
        _run_traced(args, _run_all)
    finally:
        if logger is not None:
            logger.close()
    console.print(f"\n{'model':<14} {'MAE':>8} {'RMSE':>8} {'MAPE%':>7} {'PCC':>7} {'#params':>10}")
    for r in results:
        o = r.overall
        console.print(f"{r.model_name:<14} {o.mae:8.3f} {o.rmse:8.3f} {o.mape:7.2f} {o.pcc:7.4f} "
                      f"{r.num_parameters:10,d}")
    console.print()
    console.print(horizon_curve_text(results))
    if any(r.model_name == "tgcrn" for r in results) and len(results) > 1:
        console.print()
        console.print(improvement_table(results))
    return 0


def cmd_inspect(args) -> int:
    console = _console(args)
    task = _load(args)
    ds = task.dataset
    console.print(f"{args.dataset}: {task.num_nodes} nodes, {ds.num_steps} steps "
                  f"({task.steps_per_day}/day), P={task.history} Q={task.horizon}")
    console.print(f"windows: train {len(task.train)}, val {len(task.val)}, test {len(task.test)}")
    areas = {0: "residential", 1: "business", 2: "shopping"}
    counts = {areas[a]: int((ds.areas == a).sum()) for a in np.unique(ds.areas)}
    console.print(f"functional areas: {counts}")
    spd = task.steps_per_day
    slot = spd // 6
    console.print("\nGround-truth OD transfer (weekday vs weekend, same morning slot):")
    console.print(side_by_side(
        render_heatmap(ds.od_matrix(0 * spd + slot), title="Monday"),
        render_heatmap(ds.od_matrix(5 * spd + slot), title="Saturday"),
    ))
    return 0


def cmd_experiments(args) -> int:
    """Regenerate paper artifacts: print each, and save it under ``--out``."""
    if args.name is None:
        print("available experiments:")
        for name in list_experiments():
            print(f"  {name}")
        return 0
    scale = SCALES[args.scale]
    for name in list_experiments() if args.name == "all" else [args.name]:
        text, data = run(name, scale)
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}", flush=True)
        if args.out:
            save(args.out, name, scale, text, data)
    return 0


def cmd_verify(args) -> int:
    """Run the repro.verify harness: cross-checks, gradient oracle, golden trace."""
    from pathlib import Path

    from .autodiff import Tensor, mae_loss
    from .verify import (
        check_module_gradients,
        compare_traces,
        load_trace,
        named_rng,
        run_all,
        run_golden_trace,
        save_trace,
    )

    console = _console(args)
    failures = 0

    console.print("reference-vs-production cross-checks:")
    for result in run_all(seed=args.seed):
        console.print(f"  {result}")
        failures += 0 if result.passed else 1

    console.print("\ngradient oracle (tiny TGCRN, sampled coordinates):")
    rng = named_rng(args.seed, "cli-verify-oracle")
    model = TGCRN(
        num_nodes=3, in_dim=1, out_dim=1, horizon=2, hidden_dim=3, num_layers=1,
        node_dim=3, time_dim=3, steps_per_day=8, rng=rng,
    )
    x = Tensor(rng.normal(size=(2, 3, 3, 1)))
    t = np.arange(5)[None, :].repeat(2, axis=0)
    y = Tensor(rng.normal(size=(2, 2, 3, 1)))
    report = check_module_gradients(
        model,
        lambda: mae_loss(model(x, t), y),
        max_coords_per_param=args.sample if args.sample > 0 else None,
        rng=np.random.default_rng(args.seed),
    )
    for line in str(report).splitlines():
        console.print(f"  {line}")
    failures += 0 if report.passed else 1

    golden_path = Path(args.golden)
    if args.update_golden:
        golden_trace = run_golden_trace()
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        save_trace(golden_path, golden_trace)
        console.print(f"\ngolden trace regenerated at {golden_path}")
    elif golden_path.exists():
        console.print(f"\ngolden trace ({golden_path}):")
        problems = compare_traces(run_golden_trace(), load_trace(golden_path))
        if problems:
            failures += 1
            for problem in problems:
                console.print(f"  FAIL {problem}")
        else:
            console.print("  ok   loss curve matches the committed fixture")
    else:
        console.print(f"\ngolden trace: fixture {golden_path} not found, skipping "
                      "(regenerate with --update-golden)")

    console.print(f"\nverify: {'FAILED' if failures else 'PASSED'}")
    return 1 if failures else 0


def cmd_analyze(args) -> int:
    """Analysis: repo lint + concurrency rules + a real forward/backward probe of the model catalog."""
    from pathlib import Path

    from .analyze import (
        Baseline,
        max_severity,
        render_json,
        render_text,
        run_analysis,
        severity_rank,
    )
    from .ioutil import atomic_write_text

    console = _console(args)
    baseline_path = Path(args.baseline)
    rules = [r.strip() for r in args.rules.split(",") if r.strip()] if args.rules else None
    paths = args.paths or None

    if args.changed_only:
        # fast pre-commit mode: lint exactly the python files git says
        # changed (staged, unstaged, or untracked); model checks are
        # whole-catalog and don't scope to files, so they are skipped
        import subprocess

        def _git_lines(*cmd: str) -> list[str]:
            proc = subprocess.run(
                ["git", *cmd], cwd=args.root, capture_output=True, text=True
            )
            if proc.returncode != 0:
                return []
            return [line.strip() for line in proc.stdout.splitlines() if line.strip()]

        changed = set(_git_lines("diff", "--name-only", "HEAD", "--", "*.py"))
        changed |= set(_git_lines("ls-files", "--others", "--exclude-standard", "--", "*.py"))
        root_dir = Path(args.root)
        paths = sorted(str(root_dir / name) for name in changed if (root_dir / name).is_file())
        if not paths:
            console.print("analyze: no changed python files")
            return 0

    report = run_analysis(
        root=args.root,
        paths=paths,
        rules=rules,
        include_models=not args.changed_only,
        baseline=Baseline.load(baseline_path),
        seed=args.seed,
    )

    if args.update_baseline:
        Baseline.from_findings(report.all_findings).save(baseline_path)
        console.print(f"baseline updated: {baseline_path} now accepts "
                      f"{len(report.all_findings)} finding(s)")
        return 0

    if args.json:
        json_path = Path(args.json)
        json_path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(json_path, render_json(
            report.findings, suppressed=report.suppressed, metrics=report.metrics) + "\n")
        console.print(f"json report: {json_path}")
    console.print(render_text(report.findings, suppressed=report.suppressed))

    if args.fail_on != "never":
        worst = max_severity(report.findings)
        if worst is not None and severity_rank(worst) >= severity_rank(args.fail_on):
            console.print(f"\nanalyze: FAILED (new {worst}-severity findings; "
                          f"fix them or re-baseline with --update-baseline)")
            return 1
    console.print("\nanalyze: PASSED")
    return 0


def cmd_obs_report(args) -> int:
    """Span-tree analysis + the noise-aware bench regression sentinel.

    With ``--spans``, reconstructs every trace from the JSONL stream,
    checks request-tree completeness, and prints the per-stage latency
    breakdown plus the slowest request's critical path.  With
    ``--bench-current/--bench-history``, compares a fresh
    ``table8_cost.json`` (``experiments table8_cost --out DIR``) against
    the committed one with machine-speed-invariant normalization.
    ``--fail-on`` gates CI.
    """
    import json as _json
    from pathlib import Path

    from .obs.report import (
        assemble_traces,
        check_bench_regression,
        check_request_traces,
        critical_path,
        load_spans,
        render_regressions,
        render_report,
        slowest_request,
        stage_breakdown,
    )

    console = _console(args)
    payload: dict = {}
    gates_hit: set[str] = set()

    if args.spans:
        records = load_spans(args.spans)
        trees = assemble_traces(records)
        tcheck = check_request_traces(trees)
        breakdown = stage_breakdown(trees)
        console.print(render_report(trees, tcheck, breakdown))
        payload["spans"] = {"path": args.spans, "check": tcheck.to_dict(),
                            "stages": breakdown}
        slowest = slowest_request(trees)
        if slowest is not None and slowest.root is not None:
            payload["spans"]["critical_path"] = critical_path(slowest.root)
        if not tcheck.ok:
            gates_hit.add("incomplete")

    if args.bench_current and args.bench_history:
        current = _json.loads(Path(args.bench_current).read_text())
        history = _json.loads(Path(args.bench_history).read_text())
        findings = check_bench_regression(
            current, history, threshold=args.threshold)
        if args.spans:
            console.print()
        console.print(render_regressions(findings))
        payload["bench"] = {"current": args.bench_current,
                            "history": args.bench_history,
                            "threshold": args.threshold,
                            "findings": [f.to_dict() for f in findings]}
        if any(f.is_regression for f in findings):
            gates_hit.add("regression")
    elif args.bench_current or args.bench_history:
        raise SystemExit("--bench-current and --bench-history go together")

    if not payload:
        raise SystemExit("nothing to report: pass --spans and/or "
                         "--bench-current/--bench-history")

    if args.out:
        from .ioutil import atomic_write_text

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out, _json.dumps(payload, indent=2) + "\n")
        console.print(f"\nreport written to {out}")

    if args.fail_on == "never":
        return 0
    gating = gates_hit if args.fail_on == "any" else gates_hit & {args.fail_on}
    if gating:
        console.print(f"\nobs-report: FAILED ({', '.join(sorted(gating))})")
        return 1
    console.print("\nobs-report: PASSED")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train one model and report test metrics")
    _add_dataset_args(train)
    _add_training_args(train)
    _add_obs_args(train, tracing=True)
    _add_resilience_args(train)
    train.add_argument("--model", default="tgcrn",
                       help=f"tgcrn, a variant {sorted(VARIANTS)}, or one of {ALL_BASELINES}")
    train.add_argument("--save", default=None, help="write a .npz checkpoint")
    train.add_argument("--summary", action="store_true",
                       help="print a per-module parameter table")
    train.set_defaults(fn=cmd_train)

    evaluate = sub.add_parser("evaluate", help="evaluate a saved TGCRN checkpoint")
    _add_dataset_args(evaluate)
    _add_training_args(evaluate)
    _add_obs_args(evaluate)
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.set_defaults(fn=cmd_evaluate)

    compare = sub.add_parser("compare", help="train several models and rank them")
    _add_dataset_args(compare)
    _add_training_args(compare)
    _add_obs_args(compare, tracing=True)
    compare.add_argument("--models", default="ha,agcrn,tgcrn", help="comma-separated names")
    compare.set_defaults(fn=cmd_compare)

    profile = sub.add_parser(
        "profile",
        help="train briefly under the op tracer and report the hot-op table",
    )
    _add_dataset_args(profile)
    _add_training_args(profile)
    _add_obs_args(profile)
    profile.add_argument("--model", default="tgcrn",
                         help=f"tgcrn, a variant {sorted(VARIANTS)}, or one of {ALL_BASELINES}")
    profile.add_argument("--top-k", type=int, default=12,
                         help="rows in the hot-op table")
    profile.add_argument("--trace-out", default="trace.json", metavar="PATH",
                         help="Chrome-trace JSON destination")
    profile.add_argument("--max-events", type=int, default=200_000,
                         help="Chrome-trace event cap")
    profile.set_defaults(fn=cmd_profile, epochs=1)

    inspect = sub.add_parser("inspect", help="describe a dataset and its OD dynamics")
    _add_dataset_args(inspect)
    _add_obs_args(inspect)
    inspect.set_defaults(fn=cmd_inspect)

    experiments = sub.add_parser(
        "experiments", help="regenerate a paper table/figure (or list them)"
    )
    experiments.add_argument("name", nargs="?", default=None,
                             help="artifact name (e.g. table6_electricity) or 'all'; "
                                  "omit to list")
    experiments.add_argument("--scale", choices=list(SCALES), default="quick",
                             help="smoke: 1 epoch on 6 nodes; quick: the committed "
                                  "benchmarks/results; full: hours on CPU")
    experiments.add_argument("--out", default=None, metavar="DIR",
                             help="write DIR/<name>.txt (and .json when the artifact "
                                  "has data)")
    experiments.set_defaults(fn=cmd_experiments)

    analyze = sub.add_parser(
        "analyze",
        help="analysis: AST lint over src/repro plus one real forward/backward "
             "probe of every model in the catalog",
    )
    analyze.add_argument("--rules", default=None,
                         help="comma-separated rule-id prefixes to run "
                              "(e.g. 'RL' or 'SH001,GF'); default: all rules")
    analyze.add_argument("--paths", nargs="*", default=None,
                         help="files/directories to lint (default: src/repro)")
    analyze.add_argument("--root", default=".",
                         help="repo root findings are reported relative to")
    analyze.add_argument("--json", default=None, metavar="PATH",
                         help="also write the machine-readable report to PATH")
    analyze.add_argument("--baseline", default="analyze-baseline.json",
                         help="accepted-findings file; new findings gate, "
                              "baselined ones don't")
    analyze.add_argument("--update-baseline", action="store_true",
                         help="rewrite the baseline to accept every current finding")
    analyze.add_argument("--fail-on", default="error",
                         choices=["info", "warning", "error", "never"],
                         help="exit 1 when a NEW finding at/above this severity "
                              "exists (default: error)")
    analyze.add_argument("--changed-only", action="store_true",
                         help="lint only files changed vs git HEAD "
                              "(fast pre-commit mode; skips model checks)")
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--quiet", action="store_true",
                         help="suppress console output (exit code still gates)")
    analyze.set_defaults(fn=cmd_analyze)

    verify = sub.add_parser(
        "verify",
        help="run the correctness harness (reference cross-checks, gradient "
             "oracle, golden trace) outside pytest",
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--sample", type=int, default=8,
                        help="finite-difference coordinates per parameter "
                             "(0 = exhaustive)")
    verify.add_argument("--golden", default="tests/golden/tiny_tgcrn_loss.json",
                        help="golden loss-curve fixture to compare against")
    verify.add_argument("--update-golden", action="store_true",
                        help="regenerate the golden fixture instead of comparing")
    verify.add_argument("--quiet", action="store_true",
                        help="suppress console output (exit code still reports pass/fail)")
    verify.set_defaults(fn=cmd_verify)

    obs_report = sub.add_parser(
        "obs-report",
        help="reconstruct span trees (completeness, per-stage latency, "
             "critical paths) and run the bench perf-regression sentinel",
    )
    obs_report.add_argument("--spans", default=None, metavar="PATH",
                            help="span JSONL stream (from --spans-jsonl or a "
                                 "SpanCollector)")
    obs_report.add_argument("--bench-current", default=None, metavar="PATH",
                            help="fresh table8_cost.json (experiments table8_cost "
                                 "--out DIR) to judge")
    obs_report.add_argument("--bench-history", default=None, metavar="PATH",
                            help="committed benchmarks/results/table8_cost.json "
                                 "to compare against")
    obs_report.add_argument("--threshold", type=float, default=2.0,
                            help="normalized per-model slowdown that counts as "
                                 "a regression (default 2.0)")
    obs_report.add_argument("--out", default=None, metavar="PATH",
                            help="write the machine-readable JSON report here")
    obs_report.add_argument("--fail-on", default="never",
                            choices=["never", "incomplete", "regression", "any"],
                            help="exit 1 on incomplete span trees and/or bench "
                                 "regressions (default: never)")
    obs_report.add_argument("--quiet", action="store_true",
                            help="suppress console output (exit code still gates)")
    obs_report.set_defaults(fn=cmd_obs_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
