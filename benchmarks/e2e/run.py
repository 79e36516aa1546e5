"""Run the end-to-end benchmark of training and serving TGCRN.

One workload, as BENCHMARK.json's command runs it (from the repo root)::

    python3 benchmarks/e2e/run.py --workload serve_open --seed 0 --seconds 12 --trace 0

All four, each in its own process, with a results file per workload for
``compare.py``::

    python3 benchmarks/e2e/run.py --seed 0 --out results/seed0

Prints every metric with its unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1`` (which also writes the spans
and the per-layer table under ``--trace-dir``).  Exits non-zero when any
output the benchmark checked is wrong or a metric is missing.
"""

import os

# BLAS reads these when numpy loads: every workload runs its math on one
# thread, so the only parallelism is the fleet's replica processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAMES = ("train_quick", "train_full", "serve_open", "fleet_open")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=".bench_out/traces",
                        help="where --trace 1 writes spans and per-layer tables")
    parser.add_argument("--out", help="write the full result (with sample counts) here; "
                        "with all workloads, a prefix for one file each")
    return parser.parse_args(argv)


def run_one(args, spec: dict, seconds: float) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    result = WORKLOADS[args.workload](args.seed, seconds, trace=bool(args.trace))
    problems = list(result.problems)
    sections = [("end_to_end", result.metrics)]
    if args.trace:
        sections.append(("per_layer", result.layers))
    reported = {}
    for key, measured in sections:
        print(f"# {args.workload} seed={args.seed} {key}")
        for metric in spec[key]:
            name = metric["name"]
            if name not in measured:
                problems.append(f"{name} was not measured")
                continue
            value, unit = measured[name]
            if unit != metric["unit"]:
                problems.append(f"{name} measured in {unit}, declared in {metric['unit']}")
            print(f"{name:<44} {value:>14.6g} {unit}")
            reported.setdefault(key, {})[name] = {"value": value, "unit": unit}
    for problem in problems:
        print(f"WRONG: {problem}", file=sys.stderr)
    line = {"correct": not problems, "attempted": result.attempted, "failed": result.failed,
            "metrics": reported.get("per_layer" if args.trace else "end_to_end", {})}
    if args.trace:
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        stem = trace_dir / f"{args.workload}-seed{args.seed}"
        with open(f"{stem}.spans.jsonl", "w") as fh:
            for record in result.spans:
                fh.write(json.dumps(record, default=str) + "\n")
        Path(f"{stem}.layers.json").write_text(json.dumps(line["metrics"], indent=2) + "\n")
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": seconds,
                  "trace": args.trace, "result": line, "problems": problems,
                  "details": result.details}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=2, default=float) + "\n")
    print(json.dumps(line))
    return 0 if not problems else 1


def run_all(args, seconds: float) -> int:
    """Each workload in its own interpreter, so peak RSS is its own."""
    code = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace),
               "--trace-dir", args.trace_dir]
        if args.out:
            cmd += ["--out", f"{args.out}.{name}.json"]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.workload is None:
        return run_all(args, seconds)
    return run_one(args, spec, seconds)


if __name__ == "__main__":
    sys.exit(main())
