"""dustbench — the end-to-end + per-layer benchmark of the DUST service.

Two ways to run it (from the repository root; ``src/`` is put on the path
here, so no ``PYTHONPATH`` is needed):

* **One workload, one mode** — the form the benchmark driver uses::

      python3 benchmarks/dustbench/run.py --workload serve-distinct-c2 \\
          --seed 11 --seconds 15 --trace 0

  ``--trace 0`` measures with tracing off and ends with one JSON line holding
  every end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` runs a shorter
  loaded phase plus the traced replay and ends with every per-layer metric
  (a layer that does no work in the workload reads 0).

* **Everything** — ``python3 benchmarks/dustbench/run.py --seed 11`` runs the
  four workloads untraced, then traced, prints every metric by name with its
  unit, and writes ``out/results-seed11.json`` and ``out/trace.json``.
  ``--smoke`` shrinks every size and duration (one traced pass per workload
  also supplies the end-to-end names) so CI can check the plumbing in
  seconds; smoke numbers are not measurements.

Exit status is non-zero when any operation failed or any output check missed.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent
SMOKE_SECONDS = 0.5


def _bootstrap() -> None:
    """Put the checkout's library on ``sys.path`` (the script's own directory,
    which holds the benchmark's modules, already is)."""
    src = REPO_ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(
            f"dustbench: {src / 'repro'} not found — the benchmark measures the "
            "library in this checkout and cannot run without it"
        )
    sys.path.insert(0, str(src))


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale) -> tuple[Any, Any]:
    """Run one workload in one mode; returns ``(Outcome, Tracer)``."""
    from harness import Tracer, WorkDir, available_cpus, reset_peak_rss

    tracer = Tracer()
    reset_peak_rss()
    with WorkDir(name) as workdir:
        if name in ("serve-distinct-c2", "serve-hot-writes"):
            import workload_serve

            outcome = workload_serve.run(name, seed, seconds, trace, scale, workdir, tracer)
        elif name == "search-large":
            import workload_search

            outcome = workload_search.run(seed, seconds, trace, scale, workdir, tracer)
        elif name == "diversify-scale":
            import workload_diversify

            outcome = workload_diversify.run(seed, seconds, trace, scale, tracer)
        else:
            raise SystemExit(f"dustbench: unknown workload {name!r}")
    failed = min(len(outcome.failures), outcome.attempted)
    outcome.values["failed_share"] = failed / outcome.attempted if outcome.attempted else 1.0
    outcome.values["harness.nproc"] = available_cpus()
    return outcome, tracer


def result_record(spec: dict[str, Any], outcome, groups: tuple[str, ...]) -> dict[str, Any]:
    """The ``{correct, attempted, failed, metrics}`` object for ``groups``.

    End-to-end metrics must all have been measured; a per-layer metric the
    workload did not produce belongs to a layer that did no work in it and
    reads 0.
    """
    metrics: dict[str, dict[str, Any]] = {}
    for group in groups:
        for metric in spec[group]:
            name = metric["name"]
            if name in outcome.values:
                value = float(outcome.values[name])
            elif group == "per_layer":
                value = 0.0
            else:
                raise SystemExit(f"dustbench: end-to-end metric {name!r} was not measured")
            metrics[name] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": not outcome.failures and outcome.attempted > 0,
        "attempted": max(1, outcome.attempted),
        "failed": min(len(outcome.failures), max(1, outcome.attempted)),
        "metrics": metrics,
    }


def print_failures(name: str, outcome) -> None:
    for message in outcome.failures[:10]:
        print(f"  FAIL {name}: {message}", file=sys.stderr)
    if len(outcome.failures) > 10:
        print(f"  ... and {len(outcome.failures) - 10} more", file=sys.stderr)


def print_report(name: str, record: dict[str, Any], counts: dict[str, float]) -> None:
    succeeded = record["attempted"] - record["failed"]
    print(
        f"\n== {name}: attempted {record['attempted']}, succeeded {succeeded}, "
        f"failed {record['failed']}, correct {record['correct']}"
    )
    if counts:
        print("   n: " + ", ".join(f"{key}={int(value)}" for key, value in sorted(counts.items())))
    for metric, entry in record["metrics"].items():
        if entry["value"] != 0.0:
            print(f"   {metric:<44} {entry['value']:>14.4f} {entry['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload (driver form)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for CI")
    parser.add_argument("--output", help="results file of the all-workloads form")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # SIGTERM must unwind like an exception, so child servers are stopped and
    # work directories removed on that path too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _bootstrap()
    import harness
    import inputs

    spec = harness.load_spec()
    scale = inputs.Scale.smoke() if args.smoke else inputs.Scale()
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    if seconds <= 0:
        parser.error("--seconds must be positive")
    names = [workload["name"] for workload in spec["workloads"]]

    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        outcome, tracer = run_workload(args.workload, args.seed, seconds, bool(args.trace), scale)
        group = "per_layer" if args.trace else "end_to_end"
        record = result_record(spec, outcome, (group,))
        print_report(args.workload, record, outcome.counts)
        print_failures(args.workload, outcome)
        if args.trace:
            harness.dump_traces(
                harness.OUT_DIR / f"trace-{args.workload}.json",
                {args.workload: tracer},
                seed=args.seed,
            )
        print(json.dumps(record))
        return 0 if record["correct"] else 1

    # All workloads: untraced pass for the end-to-end numbers, traced pass for
    # the per-layer numbers (smoke: the traced pass alone supplies both).
    results: dict[str, Any] = {
        "env": harness.environment(args.seed),
        "smoke": args.smoke,
        "seconds": seconds,
        "workloads": {},
    }
    traces: dict[str, Any] = {}
    all_correct = True
    for name in names:
        merged: dict[str, Any] = {"metrics": {}}
        passes = ((True, ("end_to_end", "per_layer")),) if args.smoke else (
            (False, ("end_to_end",)),
            (True, ("per_layer",)),
        )
        for trace, groups in passes:
            outcome, tracer = run_workload(name, args.seed, seconds, trace, scale)
            record = result_record(spec, outcome, groups)
            print_report(f"{name} [{'traced' if trace else 'untraced'}]", record, outcome.counts)
            print_failures(name, outcome)
            merged["metrics"].update(record["metrics"])
            merged["traced" if trace else "untraced"] = {
                **{key: record[key] for key in ("correct", "attempted", "failed")},
                "n": outcome.counts,
            }
            all_correct = all_correct and record["correct"]
            if trace:
                traces[name] = tracer
        results["workloads"][name] = merged

    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    output = Path(args.output) if args.output else harness.OUT_DIR / f"results-seed{args.seed}.json"
    output.write_text(json.dumps(results, indent=2) + "\n")
    harness.dump_traces(harness.OUT_DIR / "trace.json", traces, seed=args.seed)
    print(f"\nwrote {output} and {harness.OUT_DIR / 'trace.json'}")
    print("PASS" if all_correct else "FAIL")
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
