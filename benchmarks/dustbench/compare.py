"""Compare two sets of dustbench runs, metric by metric, against the bounds.

A *set* is either a checkout to run (``--a .``; its own ``run.py`` is invoked
in the driver form, untraced, once per seed and workload) or a file of
already collected runs (``--save`` of an earlier invocation).  For every
workload x end-to-end metric the report gives both medians, each set's spread
(distance between the first and third quartile as a share of the median —
the same statistic the benchmark driver uses) and a verdict against the
metric's bound in ``BENCHMARK.json``:

* ``ok``          B's median is not worse than A's by more than the bound;
* ``REGRESSION``  it is worse by more than the bound;
* ``UNRESOLVED``  it is worse by more than the bound *and* A's spread is wider
  than the bound, so the difference cannot be told from noise.

Typical uses::

    # steadiness: ten seeds of this checkout, spreads against the bounds
    python3 benchmarks/dustbench/compare.py --a . --seeds 101-110

    # repeatability: the same code and seed, two sets of three runs
    python3 benchmarks/dustbench/compare.py --a . --b . --seeds 11 11 11

    # a change against its parent (runs alternate A, B, A, B, ...)
    python3 benchmarks/dustbench/compare.py --a ../parent --b . --seeds 11-20

Exit status is 1 when any pairing is a REGRESSION or UNRESOLVED, or when a
run reported incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent

#: ``{workload: {metric: [one value per run]}}``
RunSet = dict[str, dict[str, list[float]]]


def parse_seeds(tokens: list[str]) -> list[int]:
    seeds: list[int] = []
    for token in tokens:
        if "-" in token:
            first, last = token.split("-", 1)
            seeds.extend(range(int(first), int(last) + 1))
        else:
            seeds.append(int(token))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """One untraced driver-form run of ``checkout``'s benchmark; its JSON record."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    command = [*spec["command"], "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", f"{seconds:g}", "--trace", "0"]
    completed = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, timeout=900, check=False
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"{' '.join(command)} in {checkout} exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    record = json.loads(lines[-1])
    if not record["correct"]:
        raise SystemExit(f"{workload} seed {seed} in {checkout}: incorrect output")
    return record


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else float("inf")


def worsening(metric: dict[str, Any], base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    if not base:
        return 0.0
    change = (other - base) / base
    return change if metric["better"] == "lower" else -change


def report(spec: dict[str, Any], a: RunSet, b: RunSet | None) -> bool:
    """Print the table; returns True when every pairing is within its bound."""
    clean = True
    header = f"{'workload':<18} {'metric':<18} {'median A':>12} {'spread A':>9}"
    if b is not None:
        header += f" {'median B':>12} {'spread B':>9} {'B worse by':>11}"
    print(header + f" {'bound':>6}  verdict")
    for workload in a:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values_a = a[workload][name]
            median_a, spread_a = statistics.median(values_a), spread(values_a)
            row = f"{workload:<18} {name:<18} {median_a:>12.4f} {spread_a:>8.1%}"
            if b is None:
                # One set: the driver's acceptance rule — the spread of every
                # metric but setup_s must stay within the metric's bound.
                steady = spread_a <= bound or name == "setup_s"
                verdict = "ok" if steady else "NOISY"
                if steady and spread_a <= bound / 3:
                    verdict = "steady"
            else:
                values_b = b[workload][name]
                median_b = statistics.median(values_b)
                worse = worsening(metric, median_a, median_b)
                row += f" {median_b:>12.4f} {spread(values_b):>8.1%} {worse:>+10.1%}"
                if worse <= bound:
                    verdict = "ok"
                else:
                    verdict = "UNRESOLVED" if spread_a > bound else "REGRESSION"
            clean = clean and verdict in ("ok", "steady")
            print(row + f" {bound:>6.0%}  {verdict}")
    return clean


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="checkout to run, or a saved set")
    parser.add_argument("--b", help="second checkout or saved set (omit: spreads only)")
    parser.add_argument("--seeds", nargs="+", default=["11", "12", "13"],
                        help="seeds, e.g. 11 12 13 or 101-110; one run per seed")
    parser.add_argument("--workloads", nargs="+", help="default: all")
    parser.add_argument("--seconds", type=float, help="default: run_seconds")
    parser.add_argument("--save", help="write the collected sets to this JSON file")
    args = parser.parse_args(argv)

    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [workload["name"] for workload in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    seeds = parse_seeds(args.seeds)

    sides: dict[str, Path] = {"a": Path(args.a)}
    if args.b is not None:
        sides["b"] = Path(args.b)
    sets: dict[str, RunSet] = {}
    to_run = []
    for label, source in sides.items():
        if source.is_file():
            saved = json.loads(source.read_text())
            sets[label] = saved.get(label) or saved["a"]
        else:
            sets[label] = {workload: {} for workload in workloads}
            to_run.append(label)
    # Alternate the sides run by run so slow drift of the machine hits both.
    for workload in workloads:
        for position, seed in enumerate(seeds):
            order = to_run if position % 2 == 0 else list(reversed(to_run))
            for label in order:
                record = run_once(sides[label].resolve(), workload, seed, seconds)
                for name, entry in record["metrics"].items():
                    sets[label][workload].setdefault(name, []).append(entry["value"])
                print(f"ran {label} {workload} seed {seed}", file=sys.stderr)
    if args.save:
        Path(args.save).write_text(json.dumps(sets, indent=1) + "\n")
    return 0 if report(spec, sets["a"], sets.get("b")) else 1


if __name__ == "__main__":
    raise SystemExit(main())
