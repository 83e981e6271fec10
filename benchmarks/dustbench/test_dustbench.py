"""Plumbing test of dustbench, collected by the tier-1 suite.

Runs the benchmark in ``--smoke`` size as a subprocess (the way CI and the
driver run it) and checks the contract between ``BENCHMARK.json`` and what
the command emits: every declared workload and metric is reported by exactly
its declared name and unit, names are well formed, and the parity checks
actually executed.  Smoke numbers are never asserted on as measurements.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_benchmark(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


def test_declared_names_are_well_formed_and_unique():
    names = [entry["name"] for entry in SPEC["workloads"]]
    names += [entry["name"] for entry in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(set(names)) == len(names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert any(
        metric == {"name": "setup_s", "unit": "s", "better": "lower", "bound": metric["bound"]}
        for metric in SPEC["end_to_end"]
    )
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])
    for path in SPEC["paths"]:
        assert (REPO_ROOT / path).is_dir()


def test_smoke_run_emits_every_declared_workload_and_metric(tmp_path):
    output = tmp_path / "results.json"
    completed = run_benchmark("--smoke", "--seed", "7", "--output", str(output))
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    results = json.loads(output.read_text())

    assert results["env"]["seed"] == 7
    assert {"git_sha", "python", "numpy", "nproc", "cgroup_cpu_quota"} <= set(results["env"])
    for workload in SPEC["workloads"]:
        entry = results["workloads"][workload["name"]]
        assert entry["traced"]["correct"] is True and entry["traced"]["failed"] == 0
        assert entry["traced"]["attempted"] >= 1
        for metric in SPEC["end_to_end"]:
            reported = entry["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert reported["value"] > 0, (workload["name"], metric["name"])
        for metric in SPEC["per_layer"]:
            assert entry["metrics"][metric["name"]]["unit"] == metric["unit"]

    # The output checks ran: parity against the model deployment, recall
    # against flat search, repeat + random-pick checks of the selections.
    workloads = results["workloads"]
    counts = {name: entry["traced"]["n"] for name, entry in workloads.items()}
    assert counts["serve-distinct-c2"]["parity_checked"] >= 1
    assert counts["serve-hot-writes"]["parity_checked"] >= 1
    assert counts["serve-hot-writes"]["write_n"] >= 1
    assert counts["search-large"]["recall_n"] >= 1
    assert counts["diversify-scale"]["diversity_n"] >= 1
    # ... and the traced replay produced spans for the layers it claims to.
    serve = workloads["serve-distinct-c2"]["metrics"]
    for layer in ("alignment.align_ms", "embeddings.encode_ms", "core.select_ms"):
        assert serve[layer]["value"] > 0, layer


def test_driver_form_ends_with_the_contract_record():
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        completed = run_benchmark(
            "--workload", "diversify-scale", "--seed", "5", "--seconds", "1",
            "--trace", trace, "--smoke",
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        record = json.loads(completed.stdout.strip().splitlines()[-1])
        assert set(record) == {"correct", "attempted", "failed", "metrics"}
        assert record["correct"] is True and record["failed"] == 0
        assert isinstance(record["attempted"], int) and record["attempted"] >= 1
        assert set(record["metrics"]) == {metric["name"] for metric in SPEC[group]}
