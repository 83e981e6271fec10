"""Tests for the ``python -m repro`` / ``dust`` command line.

Most tests drive :func:`repro.api.cli.main` in-process (fast, coverage-
counted); a small smoke class runs the real interpreter via ``subprocess`` to
prove the module entry point and console-script wiring work end to end.
"""

import argparse
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.cli import build_parser, main
from repro.api.config import DiscoveryConfig

#: Small, fast config used across the CLI tests.
CLI_CONFIG = {
    "searcher": {"name": "overlap"},
    "column_encoder": {"name": "cell-level", "base": "fasttext"},
    "tuple_encoder": {"name": "glove", "dimension": 64},
    "pipeline": {"k": 5, "num_search_tables": 4},
    "dust": {"prune_limit": 200},
}

_SRC = Path(__file__).resolve().parent.parent / "src"

#: Flags the docs pass to pytest (the paper tier), not to ``python -m repro``.
_PYTEST_FLAGS = {"--benchmark-disable"}


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(DiscoveryConfig.from_dict(CLI_CONFIG).to_json())
    return str(path)


class TestInfo:
    def test_info_lists_components(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for name in ("overlap", "starmie", "dust", "roberta", "ugen"):
            assert name in out

    def test_info_json_is_machine_readable(self, capsys):
        assert main(["info", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "overlap" in payload["searchers"]
        assert payload["config"]["searcher"] == {"name": "overlap"}
        assert len(payload["config_fingerprint"]) == 64

    def test_info_honours_config_file(self, capsys, config_file):
        assert main(["info", "--json", "--config", config_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["pipeline"]["k"] == 5


class TestSearch:
    def test_search_prints_result_json(self, capsys, config_file):
        assert (
            main(
                [
                    "search",
                    "--config",
                    config_file,
                    "--benchmark",
                    "ugen",
                    "--num-queries",
                    "2",
                    "--query",
                    "0",
                    "--k",
                    "4",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["selections"]) == 4
        assert payload["provenance"]["backend"] == "overlap"
        assert payload["search_results"]

    def test_search_backend_override(self, capsys, config_file):
        assert (
            main(
                [
                    "search",
                    "--config",
                    config_file,
                    "--num-queries",
                    "2",
                    "--k",
                    "3",
                    "--backend",
                    "starmie",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["provenance"]["backend"] == "starmie"

    def test_search_output_file(self, capsys, config_file, tmp_path):
        out_file = tmp_path / "result.json"
        assert (
            main(
                [
                    "search",
                    "--config",
                    config_file,
                    "--num-queries",
                    "2",
                    "--k",
                    "3",
                    "--output",
                    str(out_file),
                ]
            )
            == 0
        )
        assert json.loads(out_file.read_text())["selections"]

    def test_query_index_out_of_range_is_an_error(self, capsys, config_file):
        assert (
            main(
                ["search", "--config", config_file, "--num-queries", "2", "--query", "9"]
            )
            == 2
        )
        assert "out of range" in capsys.readouterr().err

    def test_bad_config_file_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"searcher": {"name": "faiss"}}')
        assert main(["search", "--config", str(bad), "--num-queries", "2"]) == 2
        assert "unknown searcher" in capsys.readouterr().err


class TestDiversifyEvaluate:
    def test_diversify_reports_scores(self, capsys, config_file):
        assert (
            main(
                [
                    "diversify",
                    "--config",
                    config_file,
                    "--num-queries",
                    "2",
                    "--k",
                    "4",
                    "--methods",
                    "dust",
                    "random",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "dust" in out and "random" in out
        assert "avg_div" in out

    def test_evaluate_reports_wins(self, capsys, config_file):
        assert (
            main(
                [
                    "evaluate",
                    "--config",
                    config_file,
                    "--num-queries",
                    "2",
                    "--k",
                    "4",
                    "--methods",
                    "dust",
                    "random",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "avg_wins" in out
        assert "dust" in out


class TestWarm:
    def test_warm_builds_then_loads(self, capsys, tmp_path):
        argv = [
            "warm",
            "--store",
            str(tmp_path / "store"),
            "--benchmark",
            "ugen",
            "--backends",
            "overlap",
            "d3l",
            "--num-queries",
            "2",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out.count("built") == 2
        assert main(argv) == 0
        assert capsys.readouterr().out.count("loaded") == 2

    def test_warm_oracle_uses_ground_truth(self, capsys, tmp_path):
        argv = [
            "warm",
            "--store",
            str(tmp_path / "store"),
            "--benchmark",
            "ugen",
            "--backends",
            "oracle",
            "--num-queries",
            "2",
        ]
        assert main(argv) == 0
        assert "oracle" in capsys.readouterr().out


class TestDocsDrift:
    def test_documented_verbs_exist_and_root_holds_no_bench_record(self):
        """Every ``python -m repro <verb>`` the docs name parses, and
        dustbench stays the only place a performance record comes from."""
        root = _SRC.parent
        docs = [root / "README.md", *sorted((root / "docs").glob("*.md"))]
        if not docs[0].exists():
            pytest.skip("docs are not shipped with an installed package")
        (subcommands,) = (
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert sorted(subcommands.choices) == [
            "diversify", "evaluate", "info", "ingest", "search", "serve", "warm",
        ]
        named = {
            verb
            for doc in docs
            for verb in re.findall(r"python -m repro ([a-z][a-z-]*)", doc.read_text())
        }
        assert named and named <= set(subcommands.choices)
        assert not list(root.glob("BENCH_*.json"))

    def test_documented_flags_exist(self):
        """Every ``--flag`` on a ``python -m repro <verb>`` line of the docs
        or CI is an option of that verb, and every backticked ``--flag`` in
        the docs is an option of some verb, so a deleted flag cannot linger
        in a command line a reader copies."""
        root = _SRC.parent
        docs = [root / "README.md", *sorted((root / "docs").glob("*.md"))]
        if not docs[0].exists():
            pytest.skip("docs are not shipped with an installed package")
        (subcommands,) = (
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        options = {
            verb: {flag for action in parser._actions for flag in action.option_strings}
            for verb, parser in subcommands.choices.items()
        }
        flag = re.compile(r"(?<![\w-])--[a-z][a-z-]*")
        stray = []
        for path in [*docs, root / ".github" / "workflows" / "ci.yml"]:
            text = path.read_text().replace("\\\n", " ")
            for verb, rest in re.findall(r"python -m repro ([a-z][a-z-]*)(.*)", text):
                command = re.split(r"[|;#`)]|&&", rest)[0]
                stray += [
                    f"{path.name}: {verb} {name}"
                    for name in flag.findall(command)
                    if name not in options.get(verb, ())
                ]
        every_option = set().union(*options.values())
        for path in docs:
            for span in re.findall(r"`(--[^`]*)`", path.read_text()):
                stray += [
                    f"{path.name}: `{name}`"
                    for name in flag.findall(span)
                    if name not in every_option | _PYTEST_FLAGS
                ]
        assert not stray, stray

    def test_documented_repro_paths_resolve(self):
        """Every Sphinx role and backticked dotted ``repro.*`` path in the
        package sources, README and docs names something importable, so a
        deleted or renamed API cannot linger in its documentation."""
        root = _SRC.parent
        docs = [root / "README.md", *sorted((root / "docs").glob("*.md"))]
        if not docs[0].exists():
            pytest.skip("docs are not shipped with an installed package")
        role = re.compile(
            r":(?:class|meth|func|mod|data|attr|exc):`[~!]?(repro(?:\.\w+)+)(?:\(\))?`"
        )
        dotted = re.compile(r"``?(repro(?:\.\w+)+)(?:\(\))?``?")
        unresolved = sorted(
            f"{path.relative_to(root)}: {reference}"
            for path in [*sorted((_SRC / "repro").rglob("*.py")), *docs]
            for reference in {*role.findall(path.read_text()), *dotted.findall(path.read_text())}
            if not _resolves(reference)
        )
        assert not unresolved, unresolved


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` is an importable module or an attribute path under one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


class TestSubprocessSmoke:
    """End-to-end smoke through a real interpreter (module + script paths)."""

    def _run(self, *args: str, cwd: str | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
            cwd=cwd,
        )

    def test_help(self):
        proc = self._run("--help")
        assert proc.returncode == 0
        for command in ("search", "diversify", "evaluate", "warm", "info"):
            assert command in proc.stdout

    def test_info(self):
        proc = self._run("info")
        assert proc.returncode == 0
        assert "DUST reproduction" in proc.stdout

    def test_search_with_config(self, config_file):
        proc = self._run(
            "search", "--config", config_file, "--num-queries", "2", "--k", "3"
        )
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(proc.stdout)["selections"]) == 3

    def test_warm_cycle(self, tmp_path):
        args = (
            "warm",
            "--store",
            str(tmp_path / "store"),
            "--backends",
            "overlap",
            "--num-queries",
            "2",
        )
        first = self._run(*args)
        assert first.returncode == 0, first.stderr
        assert "built" in first.stdout
        second = self._run(*args)
        assert second.returncode == 0
        assert "loaded" in second.stdout
