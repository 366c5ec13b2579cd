"""The benchmark's tracer and the demo scripts keep working, and the CLI
starts without loading scipy.

``bench/traced.py`` wraps module attributes such as ``benchsel.cli.
predict_summary`` and ``benchsel.cli.sha256_file``; a refactor that stops
calling through those names silently empties its per-layer timings.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchsel import fixtures

ROOT = Path(__file__).resolve().parents[1]
DEMO = str(fixtures.demo_scores_path())


def _run(argv, cwd, **env_vars):
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, argv)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_traced_run_records_layer_spans(tmp_path):
    commands = [
        ["analyze", "rank-single", "--min-games", "10", "--min-algos", "10",
         "--ignore-columns", "median57"],
        ["predict", "--model", "atari5"],
    ]
    names = set()
    for i, command in enumerate(commands):
        spans = tmp_path / f"spans{i}.json"
        proc = _run([ROOT / "bench" / "traced.py", spans, *command,
                     "--scores", DEMO, "--out", tmp_path / f"out{i}",
                     "--quiet"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        names |= {s["name"] for s in json.loads(spans.read_text())}
    assert {"data.load", "data.prepare", "manifest.sha256",
            "analysis.rank_single", "linreg.fit_ols",
            "predict.predict_summary"} <= names


def test_traced_search_solves_once_per_block(tmp_path):
    spans_path = tmp_path / "spans.json"
    proc = _run([ROOT / "bench" / "traced.py", spans_path, "search",
                 "--size", "3", "--threads", "1", "--min-games", "10",
                 "--min-algos", "10", "--ignore-columns", "median57",
                 "--scores", DEMO, "--out", tmp_path / "out", "--quiet"],
                cwd=tmp_path, BENCHSEL_BLOCK_SIZE="64")
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())
    blocks = [i for i, s in enumerate(spans)
              if s["name"] == "search.score_block"]
    solves = [s["parent"] for s in spans if s["name"] == "linreg.chol_solve"
              and s["parent"] in blocks]
    assert len(blocks) > 1
    assert sorted(solves) == blocks


def test_cli_import_loads_no_scipy(tmp_path):
    # Importing scipy costs about a second, paid by every command.
    proc = _run(["-c", "import sys, benchsel.cli; print(sorted(m for m in "
                 "sys.modules if m.split('.')[0] == 'scipy'))"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = _run([demo], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
