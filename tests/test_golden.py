"""Golden-file test: every CLI output over the shipped demo table.

Runs the commands that the benchmark workloads run, in-process, over
``fixtures/demo_scores.csv`` and compares every output file and every
``--json`` stdout byte for byte against ``tests/golden/``. The manifest is
compared after dropping its volatile entries: wall time, worker count and
the path-valued flags.

``tests/golden/<case>/`` holds the files of the plain run;
``tests/golden/<case>--json/`` holds the manifest and stdout of the
``--json`` run, whose other files must equal the plain run's. To regenerate
after an intended output change, call ``write_golden(scratch_dir)``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from benchsel import fixtures
from benchsel.cli import main

GOLDEN = Path(__file__).parent / "golden"
DEMO = str(fixtures.demo_scores_path())
FILTERS = ["--min-games", "10", "--min-algos", "10",
           "--ignore-columns", "median57"]
CASES = {
    "search": ["search", "--size", "3", "--threads", "1", *FILTERS],
    "pipeline": ["pipeline", "--threads", "1", *FILTERS],
    "predict": ["predict", "--model", "atari5", "--true-summary", "median57",
                "--baseline", "demo-agent-01"],
    "fairness-truth": ["analyze", "fairness", "--model", "atari5",
                       "--true-summary", "median57", "--min-games", "10",
                       "--ignore-columns", "median57"],
    "fairness-table": ["analyze", "fairness", "--model", "atari5",
                       "--min-games", "10", "--ignore-columns", "median57"],
    "correlate": ["analyze", "correlate", "--dot", "{out}/graph.dot",
                  *FILTERS],
    "rank-single": ["analyze", "rank-single", *FILTERS],
}
PATH_FLAGS = ("scores", "norms", "out", "dot", "categories")


def _stable_manifest(raw: bytes) -> bytes:
    doc = json.loads(raw)
    del doc["wall_time_s"], doc["workers"]
    for key in PATH_FLAGS:
        doc["config"].pop(key, None)
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_case(name: str, out: Path, as_json: bool) -> dict[str, bytes]:
    """Run one case into ``out``; return {relative path: bytes}, with the
    manifest made stable and, for a ``--json`` run, stdout as
    ``stdout.json``."""
    argv = [a.format(out=out) for a in CASES[name]]
    argv += ["--scores", DEMO, "--out", str(out)]
    if as_json:
        argv.append("--json")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    files = _tree(out)
    files["manifest.json"] = _stable_manifest(files["manifest.json"])
    if as_json:
        files["stdout.json"] = stdout.getvalue().encode()
    return files


def expected_files(name: str, as_json: bool) -> dict[str, bytes]:
    files = _tree(GOLDEN / name)
    if as_json:
        files.update(_tree(GOLDEN / f"{name}--json"))
    return files


def write_golden(scratch: Path) -> None:
    for name in CASES:
        plain = run_case(name, scratch / name, as_json=False)
        for rel, data in plain.items():
            (GOLDEN / name / rel).parent.mkdir(parents=True, exist_ok=True)
            (GOLDEN / name / rel).write_bytes(data)
        as_json = run_case(name, scratch / f"{name}--json", as_json=True)
        (GOLDEN / f"{name}--json").mkdir(parents=True, exist_ok=True)
        for rel in ("manifest.json", "stdout.json"):
            (GOLDEN / f"{name}--json" / rel).write_bytes(as_json.pop(rel))
        plain.pop("manifest.json")
        assert as_json == plain


@pytest.mark.parametrize("as_json", [False, True], ids=["files", "json"])
@pytest.mark.parametrize("name", list(CASES))
def test_outputs_match_golden(name, as_json, tmp_path):
    files = run_case(name, tmp_path / "out", as_json)
    expected = expected_files(name, as_json)
    assert sorted(files) == sorted(expected)
    for rel, data in files.items():
        assert data == expected[rel], f"{name}: {rel} differs from golden"
