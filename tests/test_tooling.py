"""The benchmark's tracer and the demo scripts keep working, the CLI
starts without loading scipy or numpy.ma, name matching stays in the data
module, score tables load without holding the file, and CV blocks reuse
freed memory.

``bench/traced.py`` wraps module attributes such as ``benchsel.cli.
predict_summary`` and ``benchsel.cli.sha256_file``; a refactor that stops
calling through those names silently empties its per-layer timings.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
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


def _demo_with_scattered_gaps(path: Path) -> None:
    """The demo table with one score in ten blanked at random, so nearly
    every game has its own availability and a search's fold tables would
    not fit its working-set budget."""
    rng = np.random.default_rng(7)
    lines = Path(DEMO).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    games = [i for i, name in enumerate(header)
             if name not in ("algorithm", "median57", "provenance")]
    rows = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        for i in games:
            if rng.random() < 0.1:
                cells[i] = ""
        rows.append(",".join(cells))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def test_traced_search_solves_once_per_block(tmp_path):
    # The demo table's searches score from fold tables; the gapped copy's
    # do not. 23 folds need 23 usable algorithms, which some candidates of
    # the demo table lack, and 20 folds some of the gapped table's.
    gapped = tmp_path / "gapped.csv"
    _demo_with_scattered_gaps(gapped)
    for scores, folds, tabled in ((DEMO, 23, True), (gapped, 20, False)):
        _check_traced_search(tmp_path / f"folds{folds}", scores, folds,
                             tabled)


def _check_traced_search(work, scores, folds, tabled):
    from benchsel.cli import _load_dataset, build_parser
    from benchsel.search import SearchConfig, _build_context

    argv = ["search", "--size", "3", "--folds", str(folds), "--threads", "1",
            "--min-games", "10", "--min-algos", "10",
            "--ignore-columns", "median57",
            "--scores", str(scores), "--out", str(work / "out"),
            "--quiet"]
    dataset = _load_dataset(build_parser().parse_args(argv))
    context = _build_context(dataset, SearchConfig(subset_size=3,
                                                   folds=folds))
    assert (context.tables is not None) == tabled

    work.mkdir()
    spans_path = work / "spans.json"
    proc = _run([ROOT / "bench" / "traced.py", spans_path, *argv],
                cwd=work, BENCHSEL_BLOCK_SIZE="64")
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())
    blocks = [i for i, s in enumerate(spans)
              if s["name"] == "search.score_block"]
    solves = [s for s in spans if s["name"] == "linreg.chol_solve"
              and s["parent"] in blocks]
    assert len(blocks) > 1
    assert sorted(s["parent"] for s in solves) == blocks

    # Every candidate with enough usable rows is solved once per fold,
    # singular ones included; skipped candidates are not solved.
    preamble = dict(
        field.split("=") for line in
        (work / "out" / "ranked.csv").read_text().splitlines()
        if line.startswith(("# config:", "# candidates:"))
        for field in line.split()[2:])
    assert int(preamble["skipped_rows"]) > 0
    assert sum(s["attrs"]["systems"] for s in solves) == (
        (int(preamble["total"]) - int(preamble["skipped_rows"]))
        * int(preamble["folds"]))


def test_cli_import_loads_no_scipy(tmp_path):
    # Importing scipy costs about a second, paid by every command.
    proc = _run(["-c", "import sys, benchsel.cli; print(sorted(m for m in "
                 "sys.modules if m.split('.')[0] == 'scipy'))"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


PREPARE_DEMO = """
import sys
from benchsel import fixtures
from benchsel.data import load_norms, load_scores_with_values, prepare_dataset
table, _ = load_scores_with_values(fixtures.demo_scores_path(), ("median57",))
prepare_dataset(table, load_norms(fixtures.normalization_path()),
                min_games=10, min_algorithms=10)
print("numpy.ma" in sys.modules)
"""


def test_loading_and_preparing_leaves_numpy_ma_unloaded(tmp_path):
    # numpy.ma, which np.nanmedian imports, costs about 20 ms of set-up.
    proc = _run(["-c", PREPARE_DEMO], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_canonical_key_only_in_data_module():
    # Name matching is decided in one place: data.EnvironmentIndex.
    users = sorted(p.relative_to(ROOT / "src").as_posix()
                   for p in (ROOT / "src" / "benchsel").rglob("*.py")
                   if "canonical_key" in p.read_text(encoding="utf-8"))
    assert users == ["benchsel/__init__.py", "benchsel/data.py"]


def test_score_table_ingest_does_not_hold_the_file(tmp_path):
    # 2,000 checkpoints x 57 games, one score in ten blank, plus a
    # true-summary column. Holding every row as strings peaked near 10x
    # the matrix; streaming into one array of doubles stays near 2.5x.
    from benchsel.data import load_scores_with_values

    rng = np.random.default_rng(5)
    scores = rng.uniform(-100.0, 1e5, size=(2000, 57))
    path = tmp_path / "table.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("algorithm," + ",".join(f"game{j:02d}" for j in range(57))
                 + ",median57\n")
        for i, row in enumerate(scores.tolist()):
            cells = ["" if rng.random() < 0.1 else repr(x) for x in row]
            fh.write(f"ckpt-{i:04d}," + ",".join(cells) + f",{row[0]!r}\n")
    tracemalloc.start()
    try:
        table, _ = load_scores_with_values(path, ("median57",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.scores.shape == (2000, 57)
    assert peak < 4 * table.scores.nbytes


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


REPEATED_BLOCKS = """
import resource
import numpy as np
from benchsel import cli, linreg
cli._retain_freed_memory()
rng = np.random.default_rng(0)
Z = np.vstack([rng.normal(size=(62, 8)), np.zeros((1, 8))])
rows = rng.integers(0, 63, size=(800, 10, 7))
cols = np.broadcast_to(np.arange(8), (800, 8))
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    linreg._cv_mse_tabled(*linreg._fold_tables(Z, rows, cols), None, None)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _glibc(), reason="sets glibc malloc thresholds")
def test_repeated_cv_blocks_fault_in_no_new_pages(tmp_path):
    # The first block maps its ~14 MB of temporaries; with glibc's default
    # thresholds every later block faults them in again (~3,600 faults).
    proc = _run(["-c", REPEATED_BLOCKS], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    faults = [int(n) for n in proc.stdout.split()]
    assert faults[0] > 1000
    assert max(faults[1:]) < faults[0] // 20


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = _run([demo], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
