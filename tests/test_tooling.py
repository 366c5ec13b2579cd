"""The benchmark's tracer and the demo scripts keep working, the CLI
starts without loading numpy.ma, no command loads scipy, no module imports
it and an install needs numpy alone, a search imports no module, name
matching stays in the data module and the fold and design layouts in
linreg, products and logarithms whose bits depend on the CPU stay in four
owners, only ``cli._run`` writes a command's outputs, no environment
variable is read, score tables load without holding the file, and CV
blocks reuse freed memory.

``bench/traced.py`` wraps module attributes such as ``benchsel.cli.
predict_summary`` and ``benchsel.cli.sha256_file``; a refactor that stops
calling through those names silently empties its per-layer timings.
"""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from benchsel import fixtures, search

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
    every game has its own availability and few candidates share a
    usable-row mask."""
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


def test_traced_search_solves_inside_every_block(tmp_path):
    # 23 folds need 23 usable algorithms, which some candidates of the demo
    # table lack, and 20 folds some of the gapped table's.
    gapped = tmp_path / "gapped.csv"
    _demo_with_scattered_gaps(gapped)
    for scores, folds in ((DEMO, 23), (gapped, 20)):
        _check_traced_search(tmp_path / f"folds{folds}", scores, folds)


# Runs bench/traced.py with search blocks of 64 candidates.
TRACED_SEARCH = """
import runpy, sys
from benchsel import search
search._block_size = lambda ctx: 64
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def _check_traced_search(work, scores, folds):
    argv = ["search", "--size", "3", "--folds", str(folds), "--threads", "1",
            "--min-games", "10", "--min-algos", "10",
            "--ignore-columns", "median57",
            "--scores", str(scores), "--out", str(work / "out"),
            "--quiet"]
    work.mkdir()
    spans_path = work / "spans.json"
    proc = _run(["-c", TRACED_SEARCH, ROOT / "bench" / "traced.py",
                 spans_path, *argv], cwd=work)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())
    blocks = [i for i, s in enumerate(spans)
              if s["name"] == "search.score_block"]
    # A block makes one solve for its candidates on shared tables and one
    # for those on their own tables, if it has any; the refit's solves
    # nest in fit_ols.
    solves = [s for s in spans if s["name"] == "linreg.chol_solve"
              and spans[s["parent"]]["name"] != "linreg.fit_ols"]
    assert len(blocks) > 1
    assert {s["parent"] for s in solves} == set(blocks)

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


EVERY_COMMAND = """
import sys
from benchsel import cli, fixtures
def loaded():
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
loaded()
demo = ["--scores", str(fixtures.demo_scores_path())]
filters = ["--min-games", "10", "--min-algos", "10",
           "--ignore-columns", "median57"]
truth = ["--model", "atari5", "--true-summary", "median57"]
for i, argv in enumerate([
        ["search", "--size", "3", "--threads", "1", *filters],
        ["pipeline", "--threads", "1", *filters],
        ["predict", *truth],
        ["analyze", "fairness", *truth, "--min-games", "10",
         "--ignore-columns", "median57"],
        ["analyze", "correlate", *filters],
        ["analyze", "rank-single", *filters]]):
    assert cli.main([*argv, *demo, "--out", f"out{i}", "--quiet"]) == 0
loaded()
"""


def test_cli_import_loads_no_scipy(tmp_path):
    # Importing scipy costs about 0.3 s, paid by every command that loads
    # it: neither importing the CLI nor running any command on one process
    # may.
    proc = _run(["-c", EVERY_COMMAND], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


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


FIRST_SEARCH = """
import sys
import benchsel.cli
from benchsel import fixtures
from benchsel.data import load_norms, load_scores_with_values, prepare_dataset
from benchsel.search import SearchConfig, enumerate_and_score
table, _ = load_scores_with_values(fixtures.demo_scores_path(), ("median57",))
dataset = prepare_dataset(table, load_norms(fixtures.normalization_path()),
                          min_games=10, min_algorithms=10)
before = set(sys.modules)
enumerate_and_score(dataset, SearchConfig(subset_size=2, folds=5))
print(sorted(set(sys.modules) - before))
"""


def test_first_search_imports_no_module(tmp_path):
    # A Ctrl-C that lands in a module's import can be lost, so a search
    # imports nothing: numpy.random loads with linreg, not in block 0.
    proc = _run(["-c", FIRST_SEARCH], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _sources():
    return {p.relative_to(ROOT / "src").as_posix(): p.read_text(
        encoding="utf-8") for p in (ROOT / "src" / "benchsel").rglob("*.py")}


def test_canonical_key_only_in_data_module():
    # Name matching is decided in one place: data.EnvironmentIndex.
    users = sorted(p for p, text in _sources().items()
                   if "canonical_key" in text)
    assert users == ["benchsel/__init__.py", "benchsel/data.py"]


def test_files_written_only_in_formats_module():
    # Output is serialized in one place: formats.
    writes = re.compile(r"\bjson\.dumps?\b|\bcsv\.(?:writer|DictWriter)\b"
                        r"|\.write_(?:text|bytes)\("
                        r"|\bopen\([^)]*['\"][rb]*[wax+]")
    users = sorted(p for p, text in _sources().items() if writes.search(text))
    assert users == ["benchsel/formats.py"]


def test_commands_return_outputs_and_only_run_writes_them():
    # A cmd_* function returns its files, summary and warnings; cli._run
    # alone creates directories, writes and prints, so a command that raises
    # wrote nothing and printed only its error.
    tree = ast.parse(_sources()["benchsel/cli.py"])
    calls = {f.name: {getattr(c.func, "attr", getattr(c.func, "id", None))
                      for c in ast.walk(f) if isinstance(c, ast.Call)}
             for f in tree.body if isinstance(f, ast.FunctionDef)}
    assert sorted(name for name, called in calls.items()
                  if called & {"write_files", "makedirs"}) == ["_run"]

    def reached(name, seen):
        for callee in calls.get(name, set()) - seen:
            seen.add(callee)
            reached(callee, seen)
        return seen

    commands = [name for name in calls if name.startswith("cmd_")]
    assert len(commands) == 6
    for name in commands:
        writers = {c for c in reached(name, set()) if c and (
            c.startswith(("write_", "save_"))
            or c in {"open", "makedirs", "mkdir", "_emit", "print"})}
        assert writers == set(), name


def test_runtime_needs_numpy_alone():
    # SciPy is a test-only reference: no module imports it and an install
    # pulls numpy alone.
    tomllib = pytest.importorskip("tomllib")
    imports = re.compile(r"^\s*(?:import|from)\s+scipy\b", re.MULTILINE)
    users = sorted(p for p, text in _sources().items() if imports.search(text))
    assert users == []
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]


def test_terminal_output_only_in_cli_module():
    # What reaches the terminal is decided in one place: cli.
    writes = re.compile(r"\bprint\(|\bsys\.std(?:out|err)\b")
    users = sorted(p for p, text in _sources().items() if writes.search(text))
    assert users == ["benchsel/cli.py"]


def test_fold_layout_only_in_linreg_module():
    # How rows are dealt into folds is decided in one place: linreg.
    layout = re.compile(
        r"\b(fold_assignment|_fold_layout|_fold_sizes|_held_out_rows)\b")
    users = sorted(p for p, text in _sources().items() if layout.search(text))
    assert users == ["benchsel/linreg.py"]


def test_design_layout_only_in_linreg_module():
    # [X | 1 | t] is laid out in one place, linreg._augmented, which every
    # least-squares call and the search's column space go through.
    users = sorted(p for p, text in _sources().items()
                   if re.search(r"\bnp\.column_stack\b", text))
    assert users == ["benchsel/linreg.py"]
    assert "_augmented(" in inspect.getsource(search._build_context)


PRODUCTS = {"matmul", "dot", "einsum", "inner", "vdot", "tensordot"}
LOGARITHMS = {"log10", "power", "log", "log1p", "exp", "expm1"}


def _cpu_dependent_numbers():
    """(module, enclosing function, expression) of every BLAS product and
    every numpy logarithm or power in the package."""
    found = []

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        kind = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult):
            kind = "product"
        elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute):
            on_numpy = getattr(node.func.value, "id", None) == "np"
            if node.func.attr == "dot" or (
                    on_numpy and node.func.attr in PRODUCTS):
                kind = "product"
            elif on_numpy and node.func.attr in LOGARITHMS:
                kind = "logarithm"
        if kind:
            found.append((kind, module, owner, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path, text in _sources().items():
        visit(ast.parse(text), Path(path).stem, "")
    return found


def test_cpu_dependent_numbers_have_four_owners():
    # Bits that depend on the CPU's BLAS kernel or numpy's SIMD target come
    # from a few functions only: the fitted model's evaluator, the OLS Gram,
    # the fold Grams and the phi transform pair. pearson_matrix's product
    # counts 0/1 presence cells, which is exact on every CPU.
    found = _cpu_dependent_numbers()
    assert sorted({(module, owner) for kind, module, owner, _ in found
                   if kind == "product"}) == [
        ("analysis", "pearson_matrix"), ("linreg", "LinearModel.predict"),
        ("linreg", "_fold_tables"), ("linreg", "fit_ols")]
    assert [expr for _, _, owner, expr in found
            if owner == "pearson_matrix"] == ["shown.T @ shown"]
    assert sorted({(module, owner) for kind, module, owner, _ in found
                   if kind == "logarithm"}) == [
        ("data", "inverse_log_transform"), ("data", "log_transform")]


def test_no_environment_variable_read():
    # Flags are the only configuration: a run's manifest records them all.
    reads = sorted(
        (path, m.group(1)) for path, text in _sources().items()
        for m in re.finditer(r"\b(?:environ|getenv)\b(?:\.get)?\W*(\w*)",
                             text))
    assert reads == []


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
from benchsel import linreg, search
search._retain_freed_memory()
rng = np.random.default_rng(0)
Z = rng.normal(size=(62, 8))
usable = rng.random((800, 62)) < 0.9
cols = np.broadcast_to(np.arange(8), (800, 8))
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    linreg._cv_mse_tabled(*linreg._fold_tables(Z, usable, cols, 10, 0))
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


SEARCH_BLOCKS = """
import resource
import numpy as np
from benchsel import search
from benchsel.data import FilterConfig, PreparedDataset
rng = np.random.default_rng(0)
scores = rng.uniform(0.0, 3.0, size=(62, 16))
scores[rng.random(scores.shape) < 0.1] = np.nan
dataset = PreparedDataset(tuple(f"a{i}" for i in range(62)),
                          tuple(f"g{j}" for j in range(16)), scores,
                          np.nan_to_num(scores[:, 0]), "median",
                          FilterConfig(1, 1))
score_block = search._score_block
def measured(*args):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    result = score_block(*args)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return result
search._score_block = measured
search.enumerate_and_score(dataset, search.SearchConfig(subset_size=5))
"""


@pytest.mark.skipif(not _glibc(), reason="sets glibc malloc thresholds")
def test_library_search_blocks_fault_in_no_new_pages(tmp_path):
    # A program that calls the search without going through the CLI gets
    # the same malloc thresholds: C(16, 5) = 4,368 candidates in 6 blocks.
    # Without them every block faults in about as many pages as the first;
    # with them a later block only grows the heap a little, if its arrays
    # are larger than any before.
    proc = _run(["-c", SEARCH_BLOCKS], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    faults = [int(n) for n in proc.stdout.split()]
    assert len(faults) == 6
    assert faults[0] > 1000
    assert max(faults[1:]) < faults[0] // 10


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = _run([demo], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
