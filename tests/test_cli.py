import contextlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from benchsel import fixtures
from benchsel.cli import main
from benchsel.data import load_norms
from benchsel.formats import save_model, sha256_file
from benchsel.linreg import LinearModel


@pytest.fixture
def toy_inputs(tmp_path):
    """A dense-ish raw score table with norms r=0, h=100 per environment."""
    rng = np.random.default_rng(70)
    envs = [f"g{j}" for j in range(1, 9)]
    m = 20
    base = rng.uniform(0.2, 2.2, size=m)
    scores = np.clip(base[:, None] + rng.normal(0, 0.2, size=(m, len(envs))),
                     0.01, None)
    raw = (np.power(10.0, scores) - 1.0)  # inverse log transform
    scores_path = tmp_path / "scores.csv"
    with open(scores_path, "w") as fh:
        fh.write("algorithm," + ",".join(envs) + ",truecol\n")
        for i in range(m):
            cells = [f"{x:.4f}" for x in raw[i]]
            if i == 3:
                cells[0] = ""  # algo03 is missing g1
            truth = (np.power(10.0, base[i]) - 1.0)
            fh.write(f"algo{i:02d}," + ",".join(cells) + f",{truth:.4f}\n")
    norms_path = tmp_path / "norms.csv"
    with open(norms_path, "w") as fh:
        fh.write("environment,random,human\n")
        for env in envs:
            fh.write(f"{env},0,100\n")
    return scores_path, norms_path, tmp_path


def run(argv):
    return main([str(a) for a in argv])


@pytest.mark.parametrize("which", ["scores", "norms"])
def test_undecodable_input_exits_one_with_one_line(toy_inputs, capsys, which):
    scores, norms, tmp = toy_inputs
    path = {"scores": scores, "norms": norms}[which]
    path.write_bytes(path.read_bytes() + b"\xff\n")
    rc = run(["search", "--scores", scores, "--norms", norms, "--size", "3",
              "--out", tmp / "out"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("benchsel: error: ")
    assert path.name in err[0]


@pytest.mark.parametrize("command", [["search", "--size", "3"],
                                     ["pipeline"]])
def test_failed_run_leaves_no_output_directory(toy_inputs, capsys, command):
    scores, norms, tmp = toy_inputs
    out = tmp / "out"
    argv = [*command, "--scores", tmp / "missing.csv", "--norms", norms,
            "--out", out]
    assert run(argv) == 1
    assert not out.exists()
    out.mkdir()  # a directory that was there before the run stays
    assert run(argv) == 1
    assert out.is_dir()
    nested = [*argv[:-1], tmp / "x" / "y" / "z"]
    assert run(nested) == 1  # every directory the run made goes
    assert not (tmp / "x").exists()
    (tmp / "x").mkdir()  # an empty parent that was there stays
    assert run(nested) == 1
    assert list((tmp / "x").iterdir()) == []
    assert len(capsys.readouterr().err.splitlines()) == 4


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.is_file() and p.read_bytes()
            for p in root.rglob("*")}


PREDICT = ["predict", "--model", "atari5", "--scores",
           fixtures.demo_scores_path()]
REBASED = [*PREDICT, "--true-summary", "median57", "--baseline"]
DOT = ["analyze", "correlate", "--scores", fixtures.demo_scores_path(),
       "--min-games", "10", "--min-algos", "10", "--ignore-columns",
       "median57", "--dot"]


@pytest.mark.parametrize("good, bad, message", [
    ([*REBASED, "demo-agent-01"], [*REBASED, "nobody"], "'nobody'"),
    ([*REBASED, "demo-agent-01"], [*PREDICT, "--baseline", "demo-agent-01"],
     "no true summary"),
    # --dot's directory is created like --out's, unless a file is in the way
    ([*DOT, "graphs/g.dot"], [*DOT, "blocker/g.dot"], "blocker"),
], ids=["unknown-baseline", "baseline-without-truth", "dot-under-a-file"])
def test_failed_run_writes_nothing(tmp_path, monkeypatch, capsys, good, bad,
                                   message):
    monkeypatch.chdir(tmp_path)
    Path("blocker").write_text("")
    before = _tree(tmp_path)
    assert run([*bad, "--out", "fresh/out"]) == 1
    assert _tree(tmp_path) == before
    assert run([*good, "--out", "kept", "--quiet"]) == 0
    before = _tree(tmp_path)
    assert "kept/manifest.json" in before
    assert run([*bad, "--out", "kept"]) == 1  # an earlier run's files stay
    assert _tree(tmp_path) == before
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == err[1] and message in err[0]


def _children(pid: int) -> list[str]:
    try:
        return Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
    except OSError:
        return []


def _ignores_sigint(pid: str) -> bool:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    mask = next(line.split()[1] for line in status.splitlines()
                if line.startswith("SigIgn:"))
    return bool(int(mask, 16) >> (signal.SIGINT - 1) & 1)


def _src_env() -> dict:
    """This process's environment with the checkout's ``src`` importable."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


needs_child_lists = pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs /proc child lists")


def _start_wide_search(tmp_path, threads: int,
                       launcher=("-m", "benchsel.cli")) -> subprocess.Popen:
    """Start a size-5 search on ``threads`` processes in a process group
    of its own, writing to ``tmp_path / "out"``, by running Python with
    ``launcher`` and the command's arguments. SIGINT is reset to its
    default first, so the search installs its KeyboardInterrupt handler
    even when pytest was started with SIGINT ignored."""
    # 62 algorithms on the 57 shipped games: C(57, 5) candidates keep two
    # workers busy for several seconds.
    rng = np.random.default_rng(3)
    games = load_norms(fixtures.normalization_path()).entries
    scores = tmp_path / "scores.csv"
    scores.write_text("algorithm," + ",".join(g.name for g in games) + "\n"
                      + "".join(f"a{i}," + ",".join(
                          str(g.random + rng.uniform(0, 2) * (g.human - g.random))
                          for g in games) + "\n" for i in range(62)))
    return subprocess.Popen(
        [sys.executable, *launcher, "search", "--size", "5",
         "--threads", str(threads), "--scores", str(scores),
         "--out", str(tmp_path / "out"), "--quiet"],
        env=_src_env(), stderr=subprocess.PIPE, text=True,
        start_new_session=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))


def _exit_report(proc: subprocess.Popen) -> str:
    """How an exited caller ended: its exit code and its stderr, unless a
    process it started still holds that open."""
    try:
        err = repr(proc.communicate(timeout=5)[1])
    except subprocess.TimeoutExpired:
        err = "still held open by another process"
    return f"the caller exited {proc.returncode}, stderr {err}"


def _interrupted_search(tmp_path, interrupt, launcher=("-m", "benchsel.cli"),
                        started=2) -> tuple[int, str]:
    """Run a search on three processes, the caller and two workers, in a
    process group of its own, call ``interrupt`` with the caller's pid and
    its workers' once ``started`` workers ignore SIGINT, and return the
    exit code and stderr once the group has no process left."""
    proc = _start_wide_search(tmp_path, 3, launcher)
    try:
        start = time.monotonic()
        while True:
            workers = _children(proc.pid)
            ignoring = [pid for pid in workers if _ignores_sigint(pid)]
            if len(workers) == len(ignoring) == started:
                break
            waited = time.monotonic() - start
            state = (f"after {waited:.1f} s, {len(workers)} of {started} "
                     f"workers listed {workers}, {len(ignoring)} of them "
                     "ignoring SIGINT")
            if proc.poll() is not None:
                pytest.fail(f"{state}; {_exit_report(proc)}")
            assert waited < 60, state
            time.sleep(0.05)
        interrupt(proc.pid, workers)
        err = proc.communicate(timeout=60)[1]
    except BaseException:
        with contextlib.suppress(ProcessLookupError):  # workers too
            os.killpg(proc.pid, signal.SIGKILL)
        raise
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    deadline = time.monotonic() + 10
    with pytest.raises(ProcessLookupError):
        while time.monotonic() < deadline:  # no process left in the group
            os.killpg(proc.pid, 0)
            time.sleep(0.05)
    return proc.returncode, err


@needs_child_lists
def test_ctrl_c_exits_130_with_one_line_and_no_workers(tmp_path):
    returncode, err = _interrupted_search(
        tmp_path, lambda pid, workers: os.killpg(pid, signal.SIGINT))
    assert returncode == 130  # as after Ctrl-C, which signals the group
    assert err.splitlines() == ["benchsel: error: interrupted"]


def test_ctrl_c_in_a_one_process_search_exits_130(tmp_path):
    # The signal lands while the table loads or in the first blocks; a
    # lazy import there would swallow it and let the search run to the end.
    proc = _start_wide_search(tmp_path, threads=1)
    try:
        deadline = time.monotonic() + 60
        while not (tmp_path / "out").exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        os.killpg(proc.pid, signal.SIGINT)
        err = proc.communicate(timeout=60)[1]
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130
    assert err.splitlines() == ["benchsel: error: interrupted"]


LINGERING_FORK_SEARCH = """
import multiprocessing, sys, time
from multiprocessing import popen_fork
multiprocessing.set_start_method("fork")
launch = popen_fork.Popen._launch
def lingering_launch(self, process_obj):
    launch(self, process_obj)  # only the caller returns from it
    time.sleep(60)
popen_fork.Popen._launch = lingering_launch
from benchsel import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@needs_child_lists
def test_ctrl_c_before_a_worker_is_listed_leaves_no_worker(tmp_path):
    # The caller lingers in ``Process.start`` right after forking its first
    # worker, so the interrupt lands before the search has listed that
    # worker to stop; it must leave once the caller is gone.
    returncode, err = _interrupted_search(
        tmp_path, lambda pid, workers: os.killpg(pid, signal.SIGINT),
        launcher=("-c", LINGERING_FORK_SEARCH), started=1)
    assert returncode == 130
    assert err.splitlines() == ["benchsel: error: interrupted"]


@needs_child_lists
def test_killed_worker_exits_one_with_one_line_and_no_workers(tmp_path):
    # The parent must not wait forever for the dead worker's block, nor
    # for a lock the dead worker held.
    killed = []

    def kill_one(pid, workers):
        killed.append(workers[0])
        os.kill(int(workers[0]), signal.SIGKILL)

    started = time.monotonic()
    returncode, err = _interrupted_search(tmp_path, kill_one)
    assert returncode == 1
    assert err.splitlines() == [
        f"benchsel: error: search worker {killed[0]} died (exit code -9)"]
    assert time.monotonic() - started < 60


DEMO_FILTERS = ["--scores", fixtures.demo_scores_path(), "--min-games", "10",
                "--min-algos", "10", "--ignore-columns", "median57"]


@pytest.mark.parametrize("command, workers", [
    (["search", "--size", "3", "--threads", "2"], 1),  # 1 block
    (["search", "--size", "5", "--threads", "4"], 3),  # 3 blocks
    (["pipeline", "--threads", "2"], 2),
])
def test_manifest_records_workers_used(tmp_path, command, workers):
    # A search starts no more workers than it has blocks.
    out = tmp_path / "out"
    assert run([*command, *DEMO_FILTERS, "--out", out, "--quiet"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["workers"] == workers


START_METHOD_SEARCH = """
import multiprocessing, sys
multiprocessing.set_start_method(sys.argv[1])
get_context = multiprocessing.get_context
def reporting_context(*args):
    context = get_context(*args)
    print(context.get_start_method())
    return context
multiprocessing.get_context = reporting_context
from benchsel import cli, search
search._block_size = lambda ctx: 40
sys.exit(cli.main(sys.argv[2:]))
"""


def test_spawned_workers_give_the_forked_workers_output(tmp_path):
    # The pool starts its workers by the default start method. Spawned
    # workers inherit nothing from the parent: the search context reaches
    # them pickled, and each sets its own malloc thresholds. The demo
    # size-3 search is 12 blocks of 40 candidates.
    outputs = {}
    for method in ("fork", "spawn"):
        out = tmp_path / method
        proc = subprocess.run(
            [sys.executable, "-c", START_METHOD_SEARCH, method, "search",
             "--size", "3", "--threads", "2", *map(str, DEMO_FILTERS),
             "--out", str(out), "--quiet"],
            env=_src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [method]  # the pool's start method
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["workers"] == 2
        outputs[method] = ((out / "ranked.csv").read_bytes(),
                           manifest["notes"])
    assert outputs["spawn"] == outputs["fork"]


def test_search_leaves_no_process_behind(tmp_path):
    # The caller and two workers score the demo size-3 search's 12 blocks
    # of 40; every worker is stopped before the command exits.
    with open(tmp_path / "stderr", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", START_METHOD_SEARCH,
             multiprocessing.get_start_method(), "search", "--size", "3",
             "--threads", "3", *map(str, DEMO_FILTERS),
             "--out", str(tmp_path / "out"), "--quiet"],
            env=_src_env(), stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True)
        assert proc.wait(timeout=120) == 0, (tmp_path / "stderr").read_text()
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # fails once the group is empty
    except ProcessLookupError:
        return
    pytest.fail("a process of the search outlived it")


class TestSearchCommand:
    def test_default_pathway(self, toy_inputs, capsys):
        scores, norms, tmp = toy_inputs
        out = tmp / "search-out"
        rc = run(["search", "--scores", scores, "--norms", norms,
                  "--size", "3", "--min-games", "5", "--min-algos", "5",
                  "--ignore-columns", "truecol", "--folds", "5",
                  "--threads", "1", "--out", out])
        assert rc == 0
        assert (out / "ranked.csv").exists()
        assert (out / "best_model.json").exists()
        assert (out / "manifest.json").exists()
        doc = json.loads((out / "best_model.json").read_text())
        assert len(doc["coefficients"]) == 3
        assert doc["norms_checksum"] == sha256_file(norms)
        header = (out / "ranked.csv").read_text().splitlines()
        assert any("inputs:" in line for line in header[:5])

    def test_include_constraint(self, toy_inputs):
        scores, norms, tmp = toy_inputs
        out = tmp / "search-inc"
        rc = run(["search", "--scores", scores, "--norms", norms,
                  "--size", "3", "--min-games", "5", "--min-algos", "5",
                  "--ignore-columns", "truecol", "--folds", "5",
                  "--include", "g4", "--out", out, "--quiet"])
        assert rc == 0
        body = (out / "ranked.csv").read_text()
        rows = [line for line in body.splitlines()
                if line and not line.startswith(("#", "rank,"))]
        assert rows
        assert all("g4" in line for line in rows)

    def test_ignoring_the_provenance_column(self, tmp_path):
        # The demo table's provenance column holds text; naming it in
        # --ignore-columns changes nothing.
        ranked = []
        for ignore in ("median57", "median57,provenance"):
            out = tmp_path / ignore.replace(",", "-")
            assert run(["search", "--scores", fixtures.demo_scores_path(),
                        "--size", "2", "--min-games", "10", "--min-algos",
                        "10", "--ignore-columns", ignore, "--threads", "1",
                        "--out", out, "--quiet"]) == 0
            ranked.append((out / "ranked.csv").read_bytes())
        assert ranked[0] == ranked[1]

    def test_unknown_environment_exits_one(self, toy_inputs, capsys):
        scores, norms, tmp = toy_inputs
        rc = run(["search", "--scores", scores, "--norms", norms,
                  "--size", "2", "--min-games", "5", "--min-algos", "5",
                  "--ignore-columns", "truecol",
                  "--include", "nonexistent", "--out", tmp / "x"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "benchsel: error: environment 'nonexistent' not in the dataset"]

    @pytest.mark.parametrize("flags, message", [
        (["--size", "0"], "subset_size must be >= 1"),
        (["--size", "3", "--folds", "1"], "folds must be >= 2"),
        (["--size", "3", "--top-k", "0"], "top_k must be >= 1"),
        (["--size", "17"], "subset_size 17 fits 17 columns, over the "
         "16-column solver limit"),
        (["--size", "16", "--intercept"], "subset_size 16 plus the "
         "intercept fits 17 columns, over the 16-column solver limit"),
        (["--size", "2", "--seed", "-1"], "seed must be >= 0"),
    ])
    def test_out_of_range_search_flags_exit_one_with_one_line(
            self, toy_inputs, capsys, flags, message):
        # The flags are checked before the table is read, so a missing
        # scores file gives the same one line.
        scores, norms, tmp = toy_inputs
        for path in (scores, tmp / "missing.csv"):
            rc = run(["search", "--scores", path, "--norms", norms,
                      "--min-games", "5", "--min-algos", "5",
                      "--ignore-columns", "truecol", *flags,
                      "--out", tmp / "x"])
            assert rc == 1
            assert capsys.readouterr().err.splitlines() == [
                f"benchsel: error: {message}"]

    def test_folds_above_the_algorithm_count_exit_one_with_one_line(
            self, toy_inputs, capsys):
        scores, norms, tmp = toy_inputs
        folds = 10 ** 20
        rc = run(["search", "--scores", scores, "--norms", norms,
                  "--size", "2", "--folds", folds, "--min-games", "5",
                  "--min-algos", "5", "--ignore-columns", "truecol",
                  "--out", tmp / "x"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"benchsel: error: no viable size-2 candidate: {folds}-fold CV "
            f"of 2 columns needs {folds} usable algorithms, and the table "
            f"has 20"]

    @pytest.mark.parametrize("flags", [[], ["--json"], ["--quiet"]])
    def test_progress_lines_on_stderr(self, toy_inputs, capsys, monkeypatch,
                                      flags):
        # C(8, 3) = 56 candidates cross five strides of 10.
        monkeypatch.setattr("benchsel.search.PROGRESS_STRIDE", 10)
        scores, norms, tmp = toy_inputs
        rc = run(["search", "--scores", scores, "--norms", norms,
                  "--size", "3", "--folds", "5", "--min-games", "5",
                  "--min-algos", "5", "--ignore-columns", "truecol",
                  "--threads", "1", "--out", tmp / "x", *flags])
        assert rc == 0
        out, err = capsys.readouterr()
        if "--quiet" in flags:
            assert (out, err) == ("", "")
            return
        assert err.splitlines() == [
            f"benchsel: scored {done} / 56 candidate subsets"
            for done in (10, 20, 30, 40, 50)]
        if "--json" in flags:
            assert json.loads(out)["name"] == "best-of-size-3"

    def test_usage_error_exits_two(self, toy_inputs):
        scores, norms, _ = toy_inputs
        with pytest.raises(SystemExit) as exc:
            run(["search", "--scores", scores, "--norms", norms])
        assert exc.value.code == 2

    def test_auto_threads_records_workers_used(self, toy_inputs):
        scores, norms, tmp = toy_inputs
        out = tmp / "search-auto"
        rc = run(["search", "--scores", scores, "--norms", norms,
                  "--size", "2", "--min-games", "5", "--min-algos", "5",
                  "--ignore-columns", "truecol", "--folds", "5",
                  "--threads", "0", "--out", out, "--quiet"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["threads"] == 0
        assert manifest["workers"] >= 1

    def test_thread_count_does_not_change_output(self, toy_inputs,
                                                 monkeypatch):
        monkeypatch.setattr("benchsel.search._block_size", lambda ctx: 8)
        scores, norms, tmp = toy_inputs
        outputs = []
        for threads, name in ((1, "t1"), (6, "t6")):
            out = tmp / name
            rc = run(["search", "--scores", scores, "--norms", norms,
                      "--size", "3", "--min-games", "5", "--min-algos", "5",
                      "--ignore-columns", "truecol", "--folds", "5",
                      "--threads", threads, "--out", out, "--quiet"])
            assert rc == 0
            outputs.append(((out / "ranked.csv").read_bytes(),
                            (out / "best_model.json").read_bytes()))
        assert outputs[0] == outputs[1]


class TestPipelineCommand:
    def test_refuses_small_dataset(self, toy_inputs, capsys):
        scores, norms, tmp = toy_inputs
        rc = run(["pipeline", "--scores", scores, "--norms", norms,
                  "--min-games", "5", "--min-algos", "5",
                  "--ignore-columns", "truecol", "--out", tmp / "p"])
        assert rc == 1
        assert "15" in capsys.readouterr().err

    def test_bad_folds_reported_before_the_load(self, tmp_path, capsys):
        rc = run(["pipeline", "--scores", tmp_path / "missing.csv",
                  "--folds", "1", "--out", tmp_path / "p"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "benchsel: error: folds must be >= 2"]

    def test_bad_seed_reported_before_the_load(self, tmp_path, capsys):
        rc = run(["pipeline", "--scores", tmp_path / "missing.csv",
                  "--seed", "-1", "--out", tmp_path / "p"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "benchsel: error: seed must be >= 0"]

    def test_full_run_and_determinism(self, tmp_path):
        rng = np.random.default_rng(71)
        envs = [f"e{j:02d}" for j in range(16)]
        m = 26
        base = rng.uniform(0.2, 2.0, size=m)
        scores = np.clip(base[:, None] + rng.normal(0, 0.15, (m, 16)),
                         0.01, None)
        raw = np.power(10.0, scores) - 1.0
        spath = tmp_path / "s.csv"
        with open(spath, "w") as fh:
            fh.write("algorithm," + ",".join(envs) + "\n")
            for i in range(m):
                fh.write(f"a{i:02d}," + ",".join(f"{x:.4f}" for x in raw[i])
                         + "\n")
        npath = tmp_path / "n.csv"
        with open(npath, "w") as fh:
            fh.write("environment,random,human\n")
            for env in envs:
                fh.write(f"{env},0,100\n")
        suites = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            rc = run(["pipeline", "--scores", spath, "--norms", npath,
                      "--min-games", "5", "--min-algos", "5", "--seed", "7",
                      "--out", out, "--quiet"])
            assert rc == 0
            suites.append((out / "suite.json").read_bytes())
            assert (out / "summary.txt").exists()
            assert (out / "models" / "size-5.json").exists()
            assert (out / "banks" / "size-10.json").exists()
        assert suites[0] == suites[1]
        summary = (tmp_path / "p1" / "summary.txt").read_text()
        assert "r_squared" in summary and "approx_rel_err" in summary
        assert "variance explained" in summary


class TestPredictCommand:
    def _write_model(self, path, norms_path, envs=("g1", "g2"),
                     coefficients=(0.6, 0.4), checksum=None):
        model = LinearModel(tuple(envs), np.array(coefficients))
        save_model(path, model, name="toy",
                   norms_checksum=checksum or sha256_file(norms_path))

    def test_rows_with_missing_inputs_are_isolated(self, toy_inputs, capsys):
        scores, norms, tmp = toy_inputs
        model_path = tmp / "m.json"
        self._write_model(model_path, norms)
        out = tmp / "pred"
        rc = run(["predict", "--model", model_path, "--scores", scores,
                  "--norms", norms, "--true-summary", "truecol",
                  "--out", out])
        assert rc == 0
        detail = json.loads((out / "predictions.json").read_text())
        assert "algo03" in detail["row_errors"]  # missing g1
        assert len(detail["reports"]) == 19
        assert detail["inversion_count"] is not None
        text = capsys.readouterr().out
        assert "inversions" in text

    def test_baseline_rebasing(self, toy_inputs):
        scores, norms, tmp = toy_inputs
        model_path = tmp / "m.json"
        self._write_model(model_path, norms)
        out = tmp / "pred-rebase"
        rc = run(["predict", "--model", model_path, "--scores", scores,
                  "--norms", norms, "--true-summary", "truecol",
                  "--baseline", "algo10", "--out", out, "--quiet"])
        assert rc == 0
        assert (out / "rebased.csv").exists()
        detail = json.loads((out / "predictions.json").read_text())
        baseline_row = next(r for r in detail["rebased"]
                            if r["algorithm"] == "algo10")
        assert baseline_row["predicted"] == 1.0
        assert baseline_row["true"] == 1.0

    def test_csv_header_contract(self, toy_inputs):
        scores, norms, tmp = toy_inputs
        model_path = tmp / "m.json"
        self._write_model(model_path, norms)
        out = tmp / "pred-hdr"
        run(["predict", "--model", model_path, "--scores", scores,
             "--norms", norms, "--out", out, "--quiet"])
        lines = (out / "predictions.csv").read_text().splitlines()
        header = next(line for line in lines if not line.startswith("#"))
        assert header == "algorithm,predicted,true,rel_error,abs_rel_error"

    def test_checksum_mismatch_warns_then_errors_in_strict(self, toy_inputs,
                                                           capsys):
        scores, norms, tmp = toy_inputs
        model_path = tmp / "m.json"
        self._write_model(model_path, norms, checksum="sha256:bogus")
        rc = run(["predict", "--model", model_path, "--scores", scores,
                  "--norms", norms, "--out", tmp / "w"])
        assert rc == 0
        assert "checksum" in capsys.readouterr().err
        rc = run(["predict", "--model", model_path, "--scores", scores,
                  "--norms", norms, "--strict", "--out", tmp / "w2"])
        assert rc == 1

    def test_checksum_mismatch_is_noted_and_printed_by_run(self, toy_inputs,
                                                          capsys):
        # The warning reaches the manifest and one stderr line, even under
        # --quiet; a run that fails prints its error alone.
        scores, norms, tmp = toy_inputs
        model_path = tmp / "m.json"
        self._write_model(model_path, norms, checksum="sha256:bogus")
        argv = ["predict", "--model", model_path, "--scores", scores,
                "--norms", norms, "--true-summary", "truecol", "--quiet"]
        assert run([*argv, "--baseline", "nobody", "--out", tmp / "f"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "nobody" in err[0], err
        assert run([*argv, "--out", tmp / "w"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: "), err
        manifest = json.loads((tmp / "w" / "manifest.json").read_text())
        assert manifest["notes"]["warnings"] == [err[0][len("warning: "):]]
        assert "sha256:bogus" in err[0]

    def test_zero_truth_row_survives(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("algorithm,g1,truth\na1,50.0,0\na2,80.0,75.0\n")
        norms = tmp_path / "n.csv"
        norms.write_text("environment,random,human\ng1,0,100\n")
        model_path = tmp_path / "m.json"
        save_model(model_path, LinearModel(("g1",), np.array([1.0])))
        out = tmp_path / "out"
        rc = run(["predict", "--model", model_path, "--scores", scores,
                  "--norms", norms, "--true-summary", "truth", "--out", out])
        assert rc == 0
        doc = json.loads((out / "predictions.json").read_text())
        zero_row = next(r for r in doc["reports"] if r["algorithm"] == "a1")
        assert zero_row["true"] == 0.0
        assert zero_row["rel_error"] is None  # undefined against zero truth

    @pytest.mark.parametrize("command", [["predict"], ["analyze", "fairness"]])
    def test_malformed_model_exits_one_with_one_line(self, toy_inputs,
                                                     capsys, command):
        scores, norms, tmp = toy_inputs
        model_path = tmp / "broken.json"
        model_path.write_text('{"format": "benchsel-model/1"}')
        rc = run([*command, "--model", model_path, "--scores", scores,
                  "--norms", norms, "--true-summary", "truecol",
                  "--out", tmp / "broken-out"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("benchsel: error: ")
        assert "broken.json" in err[0] and "environment_ids" in err[0]

    def test_constrained_model_with_negative_weight_exits_one(
            self, toy_inputs, capsys):
        scores, norms, tmp = toy_inputs
        model_path = tmp / "constrained.json"
        model_path.write_text(
            '{"format": "benchsel-model/1", "environment_ids": ["g1", "g2"],'
            ' "coefficients": [0.6, -0.4], "constrained_nonnegative": true}')
        rc = run(["predict", "--model", model_path, "--scores", scores,
                  "--norms", norms, "--out", tmp / "constrained-out"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"benchsel: error: {model_path}: constrained model has a "
            "negative coefficient"]

    @pytest.mark.parametrize("command", [["predict"], ["analyze", "fairness"]])
    def test_unknown_model_name_exits_one_listing_shipped_models(
            self, toy_inputs, capsys, command):
        scores, norms, tmp = toy_inputs
        rc = run([*command, "--model", "nosuchmodel", "--scores", scores,
                  "--norms", norms, "--out", tmp / "unknown-model"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("benchsel: error: ")
        assert "'nosuchmodel' is neither an existing file nor" in err[0]
        assert all(name in err[0] for name in fixtures.SUBSET_MODEL_NAMES)

    def test_shipped_reference_model_by_name(self, tmp_path):
        from benchsel import fixtures

        out = tmp_path / "fixture-pred"
        rc = run(["predict", "--model", "atari5",
                  "--scores", fixtures.demo_scores_path(),
                  "--true-summary", "median57", "--out", out, "--quiet"])
        assert rc == 0
        detail = json.loads((out / "predictions.json").read_text())
        assert len(detail["reports"]) == 24


class TestAnalyzeCommands:
    def test_rank_single_perfect_predictor_ranked_last(self, tmp_path):
        rng = np.random.default_rng(72)
        envs = ["ga", "gb", "gc"]
        m = 15
        spath = tmp_path / "s.csv"
        rows = []
        for i in range(m):
            u = rng.uniform(0.2, 2.0)
            # gc's normalized score equals the median across columns
            ga = np.power(10.0, u + rng.normal(0, 0.4)) - 1
            gb = np.power(10.0, u + rng.normal(0, 0.4)) - 1
            rows.append((f"a{i:02d}", ga, gb))
        with open(spath, "w") as fh:
            fh.write("algorithm,ga,gb,gc\n")
            for name, ga, gb in rows:
                med = np.median([ga, gb, ga])  # gc set to the row median
                fh.write(f"{name},{ga:.4f},{gb:.4f},{med:.4f}\n")
        npath = tmp_path / "n.csv"
        with open(npath, "w") as fh:
            fh.write("environment,random,human\nga,0,100\ngb,0,100\ngc,0,100\n")
        out = tmp_path / "rank"
        rc = run(["analyze", "rank-single", "--scores", spath,
                  "--norms", npath, "--min-games", "2", "--min-algos", "2",
                  "--out", out, "--quiet"])
        assert rc == 0
        lines = [line for line in
                 (out / "single_games.csv").read_text().splitlines()
                 if line and not line.startswith("#")]
        assert lines[-1].startswith("gc,")  # highest r_squared comes last

    def test_correlate_writes_dot(self, toy_inputs):
        scores, norms, tmp = toy_inputs
        out = tmp / "corr"
        dot = tmp / "corr.dot"
        rc = run(["analyze", "correlate", "--scores", scores,
                  "--norms", norms, "--min-games", "5", "--min-algos", "5",
                  "--ignore-columns", "truecol", "--top", "5",
                  "--dot", dot, "--out", out, "--quiet"])
        assert rc == 0
        body = dot.read_text()
        assert body.count(" -- ") == 5
        pairs_csv = (out / "pairs.csv").read_text()
        assert "env_a,env_b,pcc" in pairs_csv

    def test_fairness_symmetric_errors(self, toy_inputs, capsys):
        scores, norms, tmp = toy_inputs
        model_path = tmp / "m.json"
        model = LinearModel(("g1", "g2"), np.array([0.5, 0.5]))
        save_model(model_path, model, norms_checksum=sha256_file(norms))
        out = tmp / "fair"
        rc = run(["analyze", "fairness", "--scores", scores,
                  "--norms", norms, "--model", model_path,
                  "--true-summary", "truecol", "--min-games", "2",
                  "--ignore-columns", "truecol", "--out", out])
        assert rc == 0
        doc = json.loads((out / "fairness.json").read_text())
        assert set(doc["groups"]) == {"low", "mid", "high"}
        assert "low-vs-high" in doc["pairwise"]

    def test_fairness_checksum_mismatch_warns(self, toy_inputs, capsys):
        scores, norms, tmp = toy_inputs
        model_path = tmp / "m.json"
        model = LinearModel(("g1", "g2"), np.array([0.5, 0.5]))
        save_model(model_path, model, norms_checksum="sha256:bogus")
        rc = run(["analyze", "fairness", "--scores", scores,
                  "--norms", norms, "--model", model_path,
                  "--true-summary", "truecol", "--min-games", "2",
                  "--out", tmp / "fair", "--quiet"])
        assert rc == 0
        assert "checksum" in capsys.readouterr().err

    def test_fairness_true_summary_ignores_table_flags(self, tmp_path):
        # --min-games and --target only shape summaries computed from the
        # table; given a true-summary column, they change nothing.
        outputs = []
        for flags in (["--min-games", "10"],
                      ["--min-games", "50", "--target", "mean"]):
            out = tmp_path / flags[1]
            assert run(["analyze", "fairness", "--model", "atari5",
                        "--scores", fixtures.demo_scores_path(),
                        "--true-summary", "median57",
                        "--ignore-columns", "median57", *flags,
                        "--out", out, "--quiet"]) == 0
            outputs.append((out / "fairness.json").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flags,message", [
        (["correlate", "--top", "-1"], "top_n must be >= 0"),
        (["correlate", "--threshold", "2"], "threshold must lie in [0, 1]"),
        (["fairness", "--model", "atari5", "--alpha", "0"],
         "alpha must lie in (0, 1), got 0.0"),
    ], ids=["top", "threshold", "alpha"])
    def test_bad_flag_reported_before_the_load(self, tmp_path, capsys, flags,
                                               message):
        rc = run(["analyze", *flags, "--scores", tmp_path / "missing.csv",
                  "--out", tmp_path / "out"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"benchsel: error: {message}"]

    @pytest.mark.parametrize("alpha", ["7", "nan", "-1", "0", "1"])
    def test_fairness_bad_alpha_exits_one_with_one_line(self, toy_inputs,
                                                        capsys, alpha):
        scores, norms, tmp = toy_inputs
        model_path = tmp / "m.json"
        save_model(model_path, LinearModel(("g1", "g2"), np.array([0.5, 0.5])),
                   norms_checksum=sha256_file(norms))
        rc = run(["analyze", "fairness", "--scores", scores,
                  "--norms", norms, "--model", model_path,
                  "--true-summary", "truecol", "--min-games", "2",
                  f"--alpha={alpha}", "--out", tmp / "fair", "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "alpha" in err[0]
