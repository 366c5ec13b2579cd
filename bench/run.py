"""benchsel benchmark: three CLI workloads on seeded, paper-shaped corpora.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed drives a generator that writes the workload's score tables; the
program sees only those CSV files. Each job launches ``benchsel`` as a
separate process (``python3 -m benchsel.cli`` over the checkout's ``src``)
and the jobs run back to back, a closed loop with one client, for about
``--seconds`` seconds. Every job's outputs are checked: the independent
derivations in ``oracle.py`` judge each distinct output fingerprint, and
every job must reproduce the first job's fingerprint. A job fails if a
command exits non-zero or the check finds a disagreement.

With ``--trace 0`` the run reports the end-to-end metrics, medians over
its jobs:

    job_s             wall time of one job, launch to exit of its commands
    setup_s           a fresh interpreter importing benchsel.cli, then
                      loading and preparing the table (setup_probe.py)
    throughput_per_s  candidates (search workloads) or algorithm rows
                      (score-table) per second of job_s
    peak_rss_mb       peak resident memory of the job, from wait4
    cpu_s             user plus system CPU of the job, pool workers included

With ``--trace 1`` it alternates plain and traced jobs, both on one
worker, and reports per-layer metrics from the spans that ``traced.py``
records around the calls between modules, plus the traced minus the plain
job time.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (so the error rate is failed / attempted) and
``metrics``. Everything else the run learned (machine record, input
checksums, workload descriptors, per-job figures) goes to
``.bench_run/results/`` in the checkout and, in short, to the lines before
it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import corpus
import oracle

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(SRC, "benchsel", "fixtures")
NORMS = os.path.join(FIXTURES, "ale_normalization.csv")
WORK = os.path.join(ROOT, ".bench_run")

ALGORITHMS = 62
MISSING_SHARE = 0.10
MIN_GAMES = 40             # benchsel's --min-games default
MIN_ALGORITHMS = 40        # benchsel's --min-algos default
SETUP_REPEATS = 4
MIN_JOBS = 3
RUN_DEADLINE_S = 170.0     # the whole run must end within 180 s
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")

# Workload sizes keep one job at 4-8 s, so a 30 s run holds 4-6 jobs.
# pipeline-structured: games in the corpus, and the per-algorithm floor
# passed as --min-games (the 40 default assumes all 57 games).
PIPELINE_GAMES = 28
PIPELINE_MIN_GAMES = 18
# search-iid: games excluded from the pool, so one size-5 search with one
# forced game scores C(56 - 16, 4) = 91,390 candidates.
SEARCH_EXCLUDED = 16
# score-table: algorithm rows (training checkpoints) in the table.
SCORE_ROWS = 2000
SCORE_MODEL = "atari5"
TRUTH = "median57"


@dataclass
class Workload:
    """One generated input set and the benchsel commands of one job."""

    name: str
    descriptor: dict                 # corpus facts, recorded in the result
    commands: list[Callable]         # (out_dir, threads) -> benchsel argv
    work: int                        # candidates or rows handled per job
    work_unit: str
    setup_args: list                 # setup_probe.py arguments
    check: Callable                  # (out_dir) -> (fingerprint, errors)
    # Per search stage: candidates, skipped for too few rows, and distinct
    # usable-row masks; filled in by the oracle on the first check.
    stage_counts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Workloads

def pipeline_structured(seed: int, work_dir: str) -> Workload:
    refs = corpus.read_norms(NORMS)
    chosen = np.sort(np.random.default_rng([seed, 1]).choice(
        len(refs), size=PIPELINE_GAMES, replace=False))
    path = os.path.join(work_dir, "pipeline.csv")
    table_doc = corpus.make_table(
        path, seed, [refs[i] for i in chosen], n_algorithms=ALGORITHMS,
        missingness="structured", share=MISSING_SHARE,
        min_games=PIPELINE_MIN_GAMES, min_algorithms=MIN_ALGORITHMS,
        groups=6, block=5)
    table = oracle.read_table(path, NORMS)
    n = PIPELINE_GAMES
    candidates = {"size-5": math.comb(n, 5), "size-3": math.comb(5, 3),
                  "size-1": math.comb(3, 1), "val-3": math.comb(n - 5, 3),
                  "val-5": math.comb(n - 8, 2), "size-10": math.comb(n - 10, 5)}
    workload = Workload(
        name="pipeline-structured",
        descriptor={"table": table_doc, "candidates_per_stage": candidates},
        commands=[lambda out, threads: [
            "pipeline", "--scores", path, "--min-games",
            str(PIPELINE_MIN_GAMES), "--threads", str(threads),
            "--out", out, "--quiet"]],
        work=sum(candidates.values()),
        work_unit="candidates",
        setup_args=[path, NORMS, str(PIPELINE_MIN_GAMES)],
        check=None,
    )

    def verify(fingerprint):
        subset = {k: tuple(fingerprint[k]["subset"]) for k in candidates}
        games = table.games
        size5, val3, val5 = subset["size-5"], subset["val-3"], subset["val-5"]
        stages = [
            oracle.Stage("size-5", 5, (), games),
            oracle.Stage("size-3", 3, (), size5),
            oracle.Stage("size-1", 1, (), subset["size-3"]),
            oracle.Stage("val-3", 3, (), _without(games, size5)),
            oracle.Stage("val-5", 5, val3, _without(games, size5 + val3)),
            oracle.Stage("size-10", 10, size5, _without(games, size5 + val5)),
        ]
        errors = _planted_error(size5, table_doc)
        rng = np.random.default_rng([seed, 3])
        for stage in stages:
            stage_errors, counts = oracle.check_stage(
                table, stage, fingerprint[stage.name], rng)
            errors += stage_errors
            workload.stage_counts[stage.name] = counts
        explained = fingerprint["variance_explained"]
        if sorted(explained) != ["size-10", "size-5"] or not all(
                0.0 < v <= 1.0 for v in explained.values()):
            errors.append(f"variance_explained malformed: {explained}")
        return errors

    verdict = _memoized(verify)

    def check(out):
        with open(os.path.join(out, "suite.json"), encoding="utf-8") as fh:
            suite = json.load(fh)
        fingerprint = {"variance_explained": suite["variance_explained"]}
        for name in candidates:
            model = suite["models"][name]
            fingerprint[name] = dict(suite["skip_stats"][name],
                                     subset=sorted(model["subset"]),
                                     cv_mse=model["cv_mse"])
        return fingerprint, verdict(fingerprint)

    workload.check = check
    return workload


def search_iid(seed: int, work_dir: str) -> Workload:
    refs = corpus.read_norms(NORMS)
    path = os.path.join(work_dir, "search.csv")
    table_doc = corpus.make_table(path, seed, refs, n_algorithms=ALGORITHMS,
                                  missingness="iid", share=MISSING_SHARE,
                                  min_games=MIN_GAMES,
                                  min_algorithms=MIN_ALGORITHMS)
    table = oracle.read_table(path, NORMS)
    include = table_doc["planted"][0]
    others = [g for g in table.games if g not in table_doc["planted"]]
    excluded = sorted(np.random.default_rng([seed, 2]).choice(
        others, size=SEARCH_EXCLUDED, replace=False).tolist())
    stage = oracle.Stage("search", 5, (include,),
                         _without(table.games, [include, *excluded]))
    total = math.comb(len(stage.pool), 4)
    workload = Workload(
        name="search-iid",
        descriptor={"table": table_doc, "include": include,
                    "exclude": excluded,
                    "candidates_per_stage": {"search": total}},
        commands=[lambda out, threads: [
            "search", "--scores", path, "--size", "5", "--include", include,
            "--exclude", ",".join(excluded), "--threads", "1",
            "--out", out, "--quiet"]],
        work=total,
        work_unit="candidates",
        setup_args=[path, NORMS, str(MIN_GAMES)],
        check=None,
    )

    def verify(fingerprint):
        errors = _planted_error(fingerprint["search"]["subset"], table_doc)
        stage_errors, workload.stage_counts["search"] = oracle.check_stage(
            table, stage, fingerprint["search"],
            np.random.default_rng([seed, 3]))
        return errors + stage_errors

    verdict = _memoized(verify)

    def check(out):
        with open(os.path.join(out, "ranked.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        counts = next(l for l in lines if l.startswith("# candidates:"))
        stats = dict(kv.split("=") for kv in counts.split()[2:])
        best = next(l for l in lines if l.startswith("1,")).split(",", 4)
        fingerprint = {"search": {
            "total_candidates": int(stats["total"]),
            "scored": int(stats["scored"]),
            "skipped_insufficient_rows": int(stats["skipped_rows"]),
            "skipped_singular": int(stats["skipped_singular"]),
            "subset": sorted(best[4].split(" | ")),
            "cv_mse": float(best[1]),
        }}
        return fingerprint, verdict(fingerprint)

    workload.check = check
    return workload


def score_table(seed: int, work_dir: str) -> Workload:
    refs = corpus.read_norms(NORMS)
    model_path = os.path.join(FIXTURES, "models", f"{SCORE_MODEL}.json")
    with open(model_path, encoding="utf-8") as fh:
        model = json.load(fh)
    path = os.path.join(work_dir, "table.csv")
    table_doc = corpus.make_table(
        path, seed, refs, n_algorithms=SCORE_ROWS, missingness="iid",
        share=MISSING_SHARE, min_games=MIN_GAMES,
        min_algorithms=MIN_ALGORITHMS, keep_games=model["environment_ids"],
        prefix="ckpt", truth_column=TRUTH)
    table = oracle.read_table(path, NORMS, (TRUTH,))
    baseline = table.algorithms[0]

    def predict(out, threads):
        return ["predict", "--scores", path, "--model", SCORE_MODEL,
                "--true-summary", TRUTH, "--baseline", baseline,
                "--out", os.path.join(out, "predict"), "--quiet"]

    def fairness(out, threads):
        return ["analyze", "fairness", "--scores", path, "--model",
                SCORE_MODEL, "--true-summary", TRUTH,
                "--out", os.path.join(out, "fairness"), "--quiet"]

    def correlate(out, threads):
        return ["analyze", "correlate", "--scores", path, "--ignore-columns",
                TRUTH, "--out", os.path.join(out, "correlate"), "--quiet"]

    def rank_single(out, threads):
        return ["analyze", "rank-single", "--scores", path,
                "--ignore-columns", TRUTH,
                "--out", os.path.join(out, "rank-single"), "--quiet"]

    commands = [predict, fairness, correlate, rank_single]
    # Everything the commands should report, derived from the CSV alone.
    names = list(table.algorithms)
    truth = table.extra[TRUTH]
    predicted = oracle.predict_rows(table, model)
    truth_of, pred_of = dict(zip(names, truth)), dict(zip(names, predicted))
    inversions = oracle.inversion_count(
        sorted(names, key=lambda a: (-truth_of[a], a)),
        sorted(names, key=lambda a: (-pred_of[a], a)))
    order = sorted(range(len(names)), key=lambda i: (truth[i], names[i]))
    tertiles = {
        tier: ([names[i] for i in idx],
               float(np.abs((predicted[idx] - truth[idx]) / truth[idx]).mean()))
        for tier, idx in zip(("low", "mid", "high"), np.array_split(order, 3))}
    pcc, pair = max((oracle.pearson(table, a, b), (a, b))
                    for a in range(len(table.games))
                    for b in range(a + 1, len(table.games)))
    top_pair = sorted(table.games[j] for j in pair)
    r2, best_game = max((oracle.single_game_r2(table, g), g)
                        for g in range(len(table.games)))

    def check(out):
        errors = []
        with open(os.path.join(out, "predict", "predictions.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        got = np.array([r["predicted"] for r in doc["reports"]])
        if [r["algorithm"] for r in doc["reports"]] != names:
            errors.append("predictions do not cover every table row in order")
        elif not all(map(oracle.close, got, predicted)):
            errors.append("predictions differ from the model applied to the "
                          "CSV")
        if doc["inversion_count"] != inversions:
            errors.append(f"inversion_count {doc['inversion_count']}, "
                          f"expected {inversions}")
        rebased = [r["predicted"] for r in doc["rebased"]]
        if not all(map(oracle.close, rebased, predicted / predicted[0])):
            errors.append("rebased predictions are not ratios to the "
                          "baseline's")
        with open(os.path.join(out, "fairness", "fairness.json"),
                  encoding="utf-8") as fh:
            groups = json.load(fh)["groups"]
        for tier, (members, mean_abs) in tertiles.items():
            if (groups[tier]["algorithms"] != members or not oracle.close(
                    groups[tier]["mean_abs_rel_error"], mean_abs, 1e-8)):
                errors.append(f"fairness tertile {tier} differs")
        pairs = _csv_rows(os.path.join(out, "correlate", "pairs.csv"))
        if (len(pairs) != 25 or pairs[1][:2] != top_pair
                or not oracle.close(float(pairs[1][2]), pcc)):
            errors.append(f"top correlated pair {pairs[1][:3]}, expected "
                          f"{top_pair} at {pcc!r}")
        single = _csv_rows(os.path.join(out, "rank-single",
                                        "single_games.csv"))
        if (len(single) != len(table.games) + 1
                or single[-1][0] != table.games[best_game]
                or not oracle.close(float(single[-1][3]), r2, 1e-8)):
            errors.append(f"most predictive single game {single[-1][:4]}, "
                          f"expected {table.games[best_game]} at {r2!r}")
        fingerprint = {"inversion_count": doc["inversion_count"],
                       "top_pair": pairs[1][:3],
                       "best_single_game": single[-1][0],
                       "predicted_sum": float(got.sum())}
        return fingerprint, errors

    return Workload(
        name="score-table",
        descriptor={"table": table_doc, "model": SCORE_MODEL,
                    "baseline": baseline, "commands": len(commands)},
        commands=commands,
        work=len(commands) * SCORE_ROWS,
        work_unit="rows",
        setup_args=[path, NORMS, str(MIN_GAMES), TRUTH],
        check=check,
    )


WORKLOADS = {
    "pipeline-structured": pipeline_structured,
    "search-iid": search_iid,
    "score-table": score_table,
}


def _without(games, drop) -> tuple[str, ...]:
    drop = set(drop)
    return tuple(g for g in games if g not in drop)


def _memoized(verify):
    """Run the oracle once per distinct fingerprint: a job whose outputs
    match an earlier job's gets that job's verdict."""
    verdicts = {}

    def verdict(fingerprint):
        key = json.dumps(fingerprint, sort_keys=True)
        if key not in verdicts:
            verdicts[key] = verify(fingerprint)
        return verdicts[key]

    return verdict


def _planted_error(subset, table_doc) -> list[str]:
    if sorted(subset) != sorted(table_doc["planted"]):
        return [f"best size-5 subset {sorted(subset)} is not the planted "
                f"{sorted(table_doc['planted'])}"]
    return []


def _csv_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [r for r in csv.reader(fh) if r and not r[0].startswith("#")]


# ---------------------------------------------------------------------------
# Processes

def job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in BLAS_VARIABLES:
        env[var] = BLAS_THREADS
    for var in ("BENCHSEL_THREADS", "BENCHSEL_BLOCK_SIZE"):
        env.pop(var, None)
    return env


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    returncode: int
    stderr: str


def run_process(argv, log_path, timeout_s: float) -> Proc:
    """Run one process to completion; time it from launch to exit and take
    its resource usage, including its reaped children, from wait4."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=job_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=log,
                                start_new_session=True)
        timer = threading.Timer(timeout_s, os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                proc.returncode, stderr)


@dataclass
class Job:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    output_bytes: int = 0
    traced: bool = False
    errors: list = field(default_factory=list)
    spans: list = field(default_factory=list)


class Runner:
    """Runs one workload's processes inside one run directory."""

    def __init__(self, workload: Workload, run_dir: str, deadline: float):
        self.workload = workload
        self.run_dir = run_dir
        self.deadline = deadline
        self.fingerprint = None

    def run(self, argv, log_name: str) -> Proc:
        return run_process(argv, os.path.join(self.run_dir, log_name),
                           max(5.0, self.deadline - time.monotonic()))

    def setup(self) -> list[float]:
        """Set-up time in fresh interpreters: one untimed warm-up (it
        compiles the byte code), then SETUP_REPEATS timed probes."""
        argv = [sys.executable, os.path.join(BENCH, "setup_probe.py"),
                *self.workload.setup_args]
        times = []
        for i in range(SETUP_REPEATS + 1):
            proc = self.run(argv, "setup.log")
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr}")
            if i:
                times.append(proc.wall_s)
        return times

    def job(self, index: int, threads: int, traced: bool) -> Job:
        out = os.path.join(self.run_dir, f"job{index}")
        os.makedirs(out)
        job = Job(traced=traced)
        for c, command in enumerate(self.workload.commands):
            args = command(out, threads)
            if traced:
                spans = os.path.join(self.run_dir, f"spans-job{index}-{c}.json")
                argv = [sys.executable, os.path.join(BENCH, "traced.py"),
                        spans, *args]
            else:
                argv = [sys.executable, "-m", "benchsel.cli", *args]
            proc = self.run(argv, f"job{index}-{c}.log")
            job.wall_s += proc.wall_s
            job.cpu_s += proc.cpu_s
            job.peak_rss_mb = max(job.peak_rss_mb, proc.maxrss_kb / 1024.0)
            if proc.returncode != 0:
                job.errors.append(f"command {c} exited {proc.returncode}: "
                                  f"{proc.stderr.strip()[-500:]}")
                break
            if traced:
                with open(spans, encoding="utf-8") as fh:
                    job.spans.append(json.load(fh))
        else:
            self._check(job, out)
        shutil.rmtree(out, ignore_errors=True)
        return job

    def _check(self, job: Job, out: str) -> None:
        job.output_bytes = sum(os.path.getsize(os.path.join(d, f))
                               for d, _, files in os.walk(out) for f in files)
        try:
            fingerprint, errors = self.workload.check(out)
        except (OSError, KeyError, IndexError, ValueError, StopIteration,
                TypeError) as exc:
            job.errors.append(f"unreadable output: {exc!r}")
            return
        job.errors.extend(errors)
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        elif not _same_fingerprint(fingerprint, self.fingerprint):
            job.errors.append("output differs from the run's first job")


def _same_fingerprint(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_fingerprint(a[k], b[k])
                                            for k in a)
    if isinstance(a, float) and isinstance(b, float):
        return oracle.close(a, b)
    return a == b


# ---------------------------------------------------------------------------
# Metrics

def end_to_end(workload: Workload, jobs: list[Job], setup: list[float]
               ) -> dict:
    """Medians over the run's jobs."""
    walls = [j.wall_s for j in jobs]
    return {
        "job_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "throughput_per_s": (statistics.median(workload.work / w
                                               for w in walls), "1/s"),
        "peak_rss_mb": (statistics.median(j.peak_rss_mb for j in jobs), "MB"),
        "cpu_s": (statistics.median(j.cpu_s for j in jobs), "s"),
    }


def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


STAGES = ("size-5", "size-3", "size-1", "val-3", "val-5", "size-10")
LAYERS = ("data", "search", "linreg", "predict", "analysis", "manifest")


def per_layer_from_spans(job: Job) -> dict:
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, float] = {}
    for spans in job.spans:
        for s, own in zip(spans, _self_times(spans)):
            name = s["name"]
            total[name] = total.get(name, 0.0) + s["end"] - s["start"]
            self_time[name] = self_time.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            for key, value in s["attrs"].items():
                if key == "stage":
                    stage_key = f"search.stage.{value}_s"
                    attrs[stage_key] = (attrs.get(stage_key, 0.0)
                                        + s["end"] - s["start"])
                else:
                    attrs[f"{name}.{key}"] = attrs.get(f"{name}.{key}", 0) + value

    def t(name):
        return total.get(name, 0.0)

    candidates = attrs.get("search.enumerate.total_candidates", 0)
    scored = attrs.get("search.enumerate.scored", 0)
    metrics = {
        "data.import_s": (t("data.import"), "s"),
        "data.load_s": (t("data.load"), "s"),
        "data.prepare_s": (t("data.prepare"), "s"),
        "data.rows": (attrs.get("data.load.rows", 0), "count"),
        "search.enumerate_s": (t("search.enumerate"), "s"),
        **{f"search.stage.{st}_s": (attrs.get(f"search.stage.{st}_s", 0.0),
                                    "s") for st in STAGES},
        "search.score_block_s": (t("search.score_block"), "s"),
        "search.score_block_self_s": (self_time.get("search.score_block",
                                                    0.0), "s"),
        "search.blocks": (calls.get("search.score_block", 0), "count"),
        "search.merge_refit_s": (t("search.enumerate")
                                 - t("search.score_block"), "s"),
        "search.candidates": (candidates, "count"),
        "search.scored": (scored, "count"),
        "search.skipped_rows": (
            attrs.get("search.enumerate.skipped_insufficient_rows", 0),
            "count"),
        "search.skipped_singular": (
            attrs.get("search.enumerate.skipped_singular", 0), "count"),
        "search.scored_ratio": (scored / candidates if candidates else 0.0,
                                "ratio"),
        "search.minor_faults": (attrs.get("search.enumerate.minflt", 0),
                                "count"),
        "search.banks_s": (t("search.banks"), "s"),
        "search.variance_explained_s": (t("search.variance_explained"), "s"),
        "linreg.chol_solve_s": (t("linreg.chol_solve"), "s"),
        "linreg.chol_calls": (calls.get("linreg.chol_solve", 0), "count"),
        "linreg.systems": (attrs.get("linreg.chol_solve.systems", 0),
                           "count"),
        "linreg.fit_ols_s": (t("linreg.fit_ols"), "s"),
        "linreg.fit_ols_calls": (calls.get("linreg.fit_ols", 0), "count"),
        "predict.predict_summary_s": (t("predict.predict_summary"), "s"),
        "predict.calls": (calls.get("predict.predict_summary", 0), "count"),
        "predict.inversion_count_s": (t("predict.inversion_count"), "s"),
        "predict.rebase_s": (t("predict.rebase"), "s"),
        "analysis.pearson_s": (t("analysis.pearson"), "s"),
        "analysis.correlated_pairs_s": (t("analysis.correlated_pairs"), "s"),
        "analysis.rank_single_s": (t("analysis.rank_single"), "s"),
        "analysis.fairness_s": (t("analysis.fairness"), "s"),
        **{f"{layer}.self_s": (sum((v for k, v in self_time.items()
                                    if k.startswith(layer + ".")), 0.0), "s")
           for layer in LAYERS},
        "cli.self_s": (self_time.get("cli.main", 0.0), "s"),
        "cli.output_bytes": (job.output_bytes, "bytes"),
        "manifest.sha256_s": (t("manifest.sha256"), "s"),
    }
    return metrics


def per_layer(workload: Workload, plain: list[Job], traced: list[Job]
              ) -> dict:
    each = [per_layer_from_spans(j) for j in traced]
    metrics = {name: (statistics.median(m[name][0] for m in each), unit)
               for name, (_, unit) in each[0].items()}
    counts = workload.stage_counts.values()
    masks = sum(c["distinct_masks"] for c in counts)
    metrics["search.candidates_per_mask"] = (
        sum(c["candidates"] for c in counts) / masks if masks else 0.0,
        "ratio")
    metrics["trace_overhead_s"] = (
        statistics.median(j.wall_s for j in traced)
        - statistics.median(j.wall_s for j in plain), "s")
    return metrics


# ---------------------------------------------------------------------------
# Machine record

def machine_record() -> dict:
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: BLAS_THREADS for v in BLAS_VARIABLES},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------

def _exit_on_signal(signum, frame):
    # Unwinds through run_process, which kills the running command's
    # process group before the benchmark exits.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    signal.signal(signal.SIGTERM, _exit_on_signal)
    if not os.path.isfile(os.path.join(SRC, "benchsel", "cli.py")):
        print(f"benchmark: no benchsel sources under {SRC}", file=sys.stderr)
        return 2
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    workload = WORKLOADS[args.workload](args.seed, run_dir)
    runner = Runner(workload, run_dir, started + RUN_DEADLINE_S)
    setup = runner.setup()

    # Closed loop: start the next job only while it should end in time.
    # A traced run alternates plain and traced jobs, all on one worker.
    threads = 1 if args.trace else 2
    jobs: list[Job] = []
    window = time.monotonic()
    while True:
        traced = bool(args.trace) and len(jobs) % 2 == 1
        jobs.append(runner.job(len(jobs), threads, traced))
        typical = statistics.median(j.wall_s for j in jobs)
        ends = time.monotonic() + typical
        if args.trace and len(jobs) % 2:
            continue
        if (len(jobs) >= (2 if args.trace else MIN_JOBS)
                and ends - window > args.seconds):
            break
        if ends + typical > runner.deadline:
            break
    window = time.monotonic() - window

    failed = [j for j in jobs if j.errors]
    if args.trace:
        traced_jobs = [j for j in jobs if j.traced and j.spans]
        plain = [j for j in jobs if not j.traced]
        metrics = per_layer(workload, plain, traced_jobs) if traced_jobs else {}
    else:
        metrics = end_to_end(workload, jobs, setup)

    machine = machine_record()
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "inputs": workload.descriptor,
        "stage_counts": workload.stage_counts,
        "setup_s": setup,
        "jobs": [{"wall_s": j.wall_s, "cpu_s": j.cpu_s,
                  "peak_rss_mb": j.peak_rss_mb, "traced": j.traced,
                  "output_bytes": j.output_bytes, "errors": j.errors}
                 for j in jobs],
        "fingerprint": runner.fingerprint,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    result_path = os.path.join(results, os.path.basename(run_dir) + ".json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")

    table = workload.descriptor["table"]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"{len(jobs)} jobs in {window:.1f} s")
    print(f"machine: nproc={machine['nproc']} "
          f"affinity={machine['affinity_cpus']} python={machine['python']} "
          f"numpy={machine['numpy']} blas={machine['blas']} "
          f"blas_threads={BLAS_THREADS}")
    print(f"input {table['file']}: sha256 {table['sha256']}")
    for job in failed:
        for error in job.errors:
            print(f"FAILED: {error}", file=sys.stderr)
    print(f"error_rate {len(failed) / len(jobs):.3f}  "
          f"({len(failed)} of {len(jobs)} jobs failed)")
    if not args.trace:
        rate = metrics["throughput_per_s"][0]
        print(f"{workload.work_unit}_per_s {rate:.6g} 1/s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"full record: {os.path.relpath(result_path, ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
