"""Command-line front end: search, pipeline, predict, analyze.

Every command is deterministic given (inputs, flags, seed), including the
worker count. Exit codes: 0 on success, 1 for data or runtime errors, 2
for usage errors. Output files that must be byte-reproducible embed the
input checksum chain and reference the run manifest (which holds the
volatile details like wall time and the workers used) by file name.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
import traceback

from . import __version__, fixtures
from .analysis import (
    correlated_pairs,
    export_dot,
    fairness_report,
    load_categories,
    pearson_matrix,
    rank_single_games,
)
from .data import (
    filter_dataset,
    load_norms,
    load_scores_with_values,
    normalize,
    prepare_dataset,
    summary_statistic,
)
from .errors import BenchselError
from .formats import (
    MANIFEST_NAME,
    RunManifest,
    checksum_chain,
    dumps,
    fairness_to_dict,
    load_model,
    model_to_dict,
    predictions_to_dict,
    provenance,
    sha256_file,
    suite_to_dict,
    write_csv,
    write_json,
    write_text,
)
from .predict import (
    approx_relative_error_from_log_mae,
    inversion_count,
    make_report,
    predict_summary,
    rebase_scores,
)
from .search import (
    SearchConfig,
    enumerate_and_score,
    nested_pipeline,
    per_game_models,
    variance_explained,
)

MANIFEST_LINE = f"manifest: {MANIFEST_NAME}"
REPORT_HEADER = ["algorithm", "predicted", "true", "rel_error",
                 "abs_rel_error"]


def _add_io_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--scores", required=True,
                        help="raw score CSV (header: algorithm,<env>,...)")
    parser.add_argument("--norms",
                        default=str(fixtures.normalization_path()),
                        help="normalization CSV (environment,random,human); "
                             "defaults to the shipped 57-game table")
    parser.add_argument("--out", default="benchsel-out",
                        help="output directory (created if missing)")
    parser.add_argument("--quiet", action="store_true",
                        help="print no text summary and no progress lines")
    parser.add_argument("--json", action="store_true",
                        help="print a JSON summary to stdout instead of text")


def _add_dataset_flags(parser: argparse.ArgumentParser, *, fairness=False):
    # ``analyze fairness`` filters and summarizes the table only to compute
    # true summaries, and has no --min-algos.
    unless = "; ignored with --true-summary" if fairness else ""
    parser.add_argument("--min-games", type=int, default=40,
                        help="drop algorithms with fewer present scores"
                             + unless)
    if not fairness:
        parser.add_argument("--min-algos", type=int, default=40,
                            help="then drop environments with fewer scores")
    parser.add_argument("--target", choices=("median", "mean"),
                        default="median",
                        help="summary statistic to predict" + unless)
    parser.add_argument("--ignore-columns", default="",
                        help="comma-separated non-score columns to ignore "
                             "(e.g. a true-summary column)")


def _add_search_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--folds", type=int, default=10,
                        help="cross-validation folds")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the fold shuffle")
    parser.add_argument("--threads", type=int, default=0,
                        help="processes that score blocks, this one "
                             "included; 0 = one per CPU")


def _split_csv_flag(raw: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


def _load_dataset(args):
    table, _ = load_scores_with_values(
        args.scores, ignore=_split_csv_flag(args.ignore_columns))
    return prepare_dataset(table, load_norms(args.norms),
                           min_games=args.min_games,
                           min_algorithms=args.min_algos,
                           target_stat=args.target)


def _checksums(args, model_path=None) -> dict[str, str]:
    """Checksums of the command's inputs, in checksum-chain order."""
    checksums = {"scores": sha256_file(args.scores),
                 "norms": sha256_file(args.norms)}
    if model_path is not None:
        checksums["model"] = sha256_file(model_path)
    if getattr(args, "categories", None):
        checksums["categories"] = sha256_file(args.categories)
    return checksums


def _emit(args, doc, lines, sort_keys=True) -> None:
    """Print ``doc`` as JSON under --json, else ``lines`` unless --quiet."""
    if args.json:
        print(dumps(doc, sort_keys=sort_keys))
    elif not args.quiet:
        for line in lines:
            print(line)


def _print_progress(done: int, total: int) -> None:
    print(f"benchsel: scored {done:,} / {total:,} candidate subsets",
          file=sys.stderr, flush=True)


def _progress_for(args):
    """A stderr line per million candidates searched, none under --quiet."""
    return None if args.quiet else _print_progress


def _model_summary_row(name, subset, model):
    approx = (None if model.stats.log_mae is None
              else approx_relative_error_from_log_mae(model.stats.log_mae))
    return {
        "name": name,
        "games": list(subset),
        "r_squared": model.stats.r_squared,
        "cv_mse": model.stats.cv_mse,
        "approx_rel_err": approx,
    }


# ---------------------------------------------------------------------------
# search

def cmd_search(args) -> dict:
    config = SearchConfig(  # a bad flag fails here, before the load
        subset_size=args.size,
        must_include=_split_csv_flag(",".join(args.include)),
        exclude=_split_csv_flag(",".join(args.exclude)),
        folds=args.folds,
        seed=args.seed,
        with_intercept=args.intercept,
        top_k=args.top_k,
    )
    dataset = _load_dataset(args)
    checksums = _checksums(args)
    result = enumerate_and_score(dataset, config, threads=args.threads,
                                 progress=_progress_for(args))

    ranked_path = os.path.join(args.out, "ranked.csv")
    write_csv(ranked_path, [
        "benchsel search ranking",
        f"inputs: {checksum_chain(checksums)}",
        f"config: size={args.size} folds={args.folds} seed={args.seed} "
        f"intercept={args.intercept} target={args.target}",
        f"candidates: total={result.total_candidates} "
        f"scored={result.scored} "
        f"skipped_rows={result.skipped_insufficient_rows} "
        f"skipped_singular={result.skipped_singular}",
        MANIFEST_LINE,
    ], ["rank", "cv_mse", "r_squared", "n_algorithms", "environments"], [
        (rank, cand.cv_mse, cand.model.stats.r_squared,
         cand.n_algorithms_used, " | ".join(cand.subset))
        for rank, cand in enumerate(result.ranked, start=1)])

    best = result.best
    name = f"best-of-size-{args.size}"
    write_json(os.path.join(args.out, "best_model.json"), model_to_dict(
        best.model, name=name, norms_checksum=checksums["norms"],
        extra={**provenance(checksums), "target_stat": args.target,
               "seed": args.seed, "folds": args.folds,
               "n_algorithms_used": best.n_algorithms_used}))

    summary = _model_summary_row(name, best.subset, best.model)
    summary["skip_stats"] = result.skip_stats
    _emit(args, summary, [
        f"best size-{args.size} subset: {', '.join(best.subset)}",
        f"  cv_mse={best.cv_mse:.6g}  "
        f"r_squared={best.model.stats.r_squared:.4f}  "
        f"algorithms={best.n_algorithms_used}",
        f"wrote {ranked_path}"])
    return {"input_checksums": checksums, "seed": args.seed,
            "workers": result.workers, "notes": result.skip_stats}


# ---------------------------------------------------------------------------
# pipeline

def cmd_pipeline(args) -> dict:
    SearchConfig(subset_size=1, folds=args.folds)  # --folds, before the load
    dataset = _load_dataset(args)
    checksums = _checksums(args)
    suite = nested_pipeline(dataset, folds=args.folds, seed=args.seed,
                            threads=args.threads,
                            progress=_progress_for(args))
    suite.banks["size-5"] = per_game_models(dataset, suite.subset("size-5"))
    suite.banks["size-10"] = per_game_models(dataset, suite.subset("size-10"))
    explained = {name: variance_explained(bank, dataset)
                 for name, bank in suite.banks.items()}

    # The per-model and per-bank files repeat the suite's entries.
    suite_doc = suite_to_dict(suite, norms_checksum=checksums["norms"])
    os.makedirs(os.path.join(args.out, "models"), exist_ok=True)
    os.makedirs(os.path.join(args.out, "banks"), exist_ok=True)
    write_json(os.path.join(args.out, "suite.json"), {
        **suite_doc, **provenance(checksums),
        "variance_explained": explained})
    for name, entry in suite_doc["models"].items():
        write_json(os.path.join(args.out, "models", f"{name}.json"), {
            **entry["model"], **provenance(checksums),
            "cv_mse": entry["cv_mse"]})
    for name, bank_doc in suite_doc["banks"].items():
        write_json(os.path.join(args.out, "banks", f"{name}.json"),
                   {**bank_doc, **provenance(checksums)})

    rows = [_model_summary_row(name, suite.subset(name),
                               suite.models[name].model)
            for name in ("size-1", "size-3", "size-5", "size-10",
                         "val-3", "val-5")]
    name_w = max(len(r["name"]) for r in rows)
    games_w = max(len(", ".join(r["games"])) for r in rows)
    lines = [f"# inputs: {checksum_chain(checksums)}",
             f"# seed: {args.seed}  folds: {args.folds}  "
             f"target: {args.target}",
             f"# {MANIFEST_LINE}",
             f"{'name':<{name_w}}  {'games':<{games_w}}  "
             f"{'r_squared':>9}  {'approx_rel_err':>14}"]
    for r in rows:
        rel = "" if r["approx_rel_err"] is None else f"{r['approx_rel_err']:.1%}"
        lines.append(f"{r['name']:<{name_w}}  "
                     f"{', '.join(r['games']):<{games_w}}  "
                     f"{r['r_squared']:>9.3f}  {rel:>14}")
    for name in ("size-5", "size-10"):
        lines.append(f"variance explained ({name} bank): "
                     f"{explained[name]:.1%}")
    write_text(os.path.join(args.out, "summary.txt"), "\n".join(lines) + "\n")
    write_csv(os.path.join(args.out, "summary.csv"), (),
              ["name", "games", "r_squared", "cv_mse", "approx_rel_err"],
              [(r["name"], " | ".join(r["games"]), r["r_squared"],
                r["cv_mse"], r["approx_rel_err"]) for r in rows])

    _emit(args, {"models": rows, "variance_explained": explained}, lines)
    return {"input_checksums": checksums, "seed": args.seed,
            "workers": suite.workers,
            "notes": {"skip_stats": suite.skip_stats}}


# ---------------------------------------------------------------------------
# predict

def _load_model_inputs(args, ignore=()):
    """Load ``--model`` (a file or a shipped model's name), the norms and the
    scores; a model fitted on other norms warns, or fails under --strict."""
    path = args.model
    if not os.path.exists(path):
        path = fixtures.subset_model_path(args.model)
    model, doc = load_model(path)
    norms = load_norms(args.norms)
    value_columns = (args.true_summary,) if args.true_summary else ()
    table, values = load_scores_with_values(args.scores, value_columns,
                                            ignore)
    checksums = _checksums(args, path)

    embedded = doc.get("norms_checksum")
    if embedded and embedded != checksums["norms"]:
        message = (f"normalization table checksum {checksums['norms']} does "
                   f"not match the one the model was fitted against "
                   f"({embedded})")
        if getattr(args, "strict", False):
            raise BenchselError(message)
        print(f"warning: {message}", file=sys.stderr)

    return model, doc, norms, table, values, checksums


def _report_row(r):
    return (r.algorithm_id, r.predicted_summary, r.true_summary,
            r.relative_error, r.abs_relative_error)


def cmd_predict(args) -> dict:
    model, model_doc, norms, table, values, checksums = _load_model_inputs(
        args)
    truths = values.get(args.true_summary, {}) if args.true_summary else {}
    used = sorted({j for j in map(table.index.get, model.environment_ids)
                   if j is not None})
    reports, row_errors = [], {}
    for algorithm, scores, value in zip(table.algorithm_ids, table.scores,
                                        predict_summary(model, table, norms)):
        if isinstance(value, BenchselError):
            row_errors[algorithm] = str(value)
            continue
        inputs = {table.environment_ids[j]: float(scores[j]) for j in used}
        reports.append(make_report(algorithm, value, inputs_used=inputs,
                                   true_summary=truths.get(algorithm)))
    preamble = [f"inputs: {checksum_chain(checksums)}", MANIFEST_LINE]
    write_csv(os.path.join(args.out, "predictions.csv"), preamble,
              REPORT_HEADER, map(_report_row, reports))

    inversions = None
    scored = [r for r in reports if r.true_summary is not None]
    if len(scored) >= 2:
        by_truth = [r.algorithm_id for r in sorted(
            scored, key=lambda r: (-r.true_summary, r.algorithm_id))]
        by_prediction = [r.algorithm_id for r in sorted(
            scored, key=lambda r: (-r.predicted_summary, r.algorithm_id))]
        inversions = inversion_count(by_truth, by_prediction)

    rebased = None
    if args.baseline:
        rebased = rebase_scores(reports, args.baseline)
        write_csv(os.path.join(args.out, "rebased.csv"), preamble,
                  REPORT_HEADER, map(_report_row, rebased))

    detail = predictions_to_dict(
        reports, model_name=model_doc.get("name"), checksums=checksums,
        inversions=inversions, baseline=args.baseline,
        row_errors=row_errors, rebased=rebased)
    write_json(os.path.join(args.out, "predictions.json"), detail)

    lines = []
    for r in reports:
        line = f"{r.algorithm_id}: predicted {r.predicted_summary:.1f}"
        if r.true_summary is not None and r.relative_error is not None:
            line += (f" (true {r.true_summary:.1f}, "
                     f"rel err {r.relative_error:+.1%})")
        elif r.true_summary is not None:
            line += f" (true {r.true_summary:.1f})"
        lines.append(line)
    for algorithm, message in sorted(row_errors.items()):
        lines.append(f"{algorithm}: skipped ({message})")
    if inversions is not None:
        lines.append(f"ranking inversions vs truth: {inversions}")
    _emit(args, detail, lines)
    return {"input_checksums": checksums,
            "notes": {"rows": len(reports), "row_errors": len(row_errors)}}


# ---------------------------------------------------------------------------
# analyze

def cmd_analyze_rank_single(args) -> dict:
    dataset = _load_dataset(args)
    checksums = _checksums(args)
    ranking = rank_single_games(dataset)
    path = os.path.join(args.out, "single_games.csv")
    write_csv(path, [f"inputs: {checksum_chain(checksums)}", MANIFEST_LINE,
                     "least predictive first"],
              ["environment", "slope", "intercept", "r_squared",
               "n_algorithms"],
              [(f.environment, f.slope, f.intercept, f.r_squared,
                f.n_algorithms) for f in ranking.ranked])
    lines = []
    if ranking.ranked:
        best = ranking.ranked[-1]
        lines.append(f"most predictive single game: {best.environment} "
                     f"(r_squared={best.r_squared:.3f})")
    lines.append(f"wrote {path}")
    _emit(args, [f.__dict__ for f in ranking.ranked], lines, sort_keys=False)
    return {"input_checksums": checksums,
            "notes": {"flagged": ranking.flagged}}


def cmd_analyze_correlate(args) -> dict:
    dataset = _load_dataset(args)
    categories = load_categories(args.categories) if args.categories else None
    checksums = _checksums(args)
    graph = pearson_matrix(dataset)
    pairs = correlated_pairs(graph, threshold=args.threshold, top_n=args.top)
    path = os.path.join(args.out, "pairs.csv")
    write_csv(path, [f"inputs: {checksum_chain(checksums)}",
                     f"threshold: {args.threshold}", MANIFEST_LINE],
              ["env_a", "env_b", "pcc", "n_algorithms", "highly_correlated"],
              [(p.env_a, p.env_b, p.pcc, p.n_pairs, p.highly_correlated)
               for p in pairs])
    if args.dot:
        write_text(args.dot, export_dot(pairs, categories))
    lines = []
    if pairs:
        top = pairs[0]
        lines.append(f"most correlated pair: {top.env_a} / {top.env_b} "
                     f"(pcc={top.pcc:.3f})")
    lines.append(f"wrote {path}")
    _emit(args, [p.__dict__ for p in pairs], lines, sort_keys=False)
    return {"input_checksums": checksums}


def cmd_analyze_fairness(args) -> dict:
    model, _, norms, table, values, checksums = _load_model_inputs(
        args, _split_csv_flag(args.ignore_columns))

    if args.true_summary:
        truths = values[args.true_summary]
    else:
        # True summaries from the table itself: the target statistic over
        # each algorithm's present normalized scores.
        filtered = filter_dataset(table, args.min_games, 1)
        statistic = summary_statistic(normalize(filtered, norms), args.target)
        truths = dict(zip(filtered.algorithm_ids, statistic.tolist()))

    predicted = zip(table.algorithm_ids, predict_summary(model, table, norms))
    reports = [make_report(algorithm, value, true_summary=truths[algorithm])
               for algorithm, value in predicted
               if truths.get(algorithm) is not None
               and not isinstance(value, BenchselError)]
    report = fairness_report(reports, alpha=args.alpha)
    doc = fairness_to_dict(report, checksums)
    write_json(os.path.join(args.out, "fairness.json"), doc)
    lines = []
    for name in ("low", "mid", "high"):
        g = report.groups[name]
        lines.append(f"{name:>4}: mean |rel err| {g.mean_abs_rel_error:.1%}, "
                     f"mean rel err {g.mean_rel_error:+.1%} "
                     f"({len(g.algorithm_ids)} algorithms)")
    verdict = ("differences detected" if report.any_significant
               else "no significant differences")
    lines.append(f"{verdict} at p={report.alpha}")
    _emit(args, doc, lines)
    return {"input_checksums": checksums}


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchsel",
        description="Compress a benchmark suite into small representative "
                    "environment subsets and apply the resulting models.")
    parser.add_argument("--version", action="version",
                        version=f"benchsel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="exhaustively score subsets of one size")
    _add_io_flags(p)
    _add_dataset_flags(p)
    _add_search_flags(p)
    p.add_argument("--intercept", action="store_true",
                   help="fit subset->summary models with an intercept "
                        "(default off: a random policy scores 0)")
    p.add_argument("--size", type=int, required=True, help="subset size")
    p.add_argument("--include", action="append", default=[],
                   help="environment that must appear (repeatable or "
                        "comma-separated)")
    p.add_argument("--exclude", action="append", default=[],
                   help="environment to exclude (repeatable or "
                        "comma-separated)")
    p.add_argument("--top-k", type=int, default=100,
                   help="ranked results to keep")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("pipeline",
                       help="run the nested subset-selection pipeline")
    _add_io_flags(p)
    _add_dataset_flags(p)
    _add_search_flags(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("predict",
                       help="apply a fitted model to raw scores")
    _add_io_flags(p)
    p.add_argument("--model", required=True,
                   help="model file, or a shipped reference model name "
                        f"({', '.join(fixtures.SUBSET_MODEL_NAMES)})")
    p.add_argument("--true-summary", default=None,
                   help="column in the score CSV holding true summaries")
    p.add_argument("--baseline", default=None,
                   help="algorithm to rebase all summaries against")
    p.add_argument("--strict", action="store_true",
                   help="turn checksum mismatches into errors")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("analyze", help="diagnostic analyses")
    asub = p.add_subparsers(dest="analysis", required=True)

    q = asub.add_parser("rank-single",
                        help="rank single environments by predictive power")
    _add_io_flags(q)
    _add_dataset_flags(q)
    q.set_defaults(func=cmd_analyze_rank_single)

    q = asub.add_parser("correlate",
                        help="pairwise correlation structure")
    _add_io_flags(q)
    _add_dataset_flags(q)
    q.add_argument("--threshold", type=float, default=0.9,
                   help="PCC above this is tagged highly correlated")
    q.add_argument("--top", type=int, default=24,
                   help="number of top pairs to keep")
    q.add_argument("--dot", default=None,
                   help="also write a DOT graph document here")
    q.add_argument("--categories",
                   default=str(fixtures.categories_path()),
                   help="category sidecar CSV (environment,category)")
    q.set_defaults(func=cmd_analyze_correlate)

    q = asub.add_parser("fairness",
                        help="tertile accuracy/bias audit of a model")
    _add_io_flags(q)
    q.add_argument("--model", required=True,
                   help="model file or shipped reference model name")
    q.add_argument("--true-summary", default=None,
                   help="column holding true summaries; computed from the "
                        "table when omitted")
    _add_dataset_flags(q, fairness=True)
    q.add_argument("--alpha", type=float, default=0.05,
                   help="significance threshold")
    q.set_defaults(func=cmd_analyze_fairness)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fresh = not os.path.exists(args.out)
    status = _run(args)
    if status and fresh:  # a failed run takes back the --out it made
        with contextlib.suppress(OSError):
            os.rmdir(args.out)  # refused unless the directory is empty
    return status


def _run(args) -> int:
    command = " ".join(filter(None, (args.command,
                                     getattr(args, "analysis", None))))
    try:
        started = time.time()
        os.makedirs(args.out, exist_ok=True)
        run = args.func(args)  # input checksums, seed, workers, notes
        RunManifest(
            command=command,
            config={k: v for k, v in sorted(vars(args).items())
                    if k != "func"},
            tool_version=__version__,
            wall_time_s=round(time.time() - started, 3),
            **run,
        ).save(os.path.join(args.out, MANIFEST_NAME))
        return 0
    except (BenchselError, OSError) as exc:
        print(f"benchsel: error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("benchsel: error: interrupted", file=sys.stderr)
        return 130
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
