"""Run one benchsel command with timing wrappers around its layer calls.

Usage: python3 bench/traced.py SPANS_JSON [benchsel arguments...]

The wrappers are installed from outside the program, on module attributes
at the points where one module calls another (for example
``benchsel.cli.enumerate_and_score`` and ``benchsel.search.fit_ols``).
Each call records a span: name, start, end, the span that was open when it
began, and a few counts. Spans stay in memory and are written to
SPANS_JSON when the command ends. Run the command with one worker: spans
recorded in forked pool workers would be lost.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from contextlib import contextmanager

# The stages of benchsel.search.nested_pipeline, in the order it runs them,
# with their subset sizes.
PIPELINE_STAGES = (("size-5", 5), ("size-3", 3), ("size-1", 1),
                   ("val-3", 3), ("val-5", 5), ("size-10", 10))


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "attrs": {}}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` so every call records a span named ``name``.

        ``before(record, args)`` runs at entry and ``after(record, result)``
        on a normal return; both may add counts to ``record["attrs"]``.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                if before:
                    before(record, args)
                result = fn(*args, **kwargs)
                if after:
                    after(record, result)
                return result
        return traced


def install(tracer: Tracer) -> None:
    from benchsel import analysis, cli, linreg, search

    def systems(record, args):
        shape = args[0].shape[:-2]
        record["attrs"]["systems"] = int(functools.reduce(
            lambda a, b: a * b, shape, 1))

    def rows(record, result):
        record["attrs"]["rows"] = len(result[0].algorithm_ids)

    def faults_before(record, args):
        record["attrs"]["minflt"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_minflt
        record["attrs"]["size"] = args[1].subset_size

    def faults_after(record, result):
        attrs = record["attrs"]
        attrs["minflt"] = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                           - attrs["minflt"])
        attrs.update(result.skip_stats)
        size = attrs.pop("size")
        parent = record["parent"]
        if parent is None or tracer.spans[parent]["name"] != "search.pipeline":
            attrs["stage"] = "search"
            return
        done = sum(1 for s in tracer.spans
                   if s["name"] == "search.enumerate" and s["parent"] == parent
                   and s is not record)
        stage, expected = (PIPELINE_STAGES[done]
                           if done < len(PIPELINE_STAGES) else (None, None))
        attrs["stage"] = stage if size == expected else f"stage{done}"

    enumerate_hooks = {"before": faults_before, "after": faults_after}
    points = [
        (cli, "load_scores_with_values", "data.load", {"after": rows}),
        (cli, "load_norms", "data.load", {}),
        (cli, "prepare_dataset", "data.prepare", {}),
        (cli, "sha256_file", "manifest.sha256", {}),
        (cli, "nested_pipeline", "search.pipeline", {}),
        (cli, "enumerate_and_score", "search.enumerate",
         enumerate_hooks),
        (search, "enumerate_and_score", "search.enumerate",
         enumerate_hooks),
        (search, "_score_block", "search.score_block", {}),
        (cli, "per_game_models", "search.banks", {}),
        (cli, "variance_explained", "search.variance_explained", {}),
        (search, "_chol_solve_batched", "linreg.chol_solve",
         {"before": systems}),
        (linreg, "_chol_solve_batched", "linreg.chol_solve",
         {"before": systems}),
        (search, "fit_ols", "linreg.fit_ols", {}),
        (analysis, "fit_ols", "linreg.fit_ols", {}),
        (cli, "predict_summary", "predict.predict_summary", {}),
        (cli, "inversion_count", "predict.inversion_count", {}),
        (cli, "rebase_scores", "predict.rebase", {}),
        (cli, "pearson_matrix", "analysis.pearson", {}),
        (cli, "correlated_pairs", "analysis.correlated_pairs", {}),
        (cli, "rank_single_games", "analysis.rank_single", {}),
        (cli, "fairness_report", "analysis.fairness", {}),
    ]
    wrapped = {}
    for module, attr, name, extra in points:
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        key = (id(fn), name)
        if key not in wrapped:
            wrapped[key] = tracer.wrap(name, fn, **extra)
        setattr(module, attr, wrapped[key])


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.span("data.import"):
            import benchsel.cli
        install(tracer)
        with tracer.span("cli.main"):
            return benchsel.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
