"""Exhaustive environment-subset search scored by cross-validated regression.

Candidate subsets are enumerated in colexicographic order through the
combinatorial number system, so a block of candidates is fully determined
by a rank interval [start, stop). Workers receive rank intervals, unrank
them to index arrays, and score a whole block at once with the one CV
kernel, ``linreg._fold_tables`` and ``linreg._cv_mse_tabled``, fed by one
of two kinds of table:

* Per mask. Fittable columns whose availability is identical form one
  class, so a candidate's usable rows depend only on the set of classes
  it touches, encoded as a bit key. When tables for every reachable key
  fit in ``WORKING_SET_DOUBLES``, the search builds them once: per key,
  the held-out values of each fold and each fold's training system over
  every fittable column. A block then looks up each candidate's key and
  gathers its training systems and held-out values from the tables.
  Leaderboard gaps (whole games missing for some algorithms) leave a few
  classes and thousands of candidates per key.
* Per candidate, when the tables would not fit, as with scattered gaps,
  where nearly every game is its own class. A per-search slot table,
  indexed by the number of usable algorithms, lists each fold's held-out
  usable ranks, so a block gathers every candidate's held-out rows and
  builds one table per candidate holding just its columns.

Both run the same arithmetic, so they give bit-identical cv_mse. A
candidate's result does not depend on the block it lands in, and the
final merge uses the total order (cv_mse, sorted environment names), so
the ranking is bit-identical whatever the worker count or block size.

Per subset, any algorithm missing one of the required scores is dropped
for that candidate only. Candidates left with fewer usable algorithms
than ``fitted columns + 2`` (or than the fold count, which k-fold CV
needs) are skipped and counted, never silently dropped.
"""

from __future__ import annotations

import collections
import itertools
import math
import multiprocessing
import os
import signal
import sys
from dataclasses import dataclass, field, replace
from multiprocessing import connection

import numpy as np

from .data import EnvironmentIndex, PreparedDataset
from .errors import (
    BenchselError,
    EmptySearchError,
    SingularMatrixError,
    ValidationError,
)
from .linreg import (
    MAX_COLUMNS,
    FitStats,
    LinearModel,
    _cv_mse_tabled,
    _fold_tables,
    fit_ols,
    fold_slots,
)

MAX_ENUMERATION = 1 << 50
PIPELINE_MIN_ENVIRONMENTS = 15
PROGRESS_STRIDE = 1_000_000
# Doubles a search block's largest arrays may take, and the per-search
# fold tables too: 450k (3.6 MB) scored fastest at 3, 5 and 10 columns on
# a Xeon with 2 MiB of L2 per core; larger blocks push the Cholesky sweeps
# out to L3.
WORKING_SET_DOUBLES = 450_000


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one exhaustive subset search."""

    subset_size: int
    must_include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()
    folds: int = 10
    seed: int = 0
    with_intercept: bool = False
    top_k: int = 100

    def __post_init__(self):
        if self.subset_size < 1:
            raise ValidationError("subset_size must be >= 1")
        if self.folds < 2:
            raise ValidationError("folds must be >= 2")
        if self.top_k < 1:
            raise ValidationError("top_k must be >= 1")
        must = EnvironmentIndex(self.must_include)
        if any(e in must for e in self.exclude):
            raise ValidationError("must_include and exclude overlap")
        if len(self.must_include) > self.subset_size:
            raise ValidationError("must_include larger than subset_size")


@dataclass(frozen=True)
class RankedCandidate:
    """One scored subset: environments in dataset column order."""

    subset: tuple[str, ...]
    model: LinearModel
    cv_mse: float
    n_algorithms_used: int


@dataclass(frozen=True)
class SearchResult:
    """Ranked outcome of an exhaustive search plus skip accounting.

    ``ranked`` is sorted ascending by cv_mse with ties broken by the
    lexicographic order of the sorted environment names, so the ordering
    is total and reproducible. ``scored + skipped_insufficient_rows +
    skipped_singular == total_candidates`` always holds.
    """

    config: SearchConfig
    ranked: tuple[RankedCandidate, ...]
    total_candidates: int
    scored: int
    skipped_insufficient_rows: int
    skipped_singular: int

    @property
    def best(self) -> RankedCandidate:
        return self.ranked[0]

    @property
    def skip_stats(self) -> dict[str, int]:
        return {
            "total_candidates": self.total_candidates,
            "scored": self.scored,
            "skipped_insufficient_rows": self.skipped_insufficient_rows,
            "skipped_singular": self.skipped_singular,
        }


@dataclass(frozen=True)
class ModelBank:
    """One per-environment prediction model over a fixed input subset."""

    subset: tuple[str, ...]
    models: dict[str, LinearModel]
    skipped: dict[str, str]
    n_used: dict[str, int]

    def covers(self, environment_ids) -> bool:
        have = EnvironmentIndex([*self.models, *self.skipped])
        return all(e in have for e in environment_ids)


@dataclass
class SubsetSuite:
    """The named nested model family produced by the full pipeline."""

    models: dict[str, RankedCandidate]
    folds: int
    seed: int
    dataset_hash: str
    skip_stats: dict[str, dict[str, int]]
    banks: dict[str, ModelBank] = field(default_factory=dict)

    def subset(self, name: str) -> tuple[str, ...]:
        return self.models[name].subset


# ---------------------------------------------------------------------------
# Colex enumeration through the combinatorial number system.

def _comb_table(n: int, k: int) -> np.ndarray:
    """binomial(v, j) for v in 0..n, j in 0..k as int64 (caller bounds size)."""
    table = np.zeros((n + 1, k + 1), dtype=np.int64)
    for v in range(n + 1):
        for j in range(k + 1):
            table[v, j] = math.comb(v, j)
    return table


def _unrank_colex(ranks: np.ndarray, k: int, table: np.ndarray) -> np.ndarray:
    """Map colex ranks to ascending k-combinations of {0..n-1}.

    The combination at rank r satisfies r = sum_j binomial(c_j, j+1); the
    greedy digit extraction below inverts that, vectorized over ranks.
    """
    remaining = np.array(ranks, dtype=np.int64, copy=True)
    out = np.empty((len(remaining), k), dtype=np.int64)
    for j in range(k, 0, -1):
        col = table[:, j]
        v = np.searchsorted(col, remaining, side="right") - 1
        out[:, j - 1] = v
        remaining -= col[v]
    return out


# ---------------------------------------------------------------------------
# Block scoring engine.

@dataclass
class _MaskTables:
    """Fold tables of every usable-row mask a search's candidates can have.

    Fittable columns with identical availability form one class, and a
    candidate's usable rows are those present in every class it touches,
    so the set of classes, a bit key, names its mask.
    """

    class_bit: np.ndarray  # (n_env + 2,) int64: bit of each column's class;
                           # 0 for a class with every row present, for the
                           # ones and target columns and excluded columns
    keys: np.ndarray       # (M,) every reachable key, ascending
    n_usable: np.ndarray   # (M,) usable rows per key
    table_col: np.ndarray  # (n_env + 2,) column of X -> table column
    held: np.ndarray       # (S, M, K, F) see ``linreg._fold_tables``
    train: np.ndarray      # (M, K - 1, K, F)
    fold_sizes: np.ndarray  # (M, F)


@dataclass
class _SearchContext:
    """Everything a worker needs to score a rank interval; fully picklable."""

    X: np.ndarray          # (m + 1, n_env + 2) log scores, NaN->0, then a
                           # ones column and the target column; all-zero
                           # padding row last
    avail: np.ndarray      # (m, n_env + 1) bool, ones column all-True
    env_names: tuple[str, ...]
    pool: np.ndarray       # eligible column indices, ascending
    must_cols: np.ndarray  # forced column indices
    subset_size: int
    with_intercept: bool
    folds: int
    seed: int
    top_k: int
    min_rows: int
    comb: np.ndarray       # binomial table for the pool
    slots: np.ndarray | None  # (m + 1, folds, ceil(m / folds)): by usable-
                              # row count, each fold's usable ranks, padded
                              # with m; None when ``tables`` are built
    tables: _MaskTables | None

    @property
    def k_free(self) -> int:
        return self.subset_size - len(self.must_cols)


def _slot_table(m: int, folds: int, seed: int, counts=None) -> np.ndarray:
    """(m + 1, folds, ceil(m / folds)): for each usable-row count in
    ``counts`` (default: all) that is at least ``folds``, each fold's usable
    ranks; every other entry is the padding rank m."""
    table = np.full((m + 1, folds, -(-m // folds)), m, dtype=np.int64)
    for rows in range(m + 1) if counts is None else set(counts.tolist()):
        if rows >= folds:
            table[rows] = fold_slots(rows, folds, seed, table.shape[2], pad=m)
    return table


def _block_size(ctx: _SearchContext) -> int:
    override = os.environ.get("BENCHSEL_BLOCK_SIZE")
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            raise ValidationError(
                f"BENCHSEL_BLOCK_SIZE must be an integer, got {override!r}"
            ) from None
    m = ctx.avail.shape[0]
    cols = ctx.subset_size + int(ctx.with_intercept)
    # Doubles a candidate takes in the block's largest arrays: its held-out
    # rows (about m x cols) and one cols x cols Gram per fold.
    per_candidate = cols * (m + ctx.folds * cols)
    return int(max(256, min(32768, WORKING_SET_DOUBLES // per_candidate)))


def _score_block(ctx: _SearchContext, start: int, stop: int):
    """Score candidates with colex ranks in [start, stop).

    Returns (n_scored, n_skipped_rows, n_skipped_singular, finalists) where
    finalists holds at most top_k entries of
    (cv_mse, sorted-name key, env column tuple, n_usable).
    """
    n_block = stop - start
    positions = _unrank_colex(np.arange(start, stop), ctx.k_free, ctx.comb)
    env_cols = ctx.pool[positions]
    if len(ctx.must_cols):
        forced = np.broadcast_to(ctx.must_cols, (n_block, len(ctx.must_cols)))
        env_cols = np.sort(np.concatenate([forced, env_cols], axis=1), axis=1)
    # The ones column if fitted, then the target column, which is last.
    tail = np.arange(ctx.X.shape[1] - 1 - int(ctx.with_intercept),
                     ctx.X.shape[1])
    fit_cols = np.concatenate(
        [env_cols, np.broadcast_to(tail, (n_block, len(tail)))], axis=1)

    tables = ctx.tables
    if tables is None:
        usable = ctx.avail[:, fit_cols[:, :-1]].all(axis=2).T  # (n_block, m)
        n_usable = usable.sum(axis=1)
    else:
        mask_id = np.searchsorted(tables.keys, np.bitwise_or.reduce(
            tables.class_bit[env_cols], axis=1))
        n_usable = tables.n_usable[mask_id]
    viable = n_usable >= ctx.min_rows
    n_skip_rows = int(n_block - viable.sum())
    if not viable.any():
        return 0, n_skip_rows, 0, []

    keep = np.flatnonzero(viable)
    env_cols = env_cols[keep]
    fit_cols = fit_cols[keep]
    n_usable = n_usable[keep]
    if tables is None:
        rows = _held_out_rows(ctx.slots, usable[keep], n_usable)
        cv, bad = _cv_mse_tabled(*_fold_tables(ctx.X, rows, fit_cols),
                                 None, None)
    else:
        cv, bad = _cv_mse_tabled(tables.held, tables.train, tables.fold_sizes,
                                 mask_id[keep], tables.table_col[fit_cols])

    singular = (bad != -1).any(axis=1) | ~np.isfinite(cv)
    n_singular = int(singular.sum())
    good = np.flatnonzero(~singular)
    if not len(good):
        return 0, n_skip_rows, n_singular, []

    cv_good = cv[good]
    if len(good) > ctx.top_k:
        cutoff = np.partition(cv_good, ctx.top_k - 1)[ctx.top_k - 1]
        good = good[cv_good <= cutoff]
        cv_good = cv[good]
    finalists = []
    for cv_value, cand in zip(cv_good, good):
        names = tuple(ctx.env_names[c] for c in env_cols[cand])
        finalists.append((float(cv_value), tuple(sorted(names)),
                          tuple(int(c) for c in env_cols[cand]),
                          int(n_usable[cand])))
    finalists.sort(key=lambda e: (e[0], e[1]))
    return len(cv) - n_singular, n_skip_rows, n_singular, finalists[:ctx.top_k]


def _held_out_rows(slots: np.ndarray, usable: np.ndarray,
                   n_usable: np.ndarray) -> np.ndarray:
    """(N, F, S) held-out rows of candidates or masks with usable rows
    ``usable`` (N, m), padded with the all-zero row m; ``slots`` is a
    ``_slot_table`` filled for every count in ``n_usable``."""
    # Row index of each usable rank (usable rows first, ascending), with
    # the padding rank m mapped to the padding row.
    n, m = usable.shape
    row_of_rank = np.empty((n, m + 1), dtype=np.int64)
    row_of_rank[:, :m] = np.argsort(~usable, axis=1, kind="stable")
    row_of_rank[:, m] = m
    ranks = slots[n_usable]                           # (N, F, S)
    return np.take_along_axis(
        row_of_rank, ranks.reshape(n, -1), axis=1).reshape(ranks.shape)


def _worker(ctx: _SearchContext, conn) -> None:
    """Score the spans that arrive on ``conn`` until the parent closes it."""
    # Ctrl-C reaches the whole process group; the parent alone reports it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            span = conn.recv()
        except EOFError:
            return
        try:
            result = _score_block(ctx, *span)
        except Exception as exc:
            result = exc
        conn.send(result)


def _score_pooled(ctx: _SearchContext, spans, n_workers: int,
                  consume) -> None:
    """``consume(_score_block(ctx, *span), span)`` for each span, in order,
    scored by ``n_workers`` forked processes that each take the next span
    when they are free.

    Each worker has a pipe of its own, so one that dies holds no lock the
    others need: its exit is an error at once, and every worker is stopped
    on the way out.
    """
    mp = multiprocessing.get_context("fork")
    workers = {}                    # parent end of a worker's pipe -> worker
    try:
        for _ in range(n_workers):
            conn, child = mp.Pipe()
            worker = mp.Process(target=_worker, args=(ctx, child),
                                daemon=True)
            worker.start()
            child.close()
            workers[conn] = worker
        sentinels = {w.sentinel: w for w in workers.values()}
        todo = iter(enumerate(spans))
        running = {}                # pipe -> index of the span it scores
        results = {}

        def deal(conn):
            for i, span in itertools.islice(todo, 1):
                running[conn] = i
                conn.send(span)

        def died(worker):
            worker.join()
            return BenchselError(f"search worker {worker.pid} died "
                                 f"(exit code {worker.exitcode})")

        for conn in workers:
            deal(conn)
        for i, span in enumerate(spans):
            while i not in results:
                for ready in connection.wait([*running, *sentinels]):
                    if ready in sentinels:
                        raise died(sentinels[ready])
                    try:    # a pipe fails only when its worker has exited
                        results[running.pop(ready)] = ready.recv()
                        deal(ready)
                    except (EOFError, OSError):
                        raise died(workers[ready]) from None
            result = results.pop(i)
            if isinstance(result, Exception):
                raise result
            consume(result, span)
    finally:
        for conn, worker in workers.items():
            worker.terminate()
            worker.join()
            conn.close()


# ---------------------------------------------------------------------------
# Public search API.

def _default_progress(done: int, total: int) -> None:
    print(f"benchsel: scored {done:,} / {total:,} candidate subsets",
          file=sys.stderr, flush=True)


def resolve_workers(threads: int) -> int:
    """Worker processes for a ``threads`` request; 0 or less means one per
    CPU this process may run on (its affinity mask, where the platform has
    one)."""
    if threads > 0:
        return threads
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def _build_context(dataset: PreparedDataset, config: SearchConfig
                   ) -> _SearchContext:
    if config.subset_size + int(config.with_intercept) > MAX_COLUMNS:
        raise ValidationError(
            f"subset_size {config.subset_size} exceeds the {MAX_COLUMNS}"
            "-column solver limit")
    m, n = dataset.log_scores.shape
    X = np.ones((m + 1, n + 2))
    X[:m, :n] = np.nan_to_num(dataset.log_scores, nan=0.0)
    X[:m, n + 1] = dataset.targets
    X[m] = 0.0
    avail = np.ones((m, n + 1), dtype=bool)
    avail[:, :n] = dataset.present

    must_cols = np.array(sorted(map(dataset.index.position,
                                    config.must_include)), dtype=np.int64)
    excluded = set(map(dataset.index.position, config.exclude))
    pool = np.array([j for j in range(n)
                     if j not in excluded and j not in set(must_cols)],
                    dtype=np.int64)
    k_free = config.subset_size - len(must_cols)
    if len(pool) < k_free:
        raise ValidationError(
            f"only {len(pool)} eligible environments for a size-"
            f"{config.subset_size} subset with {len(must_cols)} forced")
    if math.comb(len(pool), k_free) > MAX_ENUMERATION:
        raise ValidationError("search space too large to enumerate exhaustively")

    cols_fit = config.subset_size + int(config.with_intercept)
    tables = _mask_tables(X, avail, pool, must_cols, k_free, config)
    return _SearchContext(
        X=X,
        avail=avail,
        env_names=dataset.environment_ids,
        pool=pool,
        must_cols=must_cols,
        subset_size=config.subset_size,
        with_intercept=config.with_intercept,
        folds=config.folds,
        seed=config.seed,
        top_k=config.top_k,
        min_rows=max(cols_fit + 2, config.folds),
        comb=_comb_table(len(pool), k_free),
        slots=(_slot_table(m, config.folds, config.seed)
               if tables is None else None),
        tables=tables,
    )


def _mask_tables(X: np.ndarray, avail: np.ndarray, pool: np.ndarray,
                 must_cols: np.ndarray, k_free: int, config: SearchConfig
                 ) -> _MaskTables | None:
    """Fold tables for every mask the search can reach, or None when they
    would not fit in ``WORKING_SET_DOUBLES``."""
    m, n = avail.shape[0], X.shape[1] - 2
    fittable = np.sort(np.concatenate([pool, must_cols]))
    # A class with every row present restricts no mask and gets no bit.
    classes: dict[bytes, int] = {}
    class_bit = np.zeros(n + 2, dtype=np.int64)
    for j in fittable:
        if not avail[:, j].all():
            c = classes.setdefault(avail[:, j].tobytes(), len(classes))
            if c > 62:
                return None
            class_bit[j] = 1 << c
    table_cols = np.concatenate([fittable, [n] if config.with_intercept
                                 else [], [n + 1]]).astype(np.int64)
    width = -(-m // config.folds)
    per_key = config.folds * len(table_cols) * (len(table_cols) + width)
    most = WORKING_SET_DOUBLES // per_key

    # A candidate touches every class of its forced columns and a set of
    # at most k_free pool classes holding at least k_free pool columns.
    must_key = int(np.bitwise_or.reduce(class_bit[must_cols]))
    count = collections.Counter(class_bit[pool].tolist())
    keys = {must_key} if k_free == 0 else set()
    for size in range(min(k_free, len(count)), 0, -1):
        for combo in itertools.combinations(sorted(count), size):
            if sum(count[bit] for bit in combo) >= k_free:
                keys.add(must_key | sum(combo))  # distinct bits
                if len(keys) > most:
                    return None
    if len(keys) > most:
        return None

    keys = np.array(sorted(keys), dtype=np.int64)
    absent = ~np.frombuffer(b"".join(classes), dtype=bool).reshape(-1, m)
    touched = (keys[:, None] >> np.arange(len(classes))) & 1 == 1
    masks = ~(touched[:, :, None] & absent).any(axis=1)
    n_usable = masks.sum(axis=1)
    slots = _slot_table(m, config.folds, config.seed, n_usable)
    held, train, fold_sizes = _fold_tables(
        X, _held_out_rows(slots, masks, n_usable), table_cols)
    table_col = np.full(n + 2, -1, dtype=np.int64)
    table_col[table_cols] = np.arange(len(table_cols))
    return _MaskTables(class_bit=class_bit, keys=keys,
                       n_usable=n_usable, table_col=table_col,
                       held=held, train=np.ascontiguousarray(train),
                       fold_sizes=fold_sizes)


def _refit(ctx: _SearchContext, cols: tuple[int, ...], cv_mse: float
           ) -> LinearModel:
    rows = np.flatnonzero(ctx.avail[:, list(cols)].all(axis=1))
    names = tuple(ctx.env_names[c] for c in cols)
    model = fit_ols(ctx.X[np.ix_(rows, list(cols))], ctx.X[rows, -1],
                    with_intercept=ctx.with_intercept, environment_ids=names)
    return replace(model, stats=replace(model.stats, cv_mse=cv_mse))


def enumerate_and_score(dataset: PreparedDataset, config: SearchConfig, *,
                        threads: int = 1, progress=None) -> SearchResult:
    """Fit and rank every admissible subset of the configured size.

    Every ``subset_size``-combination containing ``must_include`` and
    avoiding ``exclude`` is cross-validated; the ranking ascends by cv_mse
    with lexicographic environment-name tie-breaks. ``threads`` only
    controls how rank blocks are dealt out, never the result.
    """
    ctx = _build_context(dataset, config)
    total = math.comb(len(ctx.pool), ctx.k_free)
    if progress is None:
        progress = _default_progress
    threads = resolve_workers(threads)

    block = _block_size(ctx)
    spans = [(s, min(s + block, total)) for s in range(0, total, block)]

    scored = skipped_rows = skipped_singular = 0
    finalists: list[tuple] = []
    done = 0
    next_milestone = PROGRESS_STRIDE

    def consume(result, span):
        nonlocal scored, skipped_rows, skipped_singular, done, next_milestone
        n_scored, n_rows, n_sing, local = result
        scored += n_scored
        skipped_rows += n_rows
        skipped_singular += n_sing
        finalists.extend(local)
        if len(finalists) > 4 * config.top_k:
            finalists.sort(key=lambda e: (e[0], e[1]))
            del finalists[config.top_k:]
        done += span[1] - span[0]
        while done >= next_milestone:
            progress(next_milestone, total)
            next_milestone += PROGRESS_STRIDE

    if threads == 1 or len(spans) == 1:
        for span in spans:
            consume(_score_block(ctx, *span), span)
    else:
        _score_pooled(ctx, spans, min(threads, len(spans)), consume)

    def empty_search(message):
        return EmptySearchError(message, skip_stats={
            "total_candidates": total,
            "skipped_insufficient_rows": skipped_rows,
            "skipped_singular": skipped_singular})

    if not scored:
        raise empty_search(
            f"no viable size-{config.subset_size} candidate: "
            f"{skipped_rows} skipped for insufficient usable algorithms, "
            f"{skipped_singular} for singular designs")

    finalists.sort(key=lambda e: (e[0], e[1]))
    ranked = []
    for cv_mse, _, cols, n_used in finalists[:config.top_k]:
        try:
            model = _refit(ctx, cols, cv_mse)
        except SingularMatrixError:
            scored -= 1
            skipped_singular += 1
            continue
        ranked.append(RankedCandidate(
            subset=model.environment_ids, model=model,
            cv_mse=cv_mse, n_algorithms_used=n_used))
    if not ranked:
        raise empty_search("every finalist was singular at refit time")

    return SearchResult(
        config=config,
        ranked=tuple(ranked),
        total_candidates=total,
        scored=scored,
        skipped_insufficient_rows=skipped_rows,
        skipped_singular=skipped_singular,
    )


# ---------------------------------------------------------------------------
# The nested selection pipeline.

def nested_pipeline(dataset: PreparedDataset, folds: int = 10, seed: int = 0, *,
                    threads: int = 1, progress=None,
                    top_k: int = 10) -> SubsetSuite:
    """Run the ordered subset searches that produce the named suite.

    Stage order: the best size-5 subset overall; the best size-3 inside it;
    the best size-1 inside that; the best validation triple disjoint from
    the size-5; two more games extending it to a validation five; and five
    further games (disjoint from both) extending the size-5 to a size-10.
    Each named model is refit on all algorithms usable for its subset.
    """
    n = dataset.n_environments
    if n < PIPELINE_MIN_ENVIRONMENTS:
        raise ValidationError(
            f"nested pipeline needs at least {PIPELINE_MIN_ENVIRONMENTS} "
            f"environments, dataset has {n}")

    models: dict[str, RankedCandidate] = {}
    skip_stats: dict[str, dict[str, int]] = {}

    def run(stage: str, size: int, must=(), exclude=()) -> RankedCandidate:
        config = SearchConfig(subset_size=size, must_include=tuple(must),
                              exclude=tuple(exclude), folds=folds, seed=seed,
                              top_k=top_k)
        try:
            result = enumerate_and_score(dataset, config, threads=threads,
                                         progress=progress)
        except EmptySearchError as exc:
            raise EmptySearchError(f"[{stage}] {exc}", exc.skip_stats) from exc
        skip_stats[stage] = result.skip_stats
        models[stage] = result.best
        return result.best

    def others(subset) -> tuple[str, ...]:  # subsets use the dataset's names
        return tuple(e for e in dataset.environment_ids if e not in subset)

    size5 = run("size-5", 5)
    size3 = run("size-3", 3, exclude=others(size5.subset))
    run("size-1", 1, exclude=others(size3.subset))
    val3 = run("val-3", 3, exclude=size5.subset)
    val5 = run("val-5", 5, must=val3.subset, exclude=size5.subset)
    run("size-10", 10, must=size5.subset,
        exclude=tuple(val5.subset))

    suite = SubsetSuite(models=models, folds=folds, seed=seed,
                        dataset_hash=dataset.content_hash(),
                        skip_stats=skip_stats)
    _check_nesting(suite)
    return suite


def _check_nesting(suite: SubsetSuite) -> None:
    def keyset(name: str) -> set[str]:
        return set(suite.subset(name))  # the dataset's own spellings

    chain = ["size-1", "size-3", "size-5", "size-10"]
    for small, large in zip(chain, chain[1:]):
        if not keyset(small) <= keyset(large):
            raise ValidationError(f"nesting violated: {small} not inside {large}")
    if not keyset("val-3") <= keyset("val-5"):
        raise ValidationError("nesting violated: val-3 not inside val-5")
    if keyset("val-5") & keyset("size-5"):
        raise ValidationError("val-5 overlaps size-5")
    if (keyset("size-10") - keyset("size-5")) & keyset("val-5"):
        raise ValidationError("size-10 extension overlaps val-5")


# ---------------------------------------------------------------------------
# Per-environment prediction models.

def per_game_models(dataset: PreparedDataset, subset,
                    min_extra: int = 3) -> ModelBank:
    """Fit one intercept-bearing model per environment from a fixed subset.

    Environments inside the subset get exact identity models (coefficient 1
    on themselves, intercept 0) rather than fitted ones. An environment
    with fewer than ``len(subset) + min_extra`` usable algorithms is
    flagged unusable instead of aborting the bank.
    """
    subset_cols = [dataset.index.position(e) for e in subset]
    subset_names = tuple(dataset.environment_ids[j] for j in subset_cols)
    X = dataset.log_scores
    present = dataset.present
    subset_ok = present[:, subset_cols].all(axis=1)

    models: dict[str, LinearModel] = {}
    skipped: dict[str, str] = {}
    n_used: dict[str, int] = {}
    min_rows = len(subset_cols) + min_extra

    for g, env in enumerate(dataset.environment_ids):
        if g in subset_cols:
            coef = np.zeros(len(subset_cols))
            coef[subset_cols.index(g)] = 1.0
            models[env] = LinearModel(
                environment_ids=subset_names, coefficients=coef,
                intercept=0.0, stats=FitStats(r_squared=1.0, log_mae=0.0))
            n_used[env] = int(subset_ok.sum())
            continue
        rows = np.flatnonzero(subset_ok & present[:, g])
        n_used[env] = len(rows)
        if len(rows) < min_rows:
            skipped[env] = (f"only {len(rows)} usable algorithms "
                            f"(need {min_rows})")
            continue
        design = np.nan_to_num(X[np.ix_(rows, subset_cols)], nan=0.0)
        try:
            models[env] = fit_ols(design, X[rows, g], with_intercept=True,
                                  environment_ids=subset_names)
        except SingularMatrixError as exc:
            skipped[env] = f"singular design ({exc.column})"
    return ModelBank(subset=subset_names, models=models, skipped=skipped,
                     n_used=n_used)


def variance_explained(bank: ModelBank, dataset: PreparedDataset) -> float:
    """Pooled 1 - SS_res/SS_tot over all predictable cells of the dataset.

    For each environment with a usable model, residuals run over the
    algorithms that have both that environment's score and every subset
    score; SS_tot measures deviation from that environment's mean log score
    over the same cells. Environments flagged unusable contribute nothing.
    """
    if not bank.covers(dataset.environment_ids):
        raise ValidationError("bank does not cover every dataset environment")
    X = dataset.log_scores
    present = dataset.present

    ss_res = 0.0
    ss_tot = 0.0
    for env, model in bank.models.items():
        g = dataset.index.position(env)
        cols = [dataset.index.position(e) for e in model.environment_ids]
        rows = np.flatnonzero(present[:, cols].all(axis=1) & present[:, g])
        if len(rows) < 2:
            continue
        y = X[rows, g]
        predictions = (X[np.ix_(rows, cols)] @ model.coefficients
                       + (model.intercept or 0.0))
        ss_res += float(((y - predictions) ** 2).sum())
        ss_tot += float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 0.0
    return 1.0 - ss_res / ss_tot
