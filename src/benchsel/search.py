"""Exhaustive environment-subset search scored by cross-validated regression.

Candidate subsets are enumerated in colexicographic order through the
combinatorial number system, so a block of candidates is fully determined
by a rank interval [start, stop). With n processes, the calling one and
n - 1 workers, process i % n scores interval i: it unranks the interval to
index arrays and scores the whole block at once with the one CV kernel,
``linreg._fold_tables`` and ``linreg._cv_mse_tabled``.

Every column index is one of the search's own matrix: its games, forced
and pool, in dataset order, the ones column if fitted, then the target.
A block groups its candidates by usable-row mask, the AND of their
columns' packed availability. A group is scored from a shared table over
every column when its mask's table is in the process's store, one slab
allocated at its first table and written in place. The store adds the
table of a group whose own tables would outweigh it, as is common with
leaderboard gaps (whole games missing for some algorithms), while it has
a free slot; every other candidate gets a table of just its own columns.
``linreg`` alone decides how a mask's rows are dealt into folds. Both
kinds of table give bit-identical cv_mse, so a candidate's result does
not depend on its block. Blocks and the merge keep finalists as arrays
in the total order (cv_mse, sorted environment names), so the ranking is
bit-identical whatever the worker count or block size.

Per subset, any algorithm missing one of the required scores is dropped
for that candidate only. Candidates left with fewer usable algorithms
than ``fitted columns + 2`` (or than the fold count, which k-fold CV
needs) are skipped and counted, never silently dropped. The module
prints nothing; a caller passes ``progress`` to see a search advance.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
import signal
from contextlib import closing
from dataclasses import dataclass, field, replace

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
    _augmented,
    _cv_mse_tabled,
    _fold_tables,
    _table_shape,
    fit_ols,
)

MAX_ENUMERATION = 1 << 50
PIPELINE_MIN_ENVIRONMENTS = 15
PIPELINE_TOP_K = 10  # finalists each pipeline stage keeps
BANK_MIN_EXTRA_ROWS = 3  # a bank model's usable rows beyond its columns
PROGRESS_STRIDE = 1_000_000
# Doubles a search block's largest arrays may take: 450k (3.6 MB) scored
# fastest at 3, 5 and 10 columns on a Xeon with 2 MiB of L2 per core;
# larger blocks push the Cholesky sweeps out to L3.
WORKING_SET_DOUBLES = 450_000
# Doubles of shared fold tables one process keeps in its store (32 MB).
TABLE_CACHE_DOUBLES = 4_000_000


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
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.top_k < 1:
            raise ValidationError("top_k must be >= 1")
        if self.fitted_columns > MAX_COLUMNS:
            raise ValidationError(
                f"subset_size {self.subset_size}"
                f"{' plus the intercept' if self.with_intercept else ''} "
                f"fits {self.fitted_columns} columns, over the "
                f"{MAX_COLUMNS}-column solver limit")
        must = EnvironmentIndex(self.must_include)
        if any(e in must for e in self.exclude):
            raise ValidationError("must_include and exclude overlap")
        if len(self.must_include) > self.subset_size:
            raise ValidationError("must_include larger than subset_size")

    @property
    def fitted_columns(self) -> int:
        return self.subset_size + int(self.with_intercept)


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
    skipped_singular == total_candidates`` always holds. ``workers`` is the
    number of processes that scored blocks: 1 when the search ran in the
    calling process.
    """

    config: SearchConfig
    ranked: tuple[RankedCandidate, ...]
    total_candidates: int
    scored: int
    skipped_insufficient_rows: int
    skipped_singular: int
    workers: int

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
    """The named nested model family produced by the full pipeline;
    ``workers`` is the most processes any of its searches used."""

    models: dict[str, RankedCandidate]
    folds: int
    seed: int
    dataset_hash: str
    skip_stats: dict[str, dict[str, int]]
    workers: int
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
class _SearchContext:
    """Everything a process needs to score a rank interval; picklable."""

    # Every column index below is a column of X. Its first n columns are
    # the search's games, forced and pool, in dataset order.
    X: np.ndarray          # (m, ·) [games, NaN->0 | 1 | target], _augmented
    avail: np.ndarray      # (m, n) bool, the games' ``present``
    packed: np.ndarray     # (n, ceil(m / 64)) uint64, bit i: row i
    env_names: tuple[str, ...]  # (n,) the games' names
    name_rank: np.ndarray  # (n,) column -> rank in sorted(env_names)
    pool: np.ndarray       # eligible column indices, ascending
    must_cols: np.ndarray  # forced column indices
    config: SearchConfig
    min_rows: int
    comb: np.ndarray       # binomial table for the pool
    # The store: packed usable-row mask -> slot, and the slab of slots that
    # shared tables are written into, allocated whole with the first one.
    table_slot: dict = field(default_factory=dict)
    tables: np.ndarray | tuple = ()

    @property
    def k_free(self) -> int:
        return self.config.subset_size - len(self.must_cols)


def _block_size(ctx: _SearchContext) -> int:
    m = ctx.avail.shape[0]
    cols = ctx.config.fitted_columns
    # Doubles a candidate takes in the block's largest arrays: its held-out
    # rows (about m x cols) and one cols x cols Gram per fold.
    per_candidate = cols * (m + ctx.config.folds * cols)
    return int(max(256, min(32768, WORKING_SET_DOUBLES // per_candidate)))


def _shares_table(count: np.ndarray, cols: int, width: int) -> np.ndarray:
    """Whether ``count`` candidates fitting ``cols`` columns on one mask
    would hold more doubles in their own training systems than one shared
    table over ``width`` columns, target included, holds."""
    return count * cols * (cols + 1) > (width - 1) * width


def _ranked(ctx: _SearchContext, cv: np.ndarray, env_cols: np.ndarray,
            n_usable: np.ndarray):
    """The best ``top_k`` candidates as (cv, env_cols, n_usable) arrays,
    ascending by cv_mse with ties broken by sorted environment names."""
    top_k = ctx.config.top_k
    if len(cv) > top_k:  # a cut that keeps every tie at the k-th
        cut = cv <= np.partition(cv, top_k - 1)[top_k - 1]
        cv, env_cols, n_usable = cv[cut], env_cols[cut], n_usable[cut]
    # Equal-size subsets compare by sorted name ranks as by sorted names.
    ranks = np.sort(ctx.name_rank[env_cols], axis=1)
    order = np.lexsort((*ranks.T[::-1], cv))[:top_k]
    return cv[order], env_cols[order], n_usable[order]


def _score_block(ctx: _SearchContext, start: int, stop: int):
    """Score candidates with colex ranks in [start, stop).

    Candidates are grouped by usable-row mask. A group whose mask's table
    is in the process's store is scored from that table over every
    fittable column; every other candidate from a table of its own
    columns. The tables of masks whose groups ``_shares_table`` picks are
    written into the store's free slots, of ``TABLE_CACHE_DOUBLES`` doubles
    in all. Both kinds of table give bit-identical cv_mse.

    Returns (n_scored, n_skipped_rows, n_skipped_singular, finalists)
    where finalists are ``_ranked``'s arrays for the block.
    """
    n_block = stop - start
    folds, seed = ctx.config.folds, ctx.config.seed
    positions = _unrank_colex(np.arange(start, stop), ctx.k_free, ctx.comb)
    env_cols = ctx.pool[positions]
    if len(ctx.must_cols):
        forced = np.broadcast_to(ctx.must_cols, (n_block, len(ctx.must_cols)))
        env_cols = np.sort(np.concatenate([forced, env_cols], axis=1), axis=1)
    # The ones column if fitted, then the target column, which is last.
    tail = np.arange(ctx.avail.shape[1], ctx.X.shape[1])
    fit_cols = np.concatenate(
        [env_cols, np.broadcast_to(tail, (n_block, len(tail)))], axis=1)

    # A candidate's usable rows are those present in every column it fits;
    # candidates are grouped by that mask, packed into words.
    words = np.bitwise_and.reduce(ctx.packed[env_cols], axis=1)
    order = np.lexsort(words.T)
    words = words[order]
    first = np.ones(n_block, dtype=bool)
    np.any(words[1:] != words[:-1], axis=1, out=first[1:])
    keys = words[first]
    group = np.empty(n_block, dtype=np.int64)
    group[order] = np.cumsum(first) - 1
    m = ctx.avail.shape[0]
    usable = np.unpackbits(keys.view(np.uint8), axis=1, count=m,
                           bitorder="little").view(bool)
    n_usable = usable.sum(axis=1)
    viable = n_usable[group] >= ctx.min_rows
    n_skip_rows = int(n_block - viable.sum())
    keep = np.flatnonzero(viable)
    env_cols, fit_cols, group = env_cols[keep], fit_cols[keep], group[keep]

    # Each mask's slot in the process's store, or -1; masks worth a shared
    # table are written into the next free slots while there are any.
    slot = np.full(len(keys), -1)
    if ctx.table_slot:
        slot[:] = [ctx.table_slot.get(key.tobytes(), -1) for key in keys]
    K = ctx.X.shape[1]
    add = np.flatnonzero((slot < 0) & _shares_table(
        np.bincount(group, minlength=len(keys)), fit_cols.shape[1] - 1, K))
    if len(add) and not ctx.table_slot:     # the first table: allocate all
        one = _table_shape(m, K, folds)
        doubles = TABLE_CACHE_DOUBLES // math.prod(one) * math.prod(one)
        # A private anonymous map, which numpy does not advise for huge
        # pages, so memory grows by the slots written, not by 2 MB regions;
        # mmap refuses a zero length.
        slab = mmap.mmap(-1, max(doubles, 1) * 8, flags=mmap.MAP_PRIVATE)
        ctx.tables = np.frombuffer(slab, count=doubles).reshape(-1, *one)
    add = add[:len(ctx.tables) - len(ctx.table_slot)]
    if len(add):
        slot[add] = range(len(ctx.table_slot), len(ctx.table_slot) + len(add))
        _fold_tables(ctx.X, usable[add], np.arange(K), folds, seed,
                     ctx.tables[slot[add[0]]:slot[add[-1]] + 1])
        ctx.table_slot.update((keys[i].tobytes(), int(slot[i])) for i in add)

    on_shared = slot[group] >= 0
    cv = np.empty(len(keep))
    bad = np.empty((len(keep), folds), dtype=np.int64)
    if on_shared.any():
        shared = group[on_shared]
        cv[on_shared], bad[on_shared] = _cv_mse_tabled(
            ctx.tables, n_usable[shared], slot[shared], fit_cols[on_shared])
    own = ~on_shared
    if own.any():
        cv[own], bad[own] = _cv_mse_tabled(*_fold_tables(
            ctx.X, usable[group[own]], fit_cols[own], folds, seed))

    good = (bad == -1).all(axis=1) & np.isfinite(cv)
    n_scored = int(good.sum())
    return (n_scored, n_skip_rows, len(cv) - n_scored,
            _ranked(ctx, cv[good], env_cols[good], n_usable[group[good]]))


def _worker(ctx: _SearchContext, spans, pipe, conn) -> None:
    """Send each span's ``_score_block`` result down ``conn``, in order."""
    # Ctrl-C reaches the whole process group; the caller alone reports it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _retain_freed_memory()  # a spawned worker does not inherit the settings
    pipe.close()  # the caller's end of conn: a forked copy keeps it open
    try:
        for span in spans:
            conn.send(_score_block(ctx, *span))
    except BrokenPipeError:  # the caller is gone, whether it listed us or not
        return
    except Exception as exc:
        conn.send(exc)


def _block_results(ctx: _SearchContext, spans, n: int):
    """Yield ``_score_block(ctx, *span)`` for each span, in order, scored by
    ``n`` processes: span i by process i % n, where process 0 is the caller.

    The ``n - 1`` workers start, by the default start method, before span
    0, so each starts with an empty store and none is ever sent one. Worker
    w is handed ``spans[w::n]`` and answers on a one-way pipe whose sending
    end only it holds, so its death is an ``EOFError`` on the next read.
    Closing the generator stops every worker.
    """
    mp = multiprocessing.get_context()
    workers = []                    # (pipe, process) of processes 1 .. n-1
    try:
        for w in range(1, n):
            pipe, child = mp.Pipe(duplex=False)
            worker = mp.Process(target=_worker, daemon=True,
                                args=(ctx, spans[w::n], pipe, child))
            worker.start()
            child.close()
            workers.append((pipe, worker))
        for i, span in enumerate(spans):
            if i % n == 0:
                yield _score_block(ctx, *span)
                continue
            pipe, worker = workers[i % n - 1]
            try:
                result = pipe.recv()
            except EOFError:
                worker.join()
                raise BenchselError(f"search worker {worker.pid} died "
                                    f"(exit code {worker.exitcode})") from None
            if isinstance(result, Exception):
                raise result
            yield result
    finally:
        for pipe, worker in workers:
            worker.terminate()
            worker.join()
            pipe.close()


# ---------------------------------------------------------------------------
# Public search API.

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
    where = "the dataset"
    excluded = {dataset.index.position(e, where) for e in config.exclude}
    games = [j for j in range(dataset.n_environments) if j not in excluded]
    forced = np.isin(games, [dataset.index.position(e, where)
                             for e in config.must_include])
    must_cols, pool = np.flatnonzero(forced), np.flatnonzero(~forced)
    k_free = config.subset_size - len(must_cols)
    if len(pool) < k_free:
        raise ValidationError(
            f"only {len(pool)} eligible environments for a size-"
            f"{config.subset_size} subset with {len(must_cols)} forced")
    if math.comb(len(pool), k_free) > MAX_ENUMERATION:
        raise ValidationError("search space too large to enumerate exhaustively")

    m = dataset.n_algorithms
    X = _augmented(np.nan_to_num(dataset.log_scores[:, games], nan=0.0),
                   dataset.targets, config.with_intercept)
    avail = dataset.present[:, games]
    packed = np.packbits(np.pad(avail, ((0, -m % 64), (0, 0))),
                         axis=0, bitorder="little")
    env_names = tuple(dataset.environment_ids[j] for j in games)
    by_name = sorted(range(len(games)), key=env_names.__getitem__)
    name_rank = np.empty(len(games), dtype=np.int64)
    name_rank[by_name] = np.arange(len(games))
    return _SearchContext(
        X=X,
        avail=avail,
        packed=np.ascontiguousarray(packed.T).view(np.uint64),
        env_names=env_names,
        name_rank=name_rank,
        pool=pool,
        must_cols=must_cols,
        config=config,
        min_rows=max(config.fitted_columns + 2, config.folds),
        comb=_comb_table(len(pool), k_free),
    )


def _retain_freed_memory() -> None:
    """Keep freed memory mapped (glibc): a search block frees ~10 MB of numpy
    temporaries, and faulting them in again cost a third of a job's CPU."""
    import ctypes
    libc = ctypes.CDLL(None)
    if hasattr(libc, "gnu_get_libc_version"):
        libc.mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def _refit(ctx: _SearchContext, cols: np.ndarray, cv_mse: float
           ) -> LinearModel:
    rows = np.flatnonzero(ctx.avail[:, cols].all(axis=1))
    model = fit_ols(ctx.X[np.ix_(rows, cols)], ctx.X[rows, -1],
                    with_intercept=ctx.config.with_intercept,
                    environment_ids=tuple(ctx.env_names[c] for c in cols))
    return replace(model, stats=replace(model.stats, cv_mse=cv_mse))


def enumerate_and_score(dataset: PreparedDataset, config: SearchConfig, *,
                        threads: int = 1, progress=None) -> SearchResult:
    """Fit and rank every admissible subset of the configured size.

    Every ``subset_size``-combination containing ``must_include`` and
    avoiding ``exclude`` is cross-validated; the ranking ascends by cv_mse
    with lexicographic environment-name tie-breaks. ``threads`` is the
    number of processes, this one included, that score rank blocks; it
    never changes the result, and the search uses at most one per block.
    ``progress(done, total)``, if given, is called each time another
    ``PROGRESS_STRIDE`` candidates are scored; the search prints nothing.
    """
    _retain_freed_memory()
    ctx = _build_context(dataset, config)
    total = math.comb(len(ctx.pool), ctx.k_free)
    scored = skipped_rows = skipped_singular = 0

    def empty_search(message):
        return EmptySearchError(message, skip_stats={
            "total_candidates": total,
            "skipped_insufficient_rows": skipped_rows,
            "skipped_singular": skipped_singular})

    if ctx.min_rows > dataset.n_algorithms:  # no candidate has the rows
        skipped_rows = total
        raise empty_search(
            f"no viable size-{config.subset_size} candidate: {config.folds}-"
            f"fold CV of {config.fitted_columns} columns needs {ctx.min_rows} "
            f"usable algorithms, and the table has {dataset.n_algorithms}")
    block = _block_size(ctx)
    spans = [(s, min(s + block, total)) for s in range(0, total, block)]
    workers = min(resolve_workers(threads), len(spans))
    finalists = (np.empty(0), np.empty((0, config.subset_size), np.int64),
                 np.empty(0, np.int64))
    next_milestone = PROGRESS_STRIDE
    with closing(_block_results(ctx, spans, workers)) as results:
        for (_, stop), result in zip(spans, results):
            n_scored, n_rows, n_sing, local = result
            scored += n_scored
            skipped_rows += n_rows
            skipped_singular += n_sing
            # A block whose best is above a full list's k-th changes nothing.
            if len(local[0]) and not (len(finalists[0]) == config.top_k
                                      and local[0][0] > finalists[0][-1]):
                finalists = _ranked(
                    ctx, *map(np.concatenate, zip(finalists, local)))
            while progress and stop >= next_milestone:
                progress(next_milestone, total)
                next_milestone += PROGRESS_STRIDE

    if not scored:
        raise empty_search(
            f"no viable size-{config.subset_size} candidate: "
            f"{skipped_rows} skipped for insufficient usable algorithms, "
            f"{skipped_singular} for singular designs")

    ranked = []
    for cv_mse, cols, n_used in zip(*finalists):
        try:
            model = _refit(ctx, cols, float(cv_mse))
        except SingularMatrixError:
            scored -= 1
            skipped_singular += 1
            continue
        ranked.append(RankedCandidate(
            subset=model.environment_ids, model=model,
            cv_mse=float(cv_mse), n_algorithms_used=int(n_used)))
    if not ranked:
        raise empty_search("every finalist was singular at refit time")

    return SearchResult(
        config=config,
        ranked=tuple(ranked),
        total_candidates=total,
        scored=scored,
        skipped_insufficient_rows=skipped_rows,
        skipped_singular=skipped_singular,
        workers=workers,
    )


# ---------------------------------------------------------------------------
# The nested selection pipeline.

def nested_pipeline(dataset: PreparedDataset, folds: int = 10, seed: int = 0, *,
                    threads: int = 1, progress=None) -> SubsetSuite:
    """Run the ordered subset searches that produce the named suite.

    Stage order: the best size-5 subset overall; the best size-3 inside it;
    the best size-1 inside that; the best validation triple disjoint from
    the size-5; two more games extending it to a validation five; and five
    further games (disjoint from both) extending the size-5 to a size-10.
    Each named model is refit on all algorithms usable for its subset.
    ``threads`` and ``progress`` are passed on to every stage's search.
    """
    n = dataset.n_environments
    if n < PIPELINE_MIN_ENVIRONMENTS:
        raise ValidationError(
            f"nested pipeline needs at least {PIPELINE_MIN_ENVIRONMENTS} "
            f"environments, dataset has {n}")

    models: dict[str, RankedCandidate] = {}
    skip_stats: dict[str, dict[str, int]] = {}
    workers = 1

    def run(stage: str, size: int, must=(), exclude=()) -> RankedCandidate:
        nonlocal workers
        config = SearchConfig(subset_size=size, must_include=tuple(must),
                              exclude=tuple(exclude), folds=folds, seed=seed,
                              top_k=PIPELINE_TOP_K)
        try:
            result = enumerate_and_score(dataset, config, threads=threads,
                                         progress=progress)
        except EmptySearchError as exc:
            raise EmptySearchError(f"[{stage}] {exc}", exc.skip_stats) from exc
        workers = max(workers, result.workers)
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
                        skip_stats=skip_stats, workers=workers)
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

def per_game_models(dataset: PreparedDataset, subset) -> ModelBank:
    """Fit one intercept-bearing model per environment from a fixed subset.

    Environments inside the subset get exact identity models (coefficient 1
    on themselves, intercept 0) rather than fitted ones. An environment
    with fewer than ``len(subset) + BANK_MIN_EXTRA_ROWS`` usable
    algorithms is flagged unusable instead of aborting the bank.
    """
    subset_cols = [dataset.index.position(e) for e in subset]
    subset_names = tuple(dataset.environment_ids[j] for j in subset_cols)
    X = dataset.log_scores
    present = dataset.present
    subset_ok = present[:, subset_cols].all(axis=1)

    models: dict[str, LinearModel] = {}
    skipped: dict[str, str] = {}
    n_used: dict[str, int] = {}
    min_rows = len(subset_cols) + BANK_MIN_EXTRA_ROWS

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
        try:
            models[env] = fit_ols(X[np.ix_(rows, subset_cols)], X[rows, g],
                                  with_intercept=True,
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
        predictions = model.predict(X[np.ix_(rows, cols)])
        ss_res += float(((y - predictions) ** 2).sum())
        ss_tot += float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 0.0
    return 1.0 - ss_res / ss_tot
