"""The fold-downdate CV kernel against its references.

``linreg._fold_tables`` builds held-out values and training systems and
``linreg._cv_mse_tabled`` scores candidates from them. A search builds
one table per usable-row mask when the tables fit, and otherwise one
table per candidate of each block from its gathered held-out rows;
``cv_engine`` forces either one. Both run the same arithmetic, so they
give the same ranking and bit-identical cv_mse, and so does
``cross_validated_mse`` on a candidate's usable rows.

``per_fold_block_cv`` is the block engine that fold downdating replaced:
for every fold it rebuilds each candidate's Gram over all rows and its
residuals over all rows. It is kept here as the reference. It sums in a
different order, so the kernel agrees with it to a tolerance, not to the
bit.
"""

import contextlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchsel import search
from benchsel.data import FilterConfig, PreparedDataset
from benchsel.linreg import cross_validated_mse, fold_assignment
from benchsel.search import (
    SearchConfig,
    _build_context,
    _comb_table,
    _unrank_colex,
    enumerate_and_score,
)
from conftest import cholesky_reference, lstsq_cv_mse, make_dataset, silent

ENGINES = ("tables", "gather")


@contextlib.contextmanager
def cv_engine(name):
    """Inside the ``with`` block, searches score from per-mask tables (the
    default, where they fit) or from per-candidate tables of gathered
    rows."""
    with pytest.MonkeyPatch.context() as mp:
        if name == "gather":
            mp.setattr(search, "_mask_tables", lambda *args: None)
        yield


def per_fold_block_cv(ctx):
    """Score every candidate of a search with one solve per fold.

    Returns {sorted environment names: cv_mse or None if singular} for the
    candidates with enough usable rows.
    """
    m = ctx.avail.shape[0]
    X, t = ctx.X[:m, :-1], ctx.X[:m, -1]
    fold_table = np.full((m + 1, m), -1, dtype=np.int64)
    for rows in range(ctx.folds, m + 1):
        fold_table[rows, :rows] = fold_assignment(rows, ctx.folds, ctx.seed)

    total = math.comb(len(ctx.pool), ctx.k_free)
    positions = _unrank_colex(np.arange(total), ctx.k_free, ctx.comb)
    env_cols = ctx.pool[positions]
    if len(ctx.must_cols):
        forced = np.broadcast_to(ctx.must_cols, (total, len(ctx.must_cols)))
        env_cols = np.sort(np.concatenate([forced, env_cols], axis=1), axis=1)
    fit_cols = env_cols
    if ctx.with_intercept:
        ones_col = np.full((total, 1), X.shape[1] - 1)
        fit_cols = np.concatenate([env_cols, ones_col], axis=1)

    usable = ctx.avail[:, fit_cols].all(axis=2)      # (m, N)
    n_usable = usable.sum(axis=0)
    keep = np.flatnonzero(n_usable >= ctx.min_rows)
    env_cols, fit_cols = env_cols[keep], fit_cols[keep]
    usable, n_usable = usable[:, keep], n_usable[keep]
    rank = usable.cumsum(axis=0) - 1
    fold_id = np.where(usable, fold_table[n_usable[None, :], rank], -1)

    Xt = np.ascontiguousarray(X[:, fit_cols].transpose(1, 0, 2))  # (N, m, C)
    cv_sum = np.zeros(len(keep))
    singular = np.zeros(len(keep), dtype=bool)
    for f in range(ctx.folds):
        w_train = ((fold_id != f) & usable).T
        At = (Xt * w_train[:, :, None]).transpose(0, 2, 1)
        beta, bad = cholesky_reference(At @ Xt, At @ t)
        singular |= bad != -1
        w_test = (fold_id == f).T
        residual = ((Xt @ beta[:, :, None])[:, :, 0] - t) * w_test
        cv_sum += (residual ** 2).sum(axis=1) / w_test.sum(axis=1)
    cv = cv_sum / ctx.folds
    singular |= ~np.isfinite(cv)
    return {tuple(sorted(ctx.env_names[c] for c in cols)):
            None if bad else float(value)
            for cols, value, bad in zip(env_cols, cv, singular)}


def _scored(result):
    return {tuple(sorted(c.subset)): c.cv_mse for c in result.ranked}


def _listing(result):
    return [(c.subset, c.cv_mse, c.n_algorithms_used) for c in result.ranked]


@pytest.mark.parametrize("with_intercept", [False, True],
                         ids=["no-intercept", "intercept"])
@pytest.mark.parametrize("seed", [40, 41, 42])
def test_matches_per_fold_reference(seed, with_intercept):
    ds = make_dataset(m=45, n=10, seed=seed, missing_fraction=0.15,
                      signal={1: 0.6, 4: 0.3, 7: 0.1})
    config = SearchConfig(subset_size=3, folds=10, seed=seed,
                          with_intercept=with_intercept, top_k=1000)
    reference = per_fold_block_cv(_build_context(ds, config))
    expected = sorted((cv, key) for key, cv in reference.items()
                      if cv is not None)
    for engine in ENGINES:
        with cv_engine(engine):
            result = enumerate_and_score(ds, config, progress=silent)
        assert [tuple(sorted(c.subset)) for c in result.ranked] == \
               [key for _, key in expected]
        for cand, (cv, _) in zip(result.ranked, expected):
            assert cand.cv_mse == pytest.approx(cv, rel=1e-11)
        assert result.scored == len(expected)
        assert result.skipped_singular == len(reference) - len(expected)


@pytest.mark.parametrize("with_intercept", [False, True],
                         ids=["no-intercept", "intercept"])
def test_singular_verdicts_match_per_fold_reference(with_intercept):
    # An exact duplicate column makes every subset holding both copies
    # singular. Subsets holding one copy tie exactly with their twin, so
    # only values, not order, are compared.
    ds = make_dataset(m=45, n=10, seed=44, missing_fraction=0.15)
    scores = ds.log_scores.copy()
    scores[:, 9] = scores[:, 1]
    ds = PreparedDataset(ds.algorithm_ids, ds.environment_ids, scores,
                         ds.targets + 0.5, "median", FilterConfig(1, 1))
    config = SearchConfig(subset_size=3, folds=10, seed=1,
                          with_intercept=with_intercept, top_k=1000)
    reference = per_fold_block_cv(_build_context(ds, config))
    for engine in ENGINES:
        with cv_engine(engine):
            scored = _scored(enumerate_and_score(ds, config, progress=silent))
        assert set(scored) == {k for k, cv in reference.items()
                               if cv is not None}
        assert len(scored) < len(reference)
        for key, cv in scored.items():
            assert cv == pytest.approx(reference[key], rel=1e-11)


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(1, 14), data=st.data())
def test_unrank_colex_is_the_colex_bijection(n, data):
    k = data.draw(st.integers(1, min(n, 5)), label="k")
    combos = _unrank_colex(np.arange(math.comb(n, k)), k, _comb_table(n, k))
    expected = sorted(itertools.combinations(range(n), k),
                      key=lambda c: c[::-1])
    assert [tuple(row) for row in combos.tolist()] == expected


@settings(max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), m=st.integers(30, 60),
       missing=st.sampled_from([0.0, 0.05, 0.15]),
       gaps=st.sampled_from(["iid", "block"]),
       folds=st.integers(2, 10), size=st.integers(1, 3),
       with_intercept=st.booleans(), engine=st.sampled_from(ENGINES))
def test_engine_matches_lstsq_oracle(seed, m, missing, gaps, folds, size,
                                     with_intercept, engine):
    ds = make_dataset(m=m, n=6, seed=seed, missing_fraction=missing,
                      gaps=gaps, signal={0: 0.5, 2: 0.3, 5: 0.2})
    config = SearchConfig(subset_size=size, folds=folds, seed=seed,
                          with_intercept=with_intercept, top_k=100)
    with cv_engine(engine):
        result = enumerate_and_score(ds, config, progress=silent)
    for cand in result.ranked:
        cols = [ds.index.position(e) for e in cand.subset]
        usable = np.flatnonzero(ds.present[:, cols].all(axis=1))
        expected = lstsq_cv_mse(ds.log_scores[np.ix_(usable, cols)],
                                ds.targets[usable], folds, seed,
                                with_intercept)
        assert cand.cv_mse == pytest.approx(expected, rel=1e-9)


_INVARIANCE_DATA = {
    "iid": make_dataset(m=40, n=9, seed=43, missing_fraction=0.12),
    "block": make_dataset(m=30, n=9, seed=43, missing_fraction=0.35,
                          gaps="block"),
}
_INVARIANCE_CONFIG = SearchConfig(subset_size=3, folds=10, seed=3, top_k=40)


def _ranking(gaps, engine, **kwargs):
    with cv_engine(engine):
        result = enumerate_and_score(_INVARIANCE_DATA[gaps],
                                     _INVARIANCE_CONFIG, progress=silent,
                                     **kwargs)
    return result.skip_stats, [(c.subset, c.cv_mse) for c in result.ranked]


@pytest.fixture(scope="module")
def default_rankings():
    return {(gaps, engine): _ranking(gaps, engine)
            for gaps in _INVARIANCE_DATA for engine in ENGINES}


@settings(max_examples=16, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(block=st.integers(1, 100), threads=st.sampled_from([1, 2]),
       gaps=st.sampled_from(sorted(_INVARIANCE_DATA)),
       engine=st.sampled_from(ENGINES))
def test_bit_identical_across_block_sizes_and_workers(default_rankings, block,
                                                      threads, gaps, engine):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("BENCHSEL_BLOCK_SIZE", str(block))
        ranking = _ranking(gaps, engine, threads=threads)
    assert ranking == default_rankings[gaps, engine]


def test_invariance_data_builds_tables_and_skips_rows():
    for ds in _INVARIANCE_DATA.values():
        assert _build_context(ds, _INVARIANCE_CONFIG).tables is not None
    skips = _ranking("block", "tables")[0]["skipped_insufficient_rows"]
    assert skips > 0


def _block_gap_dataset(duplicate=False):
    ds = make_dataset(m=24, n=12, seed=45, missing_fraction=0.35,
                      gaps="block", signal={1: 0.6, 4: 0.3, 7: 0.1})
    if not duplicate:
        return ds
    # Column 9 becomes an exact copy of column 1, holes included, so the
    # two share an availability class.
    scores = ds.log_scores.copy()
    scores[:, 9] = scores[:, 1]
    return PreparedDataset(ds.algorithm_ids, ds.environment_ids, scores,
                           ds.targets + 0.5, "median", FilterConfig(1, 1))


def _both_engines(ds, config):
    tables = _build_context(ds, config).tables
    assert tables is not None
    results = {}
    for engine in ENGINES:
        with cv_engine(engine):
            results[engine] = enumerate_and_score(ds, config,
                                                  progress=silent)
    return tables, results["tables"], results["gather"]


@pytest.mark.parametrize("with_intercept", [False, True],
                         ids=["no-intercept", "intercept"])
def test_tables_match_gather_engine(with_intercept):
    config = SearchConfig(subset_size=4, folds=10, seed=5,
                          with_intercept=with_intercept, top_k=1000)
    _, tabled, gathered = _both_engines(_block_gap_dataset(), config)
    assert tabled.skip_stats == gathered.skip_stats
    assert tabled.skipped_insufficient_rows > 0
    assert _listing(tabled) == _listing(gathered)


@pytest.mark.parametrize("with_intercept", [False, True],
                         ids=["no-intercept", "intercept"])
def test_tables_match_gather_engine_singular_verdicts(with_intercept):
    # Twins that differ only in which copy they hold tie exactly, and
    # break the tie by name the same way in both engines.
    config = SearchConfig(subset_size=3, folds=10, seed=5,
                          with_intercept=with_intercept, top_k=1000)
    tables, tabled, gathered = _both_engines(
        _block_gap_dataset(duplicate=True), config)
    assert tables.class_bit[1] == tables.class_bit[9] != 0
    assert tabled.skip_stats == gathered.skip_stats
    assert tabled.skipped_singular > 0
    assert _listing(tabled) == _listing(gathered)


@pytest.mark.parametrize("with_intercept", [False, True],
                         ids=["no-intercept", "intercept"])
@pytest.mark.parametrize("engine", ENGINES)
def test_scalar_cv_equals_search_cv_mse(engine, with_intercept):
    # A search pads each fold to ceil(algorithms / folds) slots, the
    # scalar call to ceil(usable rows / folds); padding adds exact zeros.
    ds = _block_gap_dataset()
    config = SearchConfig(subset_size=3, folds=10, seed=5,
                          with_intercept=with_intercept, top_k=1000)
    with cv_engine(engine):
        result = enumerate_and_score(ds, config, progress=silent)
    narrower = 0
    for cand in result.ranked:
        cols = [ds.index.position(e) for e in cand.subset]
        usable = np.flatnonzero(ds.present[:, cols].all(axis=1))
        narrower += -(-len(usable) // 10) < -(-ds.n_algorithms // 10)
        assert cand.cv_mse == cross_validated_mse(
            ds.log_scores[np.ix_(usable, cols)], ds.targets[usable],
            config.folds, config.seed, with_intercept)
    assert narrower > 20
