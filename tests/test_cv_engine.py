"""The fold-downdate CV kernel against its references.

``linreg._fold_tables`` builds held-out values and training systems and
``linreg._cv_mse_tabled`` scores candidates from them. A search block
groups its candidates by usable-row mask and scores a large group from
one shared table over every fittable column, and every other candidate
from a table of its own columns; ``cv_engine`` forces either kind for
every candidate. Both run the same arithmetic, so they give the same
ranking and bit-identical cv_mse, and so does ``cross_validated_mse`` on a
candidate's usable rows.

``per_fold_block_cv`` is the block engine that fold downdating replaced:
for every fold it rebuilds each candidate's Gram over all rows and its
residuals over all rows. It is kept here as the reference. It sums in a
different order, so the kernel agrees with it to a tolerance, not to the
bit. The fold layout the tables are built from is checked against
``fold_assignment`` directly.
"""

import contextlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchsel import linreg, search
from benchsel.data import FilterConfig, PreparedDataset
from benchsel.linreg import cross_validated_mse, fold_assignment
from benchsel.search import (
    SearchConfig,
    _build_context,
    _comb_table,
    _unrank_colex,
    enumerate_and_score,
)
from conftest import cholesky_reference, lstsq_cv_mse, make_dataset

# Every candidate on a shared table, every candidate on its own table, and
# the search's own choice per group.
ENGINES = ("tables", "gather")
ALL_ENGINES = (*ENGINES, "rule")


@contextlib.contextmanager
def cv_engine(name):
    """Inside the ``with`` block, searches score every candidate from a
    shared per-mask table ("tables") or from a table of its own
    ("gather"); with "rule", each group as ``_shares_table`` decides."""
    with pytest.MonkeyPatch.context() as mp:
        if name in ENGINES:
            mp.setattr(search, "_shares_table", lambda count, *_: np.full(
                len(count), name == "tables"))
        yield


def per_fold_block_cv(ctx):
    """Score every candidate of a search with one solve per fold.

    Returns {sorted environment names: cv_mse or None if singular} for the
    candidates with enough usable rows.
    """
    m = ctx.avail.shape[0]
    X, t = ctx.X[:m, :-1], ctx.X[:m, -1]
    fold_table = np.full((m + 1, m), -1, dtype=np.int64)
    for rows in range(ctx.config.folds, m + 1):
        fold_table[rows, :rows] = fold_assignment(
            rows, ctx.config.folds, ctx.config.seed)

    total = math.comb(len(ctx.pool), ctx.k_free)
    positions = _unrank_colex(np.arange(total), ctx.k_free, ctx.comb)
    env_cols = ctx.pool[positions]
    if len(ctx.must_cols):
        forced = np.broadcast_to(ctx.must_cols, (total, len(ctx.must_cols)))
        env_cols = np.sort(np.concatenate([forced, env_cols], axis=1), axis=1)
    fit_cols = env_cols
    if ctx.config.with_intercept:
        ones_col = np.full((total, 1), X.shape[1] - 1)
        fit_cols = np.concatenate([env_cols, ones_col], axis=1)

    usable = ctx.avail[:, env_cols].all(axis=2)      # (m, N)
    n_usable = usable.sum(axis=0)
    keep = np.flatnonzero(n_usable >= ctx.min_rows)
    env_cols, fit_cols = env_cols[keep], fit_cols[keep]
    usable, n_usable = usable[:, keep], n_usable[keep]
    rank = usable.cumsum(axis=0) - 1
    fold_id = np.where(usable, fold_table[n_usable[None, :], rank], -1)

    Xt = np.ascontiguousarray(X[:, fit_cols].transpose(1, 0, 2))  # (N, m, C)
    cv_sum = np.zeros(len(keep))
    singular = np.zeros(len(keep), dtype=bool)
    for f in range(ctx.config.folds):
        w_train = ((fold_id != f) & usable).T
        At = (Xt * w_train[:, :, None]).transpose(0, 2, 1)
        beta, bad = cholesky_reference(At @ Xt, At @ t)
        singular |= bad != -1
        w_test = (fold_id == f).T
        residual = ((Xt @ beta[:, :, None])[:, :, 0] - t) * w_test
        cv_sum += (residual ** 2).sum(axis=1) / w_test.sum(axis=1)
    cv = cv_sum / ctx.config.folds
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
    for engine in ALL_ENGINES:
        with cv_engine(engine):
            result = enumerate_and_score(ds, config)
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
    for engine in ALL_ENGINES:
        with cv_engine(engine):
            scored = _scored(enumerate_and_score(ds, config))
        assert set(scored) == {k for k, cv in reference.items()
                               if cv is not None}
        assert len(scored) < len(reference)
        for key, cv in scored.items():
            assert cv == pytest.approx(reference[key], rel=1e-11)


def test_masks_of_several_words_match_per_fold_reference():
    # 150 algorithms, so each usable-row mask is packed into three words,
    # with every gap past row 64: masks differ in their later words only.
    ds = make_dataset(m=150, n=8, seed=46, signal={1: 0.6, 4: 0.3})
    holes = np.random.default_rng(46).random(ds.log_scores.shape) < 0.15
    holes[:64] = False
    holes[:, 0] = False
    ds = PreparedDataset(ds.algorithm_ids, ds.environment_ids,
                         np.where(holes, np.nan, ds.log_scores), ds.targets,
                         "median", FilterConfig(1, 1))
    config = SearchConfig(subset_size=3, folds=10, seed=6, top_k=1000)
    assert _build_context(ds, config).packed.shape == (8, 3)
    reference = per_fold_block_cv(_build_context(ds, config))
    for engine in ALL_ENGINES:
        with cv_engine(engine):
            result = enumerate_and_score(ds, config)
        assert len(reference) == result.total_candidates
        assert _scored(result).keys() == reference.keys()
        for cand in result.ranked:
            key = tuple(sorted(cand.subset))
            assert cand.cv_mse == pytest.approx(reference[key], rel=1e-11)
            cols = [ds.index.position(e) for e in cand.subset]
            assert cand.n_algorithms_used == ds.present[:, cols].all(
                axis=1).sum()


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
       with_intercept=st.booleans(), engine=st.sampled_from(ALL_ENGINES),
       games=st.permutations(range(6)), force=st.booleans())
def test_engine_matches_lstsq_oracle(seed, m, missing, gaps, folds, size,
                                     with_intercept, engine, games, force):
    # One game excluded and, optionally, another forced: the oracle reads
    # ``ds`` by name, so a search's columns must be the games they name.
    ds = make_dataset(m=m, n=6, seed=seed, missing_fraction=missing,
                      gaps=gaps, signal={0: 0.5, 2: 0.3, 5: 0.2})
    excluded = ds.environment_ids[games[0]]
    forced = (ds.environment_ids[games[1]],) if force else ()
    config = SearchConfig(subset_size=size, folds=folds, seed=seed,
                          with_intercept=with_intercept, top_k=100,
                          must_include=forced, exclude=(excluded,))
    with cv_engine(engine):
        result = enumerate_and_score(ds, config)
    assert result.total_candidates == math.comb(5 - force, size - force)
    for cand in result.ranked:
        assert excluded not in cand.subset and set(forced) <= set(cand.subset)
        cols = [ds.index.position(e) for e in cand.subset]
        usable = np.flatnonzero(ds.present[:, cols].all(axis=1))
        expected = lstsq_cv_mse(ds.log_scores[np.ix_(usable, cols)],
                                ds.targets[usable], folds, seed,
                                with_intercept)
        assert cand.cv_mse == pytest.approx(expected, rel=1e-9)


def _with_scattered_gaps(ds, share, seed):
    """``ds`` with about ``share`` of its scores blanked at random, column 0
    and row 0 kept whole."""
    holes = np.random.default_rng(seed).random(ds.log_scores.shape) < share
    holes[:, 0] = False
    holes[0, :] = False
    return PreparedDataset(ds.algorithm_ids, ds.environment_ids,
                           np.where(holes, np.nan, ds.log_scores),
                           ds.targets, "median", FilterConfig(1, 1))


_INVARIANCE_DATA = {
    "iid": make_dataset(m=40, n=9, seed=43, missing_fraction=0.12),
    "block": make_dataset(m=30, n=9, seed=43, missing_fraction=0.35,
                          gaps="block"),
    # Block gaps leave large groups of candidates with one usable-row mask,
    # and scattered ones split some of them up.
    "mixed": _with_scattered_gaps(
        make_dataset(m=36, n=9, seed=43, missing_fraction=0.35,
                     gaps="block"), 0.02, 44),
}
_INVARIANCE_CONFIG = SearchConfig(subset_size=3, folds=10, seed=3, top_k=40)


def _ranking(gaps, engine, **kwargs):
    with cv_engine(engine):
        result = enumerate_and_score(_INVARIANCE_DATA[gaps],
                                     _INVARIANCE_CONFIG, **kwargs)
    return result.skip_stats, [(c.subset, c.cv_mse) for c in result.ranked]


@pytest.fixture(scope="module")
def default_rankings():
    return {(gaps, engine): _ranking(gaps, engine)
            for gaps in _INVARIANCE_DATA for engine in ALL_ENGINES}


@settings(max_examples=16, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(block=st.integers(1, 100), threads=st.sampled_from([1, 2, 3]),
       gaps=st.sampled_from(sorted(_INVARIANCE_DATA)),
       engine=st.sampled_from(ALL_ENGINES))
def test_bit_identical_across_block_sizes_and_workers(default_rankings, block,
                                                      threads, gaps, engine):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_block_size", lambda ctx: block)
        ranking = _ranking(gaps, engine, threads=threads)
    assert ranking == default_rankings[gaps, engine]


@pytest.mark.parametrize("gaps", sorted(_INVARIANCE_DATA))
def test_bit_identical_across_engines_and_without_table_cache(
        default_rankings, gaps):
    # In blocks of 40, later blocks score small groups from tables that an
    # earlier block added to the worker's store. With no room in the store,
    # every group takes tables of its own.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_block_size", lambda ctx: 40)
        cached = _ranking(gaps, "rule")
        mp.setattr(search, "TABLE_CACHE_DOUBLES", 0)
        uncached = _ranking(gaps, "rule")
    assert cached == uncached
    for engine in ALL_ENGINES:
        assert default_rankings[gaps, engine] == uncached


def _kernel_calls(gaps):
    """Per ``_cv_mse_tabled`` call of a default search, whether it scored
    from shared tables."""
    calls = []
    kernel = search._cv_mse_tabled
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_cv_mse_tabled", lambda tables, n_rows,
                   slots=None, cols=None: calls.append(slots is not None)
                   or kernel(tables, n_rows, slots, cols))
        _ranking(gaps, "rule")
    return calls


def test_invariance_data_builds_tables_and_skips_rows():
    # Each search is one block; the mixed data's scores some candidates
    # from shared tables and the rest from their own.
    assert sorted(_kernel_calls("mixed")) == [False, True]
    for gaps in ("block", "mixed"):
        skips = _ranking(gaps, "rule")[0]
        assert skips["skipped_insufficient_rows"] > 0


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
    """The shared-table and own-table searches, after checking that the
    rule's mix of the two ranks and skips exactly as they do."""
    results = {}
    for engine in ALL_ENGINES:
        with cv_engine(engine):
            results[engine] = enumerate_and_score(ds, config)
    assert results["rule"].skip_stats == results["gather"].skip_stats
    assert _listing(results["rule"]) == _listing(results["gather"])
    return results["tables"], results["gather"]


@pytest.mark.parametrize("with_intercept", [False, True],
                         ids=["no-intercept", "intercept"])
def test_tables_match_gather_engine(with_intercept):
    config = SearchConfig(subset_size=4, folds=10, seed=5,
                          with_intercept=with_intercept, top_k=1000)
    tabled, gathered = _both_engines(_block_gap_dataset(), config)
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
    ds = _block_gap_dataset(duplicate=True)
    assert (ds.present[:, 1] == ds.present[:, 9]).all()
    assert not ds.present[:, 1].all()
    tabled, gathered = _both_engines(ds, config)
    assert tabled.skip_stats == gathered.skip_stats
    assert tabled.skipped_singular > 0
    assert _listing(tabled) == _listing(gathered)


@pytest.mark.parametrize("top_k", [1, 2, 4, 5])
def test_top_k_cut_inside_an_exact_tie(top_k):
    # Columns 2 and 3 are exact copies of column 1, holes included, and
    # take its place in each subset's column order, so the best subsets
    # come in exactly tied triples, and the cut at top_k falls inside one.
    # Names run against column order: ties broken by column index would
    # list each triple backwards.
    ds = make_dataset(m=40, n=12, seed=46, missing_fraction=0.1,
                      signal={1: 0.6, 4: 0.3, 7: 0.1})
    scores = ds.log_scores.copy()
    scores[:, 2] = scores[:, 3] = scores[:, 1]
    ds = PreparedDataset(ds.algorithm_ids,
                         tuple(f"env{12 - j:02d}" for j in range(12)),
                         scores, ds.targets, "median", FilterConfig(1, 1))
    config = SearchConfig(subset_size=3, folds=10, seed=6, top_k=1000)
    every = _listing(enumerate_and_score(ds, config))
    every.sort(key=lambda c: (c[1], sorted(c[0])))
    assert every[top_k - 1][1] == every[top_k][1]
    config = replace(config, top_k=top_k)
    # In blocks of one, a tied twin arrives after the list is full and must
    # still be merged.
    for block in (None, 1, 40):
        for threads in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                if block:
                    mp.setattr(search, "_block_size", lambda ctx: block)
                result = enumerate_and_score(ds, config, threads=threads)
            assert _listing(result) == every[:top_k]


def _assert_scalar_cv(ds, result, with_intercept):
    """Every ranked cv_mse is, to the bit, ``cross_validated_mse`` on the
    candidate's usable rows; returns how many of those pad their folds
    narrower than the search's tables do."""
    config = result.config
    narrower = 0
    for cand in result.ranked:
        cols = [ds.index.position(e) for e in cand.subset]
        usable = np.flatnonzero(ds.present[:, cols].all(axis=1))
        narrower += -(-len(usable) // 10) < -(-ds.n_algorithms // 10)
        assert cand.cv_mse == cross_validated_mse(
            ds.log_scores[np.ix_(usable, cols)], ds.targets[usable],
            config.folds, config.seed, with_intercept)
    return narrower


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
        result = enumerate_and_score(ds, config)
    assert _assert_scalar_cv(ds, result, with_intercept) > 20


@pytest.mark.parametrize("with_intercept", [False, True],
                         ids=["no-intercept", "intercept"])
def test_scalar_cv_equals_search_cv_mse_with_mixed_gaps(with_intercept):
    # One block, scored partly from shared tables and partly from own ones.
    ds = _INVARIANCE_DATA["mixed"]
    config = SearchConfig(subset_size=3, folds=10, seed=5,
                          with_intercept=with_intercept, top_k=1000)
    result = enumerate_and_score(ds, config)
    assert len(result.ranked) == result.scored
    assert _assert_scalar_cv(ds, result, with_intercept) > 0


# ---------------------------------------------------------------------------
# The fold layout behind ``linreg._fold_tables``.

def _reference_held_out_rows(usable, folds, seed):
    """Per mask and fold, the held-out rows straight from ``fold_assignment``
    over the mask's usable rows, ascending, padded with R."""
    M, R = usable.shape
    out = np.full((M, folds, -(-R // folds)), R, dtype=np.int64)
    for i, mask in enumerate(usable):
        rows = np.flatnonzero(mask)
        fold_of_row = fold_assignment(len(rows), folds, seed)
        for f in range(folds):
            members = rows[fold_of_row == f]
            out[i, f, :len(members)] = members
    return out


@pytest.mark.parametrize("folds", [2, 3, 10])
@pytest.mark.parametrize("seed", [0, 7])
def test_held_out_rows_match_fold_assignment(folds, seed):
    rng = np.random.default_rng(seed)
    R = 37
    usable = rng.random((40, R)) < rng.uniform(0.0, 1.0, size=(40, 1))
    usable[0] = False
    usable[1] = True
    usable[2] = False                       # fewer usable rows than folds
    usable[2, rng.choice(R, folds - 1, replace=False)] = True
    got = linreg._held_out_rows(usable, usable.sum(axis=1), folds, seed)
    assert np.array_equal(got, _reference_held_out_rows(usable, folds, seed))


@pytest.mark.parametrize("folds", [2, 3, 10, 23])
def test_closed_form_fold_sizes_match_fold_assignment(folds):
    sizes = linreg._fold_sizes(np.arange(131), folds)
    for n in range(131):
        expected = np.bincount(fold_assignment(n, folds, n), minlength=folds)
        assert np.array_equal(sizes[n], expected)
        assert np.array_equal(linreg._fold_sizes(n, folds), expected)


def test_cached_fold_layout_is_read_only():
    layout = linreg._fold_layout(25, 10, 0, 30)
    assert linreg._fold_layout(25, 10, 0, 30) is layout
    with pytest.raises(ValueError):
        layout[0, 0] = 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_own_table_scores_do_not_depend_on_the_stack(seed):
    # Own tables pad every fold to the widest fold in the call, so beside
    # a candidate with every row usable a 41-row candidate's folds take 7
    # slots, and alone 5. Candidate 2 fits a copy of column 0 and is
    # singular in every fold.
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(62, 6))
    Z[:, 4] = Z[:, 0]
    Z[:, 5] = Z[:, :3] @ np.array([0.5, -0.3, 0.2]) + rng.normal(0, 0.1, 62)
    usable = np.ones((3, 62), dtype=bool)
    for i in (0, 2):
        usable[i, rng.choice(62, 21, replace=False)] = False
    cols = np.array([[0, 1, 2, 5], [1, 2, 3, 5], [0, 4, 1, 5]])

    def scored(which):
        tables, n_rows = linreg._fold_tables(Z, usable[which], cols[which],
                                             10, seed)
        return tables[0].shape[0], linreg._cv_mse_tabled(tables, n_rows)

    for i in (0, 2):
        width, (cv, bad) = scored([i])
        wide, (cv_beside, bad_beside) = scored([i, 1])
        assert (width, wide) == (5, 7)
        assert cv[0].tobytes() == cv_beside[0].tobytes()
        assert np.array_equal(bad[0], bad_beside[0])
        assert (bad[0] == -1).all() == (i == 0)
