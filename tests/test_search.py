import math
import multiprocessing
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchsel import search
from benchsel.data import FilterConfig, PreparedDataset
from benchsel.errors import (
    EmptySearchError,
    SingularMatrixError,
    ValidationError,
)
from benchsel.formats import bank_from_dict, bank_to_dict, suite_to_dict
from benchsel.search import (
    TABLE_CACHE_DOUBLES,
    SearchConfig,
    _block_size,
    _build_context,
    _fold_tables,
    _score_block,
    enumerate_and_score,
    nested_pipeline,
    per_game_models,
    variance_explained,
)
from conftest import lstsq_cv_mse, make_dataset


class TestSearchConfig:
    def test_overlapping_constraints_rejected(self):
        with pytest.raises(ValidationError):
            SearchConfig(subset_size=3, must_include=("a",), exclude=("A",))

    def test_oversized_must_include_rejected(self):
        with pytest.raises(ValidationError):
            SearchConfig(subset_size=1, must_include=("a", "b"))


class TestEnumerateAndScore:
    def test_six_choose_five(self):
        ds = make_dataset(m=30, n=6, seed=1)
        result = enumerate_and_score(ds, SearchConfig(subset_size=5, folds=5))
        assert result.total_candidates == 6
        assert result.scored == 6
        assert len(result.ranked) == 6

    def test_exhaustiveness_accounting(self):
        ds = make_dataset(m=40, n=12, seed=2, missing_fraction=0.25)
        config = SearchConfig(subset_size=4, folds=10)
        result = enumerate_and_score(ds, config)
        assert (result.scored + result.skipped_insufficient_rows
                + result.skipped_singular) == math.comb(12, 4)

    def test_must_include_respected(self):
        ds = make_dataset(m=30, n=8, seed=3)
        config = SearchConfig(subset_size=3, must_include=("env02",), folds=5)
        result = enumerate_and_score(ds, config)
        assert result.total_candidates == math.comb(7, 2)
        assert all("env02" in cand.subset for cand in result.ranked)

    def test_exhaustiveness_with_constraints_and_gaps(self):
        ds = make_dataset(m=40, n=12, seed=27, missing_fraction=0.2)
        config = SearchConfig(subset_size=4, must_include=("env01",),
                              exclude=("env11", "env12"), folds=10)
        result = enumerate_and_score(ds, config)
        # pool: 12 - 2 excluded - 1 forced = 9 eligible, choose 3 more
        assert result.total_candidates == math.comb(9, 3)
        assert (result.scored + result.skipped_insufficient_rows
                + result.skipped_singular) == result.total_candidates

    def test_exclude_respected(self):
        ds = make_dataset(m=30, n=8, seed=4)
        config = SearchConfig(subset_size=3, exclude=("env05", "env07"),
                              folds=5)
        result = enumerate_and_score(ds, config)
        assert result.total_candidates == math.comb(6, 3)
        for cand in result.ranked:
            assert "env05" not in cand.subset
            assert "env07" not in cand.subset

    def test_recovers_planted_signal(self):
        ds = make_dataset(m=60, n=20, seed=5,
                          signal={2: 0.4, 6: 0.5, 11: 0.1}, noise=0.02)
        result = enumerate_and_score(ds, SearchConfig(subset_size=3))
        assert result.best.subset == ("env03", "env07", "env12")

    def test_ranking_sorted_and_deterministic(self):
        ds = make_dataset(m=30, n=9, seed=6)
        config = SearchConfig(subset_size=2, folds=5, top_k=50)
        a = enumerate_and_score(ds, config)
        b = enumerate_and_score(ds, config)
        cvs = [c.cv_mse for c in a.ranked]
        assert cvs == sorted(cvs)
        assert [c.subset for c in a.ranked] == [c.subset for c in b.ranked]
        assert [c.cv_mse for c in a.ranked] == [c.cv_mse for c in b.ranked]

    def test_worker_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr("benchsel.search._block_size", lambda ctx: 16)
        ds = make_dataset(m=40, n=11, seed=7, missing_fraction=0.1)
        config = SearchConfig(subset_size=3, folds=10, top_k=30)
        serial = enumerate_and_score(ds, config, threads=1)
        parallel = enumerate_and_score(ds, config, threads=6)
        assert serial.skip_stats == parallel.skip_stats
        for a, b in zip(serial.ranked, parallel.ranked):
            assert a.subset == b.subset
            assert a.cv_mse == b.cv_mse  # bit-identical
            assert np.array_equal(a.model.coefficients, b.model.coefficients)

    def test_agrees_with_scalar_cross_validation(self):
        ds = make_dataset(m=45, n=10, seed=8, missing_fraction=0.15)
        config = SearchConfig(subset_size=3, folds=10, seed=2, top_k=200)
        result = enumerate_and_score(ds, config)
        name_to_col = {e: j for j, e in enumerate(ds.environment_ids)}
        for cand in result.ranked[:20]:
            cols = [name_to_col[e] for e in cand.subset]
            usable = ds.present[:, cols].all(axis=1)
            X = ds.log_scores[np.ix_(np.flatnonzero(usable), cols)]
            t = ds.targets[usable]
            assert cand.n_algorithms_used == len(t)
            expected = lstsq_cv_mse(X, t, folds=10, seed=2)
            assert cand.cv_mse == pytest.approx(expected, rel=1e-9)

    def test_insufficient_rows_skipped_and_counted(self):
        # env09 is present for too few algorithms: every candidate using it
        # must be skipped, not scored.
        ds = make_dataset(m=25, n=9, seed=9)
        scores = ds.log_scores.copy()
        scores[:20, 8] = np.nan  # 5 usable rows < max(cols+2, folds)=10
        ds = PreparedDataset(ds.algorithm_ids, ds.environment_ids, scores,
                             ds.targets, "median", FilterConfig(1, 1))
        config = SearchConfig(subset_size=2, folds=10)
        result = enumerate_and_score(ds, config)
        assert result.skipped_insufficient_rows == 8  # env09 paired with others
        assert all("env09" not in c.subset for c in result.ranked)

    def test_duplicate_columns_counted_singular(self):
        ds = make_dataset(m=30, n=5, seed=10)
        scores = ds.log_scores.copy()
        scores[:, 4] = scores[:, 3]  # exact duplicate column
        ds = PreparedDataset(ds.algorithm_ids, ds.environment_ids, scores,
                             ds.targets, "median", FilterConfig(1, 1))
        result = enumerate_and_score(ds, SearchConfig(subset_size=2, folds=5))
        assert result.skipped_singular == 1
        assert result.scored == math.comb(5, 2) - 1

    def test_intercept_mode_agrees_with_scalar_cv(self):
        ds = make_dataset(m=40, n=8, seed=24, missing_fraction=0.1)
        shifted = ds.targets + 1.5  # constant offset only an intercept fits
        ds = PreparedDataset(ds.algorithm_ids, ds.environment_ids,
                             ds.log_scores, shifted, "median",
                             FilterConfig(1, 1))
        config = SearchConfig(subset_size=2, folds=10, seed=5,
                              with_intercept=True, top_k=50)
        result = enumerate_and_score(ds, config)
        name_to_col = {e: j for j, e in enumerate(ds.environment_ids)}
        for cand in result.ranked[:10]:
            assert cand.model.intercept is not None
            cols = [name_to_col[e] for e in cand.subset]
            usable = ds.present[:, cols].all(axis=1)
            expected = lstsq_cv_mse(
                ds.log_scores[np.ix_(np.flatnonzero(usable), cols)],
                ds.targets[usable], folds=10, seed=5, with_intercept=True)
            assert cand.cv_mse == pytest.approx(expected, rel=1e-9)

    def test_intercept_mode_fits_offset_target(self):
        ds = make_dataset(m=50, n=10, seed=25, signal={3: 0.8}, noise=0.02)
        shifted = PreparedDataset(ds.algorithm_ids, ds.environment_ids,
                                  ds.log_scores, ds.targets + 2.0, "median",
                                  FilterConfig(1, 1))
        with_c = enumerate_and_score(
            shifted, SearchConfig(subset_size=1, with_intercept=True))
        without_c = enumerate_and_score(
            shifted, SearchConfig(subset_size=1, with_intercept=False))
        assert with_c.best.subset == ("env04",)
        assert with_c.best.model.intercept == pytest.approx(2.0, abs=0.05)
        assert with_c.best.cv_mse < without_c.best.cv_mse

    def test_too_few_eligible_environments(self):
        ds = make_dataset(m=30, n=6, seed=11)
        with pytest.raises(ValidationError, match="eligible"):
            enumerate_and_score(
                ds, SearchConfig(subset_size=5, exclude=("env01", "env02")))

    def test_all_skipped_raises_empty_search(self):
        # 12 algorithms < 13 folds: no candidate can be cross-validated
        ds = make_dataset(m=12, n=6, seed=11)
        with pytest.raises(EmptySearchError) as err:
            enumerate_and_score(ds, SearchConfig(subset_size=5, folds=13))
        assert err.value.skip_stats["skipped_insufficient_rows"] == 6

    def test_refit_singular_finalists_are_counted(self, monkeypatch):
        ds = make_dataset(m=30, n=6, seed=12)
        config = SearchConfig(subset_size=2, folds=5)
        base = enumerate_and_score(ds, config)
        dropped = base.ranked[1].subset
        fit_ols = search.fit_ols

        def refit(X, t, *, environment_ids, **kwargs):
            if environment_ids == dropped:
                raise SingularMatrixError(dropped[-1])
            return fit_ols(X, t, environment_ids=environment_ids, **kwargs)

        monkeypatch.setattr(search, "fit_ols", refit)
        result = enumerate_and_score(ds, config)
        assert result.scored == base.scored - 1
        assert result.skipped_singular == base.skipped_singular + 1
        assert [c.subset for c in result.ranked] == [
            c.subset for c in base.ranked if c.subset != dropped]
        assert (result.scored + result.skipped_insufficient_rows
                + result.skipped_singular) == result.total_candidates

        def singular(X, t, *, environment_ids, **kwargs):
            raise SingularMatrixError(environment_ids[-1])

        monkeypatch.setattr(search, "fit_ols", singular)
        with pytest.raises(EmptySearchError, match="every finalist was "
                           "singular at refit time") as err:
            enumerate_and_score(ds, config)
        assert err.value.skip_stats["skipped_singular"] == (
            base.skipped_singular + len(base.ranked))

    def test_progress_milestones(self, monkeypatch):
        import benchsel.search as search_mod

        monkeypatch.setattr(search_mod, "PROGRESS_STRIDE", 100)
        calls = []
        ds = make_dataset(m=30, n=10, seed=12)
        enumerate_and_score(ds, SearchConfig(subset_size=3, folds=5),
                            progress=lambda done, total: calls.append(done))
        assert calls == [100]  # C(10,3) = 120 crosses one stride of 100

    def test_no_callback_prints_nothing(self, monkeypatch, capfd):
        monkeypatch.setattr(search, "PROGRESS_STRIDE", 10)
        ds = make_dataset(m=30, n=10, seed=12)
        enumerate_and_score(ds, SearchConfig(subset_size=3, folds=5))
        assert capfd.readouterr() == ("", "")


def _listing(result):
    return [(c.subset, c.cv_mse, c.n_algorithms_used) for c in result.ranked]


def _score_every_block(ctx, block=None, after_block=lambda ctx: None):
    """Score every block of ``ctx``'s search in this process, in blocks of
    ``block`` candidates (default ``_block_size``), calling ``after_block``
    after each; returns ``ctx``, its table store filled."""
    total = math.comb(len(ctx.pool), ctx.k_free)
    block = block or _block_size(ctx)
    for start in range(0, total, block):
        _score_block(ctx, start, min(start + block, total))
        after_block(ctx)
    return ctx


class TestMaskTables:
    """Which searches build shared fold tables, and what they hold."""

    def test_block_gaps_build_tables(self):
        ds = make_dataset(m=62, n=30, seed=50, missing_fraction=0.1,
                          gaps="block")
        ctx = _score_every_block(
            _build_context(ds, SearchConfig(subset_size=5)))
        # Three gapped classes: every set of them is a reachable mask.
        assert 0 < len(ctx.table_slot) <= 8
        assert sorted(ctx.table_slot.values()) == list(
            range(len(ctx.table_slot)))
        # 30 games and the target; 10 folds of at most 7 held-out rows,
        # then 30 training rows.
        assert ctx.tables.shape[1:] == (7 + 30, 31, 10)
        assert ctx.tables.flags.c_contiguous
        assert ctx.tables.size <= TABLE_CACHE_DOUBLES
        for key, slot in ctx.table_slot.items():
            mask = np.unpackbits(np.frombuffer(key, dtype=np.uint8),
                                 count=62, bitorder="little").view(bool)
            # A table of its own pads to its own widest fold; the slot's
            # rows past that hold exact zeros.
            (held, train), _ = _fold_tables(ctx.X, mask[None],
                                            np.arange(31), 10, 0)
            width = held.shape[0]
            assert width == -(-mask.sum() // 10)
            assert np.array_equal(ctx.tables[slot, :width], held[:, 0])
            assert not ctx.tables[slot, width:7].any()
            assert np.array_equal(ctx.tables[slot, 7:], train[:, :, 0])

    def test_scoring_from_the_store_leaves_it_unchanged(self):
        # The solver overwrites the systems it is handed; a block scored
        # from stored tables hands it a gathered copy, never the store.
        ds = make_dataset(m=62, n=20, seed=50, missing_fraction=0.1,
                          gaps="block")
        ctx = _build_context(ds, SearchConfig(subset_size=5))
        total = math.comb(len(ctx.pool), ctx.k_free)
        spans = [(start, min(start + 500, total))
                 for start in range(0, total, 500)]
        first = [_score_block(ctx, *span) for span in spans]
        stored, slab = dict(ctx.table_slot), ctx.tables.tobytes()
        assert stored
        again = [_score_block(ctx, *span) for span in spans]
        assert ctx.table_slot == stored
        assert ctx.tables.tobytes() == slab
        assert pickle.dumps(again) == pickle.dumps(first)

    def test_store_is_allocated_once(self):
        # In blocks of 200, later blocks add tables to the store too; it
        # is written in place, never grown or copied.
        ds = make_dataset(m=62, n=20, seed=50, missing_fraction=0.1,
                          gaps="block")
        stored, buffers = [], set()

        def record(ctx):
            stored.append(len(ctx.table_slot))
            if ctx.table_slot:
                buffers.add(ctx.tables.ctypes.data)

        _score_every_block(_build_context(ds, SearchConfig(subset_size=5)),
                           block=200, after_block=record)
        assert len(set(stored) - {0}) > 2  # tables added by 3+ blocks
        assert len(buffers) == 1

    def test_capped_store_ranks_as_uncapped(self, monkeypatch):
        # Room for two tables: later large groups take tables of their own.
        ds = make_dataset(m=62, n=20, seed=50, missing_fraction=0.1,
                          gaps="block")
        config = SearchConfig(subset_size=5, top_k=1000)
        ctx = _score_every_block(_build_context(ds, config))
        assert len(ctx.table_slot) > 2
        uncapped = enumerate_and_score(ds, config)
        monkeypatch.setattr(search, "TABLE_CACHE_DOUBLES",
                            2 * ctx.tables[0].size)
        ctx = _score_every_block(_build_context(ds, config))
        assert sorted(ctx.table_slot.values()) == [0, 1]
        assert len(ctx.tables) == 2
        capped = enumerate_and_score(ds, config)
        monkeypatch.setattr(search, "_shares_table",
                            lambda count, *_: np.zeros(len(count), bool))
        gathered = enumerate_and_score(ds, config)
        for result in (uncapped, gathered):
            assert result.skip_stats == capped.skip_stats
            assert _listing(result) == _listing(capped)

    def test_iid_gaps_exceed_the_budget(self):
        # Scattered gaps leave no group of candidates whose own tables
        # would outweigh one over every game, so none is built.
        ds = make_dataset(m=62, n=30, seed=50, missing_fraction=0.1)
        ctx = _build_context(ds, SearchConfig(subset_size=5))
        ctx = _score_every_block(ctx)
        assert ctx.table_slot == {} and ctx.tables == ()

    @pytest.mark.parametrize("method", [None, "spawn"])
    def test_workers_start_before_any_table_exists(self, monkeypatch,
                                                   method):
        # The caller's first block stores tables; a worker started after
        # it would be sent the store, allocated at capacity, with its ctx.
        ds = make_dataset(m=62, n=20, seed=50, missing_fraction=0.1,
                          gaps="block")
        config = SearchConfig(subset_size=5, top_k=1000)
        serial = enumerate_and_score(ds, config, threads=1)
        context = multiprocessing.get_context(method)
        sent = []

        class Recording:
            """``context``, recording each worker's ctx as pickled."""
            Pipe = staticmethod(context.Pipe)

            @staticmethod
            def Process(args, **kwargs):
                sent.append(pickle.loads(pickle.dumps(args[0])))
                return context.Process(args=args, **kwargs)

        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda: Recording)
        pooled = enumerate_and_score(ds, config, threads=3)
        assert pooled.workers == len(sent) + 1 == 3
        for ctx in sent:
            assert ctx.table_slot == {} and len(ctx.tables) == 0
        assert pooled.skip_stats == serial.skip_stats
        assert _listing(pooled) == _listing(serial)

    def test_every_column_forced(self):
        ds = make_dataset(m=40, n=12, seed=51, missing_fraction=0.2,
                          gaps="block", signal={1: 0.5, 4: 0.5})
        forced = ("env02", "env05", "env09")
        config = SearchConfig(subset_size=3, must_include=forced, folds=5,
                              seed=2)
        result = enumerate_and_score(ds, config)
        assert result.total_candidates == result.scored == 1
        cols = [1, 4, 8]
        usable = np.flatnonzero(ds.present[:, cols].all(axis=1))
        assert result.best.n_algorithms_used == len(usable)
        expected = lstsq_cv_mse(ds.log_scores[np.ix_(usable, cols)],
                                ds.targets[usable], 5, 2)
        assert result.best.cv_mse == pytest.approx(expected, rel=1e-9)

    def test_intercept_tables_hold_the_ones_column(self):
        ds = make_dataset(m=40, n=10, seed=52, missing_fraction=0.2,
                          gaps="block", signal={0: 0.4, 3: 0.6})
        config = SearchConfig(subset_size=2, folds=10, seed=4,
                              with_intercept=True, top_k=50)
        ctx = _score_every_block(_build_context(ds, config))
        # Ten games, the ones column and the target.
        assert ctx.X.shape[1] == 12
        assert ctx.table_slot
        # 10 folds of at most 4 held-out rows, then 11 training rows.
        assert ctx.tables.shape[1:] == (4 + 11, 12, 10)
        result = enumerate_and_score(ds, config)
        for cand in result.ranked:
            cols = [ds.index.position(e) for e in cand.subset]
            usable = np.flatnonzero(ds.present[:, cols].all(axis=1))
            expected = lstsq_cv_mse(ds.log_scores[np.ix_(usable, cols)],
                                    ds.targets[usable], 10, 4,
                                    with_intercept=True)
            assert cand.cv_mse == pytest.approx(expected, rel=1e-9)


@pytest.fixture(scope="module")
def suite_and_dataset():
    ds = make_dataset(m=50, n=18, seed=13,
                      signal={0: 0.5, 4: 0.3, 9: 0.2}, noise=0.05)
    suite = nested_pipeline(ds, folds=10, seed=0)
    return suite, ds


class TestNestedPipeline:
    def test_nesting_chain(self, suite_and_dataset):
        suite, _ = suite_and_dataset
        s1 = set(suite.subset("size-1"))
        s3 = set(suite.subset("size-3"))
        s5 = set(suite.subset("size-5"))
        s10 = set(suite.subset("size-10"))
        assert s1 <= s3 <= s5 <= s10
        assert len(s1), len(s3) == (1, 3)
        assert (len(s5), len(s10)) == (5, 10)

    def test_validation_sets_disjoint(self, suite_and_dataset):
        suite, _ = suite_and_dataset
        v3 = set(suite.subset("val-3"))
        v5 = set(suite.subset("val-5"))
        s5 = set(suite.subset("size-5"))
        s10 = set(suite.subset("size-10"))
        assert v3 <= v5
        assert not (v5 & s5)
        assert not ((s10 - s5) & v5)

    def test_signal_lands_inside_size5(self, suite_and_dataset):
        suite, _ = suite_and_dataset
        assert {"env01", "env05", "env10"} <= set(suite.subset("size-5"))

    def test_cv_monotone_along_chain(self, suite_and_dataset):
        suite, _ = suite_and_dataset
        chain = [suite.models[k].cv_mse
                 for k in ("size-1", "size-3", "size-5")]
        assert chain[0] >= chain[1] >= chain[2]

    def test_refuses_small_dataset(self):
        ds = make_dataset(m=30, n=6, seed=14)
        with pytest.raises(ValidationError, match="15"):
            nested_pipeline(ds)

    def test_deterministic(self, suite_and_dataset):
        suite, ds = suite_and_dataset
        again = nested_pipeline(ds, folds=10, seed=0)
        assert {k: v.subset for k, v in suite.models.items()} == \
               {k: v.subset for k, v in again.models.items()}
        assert {k: v.cv_mse for k, v in suite.models.items()} == \
               {k: v.cv_mse for k, v in again.models.items()}

    def test_stage_annotation_on_failure(self):
        ds = make_dataset(m=11, n=16, seed=15)  # too few rows for 10-fold CV
        with pytest.raises(EmptySearchError, match=r"\[size-5\]"):
            nested_pipeline(ds, folds=12)

    def test_runs_on_table_with_gaps(self):
        ds = make_dataset(m=45, n=16, seed=26, missing_fraction=0.08)
        suite = nested_pipeline(ds, folds=10, seed=1)
        assert set(suite.models) == {"size-1", "size-3", "size-5",
                                     "size-10", "val-3", "val-5"}
        assert all(s["scored"] > 0 for s in suite.skip_stats.values())

    def test_suite_document(self, suite_and_dataset):
        suite, _ = suite_and_dataset
        doc = suite_to_dict(suite, norms_checksum="sha256:x")
        assert set(doc["models"]) == {"size-1", "size-3", "size-5",
                                      "size-10", "val-3", "val-5"}
        assert doc["seed"] == 0
        assert doc["dataset_hash"]
        for entry in doc["models"].values():
            assert len(entry["model"]["coefficients"]) == len(entry["subset"])


@settings(max_examples=10, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), gaps=st.sampled_from(["iid", "block"]),
       n=st.integers(15, 17))
def test_nesting_invariants(seed, gaps, n):
    ds = make_dataset(m=60, n=n, seed=seed, gaps=gaps,
                      missing_fraction=0.05 if gaps == "iid" else 0.1,
                      signal={0: 0.5, 3: 0.3, 7: 0.2}, noise=0.05)
    suite = nested_pipeline(ds, folds=5, seed=seed % 7)
    subset = {name: set(suite.subset(name)) for name in suite.models}
    assert subset["size-1"] <= subset["size-3"] <= subset["size-5"] \
        <= subset["size-10"]
    assert subset["val-3"] <= subset["val-5"]
    assert not subset["val-5"] & subset["size-5"]
    assert not subset["val-5"] & (subset["size-10"] - subset["size-5"])
    assert [len(subset[name]) for name in ("size-1", "size-3", "size-5",
                                           "size-10", "val-3", "val-5")] \
        == [1, 3, 5, 10, 3, 5]

    # Each named model is the best of its own stage's search.
    names = ds.environment_ids

    def outside(*names_in):
        keep = set().union(*names_in)
        return tuple(e for e in names if e not in keep)

    stages = {
        "size-5": (5, (), ()),
        "size-3": (3, (), outside(subset["size-5"])),
        "size-1": (1, (), outside(subset["size-3"])),
        "val-3": (3, (), tuple(subset["size-5"])),
        "val-5": (5, suite.subset("val-3"), tuple(subset["size-5"])),
        "size-10": (10, suite.subset("size-5"), tuple(subset["val-5"])),
    }
    for name, (size, must, exclude) in stages.items():
        config = SearchConfig(subset_size=size, must_include=must,
                              exclude=exclude, folds=5, seed=seed % 7,
                              top_k=1)
        best = enumerate_and_score(ds, config).best
        assert set(best.subset) == subset[name], name
        assert best.cv_mse == suite.models[name].cv_mse, name


class TestPerGameModels:
    def test_identity_rows_for_subset_members(self):
        ds = make_dataset(m=30, n=8, seed=16)
        bank = per_game_models(ds, ("env01", "env03", "env05"))
        model = bank.models["env03"]
        assert list(model.coefficients) == [0.0, 1.0, 0.0]
        assert model.intercept == 0.0
        assert model.stats.r_squared == 1.0

    def test_exact_linear_environment_gets_r2_one(self):
        ds = make_dataset(m=30, n=6, seed=17)
        scores = ds.log_scores.copy()
        scores[:, 5] = 0.25 + 0.5 * scores[:, 0] + 0.5 * scores[:, 1]
        ds = PreparedDataset(ds.algorithm_ids, ds.environment_ids, scores,
                             ds.targets, "median", FilterConfig(1, 1))
        bank = per_game_models(ds, ("env01", "env02"))
        assert bank.models["env06"].stats.r_squared == pytest.approx(
            1.0, abs=1e-12)
        assert bank.models["env06"].intercept == pytest.approx(0.25, abs=1e-9)

    def test_underpopulated_environment_flagged(self):
        ds = make_dataset(m=20, n=6, seed=18)
        scores = ds.log_scores.copy()
        scores[4:, 5] = np.nan  # env06 has 4 usable rows < subset+3
        ds = PreparedDataset(ds.algorithm_ids, ds.environment_ids, scores,
                             ds.targets, "median", FilterConfig(1, 1))
        bank = per_game_models(ds, ("env01", "env02"))
        assert "env06" not in bank.models
        assert "env06" in bank.skipped
        assert bank.n_used["env06"] == 4

    def test_identical_subset_games_skip_every_fitted_game(self):
        ds = make_dataset(m=30, n=6, seed=19)
        scores = ds.log_scores.copy()
        scores[:, 2] = scores[:, 0]  # env03 duplicates env01
        ds = PreparedDataset(ds.algorithm_ids, ds.environment_ids, scores,
                             ds.targets, "median", FilterConfig(1, 1))
        bank = per_game_models(ds, ("env01", "env03"))
        fitted = ("env02", "env04", "env05", "env06")
        assert bank.skipped == {env: "singular design (env03)"
                                for env in fitted}
        assert set(bank.models) == {"env01", "env03"}
        assert list(bank.models["env03"].coefficients) == [0.0, 1.0]
        assert bank.models["env03"].intercept == 0.0


class TestVarianceExplained:
    def test_identity_bank_explains_everything(self):
        ds = make_dataset(m=25, n=3, seed=19)
        bank = per_game_models(ds, ("env01", "env02", "env03"))
        assert variance_explained(bank, ds) == pytest.approx(1.0, abs=1e-12)

    def test_partial_bank_between_zero_and_one(self):
        ds = make_dataset(m=50, n=10, seed=20,
                          signal={0: 0.6, 3: 0.4}, noise=0.05)
        bank = per_game_models(ds, ("env01", "env04"))
        value = variance_explained(bank, ds)
        assert 0.0 < value <= 1.0

    def test_requires_full_coverage(self):
        ds = make_dataset(m=25, n=4, seed=21)
        bank = per_game_models(ds, ("env01",))
        smaller = bank_from_dict(bank_to_dict(bank))
        trimmed = {k: v for k, v in smaller.models.items() if k != "env04"}
        from benchsel.search import ModelBank

        broken = ModelBank(subset=smaller.subset, models=trimmed,
                           skipped=smaller.skipped, n_used=smaller.n_used)
        with pytest.raises(ValidationError):
            variance_explained(broken, ds)


class TestBankSerialization:
    def test_round_trip(self):
        ds = make_dataset(m=25, n=5, seed=22)
        bank = per_game_models(ds, ("env01", "env02"))
        doc = bank_to_dict(bank, name="demo", norms_checksum="sha256:y")
        back = bank_from_dict(doc)
        assert back.subset == bank.subset
        assert set(back.models) == set(bank.models)
        for env in bank.models:
            assert np.array_equal(back.models[env].coefficients,
                                  bank.models[env].coefficients)
