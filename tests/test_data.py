import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchsel.analysis import load_categories
from benchsel.data import (
    NormalizationTable,
    RawScoreTable,
    canonical_key,
    compute_target,
    filter_dataset,
    inverse_log_transform,
    load_norms,
    load_scores,
    load_scores_with_values,
    log_transform,
    normalize,
    prepare_dataset,
    summary_statistic,
)
from benchsel.errors import (
    BenchselError,
    DegenerateDataError,
    EnvironmentLookupError,
    SchemaError,
    ValidationError,
)

BZ = ("Battle Zone", 2360.0, 37187.5)


def test_canonical_key_unifies_spellings():
    assert canonical_key("Q*Bert") == canonical_key("Qbert") == "qbert"
    assert canonical_key("Ms. Pac-Man") == canonical_key("ms pacman")
    assert canonical_key("Up n Down") == "upndown"


class TestLoadScores:
    def test_empty_cell_becomes_missing(self, scores_csv):
        path = scores_csv(
            [["a1", 1.0, 2.0], ["a2", None, 3.0], ["a3", 4.0, 5.0]],
            header=["algorithm", "Pong", "Breakout"])
        table = load_scores(path)
        assert table.present.sum() == 5
        assert np.isnan(table.scores[1, 0])

    def test_duplicate_environment_rejected(self, scores_csv):
        path = scores_csv([["a1", 1.0, 2.0]],
                          header=["algorithm", "Surround", "Surround"])
        with pytest.raises(ValidationError, match="Surround"):
            load_scores(path)

    def test_duplicate_environment_by_canonical_form(self, scores_csv):
        path = scores_csv([["a1", 1.0, 2.0]],
                          header=["algorithm", "Q*Bert", "QBert"])
        with pytest.raises(ValidationError, match="QBert"):
            load_scores(path)

    def test_duplicate_algorithm_rejected(self, scores_csv):
        path = scores_csv([["a1", 1.0], ["a1", 2.0]],
                          header=["algorithm", "Pong"])
        with pytest.raises(ValidationError, match="a1"):
            load_scores(path)

    def test_fixture_sized_table(self, scores_csv):
        # 5 algorithms x 57 environments -> 285 cells, ids in file order
        envs = [f"game{j:02d}" for j in range(57)]
        rows = [[f"a{i}"] + [float(i * 57 + j) for j in range(57)]
                for i in range(5)]
        table = load_scores(scores_csv(rows, header=["algorithm"] + envs))
        assert table.scores.size == 285
        assert table.environment_ids == tuple(envs)
        assert table.algorithm_ids == ("a0", "a1", "a2", "a3", "a4")

    def test_parse_error_carries_location(self, scores_csv):
        path = scores_csv([["a1", "oops"]], header=["algorithm", "Pong"])
        with pytest.raises(SchemaError, match=r"row 2.*Pong"):
            load_scores(path)

    def test_scientific_notation(self, scores_csv):
        path = scores_csv([["a1", "1.5e3"]], header=["algorithm", "Pong"])
        assert load_scores(path).scores[0, 0] == 1500.0

    def test_provenance_column_diverted(self, scores_csv):
        path = scores_csv([["a1", 1.0, "paper-x"]],
                          header=["algorithm", "Pong", "provenance"])
        table = load_scores(path)
        assert table.environment_ids == ("Pong",)
        assert table.provenance == ("paper-x",)

    @pytest.mark.parametrize("raw", [
        b"\xef\xbb\xbfalgorithm,Pong\r\na1,5.0\r\n",
        b"algorithm,Pong\r\n\r\na1,5.0\r\n,\r\n\r\n",
    ], ids=["bom-crlf", "blank-lines"])
    def test_bom_and_crlf_tolerated(self, tmp_path, raw):
        # spreadsheet exports routinely prepend a BOM, use \r\n and leave
        # blank or all-empty rows behind
        path = tmp_path / "bom.csv"
        path.write_bytes(raw)
        table = load_scores(path)
        assert table.environment_ids == ("Pong",)
        assert table.scores[0, 0] == 5.0

    def test_value_columns_diverted(self, scores_csv):
        path = scores_csv([["a1", 1.0, 42.5], ["a2", 2.0, None]],
                          header=["algorithm", "Pong", "median57"])
        table, values = load_scores_with_values(path, ("median57",))
        assert table.environment_ids == ("Pong",)
        assert values["median57"] == {"a1": 42.5, "a2": None}


CSV_TOKENS = ["algorithm", "environment", "random", "human", "category",
              "provenance", "median57", "Pong", "PONG", "Q*Bert", "a1",
              ",", ",", ",", "\n", "\n", "\r\n", '"', " ", "", "1",
              "-2.5", "1e400", "nan", "inf", "0", "x", "\ufeff", "\x00",
              "\xff", "\u00e9"]
CSV_HEADERS = ["", "algorithm,Pong,median57\n", "environment,random,human\n",
               "environment,category\n"]
csv_bytes = st.one_of(
    st.binary(max_size=200),
    st.builds(lambda header, tokens: (header + "".join(tokens)).encode(),
              st.sampled_from(CSV_HEADERS),
              st.lists(st.sampled_from(CSV_TOKENS), max_size=40)),
)


class TestMalformedCsv:
    @pytest.mark.parametrize("raw", [
        b"algorithm,Pong\na1,\xff5.0\n",
        b"algorithm,Pong\na1," + b"9" * 140_000 + b"\n",
    ], ids=["not-utf8", "huge-cell"])
    @pytest.mark.parametrize("loader", [load_scores, load_norms,
                                        load_categories])
    def test_schema_error_names_file(self, tmp_path, raw, loader):
        path = tmp_path / "bad.csv"
        path.write_bytes(raw)
        with pytest.raises(SchemaError, match="bad.csv"):
            loader(path)

    @pytest.mark.parametrize("body, line", [
        ("Pong,sport\n,maze\n", 3),
        ("Q*Bert,maze\nPong,sport\nqbert,maze\n", 4),
        ("Pong,sport\n\nPong,sport\n", 4),
    ], ids=["empty-name", "two-spellings", "repeated"])
    def test_bad_category_names_name_file_and_line(self, tmp_path, body,
                                                   line):
        path = tmp_path / "cats.csv"
        path.write_text("environment,category\n" + body)
        with pytest.raises(SchemaError, match=rf"cats.csv: row {line}\b"):
            load_categories(path)

    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=csv_bytes, value_columns=st.sampled_from([(), ("median57",)]))
    def test_fuzzed_files_raise_only_benchsel_errors(self, tmp_path, raw,
                                                     value_columns):
        path = tmp_path / "fuzz.csv"
        path.write_bytes(raw)
        for load in (lambda p: load_scores_with_values(p, value_columns),
                     load_norms, load_categories):
            try:
                load(path)
            except BenchselError:
                pass


class TestNormalize:
    def _norms(self):
        return NormalizationTable.from_pairs([BZ])

    def _table(self, values):
        return RawScoreTable(
            algorithm_ids=tuple(f"a{i}" for i in range(len(values))),
            environment_ids=("Battle Zone",),
            scores=np.array(values, dtype=float)[:, None])

    def test_random_maps_to_zero(self):
        z = normalize(self._table([2360.0]), self._norms())
        assert z[0, 0] == 0.0

    def test_human_maps_to_hundred(self):
        z = normalize(self._table([37187.5]), self._norms())
        assert z[0, 0] == 100.0

    def test_hand_computed_value(self):
        z = normalize(self._table([18000.0]), self._norms())
        assert z[0, 0] == pytest.approx(44.90704184911349, rel=1e-12)

    def test_missing_entries_stay_missing(self):
        table = RawScoreTable(("a1",), ("Battle Zone",),
                              np.array([[np.nan]]))
        z = normalize(table, self._norms())
        assert np.isnan(z[0, 0])

    def test_unknown_environment_raises(self):
        table = RawScoreTable(("a1",), ("Pong",), np.array([[1.0]]))
        with pytest.raises(EnvironmentLookupError, match="Pong"):
            normalize(table, self._norms())

    def test_case_insensitive_matching(self):
        table = RawScoreTable(("a1",), ("BATTLEZONE",), np.array([[2360.0]]))
        assert normalize(table, self._norms())[0, 0] == 0.0

    def test_superhuman_not_capped(self):
        z = normalize(self._table([100000.0]), self._norms())
        assert z[0, 0] > 100.0


class TestLogTransform:
    def test_zero(self):
        assert log_transform(0.0) == 0.0

    def test_negative_clips(self):
        assert log_transform(-5.0) == 0.0

    def test_ninety_nine(self):
        assert log_transform(99.0) == 2.0

    def test_inverse_values(self):
        assert inverse_log_transform(0.0) == 0.0
        assert inverse_log_transform(2.0) == pytest.approx(99.0, abs=1e-12)
        assert inverse_log_transform(1.9952) == pytest.approx(
            97.90084450210657, rel=1e-12)

    def test_round_trip_non_negative(self):
        x = np.random.default_rng(1).uniform(0, 1e4, size=20000)
        back = inverse_log_transform(log_transform(x))
        assert np.all(np.abs(back - x) <= 1e-12 * (1.0 + x))
        y = np.random.default_rng(2).uniform(0, 4, size=20000)
        forth = log_transform(inverse_log_transform(y))
        assert np.all(np.abs(forth - y) <= 1e-12 * (1.0 + y))

    def test_monotone(self):
        x = np.sort(np.random.default_rng(3).uniform(-10, 1e4, size=5000))
        fx = np.asarray(log_transform(x))
        assert np.all(np.diff(fx) >= 0.0)

    def test_nan_passes_through(self):
        assert np.isnan(log_transform(np.nan))


class TestFilterDataset:
    def _table(self, present):
        present = np.asarray(present, dtype=bool)
        scores = np.where(present, 1.0, np.nan)
        return RawScoreTable(
            algorithm_ids=tuple(f"a{i}" for i in range(present.shape[0])),
            environment_ids=tuple(f"e{j}" for j in range(present.shape[1])),
            scores=scores)

    def test_sparse_algorithm_dropped(self):
        # one algorithm with 39/57 present scores at min_games=40
        present = np.ones((3, 57), dtype=bool)
        present[1, 39:] = False
        out = filter_dataset(self._table(present), 40, 1)
        assert out.algorithm_ids == ("a0", "a2")

    def test_dense_table_is_identity(self):
        table = self._table(np.ones((4, 6), dtype=bool))
        out = filter_dataset(table, 3, 3)
        assert out.algorithm_ids == table.algorithm_ids
        assert out.environment_ids == table.environment_ids

    def test_sparse_environment_dropped(self):
        present = np.ones((5, 5), dtype=bool)
        present[0:3, 2] = False  # env e2 has 2/5 entries
        out = filter_dataset(self._table(present), 1, 3)
        assert out.environment_ids == ("e0", "e1", "e3", "e4")
        assert len(out.algorithm_ids) == 5

    def test_algorithms_then_environments_order(self):
        # the environment count is taken AFTER dropping sparse algorithms
        present = np.ones((4, 3), dtype=bool)
        present[3, :2] = False      # a3 has 1/3 games -> dropped at min 2
        present[:, 2] = [True, True, False, True]
        out = filter_dataset(self._table(present), 2, 3)
        # among retained a0..a2, e2 has 2 present -> dropped at min 3
        assert out.algorithm_ids == ("a0", "a1", "a2")
        assert out.environment_ids == ("e0", "e1")

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        present = rng.random((12, 9)) < 0.7
        present[:, 0] = True
        present[0, :] = True
        once = filter_dataset(self._table(present), 4, 4)
        twice = filter_dataset(once, 4, 4)
        assert once.algorithm_ids == twice.algorithm_ids
        assert once.environment_ids == twice.environment_ids

    def test_empty_result_raises(self):
        present = np.zeros((2, 2), dtype=bool)
        present[0, 0] = True
        with pytest.raises(DegenerateDataError):
            filter_dataset(self._table(present), 2, 2)


class TestComputeTarget:
    def test_median_of_three(self):
        z = np.array([[0.0, 50.0, 100.0]])
        assert compute_target(z, "median")[0] == pytest.approx(
            1.7075701760979363, rel=1e-12)

    def test_even_count_midpoint(self):
        z = np.array([[10.0, 20.0, 30.0, 40.0]])
        assert compute_target(z, "median")[0] == pytest.approx(
            1.414973347970818, rel=1e-12)  # phi(25)

    def test_present_scores_only(self):
        z = np.array([[np.nan, 50.0, np.nan]])
        assert compute_target(z, "median")[0] == pytest.approx(
            1.7075701760979363, rel=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        row = rng.uniform(-10, 500, size=11)
        for stat in ("median", "mean"):
            base = compute_target(row[None, :], stat)[0]
            for _ in range(20):
                shuffled = rng.permutation(row)
                assert compute_target(shuffled[None, :], stat)[0] == base

    def test_mean_stat(self):
        z = np.array([[0.0, 100.0]])
        assert compute_target(z, "mean")[0] == pytest.approx(
            np.log10(51.0), rel=1e-12)


def test_median_matches_nanmedian_exactly():
    # Small integer grids make ties common; row lengths and holes give odd
    # and even present counts alike.
    rng = np.random.default_rng(11)
    for _ in range(300):
        m, n = rng.integers(1, 6), rng.integers(1, 12)
        z = rng.integers(-3, 4, size=(m, n)) * rng.choice([1.0, 0.1, 37.5])
        z = z + rng.normal(size=(m, n)) * rng.integers(0, 2)
        z[rng.random((m, n)) < 0.4] = np.nan
        z[np.arange(m), rng.integers(0, n, size=m)] = rng.normal(size=m)
        assert np.array_equal(summary_statistic(z, "median"),
                              np.nanmedian(z, axis=1))


class TestPrepareDataset:
    def test_full_pipeline_and_canonical_names(self, scores_csv, norms_csv):
        spath = scores_csv(
            [["a1", 2360.0, 100.0], ["a2", 37187.5, 200.0],
             ["a3", 18000.0, None]],
            header=["algorithm", "battlezone", "Pong X"])
        npath = norms_csv([BZ, ("PongX", 0.0, 100.0)])
        raw = load_scores(spath)
        norms = load_norms(npath)
        ds = prepare_dataset(raw, norms, min_games=1, min_algorithms=1)
        # canonical spelling comes from the normalization table
        assert ds.environment_ids == ("Battle Zone", "PongX")
        assert ds.log_scores[0, 0] == 0.0
        assert np.isnan(ds.log_scores[2, 1])
        assert ds.targets.shape == (3,)

    def test_norms_skip_blank_rows_and_keep_line_numbers(self, tmp_path):
        path = tmp_path / "norms.csv"
        path.write_text("environment,random,human\n\nPong,0,100\n\n")
        assert load_norms(path).lookup("pong").human == 100.0
        path.write_text("environment,random,human\n\nPong,0,x\n")
        with pytest.raises(SchemaError, match="row 3"):
            load_norms(path)

    def test_norm_table_requires_distinct_references(self, norms_csv):
        path = norms_csv([("Pong", 5.0, 5.0)])
        with pytest.raises(ValidationError, match="Pong"):
            load_norms(path)
