import csv
import io
import math

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
    DuplicateEnvironmentError,
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

    def test_ignored_columns_are_left_unread(self, scores_csv):
        # Requested names are matched before the provenance column is
        # diverted, so ignoring it works; an ignored text column is not
        # parsed as a number.
        path = scores_csv([["a1", 1.0, "paper-x", 42.5, "see notes"]],
                          header=["algorithm", "Pong", "provenance",
                                  "median57", "notes"])
        table, values = load_scores_with_values(
            path, ("median57",), ignore=("Provenance", "notes"))
        assert table.environment_ids == ("Pong",)
        assert table.provenance is None
        assert values == {"median57": {"a1": 42.5}}

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

    def test_two_spellings_of_a_value_column_argument_rejected(
            self, scores_csv):
        path = scores_csv([["a1", 1.0, 42.5]],
                          header=["algorithm", "Pong", "median57"])
        with pytest.raises(DuplicateEnvironmentError, match="Median57"):
            load_scores_with_values(path, ("median57", "Median57"))
        # one spelling twice, as --true-summary and --ignore-columns give it
        _, values = load_scores_with_values(path, ("median57", "median57"))
        assert values == {"median57": {"a1": 42.5}}

    def test_two_header_spellings_of_a_value_column_rejected(
            self, scores_csv):
        path = scores_csv([["a1", 1.0, 42.5, 40.0]],
                          header=["algorithm", "Pong", "median57",
                                  "Median57"])
        with pytest.raises(SchemaError, match=r"scores\.csv: columns "
                           r"'median57' and 'Median57'"):
            load_scores_with_values(path, ("median57",))


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


def reference_load(path, value_columns=()):
    """The cell-by-cell loader the streamed one replaced: read every row,
    then parse and check one cell at a time."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader
                if any(cell.strip() for cell in row)]
    if not rows:
        raise SchemaError(f"{path}: empty file")
    value_keys = {canonical_key(c): c for c in value_columns}
    header = [cell.strip() for cell in rows[0][1]]
    if header[0].casefold() != "algorithm":
        raise SchemaError(f"{path}: first header column must be 'algorithm', "
                          f"got {header[0]!r}")
    prov_col, env_cols, value_cols = None, [], {}
    for j, name in enumerate(header[1:], start=1):
        if name.casefold() == "provenance":
            if prov_col is not None:
                raise SchemaError(f"{path}: multiple provenance columns")
            prov_col = j
        elif canonical_key(name) in value_keys:
            value_cols[value_keys[canonical_key(name)]] = j
        elif not name:
            raise SchemaError(f"{path}: empty environment name in column "
                              f"{j + 1}")
        else:
            env_cols.append((j, name))
    missing = sorted(set(value_keys.values()) - set(value_cols))
    if missing:
        raise SchemaError(f"{path}: no column named {missing[0]!r}")

    def number(line, column, cell):
        try:
            return float(cell)
        except ValueError:
            raise SchemaError(f"{path}: row {line}, column {column!r}: "
                              f"cannot parse {cell!r} as a number") from None

    ids, provenance, values = [], [], {c: {} for c in value_cols}
    scores = np.full((len(rows) - 1, len(env_cols)), np.nan)
    for r, (i, row) in enumerate(rows[1:]):
        if len(row) != len(header):
            raise SchemaError(f"{path}: row {i} has {len(row)} cells, "
                              f"expected {len(header)}")
        name = row[0].strip()
        if not name:
            raise SchemaError(f"{path}: row {i} has an empty algorithm name")
        ids.append(name)
        provenance.append(row[prov_col].strip() or None
                          if prov_col is not None else None)
        for column, j in value_cols.items():
            cell = row[j].strip()
            values[column][name] = number(i, column, cell) if cell else None
        for k, (j, env) in enumerate(env_cols):
            cell = row[j].strip()
            if not cell:
                continue
            value = number(i, env, cell)
            if not np.isfinite(value):
                raise SchemaError(f"{path}: row {i}, column {env!r}: "
                                  f"non-finite score {cell!r}")
            scores[r, k] = value
    try:
        table = RawScoreTable(tuple(ids), tuple(n for _, n in env_cols),
                              scores, tuple(provenance)
                              if prov_col is not None else None)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return table, values


# Valid cells four times over, so that most rows parse.
SCORE_CELLS = 4 * ["", " ", "1.5", " 1.5 ", "1_000", "1e3", "-0", "0",
                   "-2.5e-3", "\t7\t"] + ["1e400", "nan", "NaN", "-inf",
                                            "inf", "x", "1.5.2", "1__0"]
ENV_NAMES = ["Pong", "Q*Bert", "Breakout", "Ms. Pac-Man"]


@st.composite
def score_files(draw):
    """(CSV text, value columns) of a score file that mixes provenance and
    value columns, odd cells, short and long rows and blank names."""
    columns = draw(st.lists(st.sampled_from(ENV_NAMES), unique=True,
                            max_size=4))
    columns += draw(st.sampled_from([[], ["provenance"]]))
    columns += draw(st.sampled_from([[], ["median57"], ["median57"],
                                     ["Median57"]]))
    columns = draw(st.permutations(columns))
    value_columns = draw(st.sampled_from([(), ("median57",)]))
    width = 1 + len(columns)
    lines = [["algorithm", *columns]]
    for r in range(draw(st.integers(0, 6))):
        row = [draw(st.sampled_from(3 * [f"a{r}"] + [f" a{r} ", "a0", ""]))]
        row += draw(st.lists(st.sampled_from(SCORE_CELLS),
                             min_size=width - 1, max_size=width - 1))
        if draw(st.integers(0, 9)) == 0:
            row = row[:-1] if len(row) > 1 and draw(st.booleans()) else [
                *row, "1"]
        lines.append(row)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(lines)
    return out.getvalue(), value_columns


def _outcome(load, path, value_columns):
    """What a loader returns or raises, with every float in exact bits."""
    try:
        table, values = load(path, value_columns)
    except BenchselError as exc:
        return type(exc), str(exc)
    exact = {c: {a: None if v is None else v.hex() for a, v in col.items()}
             for c, col in values.items()}
    return (table.scores.shape, table.scores.tobytes(), table.algorithm_ids,
            table.environment_ids, table.provenance, exact)


@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=score_files())
def test_streamed_loader_matches_cell_by_cell_reference(tmp_path, case):
    text, value_columns = case
    path = tmp_path / "scores.csv"
    path.write_text(text, encoding="utf-8")
    assert (_outcome(load_scores_with_values, path, value_columns)
            == _outcome(reference_load, path, value_columns))


def test_streamed_loader_keeps_exact_values(scores_csv):
    path = scores_csv([["a1", " 1.5 ", "1_000", "1e3", "-0", " ", "2"]],
                      header=["algorithm", "g1", "g2", "g3", "g4", "g5",
                              "median57"])
    table, values = load_scores_with_values(path, ("median57",))
    assert table.scores[0, :4].tolist() == [1.5, 1000.0, 1000.0, 0.0]
    assert math.copysign(1.0, table.scores[0, 3]) == -1.0
    assert math.isnan(table.scores[0, 4])
    assert values == {"median57": {"a1": 2.0}}


@pytest.mark.parametrize("cell", ["nan", "-inf", "1e400"])
def test_literal_non_finite_score_is_not_a_blank(scores_csv, cell):
    path = scores_csv([["a1", "", cell]], header=["algorithm", "g1", "g2"])
    with pytest.raises(SchemaError, match=rf"row 2, column 'g2': "
                       rf"non-finite score '{cell}'"):
        load_scores(path)


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
