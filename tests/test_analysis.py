import numpy as np
import pytest

from benchsel.analysis import (
    CorrelatedPair,
    _t_two_sided,
    correlated_pairs,
    export_dot,
    fairness_report,
    load_categories,
    pearson_matrix,
    rank_single_games,
)
from benchsel.data import FilterConfig, PreparedDataset
from benchsel.errors import DegenerateDataError, ValidationError
from benchsel.predict import make_report
from conftest import make_dataset


def _with_scores(ds, scores):
    return PreparedDataset(ds.algorithm_ids, ds.environment_ids,
                           scores, ds.targets, ds.target_stat,
                           ds.filter_config)


class TestRankSingleGames:
    def test_perfect_predictor_ranks_last(self):
        ds = make_dataset(m=30, n=5, seed=50)
        scores = ds.log_scores.copy()
        scores[:, 3] = ds.targets  # env04 equals the target exactly
        ds = _with_scores(ds, scores)
        ranking = rank_single_games(ds)
        best = ranking.ranked[-1]
        assert best.environment == "env04"
        assert best.r_squared == pytest.approx(1.0, abs=1e-12)
        assert best.slope == pytest.approx(1.0, abs=1e-9)
        assert best.intercept == pytest.approx(0.0, abs=1e-9)

    def test_sorted_ascending(self):
        ds = make_dataset(m=40, n=8, seed=51, signal={1: 1.0}, noise=0.3)
        ranking = rank_single_games(ds)
        values = [f.r_squared for f in ranking.ranked]
        assert values == sorted(values)
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_underpopulated_environment_flagged(self):
        ds = make_dataset(m=20, n=4, seed=52)
        scores = ds.log_scores.copy()
        scores[2:, 3] = np.nan
        ranking = rank_single_games(_with_scores(ds, scores))
        assert "env04" in ranking.flagged
        assert all(f.environment != "env04" for f in ranking.ranked)


class TestPearsonMatrix:
    def test_diagonal_is_one(self):
        ds = make_dataset(m=25, n=6, seed=53)
        graph = pearson_matrix(ds)
        assert np.allclose(np.diag(graph.pcc), 1.0)

    def test_exact_negation_gives_minus_one(self):
        ds = make_dataset(m=25, n=4, seed=54)
        scores = ds.log_scores.copy()
        scores[:, 1] = scores[:, 0].max() - scores[:, 0]  # affine negation
        graph = pearson_matrix(_with_scores(ds, scores))
        assert graph.lookup("env01", "env02") == pytest.approx(-1.0, abs=1e-12)

    def test_pairwise_complete_counts(self):
        ds = make_dataset(m=20, n=3, seed=55)
        scores = ds.log_scores.copy()
        scores[:5, 0] = np.nan
        scores[15:, 1] = np.nan
        graph = pearson_matrix(_with_scores(ds, scores))
        assert graph.n_pairs[0, 1] == 10
        assert graph.n_pairs[0, 2] == 15

    def test_few_common_rows_undefined(self):
        ds = make_dataset(m=20, n=3, seed=56)
        scores = ds.log_scores.copy()
        scores[2:, 0] = np.nan  # only 2 rows shared with anything
        graph = pearson_matrix(_with_scores(ds, scores))
        assert np.isnan(graph.lookup("env01", "env02"))
        assert graph.lookup("env02", "env03") == graph.lookup("env03", "env02")

    def test_symmetry_exact(self):
        ds = make_dataset(m=35, n=9, seed=57, missing_fraction=0.2)
        graph = pearson_matrix(ds)
        assert np.array_equal(graph.pcc, graph.pcc.T, equal_nan=True)

    def test_affine_invariance(self):
        ds = make_dataset(m=30, n=5, seed=58, missing_fraction=0.1)
        base = pearson_matrix(ds)
        scores = ds.log_scores.copy()
        scores[:, 2] = 3.7 * scores[:, 2] + 11.0
        transformed = pearson_matrix(_with_scores(ds, scores))
        finite = np.isfinite(base.pcc)
        assert np.abs(base.pcc[finite]
                      - transformed.pcc[finite]).max() <= 1e-10


def _gappy_dataset(seed):
    """A random table with 25 % gaps, shuffled names, one constant column,
    a pair of columns sharing 2 rows, and two groups of duplicated columns
    (whose pairs tie at a PCC of exactly 1)."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(20, 60)), 14
    X = rng.uniform(0.0, 3.0, size=(m, n))
    X[:, 1:][rng.random((m, n - 1)) < 0.25] = np.nan  # column 0 is full
    X[:, 1] = np.where(np.isnan(X[:, 1]), np.nan, 1.5)
    X[:, 2:4] = np.nan  # columns 2 and 3 share rows 2 and 3 only
    X[0:4, 2], X[2:6, 3] = rng.uniform(0.0, 3.0, (2, 4))
    for copy, source in ((5, 4), (6, 4), (7, 4), (9, 8), (10, 8)):
        X[:, copy] = np.where(rng.random(m) < 0.2, np.nan, X[:, source])
    names = tuple(f"g{j:02d}" for j in rng.permutation(n))
    return PreparedDataset(tuple(f"a{i}" for i in range(m)), names, X,
                           X[:, 0].copy(), "median", FilterConfig(1, 1))


def _reference_graph(ds):
    """Each cell on its own: a pair's common rows, then means, then
    centered sums, as pearson_matrix's contract states."""
    X, present, n = ds.log_scores, ds.present, ds.n_environments
    pcc = np.full((n, n), np.nan)
    counts = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(a, n):
            both = present[:, a] & present[:, b]
            counts[a, b] = counts[b, a] = both.sum()
            if a == b:
                pcc[a, a] = 1.0 if both.sum() >= 2 else np.nan
                continue
            if both.sum() < 3:
                continue
            dx = X[both, a] - X[both, a].mean()
            dy = X[both, b] - X[both, b].mean()
            denom = np.sqrt(float((dx * dx).sum()) * float((dy * dy).sum()))
            if denom > 0.0:
                r = float((dx * dy).sum()) / denom
                pcc[a, b] = pcc[b, a] = min(1.0, max(-1.0, r))
    return pcc, counts


class TestRewriteAgainstReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_matrix_and_pair_order(self, seed):
        ds = _gappy_dataset(seed)
        graph = pearson_matrix(ds)
        pcc, counts = _reference_graph(ds)
        assert np.array_equal(graph.pcc, pcc, equal_nan=True)
        assert np.array_equal(graph.n_pairs, counts)
        assert graph.n_pairs.dtype == np.int64
        # The generator's cases are there: a constant column, a pair with
        # too few common rows, and ties whose names are not in column order.
        assert np.isnan(np.delete(pcc[1], 1)).all()
        assert counts[2, 3] == 2 and np.isnan(pcc[2, 3])
        expected = []
        for a in range(ds.n_environments):
            for b in range(a + 1, ds.n_environments):
                if np.isfinite(pcc[a, b]):
                    env_a, env_b = sorted((ds.environment_ids[a],
                                           ds.environment_ids[b]))
                    expected.append(CorrelatedPair(
                        env_a, env_b, float(pcc[a, b]), int(counts[a, b]),
                        bool(pcc[a, b] > 0.5)))
        expected.sort(key=lambda p: (-p.pcc, p.env_a, p.env_b))
        position = ds.environment_ids.index
        ties = [p for p in expected if p.pcc == 1.0]
        assert len(ties) >= 4
        assert any(position(p.env_a) > position(p.env_b) for p in ties)
        for top_n in (0, 1, 24, len(expected)):
            assert correlated_pairs(graph, threshold=0.5,
                                    top_n=top_n) == expected[:top_n]


class TestCorrelatedPairs:
    def test_duplicated_column_ranks_first(self):
        ds = make_dataset(m=25, n=5, seed=59)
        scores = ds.log_scores.copy()
        scores[:, 4] = scores[:, 2]
        graph = pearson_matrix(_with_scores(ds, scores))
        pairs = correlated_pairs(graph, threshold=0.9, top_n=10)
        assert {pairs[0].env_a, pairs[0].env_b} == {"env03", "env05"}
        assert pairs[0].pcc == pytest.approx(1.0, abs=1e-12)
        assert pairs[0].highly_correlated

    def test_strict_threshold(self):
        ds = make_dataset(m=25, n=4, seed=60)
        scores = ds.log_scores.copy()
        scores[:, 1] = scores[:, 0]
        graph = pearson_matrix(_with_scores(ds, scores))
        pairs = correlated_pairs(graph, threshold=1.0, top_n=10)
        assert not any(p.highly_correlated for p in pairs)

    def test_truncation_and_order(self):
        ds = make_dataset(m=40, n=10, seed=61)
        graph = pearson_matrix(ds)
        pairs = correlated_pairs(graph, top_n=7)
        assert len(pairs) == 7
        values = [p.pcc for p in pairs]
        assert values == sorted(values, reverse=True)

    def test_threshold_validation(self):
        ds = make_dataset(m=20, n=3, seed=62)
        graph = pearson_matrix(ds)
        with pytest.raises(ValidationError):
            correlated_pairs(graph, threshold=1.5)
        with pytest.raises(ValidationError):
            correlated_pairs(graph, top_n=-1)


class TestFairnessReport:
    def _reports(self, errors_by_group, base=100.0):
        # true summaries ascend so group assignment is transparent
        reports = []
        truth = base
        for errors in errors_by_group:
            for e in errors:
                truth += 10.0
                reports.append(make_report(f"alg{truth:.0f}",
                                           truth * (1.0 + e),
                                           true_summary=truth))
        return reports

    def test_symmetric_errors_have_no_bias(self):
        reports = self._reports([[0.1, -0.1, 0.1, -0.1]] * 3)
        report = fairness_report(reports)
        for group in report.groups.values():
            assert group.mean_rel_error == pytest.approx(0.0, abs=1e-12)

    def test_identical_error_multisets_score_t_zero(self):
        # power-of-two truths make the +-0.25 errors exactly representable,
        # so the group error multisets are bit-identical
        reports = []
        for i, truth in enumerate((128.0, 256.0, 512.0, 1024.0, 2048.0,
                                   4096.0)):
            e = 0.25 if i % 2 == 0 else -0.25
            reports.append(make_report(f"alg{i}", truth * (1.0 + e),
                                       true_summary=truth))
        report = fairness_report(reports)
        for test in report.pairwise.values():
            assert test.t_abs == 0.0
            assert test.p_abs == 1.0
            assert test.t_signed == 0.0
            assert not test.significant_abs
            assert not test.significant_signed

    def test_blatant_bias_detected(self):
        reports = self._reports([
            [0.30, 0.31, 0.29, 0.32, 0.30, 0.31],
            [0.01, -0.01, 0.02, -0.02, 0.01, -0.01],
            [-0.30, -0.31, -0.29, -0.32, -0.30, -0.31],
        ])
        report = fairness_report(reports)
        assert report.any_significant
        assert report.pairwise[("low", "high")].significant_signed

    def test_partition_properties(self):
        reports = self._reports([[0.05, -0.04, 0.03]] * 3 + [[0.02]])
        report = fairness_report(reports)  # 10 algorithms -> sizes 4,3,3
        sizes = [len(g.algorithm_ids) for g in report.groups.values()]
        assert sorted(sizes) == [3, 3, 4]
        assert max(sizes) - min(sizes) <= 1
        seen = [a for g in report.groups.values() for a in g.algorithm_ids]
        assert len(seen) == len(set(seen)) == 10
        # remainder goes to the lower tertile
        assert len(report.groups["low"].algorithm_ids) == 4

    def test_too_few_reports_rejected(self):
        with pytest.raises(DegenerateDataError):
            fairness_report(self._reports([[0.1, -0.1]]))


class TestStudentTail:
    def test_agrees_with_scipy(self):
        from scipy.special import stdtr
        # A seeded grid: df log-uniform on [1, 1e4]; |t| log-uniform or
        # uniform on [1e-6, 40], or within 5 % of where the continued
        # fraction changes sides and its steps nearly cancel, or zero. Last,
        # a sweep across that point at df = 1e4, where the cancellation
        # costs the most.
        rng = np.random.default_rng(0)
        n = 1500
        df = np.exp(rng.uniform(0.0, np.log(1e4), 3 * n + 20))
        df = np.concatenate([df, np.full(400, 1e4)])
        switch = np.sqrt(df * 1.5 / (df / 2 + 1))  # x = (a + 1) / (a + 2.5)
        t = np.concatenate([
            np.exp(rng.uniform(np.log(1e-6), np.log(40.0), n)),
            rng.uniform(1e-6, 40.0, n),
            switch[2 * n:3 * n] * rng.uniform(0.95, 1.05, n),
            np.zeros(20),
            switch[-400:] * np.linspace(0.99, 1.01, 400)])
        ref = 2 * stdtr(df, -t)
        p = np.array([_t_two_sided(float(x), float(d)) for x, d in zip(t, df)])
        assert [_t_two_sided(-float(x), float(d))
                for x, d in zip(t, df)] == p.tolist()
        assert ((p >= 0) & (p <= 1)).all()
        assert (p[t == 0] == 1.0).all()
        kept = ref >= 1e-290
        rel = np.abs(p[kept] - ref[kept]) / ref[kept]
        worst = rel.argmax()
        assert rel[worst] <= 1e-12, (
            f"t={t[kept][worst]!r}, df={df[kept][worst]!r}: "
            f"{p[kept][worst]!r} against {ref[kept][worst]!r}")
        # p is near 0.08 in the sweep, so only the fraction's rounding
        # limits it there.
        assert rel[-400:].max() <= 2e-13


class TestExportDot:
    def test_empty_pairs(self):
        doc = export_dot([])
        assert doc.startswith("graph score_correlations {")
        assert "--" not in doc
        assert doc.rstrip().endswith("}")

    def test_single_bold_edge(self):
        ds = make_dataset(m=25, n=2, seed=63)
        scores = ds.log_scores.copy()
        scores[:, 1] = 0.95 * scores[:, 0] + 0.05 * scores[:, 1]
        graph = pearson_matrix(_with_scores(ds, scores))
        pairs = correlated_pairs(graph, threshold=0.9, top_n=1)
        doc = export_dot(pairs)
        assert f'label="{pairs[0].pcc:.2f}"' in doc
        assert "style=bold" in doc

    def test_edge_and_node_counts(self):
        ds = make_dataset(m=40, n=12, seed=64)
        graph = pearson_matrix(ds)
        pairs = correlated_pairs(graph, top_n=24)
        doc = export_dot(pairs)
        assert doc.count(" -- ") == 24
        expected_nodes = {e for p in pairs for e in (p.env_a, p.env_b)}
        node_lines = [line for line in doc.splitlines()
                      if line.startswith('  "') and "--" not in line]
        assert len(node_lines) == len(expected_nodes)

    def test_byte_identical_output(self):
        ds = make_dataset(m=30, n=8, seed=65)
        graph = pearson_matrix(ds)
        pairs = correlated_pairs(graph, top_n=10)
        categories = {"env01": "maze", "env02": "shooter"}
        assert export_dot(pairs, categories) == export_dot(pairs, categories)

    def test_quotes_are_escaped(self):
        pair = CorrelatedPair('Pong', 'Say "Hi"', 0.95, 10, True)
        lines = export_dot([pair], {'Say "Hi"': 'a "kind"'}).splitlines()
        assert lines[-3:] == [
            '  "Say \\"Hi\\"" [fillcolor="#8dd3c7", tooltip="a \\"kind\\""];',
            '  "Pong" -- "Say \\"Hi\\"" [label="0.95", style=bold, '
            'penwidth=2.0];',
            "}"]
        # With each \" removed, every line's quotes pair up.
        assert all(line.replace('\\"', "").count('"') % 2 == 0
                   for line in lines)

    def test_categories_colored(self):
        ds = make_dataset(m=30, n=4, seed=66)
        graph = pearson_matrix(ds)
        pairs = correlated_pairs(graph, top_n=6)
        doc = export_dot(pairs, {"env01": "maze"})
        assert 'tooltip="maze"' in doc


class TestLoadCategories:
    @pytest.mark.parametrize("text", [
        "environment,category\nPong,sport\nAlien,maze\n",
        "environment,category\n\nPong,sport\nAlien,maze\n\n",
    ], ids=["plain", "blank-lines"])
    def test_round_trip(self, tmp_path, text):
        path = tmp_path / "cats.csv"
        path.write_text(text)
        cats = load_categories(path)
        assert cats == {"Pong": "sport", "Alien": "maze"}
