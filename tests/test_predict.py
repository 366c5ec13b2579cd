import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchsel.data import (
    NormalizationTable,
    RawScoreTable,
    canonical_key,
    inverse_log_transform,
    log_transform,
)
from benchsel.errors import (
    EnvironmentLookupError,
    UndefinedRelativeError,
    ValidationError,
)
from benchsel.linreg import LinearModel
from benchsel.predict import (
    TRUE_VALUE_FLOOR,
    PredictionReport,
    approx_relative_error_from_log_mae,
    inversion_count,
    make_report,
    predict_summary,
    rebase_scores,
    relative_error,
)

LN10 = math.log(10.0)

# Case-study fixture: published medians and scores for four algorithms
# evaluated in an external paper, plus the published relative errors.
CASE_MEDIANS = {"C51": 109.0, "IQN": 129.0, "C2D": 133.0, "Rainbow": 147.0}
CASE_PUBLISHED_PREDICTIONS = {"C51": 96.0, "IQN": 95.0, "C2D": 111.0,
                              "Rainbow": 118.0}
CASE_PUBLISHED_REL_ERRORS = {"C51": 0.126, "IQN": 0.260, "C2D": 0.170,
                             "Rainbow": 0.198}


class TestPredictSummary:
    def _norms(self):
        return NormalizationTable.from_pairs([
            ("Name This Game", 2292.35, 8049.0),
            ("Battle Zone", 2360.0, 37187.5),
        ])

    def test_random_inputs_predict_zero(self):
        model = LinearModel(("Name This Game", "Battle Zone"),
                            np.array([0.7, 0.3]))
        value = predict_summary(model, {"Name This Game": 2292.35,
                                        "Battle Zone": 2360.0}, self._norms())
        assert value == 0.0

    def test_single_game_reference_model(self):
        # coefficient 0.9976 on a game normalized to 99:
        # 10 ** (0.9976 * 2) - 1
        model = LinearModel(("Name This Game",), np.array([0.9976]))
        raw = 2292.35 + 0.99 * (8049.0 - 2292.35)  # normalizes to 99
        value = predict_summary(model, {"Name This Game": raw}, self._norms())
        assert value == pytest.approx(97.90084450210657, rel=1e-9)

    def test_missing_environment_named(self):
        model = LinearModel(("Name This Game", "Battle Zone"),
                            np.array([0.5, 0.5]))
        with pytest.raises(EnvironmentLookupError, match="Battle Zone"):
            predict_summary(model, {"Name This Game": 5000.0}, self._norms())

    def test_floor_of_minus_one(self):
        # a heavily negative intercept cannot push the estimate below -1
        model = LinearModel(("Name This Game",), np.array([0.1]),
                            intercept=-50.0)
        value = predict_summary(model, {"Name This Game": 3000.0},
                                self._norms())
        assert value >= -1.0

    def test_extra_raw_scores_ignored(self):
        model = LinearModel(("Battle Zone",), np.array([1.0]))
        value = predict_summary(
            model, {"Battle Zone": 37187.5, "Unrelated": 1.0}, self._norms())
        assert value == pytest.approx(100.0, rel=1e-12)

    def test_loose_name_matching(self):
        model = LinearModel(("Battle Zone",), np.array([1.0]))
        value = predict_summary(model, {"BATTLE-ZONE": 37187.5}, self._norms())
        assert value == pytest.approx(100.0, rel=1e-12)


def _per_cell_reference(model, table, norms):
    """Each row keyed by name and each model game normalized and
    log-transformed on its own: the arithmetic, error messages and first
    named game the table path must reproduce exactly."""
    out = []
    for row in table.scores:
        present = {canonical_key(e): float(x)
                   for e, x in zip(table.environment_ids, row)
                   if not np.isnan(x)}
        logs = np.empty(model.n_environments)
        try:
            for j, env in enumerate(model.environment_ids):
                if canonical_key(env) not in present:
                    raise EnvironmentLookupError(
                        env, f"missing raw score for environment {env!r}")
                logs[j] = log_transform(
                    norms.lookup(env).normalize(present[canonical_key(env)]))
        except EnvironmentLookupError as exc:
            out.append(str(exc))
            continue
        out.append(float(inverse_log_transform(
            (model.intercept or 0.0) + model.coefficients @ logs)))
    return out


@pytest.mark.parametrize("seed", range(40))
def test_table_predictions_match_per_cell_reference(seed):
    # Every fourth table lacks a normalization entry and every fourth model
    # has a game no table holds, so all three row outcomes occur.
    rng = np.random.default_rng(seed)
    norm_names = ["Battle Zone", "Qbert", "Ms Pacman", "Pong", "Alien",
                  "Zaxxon", "Up n Down", "Name This Game", "Phoenix"]
    norms = NormalizationTable.from_pairs(
        (name, r, r + rng.uniform(1.0, 5000.0))
        for name, r in zip(norm_names, rng.uniform(-50.0, 500.0, 9))
        if seed % 4 or name != "Pong")
    spellings = ["battle-zone", "Q*Bert", "Ms. Pac-Man", "PONG", "Alien",
                 "ZAXXON", "Up 'n Down", "name this game", "Phoenix"]
    games = list(rng.choice(spellings, size=rng.integers(1, 10),
                            replace=False))
    if seed % 4 == 1:
        games.insert(rng.integers(0, len(games) + 1), "Unknown Game")
    model = LinearModel(tuple(games), rng.normal(size=len(games)),
                        intercept=float(rng.normal()) if seed % 2 else None)
    columns = tuple(rng.permutation(spellings))
    scores = rng.uniform(-100.0, 50000.0, size=(60, len(columns)))
    scores[rng.random(scores.shape) < 0.03] = np.nan
    table = RawScoreTable(tuple(f"a{i}" for i in range(60)), columns, scores)
    got = [str(r) if isinstance(r, Exception) else r
           for r in predict_summary(model, table, norms)]
    assert got == _per_cell_reference(model, table, norms)


class TestRelativeError:
    def test_case_study_summary(self):
        assert relative_error(2041.0, 2091.0) == pytest.approx(0.0245, abs=5e-4)

    def test_exact_prediction(self):
        assert relative_error(147.0, 147.0) == 0.0

    def test_signed_underprediction(self):
        assert relative_error(147.0, 118.0) == pytest.approx(-0.197, abs=5e-4)

    def test_near_zero_truth_rejected(self):
        with pytest.raises(UndefinedRelativeError):
            relative_error(1e-10, 1.0)


class TestApproxRelativeError:
    def test_reference_value(self):
        assert approx_relative_error_from_log_mae(0.0452) == pytest.approx(
            0.10407684620333087, rel=1e-12)

    def test_zero(self):
        assert approx_relative_error_from_log_mae(0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            approx_relative_error_from_log_mae(-0.1)

    def test_worked_example_shows_approximation_gap(self):
        # y=100, yhat=110, eps=1: the log residual slightly undershoots the
        # exact relative error taken against eps + y.
        delta10 = math.log10(111.0 / 101.0)
        assert delta10 == pytest.approx(0.041001605004014896, rel=1e-12)
        approx = approx_relative_error_from_log_mae(delta10)
        assert approx == pytest.approx(0.09440968447107478, rel=1e-12)
        exact = 10.0 / 101.0
        assert exact == pytest.approx(0.09900990099009901, rel=1e-12)
        assert abs(approx - exact) < 0.005

    def test_approximation_bound_small_residuals(self):
        # natural-log residuals capped at 0.05 keep the gap under 0.006
        rng = np.random.default_rng(40)
        y = rng.uniform(0.0, 1e4, size=20000)
        delta_e = rng.uniform(-0.05, 0.05, size=20000)
        y_hat = (1.0 + y) * np.exp(delta_e) - 1.0
        delta10 = np.log10((1.0 + y_hat) / (1.0 + y))
        approx = LN10 * np.abs(delta10)
        exact = np.abs(y_hat - y) / (1.0 + y)
        assert np.abs(approx - exact).max() <= 0.006


def pairwise_inversions(order_a, order_b):
    """Reference: count the discordant pairs one pair at a time."""
    position_b = {item: i for i, item in enumerate(order_b)}
    sequence = [position_b[item] for item in order_a]
    return sum(1 for i in range(len(sequence))
               for j in range(i + 1, len(sequence))
               if sequence[i] > sequence[j])


class TestInversionCount:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 60])
    def test_matches_pairwise_reference(self, n):
        rng = np.random.default_rng(n)
        items = [f"x{i}" for i in range(n)]
        for _ in range(10):
            a = list(rng.permutation(items))
            b = list(rng.permutation(items))
            assert inversion_count(a, b) == pairwise_inversions(a, b)

    @settings(max_examples=200, deadline=None, database=None)
    @given(orders=st.integers(0, 70).flatmap(lambda n: st.tuples(
        st.permutations(range(n)), st.permutations(range(n)))))
    def test_merge_count_matches_pairwise_reference(self, orders):
        assert inversion_count(*orders) == pairwise_inversions(*orders)

    def test_identical_orderings(self):
        order = ["a", "b", "c", "d"]
        assert inversion_count(order, list(order)) == 0

    def test_case_study_single_inversion(self):
        by_median = sorted(CASE_MEDIANS,
                           key=lambda a: -CASE_MEDIANS[a])
        by_prediction = sorted(CASE_PUBLISHED_PREDICTIONS,
                               key=lambda a: -CASE_PUBLISHED_PREDICTIONS[a])
        assert inversion_count(by_median, by_prediction) == 1

    def test_full_reversal(self):
        assert inversion_count(["a", "b", "c", "d"],
                               ["d", "c", "b", "a"]) == 6

    def test_symmetric(self):
        rng = np.random.default_rng(41)
        items = [f"x{i}" for i in range(12)]
        for _ in range(20):
            a = list(rng.permutation(items))
            b = list(rng.permutation(items))
            assert inversion_count(a, b) == inversion_count(b, a)

    def test_mismatched_sets_rejected(self):
        with pytest.raises(ValidationError):
            inversion_count(["a", "b"], ["a", "c"])
        with pytest.raises(ValidationError):
            inversion_count(["a", "a"], ["a", "a"])


class TestRebaseScores:
    def _reports(self):
        return [
            make_report("C2D", 111.0, true_summary=133.0),
            make_report("Rainbow", 118.0, true_summary=147.0),
        ]

    def test_published_ratio_example(self):
        rebased = rebase_scores(self._reports(), "Rainbow")
        c2d = next(r for r in rebased if r.algorithm_id == "C2D")
        assert c2d.true_summary == pytest.approx(0.90, abs=0.01)
        assert c2d.predicted_summary == pytest.approx(0.94, abs=0.01)

    def test_baseline_maps_to_unity(self):
        rebased = rebase_scores(self._reports(), "Rainbow")
        baseline = next(r for r in rebased if r.algorithm_id == "Rainbow")
        assert baseline.true_summary == 1.0
        assert baseline.predicted_summary == 1.0
        assert baseline.relative_error == 0.0

    def test_all_equal_summaries(self):
        reports = [make_report(f"a{i}", 50.0, true_summary=50.0)
                   for i in range(4)]
        rebased = rebase_scores(reports, "a2")
        assert all(r.predicted_summary == 1.0 and r.true_summary == 1.0
                   for r in rebased)

    def test_missing_baseline_rejected(self):
        with pytest.raises(ValidationError, match="nope"):
            rebase_scores(self._reports(), "nope")


class TestMonotonicity:
    def test_linear_layer_weakly_increasing(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            cols = int(rng.integers(1, 9))
            model = LinearModel(
                tuple(f"e{k}" for k in range(cols)),
                np.abs(rng.normal(size=cols)))
            low = rng.uniform(0, 4, size=cols)
            high = low + rng.uniform(0, 2, size=cols) * rng.integers(0, 2, cols)
            from benchsel.linreg import predict_linear

            assert predict_linear(model, high) >= predict_linear(model, low)

    def test_end_to_end_weakly_increasing(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            cols = int(rng.integers(1, 7))
            names = tuple(f"g{k}" for k in range(cols))
            randoms = rng.uniform(-100, 100, size=cols)
            humans = randoms + rng.uniform(1.0, 500.0, size=cols)
            norms = NormalizationTable.from_pairs(
                [(n, r, h) for n, r, h in zip(names, randoms, humans)])
            model = LinearModel(names, np.abs(rng.normal(size=cols)))
            base = {n: float(rng.uniform(r, r + 2 * (h - r)))
                    for n, r, h in zip(names, randoms, humans)}
            bumped = dict(base)
            bump_env = names[int(rng.integers(cols))]
            bumped[bump_env] += float(rng.uniform(0, 100))
            assert predict_summary(model, bumped, norms) >= \
                predict_summary(model, base, norms)


class TestMakeReport:
    def test_relative_error_present_iff_truth(self):
        with_truth = make_report("a", 50.0, true_summary=40.0)
        assert with_truth.relative_error == pytest.approx(0.25)
        assert with_truth.abs_relative_error == pytest.approx(0.25)
        without = make_report("b", 50.0)
        assert without.relative_error is None
        near_zero = make_report("c", 50.0, true_summary=0.0)
        assert near_zero.relative_error is None

    def test_report_derives_its_relative_error_from_its_fields(self):
        # The error is a property of the two summaries, so a report built
        # from its fields alone agrees with make_report's, bit for bit.
        for truth in (40.0, -3.5, 1e-3, 2 * TRUE_VALUE_FLOOR, None, 0.0,
                      TRUE_VALUE_FLOOR, -1e-12):
            report = PredictionReport("a", 50.3, truth)
            made = make_report("a", 50.3, true_summary=truth)
            assert report == made
            if truth is None or abs(truth) <= TRUE_VALUE_FLOOR:
                assert report.relative_error is None
                assert report.abs_relative_error is None
            else:
                assert report.relative_error == made.relative_error == \
                    relative_error(truth, 50.3)
