"""Apply fitted subset models to raw scores and measure their error.

The prediction path is the full chain raw score -> normalized score ->
log score -> linear model -> inverse transform, so callers hand in raw
game scores and read off a summary estimate in normalized-score units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import NormalizationTable, RawScoreTable, inverse_log_transform, \
    log_transform
from .errors import EnvironmentLookupError, UndefinedRelativeError, \
    ValidationError
from .linreg import LinearModel, predict_linear

TRUE_VALUE_FLOOR = 1e-9


@dataclass(frozen=True)
class PredictionReport:
    """One algorithm's predicted (and optionally true) summary score.

    ``relative_error`` is the signed fraction (predicted - true) / true;
    it is present exactly when a usable true summary is. Values are in
    normalized-score units.
    """

    algorithm_id: str
    predicted_summary: float
    true_summary: float | None = None
    relative_error: float | None = None
    inputs_used: dict[str, float] | None = None

    @property
    def abs_relative_error(self) -> float | None:
        if self.relative_error is None:
            return None
        return abs(self.relative_error)


def predict_summary(model: LinearModel, raw_scores, norms: NormalizationTable):
    """Predict summary scores from raw per-environment scores.

    A RawScoreTable gives a list with, per row, the prediction or the
    EnvironmentLookupError naming the first model game the row lacks; a
    mapping from environment name to raw score is a one-row table whose
    prediction is returned or error raised. Names are matched once per
    table. A prediction is >= -1; for a no-intercept model with non-negative
    coefficients it is >= 0, and all-random inputs give exactly 0.
    """
    if not isinstance(raw_scores, RawScoreTable):
        value, = predict_summary(model, RawScoreTable(
            ("",), tuple(map(str, raw_scores)), [list(raw_scores.values())]),
            norms)
        if isinstance(value, EnvironmentLookupError):
            raise value
        return value
    games = model.environment_ids
    x = raw_scores.index.take(raw_scores.scores, games)
    fault = np.full(x.shape, None, dtype=object)  # per cell, its error
    for j, game in enumerate(games):
        try:
            x[:, j] = norms.lookup(game).normalize(x[:, j])
        except EnvironmentLookupError as exc:
            fault[:, j] = exc
        fault[np.isnan(x[:, j]), j] = EnvironmentLookupError(
            game, f"missing raw score for environment {game!r}")
    return [next((e for e in faults if e is not None), None)
            or float(inverse_log_transform(predict_linear(model, logs)))
            for faults, logs in zip(fault, log_transform(x))]


def relative_error(true_value: float, predicted: float) -> float:
    """Signed fraction (predicted - true) / true.

    Positive means over-prediction. The absolute variant is just
    ``abs(...)`` of this; the sign is kept because bias analyses need it.
    """
    if abs(true_value) <= TRUE_VALUE_FLOOR:
        raise UndefinedRelativeError(
            f"relative error undefined for near-zero true value {true_value!r}")
    return (predicted - true_value) / true_value


def approx_relative_error_from_log_mae(mae_log: float,
                                       log_base: float = 10.0) -> float:
    """Expected relative error implied by a mean absolute log residual.

    A residual of d in base-b log space corresponds to a relative error of
    roughly ln(b) * d when residuals are small, so a model's mean absolute
    error in log space converts directly to an expected relative error.
    """
    if mae_log < 0:
        raise ValidationError("mean absolute log error cannot be negative")
    if log_base <= 1:
        raise ValidationError("log base must exceed 1")
    return math.log(log_base) * mae_log


def inversion_count(order_a, order_b) -> int:
    """Number of item pairs ranked in opposite order by the two rankings."""
    order_a = list(order_a)
    order_b = list(order_b)
    if len(set(order_a)) != len(order_a) or len(set(order_b)) != len(order_b):
        raise ValidationError("rankings must not repeat items")
    if set(order_a) != set(order_b):
        raise ValidationError("rankings must cover the same items")
    position_b = {item: i for i, item in enumerate(order_b)}
    sequence = np.array([position_b[item] for item in order_a], dtype=np.int64)
    return sum(int((sequence[i + 1:] < sequence[i]).sum())
               for i in range(len(sequence)))


def make_report(algorithm_id: str, predicted: float,
                true_summary: float | None = None,
                inputs_used: dict[str, float] | None = None
                ) -> PredictionReport:
    """Assemble a report, attaching relative error when it is defined."""
    rel = None
    if true_summary is not None and abs(true_summary) > TRUE_VALUE_FLOOR:
        rel = relative_error(true_summary, predicted)
    return PredictionReport(
        algorithm_id=algorithm_id,
        predicted_summary=predicted,
        true_summary=true_summary,
        relative_error=rel,
        inputs_used=dict(inputs_used) if inputs_used else None,
    )


def rebase_scores(reports, baseline_algorithm: str) -> list[PredictionReport]:
    """Express every summary as a ratio to one baseline algorithm's.

    Both the true and the predicted summaries divide by the baseline's
    respective values, so the baseline itself maps to (1.0, 1.0); relative
    errors are recomputed on the rebased values.
    """
    reports = list(reports)
    baseline = next((r for r in reports
                     if r.algorithm_id == baseline_algorithm), None)
    if baseline is None:
        raise ValidationError(
            f"baseline algorithm {baseline_algorithm!r} not in reports")
    if baseline.true_summary is None:
        raise ValidationError("baseline has no true summary to rebase against")
    if (abs(baseline.true_summary) <= TRUE_VALUE_FLOOR
            or abs(baseline.predicted_summary) <= TRUE_VALUE_FLOOR):
        raise ValidationError("baseline summaries must be nonzero to rebase")
    rebased = []
    for report in reports:
        predicted = report.predicted_summary / baseline.predicted_summary
        true = (None if report.true_summary is None
                else report.true_summary / baseline.true_summary)
        rebased.append(make_report(report.algorithm_id, predicted, true,
                                   report.inputs_used))
    return rebased
