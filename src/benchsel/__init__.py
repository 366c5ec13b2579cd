"""benchsel: compress a multi-environment benchmark into a small,
representative subset of its environments.

The toolkit ingests an algorithms x environments score table, normalizes
and log-transforms it, exhaustively searches environment subsets by
cross-validated linear regression against a summary-score target, and
applies the resulting models to predict summary and per-environment
scores for new algorithms.
"""

from .data import (
    EnvironmentIndex,
    FilterConfig,
    NormalizationTable,
    PreparedDataset,
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
)
from .errors import (
    BenchselError,
    DegenerateDataError,
    DuplicateEnvironmentError,
    EmptySearchError,
    EnvironmentLookupError,
    SchemaError,
    SingularMatrixError,
    UndefinedRelativeError,
    ValidationError,
)
from .linreg import (
    FitStats,
    LinearModel,
    cross_validated_mse,
    fit_ols,
    predict_linear,
)
from .formats import (
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from .search import (
    ModelBank,
    RankedCandidate,
    SearchConfig,
    SearchResult,
    SubsetSuite,
    enumerate_and_score,
    nested_pipeline,
    per_game_models,
    variance_explained,
)
from .predict import (
    PredictionReport,
    approx_relative_error_from_log_mae,
    inversion_count,
    make_report,
    predict_summary,
    rebase_scores,
    relative_error,
)
from .analysis import (
    CorrelationGraph,
    FairnessReport,
    correlated_pairs,
    export_dot,
    fairness_report,
    load_categories,
    pearson_matrix,
    rank_single_games,
)

__version__ = "0.1.0"
