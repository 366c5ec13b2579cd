"""Diagnostics on the score table: predictive ranking of single
environments, pairwise correlation structure, and fairness auditing of
subset-score predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import EnvironmentIndex, PreparedDataset, read_csv_rows
from .errors import DegenerateDataError, DuplicateEnvironmentError, \
    SchemaError, ValidationError
from .linreg import fit_ols

MIN_PAIR_COUNT = 3


@dataclass(frozen=True)
class SingleGameFit:
    environment: str
    slope: float
    intercept: float
    r_squared: float
    n_algorithms: int


@dataclass(frozen=True)
class SingleGameRanking:
    """Per-environment two-parameter fits, least predictive first."""

    ranked: tuple[SingleGameFit, ...]
    flagged: dict[str, str]


@dataclass(frozen=True)
class CorrelationGraph:
    """Pairwise Pearson coefficients over log scores.

    Each cell uses the algorithms where both environments have scores
    (pairwise-complete); cells with fewer than MIN_PAIR_COUNT common
    algorithms are NaN. ``n_pairs`` counts the algorithms behind each cell.
    """

    environments: tuple[str, ...]
    pcc: np.ndarray
    n_pairs: np.ndarray
    index: EnvironmentIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "index", EnvironmentIndex(self.environments))
        n = len(self.environments)
        if self.pcc.shape != (n, n) or self.n_pairs.shape != (n, n):
            raise ValidationError("correlation matrices must be n x n")
        finite = np.isfinite(self.pcc)
        if bool((np.abs(self.pcc[finite]) > 1.0 + 1e-12).any()):
            raise ValidationError("PCC entries must lie in [-1, 1]")
        if not np.allclose(self.pcc, self.pcc.T, equal_nan=True, atol=1e-12):
            raise ValidationError("PCC matrix must be symmetric")

    def lookup(self, env_a: str, env_b: str) -> float:
        return float(self.pcc[self.index.position(env_a),
                              self.index.position(env_b)])


@dataclass(frozen=True)
class CorrelatedPair:
    env_a: str
    env_b: str
    pcc: float
    n_pairs: int
    highly_correlated: bool


@dataclass(frozen=True)
class GroupStats:
    algorithm_ids: tuple[str, ...]
    mean_abs_rel_error: float
    mean_rel_error: float


@dataclass(frozen=True)
class PairTest:
    t_abs: float
    p_abs: float
    t_signed: float
    p_signed: float
    significant_abs: bool
    significant_signed: bool


@dataclass(frozen=True)
class FairnessReport:
    """Tertile accuracy/bias comparison of prediction errors."""

    groups: dict[str, GroupStats]
    pairwise: dict[tuple[str, str], PairTest]
    alpha: float

    @property
    def any_significant(self) -> bool:
        return any(t.significant_abs or t.significant_signed
                   for t in self.pairwise.values())


def rank_single_games(dataset: PreparedDataset) -> SingleGameRanking:
    """Fit target ~ one environment's log score (with intercept) per game.

    Fits are in-sample two-parameter models over the algorithms having that
    game; the ranking ascends by r_squared, so the most predictive game
    comes last. Environments with fewer than 3 usable algorithms are
    flagged and left out of the ranking.
    """
    fits = []
    flagged: dict[str, str] = {}
    present = dataset.present
    for j, env in enumerate(dataset.environment_ids):
        rows = np.flatnonzero(present[:, j])
        if len(rows) < 3:
            flagged[env] = f"only {len(rows)} usable algorithms"
            continue
        model = fit_ols(dataset.log_scores[rows, j][:, None],
                        dataset.targets[rows], with_intercept=True,
                        environment_ids=(env,))
        fits.append(SingleGameFit(
            environment=env,
            slope=float(model.coefficients[0]),
            intercept=float(model.intercept),
            r_squared=float(model.stats.r_squared),
            n_algorithms=len(rows)))
    fits.sort(key=lambda f: (f.r_squared, f.environment))
    return SingleGameRanking(ranked=tuple(fits), flagged=flagged)


def pearson_matrix(dataset: PreparedDataset) -> CorrelationGraph:
    """Pairwise-complete Pearson correlations between environments.

    The diagonal is 1 wherever an environment has at least two scores.
    Off-diagonal cells with fewer than 3 common algorithms, or with a
    zero-variance column, are NaN.
    """
    X = dataset.log_scores
    present = dataset.present
    n = dataset.n_environments
    pcc = np.full((n, n), np.nan)
    counts = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        counts[a, a] = int(present[:, a].sum())
        if counts[a, a] >= 2:
            pcc[a, a] = 1.0
        for b in range(a + 1, n):
            both = present[:, a] & present[:, b]
            m = int(both.sum())
            counts[a, b] = counts[b, a] = m
            if m < MIN_PAIR_COUNT:
                continue
            x = X[both, a]
            y = X[both, b]
            dx = x - x.mean()
            dy = y - y.mean()
            denom = math.sqrt(float((dx * dx).sum()) * float((dy * dy).sum()))
            if denom == 0.0:
                continue
            r = float((dx * dy).sum()) / denom
            pcc[a, b] = pcc[b, a] = min(1.0, max(-1.0, r))
    return CorrelationGraph(environments=dataset.environment_ids, pcc=pcc,
                            n_pairs=counts)


def correlated_pairs(graph: CorrelationGraph, threshold: float = 0.9,
                     top_n: int = 24) -> list[CorrelatedPair]:
    """Top environment pairs by PCC, tagged when strictly above threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ValidationError("threshold must lie in [0, 1]")
    if top_n < 0:
        raise ValidationError("top_n must be >= 0")
    pairs = []
    n = len(graph.environments)
    for a in range(n):
        for b in range(a + 1, n):
            r = graph.pcc[a, b]
            if not np.isfinite(r):
                continue
            env_a, env_b = sorted((graph.environments[a],
                                   graph.environments[b]))
            pairs.append(CorrelatedPair(
                env_a=env_a, env_b=env_b, pcc=float(r),
                n_pairs=int(graph.n_pairs[a, b]),
                highly_correlated=bool(r > threshold)))
    pairs.sort(key=lambda p: (-p.pcc, p.env_a, p.env_b))
    return pairs[:top_n]


def _welch_two_sided(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Unequal-variance two-sample t-test (two-sided).

    Degrees of freedom follow Welch-Satterthwaite. Two groups with equal
    means and zero spread compare as (t=0, p=1) rather than 0/0. scipy is
    imported here, not at module level, because loading it costs about a
    second on every command and only the fairness audit needs it.
    """
    from scipy.special import stdtr

    n1, n2 = len(a), len(b)
    m1, m2 = float(a.mean()), float(b.mean())
    v1 = float(a.var(ddof=1))
    v2 = float(b.var(ddof=1))
    se2 = v1 / n1 + v2 / n2
    if se2 == 0.0:
        return (0.0, 1.0) if m1 == m2 else (math.copysign(math.inf, m1 - m2), 0.0)
    t = (m1 - m2) / math.sqrt(se2)
    df = se2 ** 2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    p = 2.0 * float(stdtr(df, -abs(t)))
    return t, p


def fairness_report(reports, alpha: float = 0.05) -> FairnessReport:
    """Split algorithms into performance tertiles and compare their errors.

    Algorithms sort ascending by true summary and split into three groups
    (any remainder goes to the lower tertiles). For each pair of groups a
    Welch two-sided t-test runs on the absolute relative errors (accuracy)
    and on the signed relative errors (bias), significant below ``alpha``,
    which must lie strictly between 0 and 1.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha!r}")
    usable = [r for r in reports
              if r.true_summary is not None and r.relative_error is not None]
    if len(usable) < 6:
        raise DegenerateDataError(
            f"fairness audit needs at least 6 scored algorithms, got "
            f"{len(usable)}")
    usable.sort(key=lambda r: (r.true_summary, r.algorithm_id))
    base, rem = divmod(len(usable), 3)
    sizes = [base + (1 if i < rem else 0) for i in range(3)]
    names = ("low", "mid", "high")
    groups: dict[str, GroupStats] = {}
    errors: dict[str, np.ndarray] = {}
    cursor = 0
    for name, size in zip(names, sizes):
        members = usable[cursor:cursor + size]
        cursor += size
        if len(members) < 2:
            raise DegenerateDataError(f"tertile {name!r} has fewer than 2 members")
        signed = np.array([r.relative_error for r in members])
        errors[name] = signed
        groups[name] = GroupStats(
            algorithm_ids=tuple(r.algorithm_id for r in members),
            mean_abs_rel_error=float(np.abs(signed).mean()),
            mean_rel_error=float(signed.mean()))
    pairwise: dict[tuple[str, str], PairTest] = {}
    for i in range(3):
        for j in range(i + 1, 3):
            a, b = names[i], names[j]
            t_abs, p_abs = _welch_two_sided(np.abs(errors[a]), np.abs(errors[b]))
            t_sgn, p_sgn = _welch_two_sided(errors[a], errors[b])
            pairwise[(a, b)] = PairTest(
                t_abs=t_abs, p_abs=p_abs, t_signed=t_sgn, p_signed=p_sgn,
                significant_abs=bool(p_abs < alpha),
                significant_signed=bool(p_sgn < alpha))
    return FairnessReport(groups=groups, pairwise=pairwise, alpha=alpha)


_PALETTE = ("#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3", "#fdb462",
            "#b3de69", "#fccde5", "#d9d9d9", "#bc80bd", "#ccebc5", "#ffed6f")
_DEFAULT_FILL = "#eeeeee"


def export_dot(pairs, categories: dict[str, str] | None = None) -> str:
    """Render correlated pairs as an undirected DOT graph document.

    Grammar emitted (stable ordering, so output is byte-identical for
    identical input):

        graph score_correlations {
          node [style=filled];
          "<env>" [fillcolor="<hex>"];        one per node, sorted by name
          "<a>" -- "<b>" [label="0.95", ...]; one per pair, input order
        }

    Nodes are the distinct endpoints of ``pairs``, colored by category
    (categories sorted, palette assigned in that order); edges carry the
    PCC to two decimals and are bold iff the pair is highly correlated.
    """
    categories = categories or {}
    index, labels = EnvironmentIndex(categories), list(categories.values())
    nodes = sorted({e for p in pairs for e in (p.env_a, p.env_b)})
    category_of = {n: labels[j] for n in nodes
                   if (j := index.get(n)) is not None}
    used_categories = sorted(set(category_of.values()))
    fill = {c: _PALETTE[i % len(_PALETTE)]
            for i, c in enumerate(used_categories)}
    lines = ["graph score_correlations {",
             "  layout=neato;",
             "  overlap=false;",
             f'  node [style=filled, fillcolor="{_DEFAULT_FILL}"];']
    for node in nodes:
        category = category_of.get(node)
        attrs = [f'fillcolor="{fill[category]}"'] if category in fill else []
        if category:
            attrs.append(f'tooltip="{category}"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{node}"{suffix};')
    for p in pairs:
        attrs = [f'label="{p.pcc:.2f}"']
        if p.highly_correlated:
            attrs.append("style=bold")
            attrs.append("penwidth=2.0")
        lines.append(f'  "{p.env_a}" -- "{p.env_b}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_categories(path) -> dict[str, str]:
    """Read the category sidecar CSV: header ``environment,category``; an
    empty or repeated environment name is a SchemaError naming its line."""
    rows = list(read_csv_rows(path, ("environment", "category")))
    names = [row[0].strip() for _, row in rows]
    if "" in names:
        raise SchemaError(f"{path}: row {rows[names.index('')][0]} has an "
                          "empty environment name")
    try:
        EnvironmentIndex(names)
    except DuplicateEnvironmentError as exc:
        raise SchemaError(f"{path}: row {rows[exc.position][0]}: {exc}"
                          ) from None
    return {name: row[1].strip() for name, (_, row) in zip(names, rows)}
