"""Diagnostics on the score table: predictive ranking of single
environments, pairwise correlation structure, and fairness auditing of
subset-score predictions.
"""

from __future__ import annotations

import itertools
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
    zero-variance column, are NaN; the rest are two-pass sums over their pair.
    """
    X = dataset.log_scores
    present = dataset.present
    shown = present.astype(np.float64)
    counts = (shown.T @ shown).astype(np.int64)  # exact below 2**53 rows
    pcc = np.full(counts.shape, np.nan)
    np.fill_diagonal(pcc, np.where(counts.diagonal() >= 2, 1.0, np.nan))
    for a, b in zip(*np.nonzero(np.triu(counts >= MIN_PAIR_COUNT, 1))):
        both = present[:, a] & present[:, b]
        x = X[both, a]
        y = X[both, b]
        dx = x - x.mean()
        dy = y - y.mean()
        denom = math.sqrt(float((dx * dx).sum()) * float((dy * dy).sum()))
        if denom != 0.0:
            r = float((dx * dy).sum()) / denom
            pcc[a, b] = pcc[b, a] = min(1.0, max(-1.0, r))
    return CorrelationGraph(environments=dataset.environment_ids, pcc=pcc,
                            n_pairs=counts)


def check_pair_limits(threshold: float, top_n: int) -> None:
    """Reject a threshold outside [0, 1] or a negative top_n."""
    if not 0.0 <= threshold <= 1.0:
        raise ValidationError("threshold must lie in [0, 1]")
    if top_n < 0:
        raise ValidationError("top_n must be >= 0")


def correlated_pairs(graph: CorrelationGraph, threshold: float = 0.9,
                     top_n: int = 24) -> list[CorrelatedPair]:
    """Top pairs by PCC, ties by name, tagged when strictly above threshold."""
    check_pair_limits(threshold, top_n)
    names = sorted(graph.environments)
    rank = np.array([names.index(e) for e in graph.environments])
    a, b = np.nonzero(np.triu(np.isfinite(graph.pcc), 1))
    first, second = np.minimum(rank[a], rank[b]), np.maximum(rank[a], rank[b])
    r = graph.pcc[a, b]
    n_pairs = graph.n_pairs[a, b]
    return [CorrelatedPair(env_a=names[first[k]], env_b=names[second[k]],
                           pcc=float(r[k]), n_pairs=int(n_pairs[k]),
                           highly_correlated=bool(r[k] > threshold))
            for k in np.lexsort((second, first, -r))[:top_n]]


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """The factor f of I_x(a, b) = x^a y^b f / (a B(a, b)), y = 1 - x: the
    continued fraction 1 / (1 + c1 / (1 + c2 / ...)) of Numerical Recipes
    (6.4.5) by modified Lentz, fast for x < (a + 1) / (a + b + 2). Near that
    bound each 1 + c_j nearly cancels, so every step carries C - 1 and
    D - 1 beside C and D, and for b <= 1 the odd 1 + c_j is a sum of terms
    >= 0 formed from y."""
    d, d1, c, c1, g = 0.0, -1.0, 1.0, 0.0, 1.0
    for j in range(1, 20000):
        m, k = j // 2, a + j - 1
        odd = -(a + m) * (a + b + m)
        coef = (odd if j % 2 else m * (b - m)) * x / (k * (k + 1))
        one = 1.0 + coef
        if j % 2 and b <= 1:  # k (k + 1) + odd, expanded, plus -odd * y
            one = (a * (2 * m + 1 - b) + m * (3 * m + 2 - b)
                   - odd * y) / (k * (k + 1))
        d_next = 1.0 / (one + coef * d1)
        d1, d = -coef * d * d_next, d_next
        c1, c = coef / c, one - coef * c1 / c
        g *= c * d
        if j % 2 and abs(c1 + d1 + c1 * d1) < 1e-16:
            break
    return 1.0 / g


def _t_two_sided(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom:
    I_x(df/2, 1/2) with x = df/(df + t^2), or 1 - I_y(1/2, df/2) with
    y = t^2/(df + t^2) past the fraction's bound. Logs come from log1p,
    and ln(Gamma(a + 1/2)/Gamma(a)) from its asymptotic series above
    a = 40, where an lgamma difference loses digits. The relative error
    against 2 * scipy.special.stdtr(df, -|t|) is below 1e-12 for df in
    [1, 1e4]."""
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    a = 0.5 * df
    if a < 40.0:
        log_ratio = math.lgamma(a + 0.5) - math.lgamma(a)
    else:
        log_ratio = (0.5 * math.log(a) - 1 / (8 * a) + 1 / (192 * a ** 3)
                     - 1 / (640 * a ** 5) + 17 / (14336 * a ** 7))
    front = math.exp(-a * math.log1p(t2 / df) - 0.5 * math.log1p(df / t2)
                     + log_ratio - 0.5 * math.log(math.pi))  # x^a y^b / B
    x, y = df / (df + t2), 1.0 / (1.0 + df / t2)
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_fraction(a, 0.5, x, y) / a
    return 1.0 - 2.0 * front * _beta_fraction(0.5, a, y, x)


def _welch_two_sided(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Unequal-variance two-sample t-test (two-sided). Degrees of freedom
    follow Welch-Satterthwaite; the p-value is ``_t_two_sided``'s tail.
    Two groups with equal means and zero spread compare as (t=0, p=1)
    rather than 0/0."""
    n1, n2 = len(a), len(b)
    m1, m2 = float(a.mean()), float(b.mean())
    v1 = float(a.var(ddof=1))
    v2 = float(b.var(ddof=1))
    se2 = v1 / n1 + v2 / n2
    if se2 == 0.0:
        return (0.0, 1.0) if m1 == m2 else (math.copysign(math.inf, m1 - m2), 0.0)
    t = (m1 - m2) / math.sqrt(se2)
    df = se2 ** 2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    return t, _t_two_sided(t, df)


def check_alpha(alpha: float) -> None:
    """Reject a significance threshold outside (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha!r}")


def fairness_report(reports, alpha: float = 0.05) -> FairnessReport:
    """Split algorithms into performance tertiles and compare their errors.

    Algorithms sort ascending by true summary and split into three groups
    (any remainder goes to the lower tertiles; 6 algorithms leave each at
    least 2). For each pair of groups a Welch two-sided t-test runs on the
    absolute relative errors (accuracy) and on the signed relative errors
    (bias), significant below ``alpha``, which must lie in (0, 1).
    """
    check_alpha(alpha)
    usable = [r for r in reports if r.relative_error is not None]
    if len(usable) < 6:
        raise DegenerateDataError(
            f"fairness audit needs at least 6 scored algorithms, got "
            f"{len(usable)}")
    usable.sort(key=lambda r: (r.true_summary, r.algorithm_id))
    names = ("low", "mid", "high")
    groups: dict[str, GroupStats] = {}
    errors: dict[str, np.ndarray] = {}
    for name, tertile in zip(names, np.array_split(np.arange(len(usable)), 3)):
        members = [usable[i] for i in tertile]
        errors[name] = signed = np.array([r.relative_error for r in members])
        groups[name] = GroupStats(
            algorithm_ids=tuple(r.algorithm_id for r in members),
            mean_abs_rel_error=float(np.abs(signed).mean()),
            mean_rel_error=float(signed.mean()))
    pairwise: dict[tuple[str, str], PairTest] = {}
    for a, b in itertools.combinations(names, 2):
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
    Names and categories are quoted, each ``"`` and ``\\`` escaped by a ``\\``.
    """
    escapes = str.maketrans({'"': '\\"', "\\": "\\\\"})
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
            attrs.append(f'tooltip="{category.translate(escapes)}"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{node.translate(escapes)}"{suffix};')
    for p in pairs:
        bold = ", style=bold, penwidth=2.0" if p.highly_correlated else ""
        a, b = (e.translate(escapes) for e in (p.env_a, p.env_b))
        lines.append(f'  "{a}" -- "{b}" [label="{p.pcc:.2f}"{bold}];')
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
