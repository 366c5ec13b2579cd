"""Small dense least-squares core used by every subset fit.

Designs here are tiny (at most 16 columns, a few hundred rows) but get
solved millions of times during an exhaustive search, so the solver takes
the augmented normal equations [X'X | X't] and eliminates them with a
hand-rolled square-root-free Cholesky (L D L') that is

  * batched: one call solves a whole stack of candidate systems, and
  * pivot-aware: a pivot below 1e-10 of the largest Gram diagonal flags
    that system as rank-deficient instead of raising mid-stack.

The same solver backs the least-squares fit and k-fold cross-validation,
so nothing here needs more than numpy. Cross-validation downdates: with
the target stored as the design's last column, one product over each
fold's held-out rows gives that fold's Gram and right-hand side, and
every training system is the full system minus that. One kernel does
it all: ``_fold_tables`` builds a stack of tables from usable-row masks,
each holding its rows' held-out values and training systems over some
columns, and ``_cv_mse_tabled`` solves all candidates x folds systems in
one batched call. A table serves either one candidate
(``cross_validated_mse``, and a search's candidates with few others on
their usable-row mask) or, written into a slot of a search process's
store, every candidate sharing a mask (a table over every column the
search can fit). Both give bit-identical results. Either way the systems
reach the solver stack last, (C, C + 1, candidates, folds), in an array
of their own that it eliminates in place.

A fitted model is evaluated in one place, ``LinearModel.predict``: fits,
predictions and a bank's explained variance all go through it.

This module alone owns the design and fold layouts. ``_as_design`` checks
every fit before it is solved, and ``_augmented`` lays out [X | 1 | t] for
fits and searches alike. A table's n usable rows are dealt into folds by
``fold_assignment(n, folds, seed)``, so which ranks each fold holds out
depends only on n; ``_fold_layout`` caches that per n, and fold sizes
follow from n in closed form (``_fold_sizes``). Callers pass masks and
never see ranks, held-out slots, padding or fold sizes; a store sizes its
slots by ``_table_shape``.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
# numpy loads its random module lazily; importing it here keeps that out of
# a search's first block, where a Ctrl-C landing in the import is lost.
import numpy.random  # noqa: F401

from .data import EnvironmentIndex
from .errors import EnvironmentLookupError, SingularMatrixError, ValidationError

MAX_COLUMNS = 16
PIVOT_RTOL = 1e-10


@dataclass(frozen=True)
class FitStats:
    """Quality numbers attached to a fitted model (None = not computed)."""

    r_squared: float | None = None
    cv_mse: float | None = None
    log_mae: float | None = None


@dataclass(frozen=True)
class LinearModel:
    """An environment subset with per-environment weights.

    Predictions are ``intercept + coefficients . x`` over log-normalized
    scores; ``intercept`` is None for models fitted without one.
    """

    environment_ids: tuple[str, ...]
    coefficients: np.ndarray
    intercept: float | None = None
    stats: FitStats = field(default_factory=FitStats)
    constrained_nonnegative: bool = False

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=np.float64)
        object.__setattr__(self, "coefficients", coef)
        if coef.shape != (len(self.environment_ids),):
            raise ValidationError("one coefficient per environment required")
        if not np.isfinite(coef).all():
            raise ValidationError("coefficients must be finite")
        if self.constrained_nonnegative and (coef < 0).any():
            raise ValidationError("constrained model has a negative coefficient")
        if self.stats.r_squared is not None and self.stats.r_squared > 1.0:
            raise ValidationError("r_squared cannot exceed 1")
        coef.flags.writeable = False

    @property
    def n_environments(self) -> int:
        return len(self.environment_ids)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Log-score predictions over the last axis of 1-D or 2-D ``x``."""
        return x @ self.coefficients + (self.intercept or 0.0)


def _chol_solve_batched(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a stack of SPD systems G x = b given as augmented [G | b].

    Parameters
    ----------
    A : ndarray, shape (..., C, C + 1)
        Symmetric normal matrices G with the right-hand side b appended as
        column C. Overwritten: every caller hands over a fresh array.

    Returns
    -------
    x : ndarray, shape (..., C)
        Solutions. Systems flagged in ``bad`` get garbage.
    bad : ndarray, shape (...,)
        Index of the first column whose pivot fell at or below
        ``PIVOT_RTOL`` times the largest diagonal of its G, else -1.

    Each step below is one operation over every system, on ``A`` viewed
    stack last as (C, C + 1, ...); the kernel stores its systems that way,
    so the view is contiguous and nothing is copied. Gaussian elimination
    on a symmetric G is the square-root-free Cholesky factorization
    G = L D L', its pivots d_j are the squared diagonal of the Cholesky
    factor, and eliminating column C along with G carries out the forward
    substitution with L. One back substitution finishes the solve.
    """
    C = A.shape[-2]
    W = np.moveaxis(A, (-2, -1), (0, 1))                  # (C, C + 1, ...)
    thresh = PIVOT_RTOL * W[range(C), range(C)].max(axis=0)
    bad = np.full(A.shape[:-2], -1, dtype=np.int64)
    for j in range(C):
        pivot = W[j, j, ...]            # becomes d_j, 1 where flagged
        bad[(pivot <= thresh) & (bad == -1)] = j
        pivot[~(pivot > thresh)] = 1.0
        W[j + 1:, j] /= pivot           # L's column j; no later step reads it
        W[j + 1:, j + 1:] -= W[j + 1:, j, None] * W[j, j + 1:]
    x = np.empty((C,) + A.shape[:-2])
    for j in reversed(range(C)):
        x[j] = (W[j, C] - (W[j, j + 1:C] * x[j + 1:]).sum(axis=0)) / W[j, j]
    return np.moveaxis(x, 0, -1), bad


def _augmented(X, t, with_intercept: bool) -> np.ndarray:
    """[X | 1 | t]: the ones column only if an intercept is fitted."""
    return np.column_stack([X, np.ones((len(X), int(with_intercept))), t])


def _as_design(X, t, with_intercept: bool, environment_ids=None):
    """Check a least-squares problem before it is solved; return its
    ``_augmented`` design and its fitted columns' names (see ``fit_ols``)."""
    X = np.asarray(X, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError("design matrix must be 2-d")
    rows, cols = X.shape
    if cols < 1:
        raise ValidationError("design matrix needs at least one column")
    if t.shape != (rows,):
        raise ValidationError(f"target has {t.shape} entries for {rows} rows")
    if environment_ids is None:
        environment_ids = [f"x{j}" for j in range(cols)]
    names = tuple(map(str, environment_ids))
    if len(names) != cols:
        raise ValidationError(f"{len(names)} environment_ids for {cols} columns")
    if cols > MAX_COLUMNS:
        raise ValidationError(f"at most {MAX_COLUMNS} columns supported, got {cols}")
    if rows <= cols + int(with_intercept):
        raise ValidationError(
            f"need more rows ({rows}) than fitted parameters "
            f"({cols + int(with_intercept)})")
    return _augmented(X, t, with_intercept), names + ("intercept",) * with_intercept


def _r2(predictions: np.ndarray, t: np.ndarray) -> float:
    ss_res = float(((t - predictions) ** 2).sum())
    ss_tot = float(((t - t.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot if ss_tot else 0.0


def fit_ols(X, t, with_intercept: bool = False,
            environment_ids: Sequence[str] | None = None) -> LinearModel:
    """Ordinary least squares via the normal equations.

    ``with_intercept=False`` forces the constant term to 0 (a zero input
    vector then predicts 0). The reported r_squared is in-sample and always
    taken about the mean of ``t``, whatever the intercept mode, so values
    stay comparable across modes. Columns are named by ``environment_ids``
    (x0, x1, ... if None) and "intercept", in the model and in errors.
    """
    A, names = _as_design(X, t, with_intercept, environment_ids)
    n = len(names) - int(with_intercept)
    beta, bad = _chol_solve_batched(np.ascontiguousarray(A[:, :-1]).T @ A)
    if bad != -1:
        raise SingularMatrixError(names[bad])
    model = LinearModel(names[:n], beta[:n],
                        float(beta[-1]) if with_intercept else None)
    predictions = model.predict(A[:, :n])
    return replace(model, stats=FitStats(
        r_squared=_r2(predictions, A[:, -1]),
        log_mae=float(np.abs(A[:, -1] - predictions).mean())))


def _fold_sizes(rows, folds: int) -> np.ndarray:
    """Rows in each fold, shape ``np.shape(rows) + (folds,)``: the first
    ``rows % folds`` folds take one more."""
    base, extra = np.divmod(np.asarray(rows, dtype=np.int64)[..., None], folds)
    return base + (np.arange(folds) < extra)


def fold_assignment(rows: int, folds: int, seed: int) -> np.ndarray:
    """Deterministic fold id per row.

    Rows are shuffled by a PCG64 permutation seeded with ``seed`` and cut
    into ``folds`` contiguous chunks; the first ``rows % folds`` chunks take
    the extra row (``_fold_sizes``). The returned array maps original row
    index -> fold id.
    """
    perm = np.random.default_rng(seed).permutation(rows)
    fold_of_row = np.empty(rows, dtype=np.int64)
    fold_of_row[perm] = np.repeat(np.arange(folds), _fold_sizes(rows, folds))
    return fold_of_row


@functools.cache
def _fold_layout(rows: int, folds: int, seed: int, R: int) -> np.ndarray:
    """Read-only (folds, ceil(R / folds)) array whose row f lists the ranks
    that fold f of ``fold_assignment(rows, folds, seed)`` holds out,
    ascending, then the padding rank R."""
    fold_of_row = fold_assignment(rows, folds, seed)
    layout = np.full((folds, -(-R // folds)), R, dtype=np.int64)
    for f in range(folds):
        members = np.flatnonzero(fold_of_row == f)
        layout[f, :len(members)] = members
    layout.flags.writeable = False
    return layout


def _held_out_rows(usable: np.ndarray, n_rows: np.ndarray, folds: int,
                   seed: int) -> np.ndarray:
    """(M, F, ceil(R / F)) held-out rows of each usable-row mask in
    ``usable`` (M, R) with ``n_rows`` (M,) usable rows, padded with R.

    A mask's i-th usable row has rank i, so its folds are those of
    ``fold_assignment`` over its usable rows alone.
    """
    M, R = usable.shape
    row_of_rank = np.empty((M, R + 1), dtype=np.int64)
    row_of_rank[:, :R] = np.argsort(~usable, axis=1, kind="stable")
    row_of_rank[:, R] = R
    counts, which = np.unique(n_rows, return_inverse=True)
    ranks = np.stack([_fold_layout(int(n), folds, seed, R)
                      for n in counts])[which]            # (M, F, S)
    return np.take_along_axis(
        row_of_rank, ranks.reshape(M, -1), axis=1).reshape(ranks.shape)


def _table_shape(R: int, K: int, folds: int) -> tuple[int, int, int]:
    """Shape of one ``out`` slot of ``_fold_tables`` for R rows, K columns."""
    return -(-R // folds) + K - 1, K, folds


def _fold_tables(Z: np.ndarray, usable: np.ndarray, cols: np.ndarray,
                 folds: int, seed: int, out: np.ndarray | None = None):
    """Held-out values and downdated training systems for ``_cv_mse_tabled``.

    Parameters
    ----------
    Z : ndarray, shape (R, ·)
        Every row and column any table may use, targets included.
    usable : ndarray of bool, shape (M, R)
        Per table, the rows it is built from. Each table deals its own
        usable rows into ``folds`` folds with ``fold_assignment``.
    cols : ndarray, shape (K,) or (M, K)
        The columns of ``Z`` every table, or each table, holds, target
        column last.
    out : ndarray, shape (M,) + ``_table_shape(R, K, folds)``, optional
        Slots of a store to write the tables into instead.

    Returns
    -------
    tables : (held, train), or ``out``
        ``held`` (S, M, K, F): per held-out slot, table and column, each
        fold's held-out value, padded with 0; S = ceil(n / F) for the most
        usable rows n of any table in the call. ``train`` (K - 1, K, M, F):
        the training systems [G | b] of every table and fold, the product
        X'[X | t] over its rows minus the held-out fold's, in a fresh
        array laid out as ``_chol_solve_batched`` takes it. ``out[i]``
        holds the held-out values padded to S = ceil(R / F), then the
        systems, each entry's F folds one contiguous run.
    n_rows : ndarray, shape (M,)
        Usable rows per table.

    One product X'[X | t] over each fold's held-out rows gives that fold's
    Gram and right-hand side together, and every training system is their
    sum over folds minus the fold's own. Held-out slots past a fold's last
    row read an appended all-zero row and contribute exact zeros, so a
    table depends neither on the others in the stack nor, as the tests
    check, on the padded width.
    """
    n_rows = usable.sum(axis=1)
    rows = _held_out_rows(usable, n_rows, folds, seed)
    if out is None:
        rows = rows[..., :-(-n_rows.max() // folds)]
    K = np.shape(cols)[-1]
    # The arrays whose size does not depend on S come first, so a call
    # with narrower folds than an earlier one reuses the memory it freed.
    train = (np.empty((K - 1, K) + rows.shape[:2]) if out is None
             else np.moveaxis(out[:, -(K - 1):], 0, 2))
    G = np.empty(rows.shape[:2] + (K - 1, K))
    cols = np.reshape(cols, (-1, K))                      # (M or 1, K)
    Z = np.take(np.vstack([Z, np.zeros((1, Z.shape[1]))]), cols, axis=1)
    H = np.take(Z.reshape(-1, K), rows * len(cols)        # (M, F, S, K)
                + np.arange(len(cols))[:, None, None], axis=0)
    np.matmul(np.swapaxes(H[..., :-1], -1, -2), H, out=G)  # (M, F, K - 1, K)
    np.subtract(G.sum(axis=1, keepdims=True).transpose(2, 3, 0, 1),
                G.transpose(2, 3, 0, 1), out=train)
    if out is None:
        return (np.transpose(H, (2, 0, 3, 1)), train), n_rows
    out[:, :H.shape[2]] = np.moveaxis(H, 1, -1)
    return out, n_rows


def _cv_mse_tabled(tables, n_rows: np.ndarray, slots=None, cols=None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """k-fold CV of a stack of candidates from ``_fold_tables``.

    ``n_rows`` (N,) holds each candidate's usable rows, which fix its fold
    sizes. Without ``slots``, ``tables`` is as ``_fold_tables`` returns it,
    table i holding exactly candidate i's columns, target last. Otherwise
    ``tables`` is a store ``_fold_tables`` wrote into, and ``slots`` (N,)
    and ``cols`` (N, C + 1) pick each candidate's table and its columns.

    Returns
    -------
    cv : ndarray, shape (N,)
        Mean over folds of held-out squared error / fold size.
    bad : ndarray, shape (N, F)
        Per fold, the first rank-deficient column of its training system,
        else -1 (see ``_chol_solve_batched``).

    Own tables hold their systems as they stand; from a store, every entry
    of [G | b] and every held-out value is one gathered run of F folds.
    Either way all N x F systems are one fresh stack-last array, solved in
    place in one call. Residuals are formed explicitly on held-out rows
    rather than expanded as t'Pt - 2 beta'b + beta'G beta, which cancels
    badly on near-exact fits: one fitted column at a time, over every
    held-out slot, candidate and fold at once, into a C-order (S, N, F)
    array, so slots are summed in order whatever the held-out layout. A
    candidate's result depends neither on the others in the stack nor on
    which kind of table holds it.
    """
    if slots is None:
        held, W = tables                                  # W: (C, C + 1, N, F)
        columns = iter(np.moveaxis(held, 2, 0))           # (C + 1, S, N, F)
    else:
        L, K, F = tables.shape[1:]                        # L = S + K - 1
        runs = tables.reshape(-1, F)      # (slot * L + row) * K + column
        at = slots * (L * K) + cols.T                     # (C + 1, N)
        fit = cols[:, :-1].T[:, None] + (L - K + 1)       # (C, 1, N)
        W = np.take(runs, at + fit * K, axis=0)
        rows = np.arange(L - K + 1)[:, None] * K          # (S, 1)
        columns = (np.take(runs, rows + run, axis=0) for run in at)
    beta, bad = _chol_solve_batched(np.moveaxis(W, (0, 1), (-2, -1)))
    coef = np.moveaxis(beta, -1, 0)                       # (C, N, F)
    residual = np.multiply(next(columns), coef[0], order="C")  # (S, N, F)
    term = np.empty_like(residual)
    for c in coef[1:]:
        residual += np.multiply(next(columns), c, out=term)
    residual -= next(columns)
    fold_sizes = _fold_sizes(n_rows, W.shape[-1])         # (N, F)
    cv = ((residual ** 2).sum(axis=0) / fold_sizes).mean(axis=-1)
    return cv, bad


def cross_validated_mse(X, t, folds: int, seed: int,
                        with_intercept: bool = False,
                        environment_ids: Sequence[str] | None = None) -> float:
    """Mean over folds of held-out mean squared error.

    A pure function of (X, t, folds, seed, with_intercept): the same seed
    gives a bit-identical result. It scores one table with the kernel
    that scores subset searches, so a search reports the same value, to
    the bit, for a candidate with these usable rows. A rank-deficient
    training fold raises SingularMatrixError, naming the first such fold's
    first rank-deficient column as ``fit_ols`` would.
    """
    A, names = _as_design(X, t, with_intercept, environment_ids)
    if folds < 2:
        raise ValidationError("folds must be >= 2")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    if len(A) < folds:
        raise ValidationError(f"need at least {folds} rows for {folds}-fold CV")
    cv, bad = _cv_mse_tabled(*_fold_tables(
        A, np.ones((1, len(A)), dtype=bool), np.arange(A.shape[1]), folds,
        seed))
    bad_folds = np.flatnonzero(bad[0] != -1)
    if len(bad_folds):
        raise SingularMatrixError(names[bad[0, bad_folds[0]]])
    return float(cv[0])


def predict_linear(model: LinearModel, x) -> float:
    """``model.predict`` of one input, in log-score units.

    ``x`` is either a mapping from environment name (matched
    case/punctuation-insensitively) to log score, or a sequence already
    aligned with ``model.environment_ids``; a NaN is a missing score.
    """
    if isinstance(x, Mapping):
        x = EnvironmentIndex(map(str, x)).take(
            [list(x.values())], model.environment_ids)[0]
    vec = np.asarray(x, dtype=np.float64)
    if vec.shape != (model.n_environments,):
        raise ValidationError(
            f"expected {model.n_environments} log scores, got {vec.shape}")
    gap = np.flatnonzero(np.isnan(vec))
    if len(gap):
        env = model.environment_ids[gap[0]]
        raise EnvironmentLookupError(
            env, f"missing log score for environment {env!r}")
    return float(model.predict(vec))
