import numpy as np
import pytest

from benchsel.data import FilterConfig, PreparedDataset
from benchsel.linreg import PIVOT_RTOL, fold_assignment


def silent(done, total):
    """Progress sink for searches under test."""


def make_dataset(m=40, n=16, seed=0, signal=None, noise=0.02,
                 missing_fraction=0.0, gaps="iid"):
    """Synthetic PreparedDataset with a known linear target.

    ``signal`` maps column index -> coefficient; the target is the signal
    combination of those columns plus Gaussian noise. Environment names are
    env01..envNN (1-based, so column j is named env{j+1:02d}).

    ``gaps="iid"`` drops each score with probability ``missing_fraction``.
    ``gaps="block"`` drops whole games, as leaderboards do: columns 1..n-1
    are dealt into four groups, and each of the first three groups is
    missing for the algorithms drawn with that probability, so the columns
    fall into at most four availability classes.
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 3.0, size=(m, n))
    if missing_fraction:
        if gaps == "iid":
            holes = rng.random((m, n)) < missing_fraction
        else:
            holes = np.zeros((m, n), dtype=bool)
            groups = np.array_split(rng.permutation(np.arange(1, n)), 4)
            for games in groups[:3]:
                holes[np.ix_(rng.random(m) < missing_fraction, games)] = True
        # keep every row/column well populated
        holes[:, 0] = False
        holes[0, :] = False
        X = np.where(holes, np.nan, X)
    signal = signal or {0: 1.0}
    t = sum(w * np.nan_to_num(X[:, j], nan=0.0) for j, w in signal.items())
    t = t + rng.normal(0.0, noise, size=m)
    return PreparedDataset(
        algorithm_ids=tuple(f"algo{i:02d}" for i in range(m)),
        environment_ids=tuple(f"env{j + 1:02d}" for j in range(n)),
        log_scores=X,
        targets=t,
        target_stat="median",
        filter_config=FilterConfig(1, 1),
    )


def lstsq_cv_mse(X, t, folds, seed, with_intercept=False):
    """Independent oracle for the CV engine: the same folds, but each
    training fold solved from scratch by ``np.linalg.lstsq``."""
    X = np.asarray(X, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if with_intercept:
        X = np.hstack([X, np.ones((len(t), 1))])
    fold_of_row = fold_assignment(len(t), folds, seed)
    total = 0.0
    for f in range(folds):
        test = fold_of_row == f
        beta = np.linalg.lstsq(X[~test], t[~test], rcond=None)[0]
        total += float(((X[test] @ beta - t[test]) ** 2).mean())
    return total / folds


def cholesky_reference(G, b):
    """Reference solver for stacks of SPD systems G x = b: a left-looking
    Cholesky factorization G = L L', then forward and back substitution.

    G has shape (..., C, C) (only its lower triangle is read), b has shape
    (..., C). Returns (x, bad), where bad is the index of the first column
    whose pivot fell at or below ``PIVOT_RTOL`` times the largest diagonal
    of its G, else -1; x is garbage for flagged systems.
    """
    G = np.asarray(G, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    C = G.shape[-1]
    L = np.zeros_like(G)
    thresh = PIVOT_RTOL * np.einsum("...ii->...i", G).max(axis=-1)
    bad = np.full(G.shape[:-2], -1, dtype=np.int64)
    for j in range(C):
        pivot = G[..., j, j] - np.einsum(
            "...k,...k->...", L[..., j, :j], L[..., j, :j])
        bad = np.where((pivot <= thresh) & (bad == -1), j, bad)
        root = np.sqrt(np.where(pivot > thresh, pivot, 1.0))
        L[..., j, j] = root
        if j + 1 < C:
            s = G[..., j + 1:, j] - np.einsum(
                "...ik,...k->...i", L[..., j + 1:, :j], L[..., j, :j])
            L[..., j + 1:, j] = s / root[..., None]
    y = np.zeros_like(b)
    for j in range(C):
        y[..., j] = (b[..., j] - np.einsum(
            "...k,...k->...", L[..., j, :j], y[..., :j])) / L[..., j, j]
    x = np.zeros_like(b)
    for j in reversed(range(C)):
        x[..., j] = (y[..., j] - np.einsum(
            "...k,...k->...", L[..., j + 1:, j], x[..., j + 1:])) / L[..., j, j]
    return x, bad


@pytest.fixture
def scores_csv(tmp_path):
    """Write a raw score CSV and return its path."""

    def _write(rows, header, name="scores.csv"):
        path = tmp_path / name
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join("" if c is None else str(c) for c in row))
                fh.write("\n")
        return path

    return _write


@pytest.fixture
def norms_csv(tmp_path):
    """Write a normalization CSV and return its path."""

    def _write(entries, name="norms.csv"):
        path = tmp_path / name
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("environment,random,human\n")
            for env, rnd, hum in entries:
                fh.write(f"{env},{rnd},{hum}\n")
        return path

    return _write
