"""Independent re-derivation of benchsel results from the generated CSVs.

Nothing here imports the program under test. Scores are normalized and
log-transformed straight from the CSV and the normalization table, fits
use ``np.linalg.lstsq``, and the fold split is re-implemented from its
specification (a PCG64 permutation seeded with the CV seed, cut into
contiguous chunks, the first ``rows % folds`` one row larger).
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-9


@dataclass(frozen=True)
class Table:
    algorithms: tuple[str, ...]
    games: tuple[str, ...]
    phi: np.ndarray       # (m, n) log-normalized scores, NaN = missing
    target: np.ndarray    # (m,) phi of each row's median normalized score
    extra: dict           # non-score column -> values, one per algorithm

    @property
    def present(self) -> np.ndarray:
        return ~np.isnan(self.phi)

    def cols(self, names) -> list[int]:
        return [self.games.index(g) for g in names]


def read_norms(path) -> dict[str, tuple[float, float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {r[0].strip(): (float(r[1]), float(r[2])) for r in rows[1:] if r}


def read_table(path, norms_path, extra_columns=()) -> Table:
    norms = read_norms(norms_path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    game_idx = [j for j, h in enumerate(header[1:], 1)
                if h not in extra_columns]
    games = tuple(header[j] for j in game_idx)
    raw = np.array([[float(r[j]) if r[j] else np.nan for j in game_idx]
                    for r in rows[1:]])
    random = np.array([norms[g][0] for g in games])
    human = np.array([norms[g][1] for g in games])
    z = (raw - random) / (human - random) * 100.0
    phi = np.log10(1.0 + np.maximum(0.0, z))
    target = np.log10(1.0 + np.maximum(0.0, np.nanmedian(z, axis=1)))
    extra = {c: np.array([float(r[header.index(c)]) for r in rows[1:]])
             for c in extra_columns}
    return Table(tuple(r[0] for r in rows[1:]), games, phi, target, extra)


def fold_ids(rows: int, folds: int, seed: int) -> np.ndarray:
    order = np.random.default_rng(seed).permutation(rows)
    sizes = [rows // folds + (1 if f < rows % folds else 0)
             for f in range(folds)]
    out = np.empty(rows, dtype=np.int64)
    out[order] = np.repeat(np.arange(folds), sizes)
    return out


def cv_mse(table: Table, cols, folds: int = 10, seed: int = 0) -> float:
    """10-fold CV mean squared error of a no-intercept fit over the rows
    that have every column in ``cols``."""
    usable = table.present[:, cols].all(axis=1)
    A = table.phi[np.ix_(usable, cols)]
    y = table.target[usable]
    fold = fold_ids(len(y), folds, seed)
    total = 0.0
    for f in range(folds):
        train, test = fold != f, fold == f
        beta = np.linalg.lstsq(A[train], y[train], rcond=None)[0]
        total += float(((A[test] @ beta - y[test]) ** 2).mean())
    return total / folds


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


@dataclass(frozen=True)
class Stage:
    """One exhaustive search: every ``size``-subset holding all of ``must``
    and otherwise drawn from ``pool``."""

    name: str
    size: int
    must: tuple[str, ...]
    pool: tuple[str, ...]
    folds: int = 10

    @property
    def min_rows(self) -> int:
        return max(self.size + 2, self.folds)


def enumerate_stage(table: Table, stage: Stage):
    """All candidates of a stage, with the usable rows of each.

    Returns (combos, bits, usable): pool positions (N, k_free); a bitmask
    per candidate with bit i set when row i lacks one of its games; and
    the count of rows that have all of them.
    """
    if len(table.algorithms) > 64:
        raise ValueError("row bitmasks need at most 64 algorithms")
    weights = np.left_shift(np.uint64(1),
                            np.arange(len(table.algorithms), dtype=np.uint64))
    missing = ((~table.present).astype(np.uint64) * weights[:, None]).sum(
        axis=0, dtype=np.uint64)
    must_bits = np.bitwise_or.reduce(missing[table.cols(stage.must)],
                                     initial=np.uint64(0))
    k_free = stage.size - len(stage.must)
    combos = np.array(list(itertools.combinations(range(len(stage.pool)),
                                                  k_free)),
                      dtype=np.int64).reshape(-1, k_free)
    pool_bits = missing[table.cols(stage.pool)]
    bits = np.bitwise_or.reduce(pool_bits[combos], axis=1) | must_bits
    usable = len(table.algorithms) - np.bitwise_count(bits).astype(np.int64)
    return combos, bits, usable


def check_stage(table: Table, stage: Stage, got: dict, rng,
                spot_checks: int = 200) -> tuple[list[str], dict]:
    """Compare one stage of the program's output with an independent
    derivation; returns the disagreements and the stage's counts.

    ``got`` holds the program's ``subset`` and ``cv_mse`` for the winner
    and its skip counts. The winner's cv_mse is recomputed by lstsq, and up
    to ``spot_checks`` other candidates (all of them, for small stages) are
    scored the same way: none may beat the winner. The counts include the
    number of distinct usable-row masks among the stage's candidates.
    """
    combos, bits, usable = enumerate_stage(table, stage)
    skipped = int((usable < stage.min_rows).sum())
    counts = {"candidates": len(combos), "skipped_insufficient_rows": skipped,
              "distinct_masks": len(np.unique(bits))}
    tag = f"[{stage.name}]"
    subset = tuple(got["subset"])
    if (len(subset) != stage.size or not set(stage.must) <= set(subset)
            or not set(subset) <= set(stage.must) | set(stage.pool)):
        return [f"{tag} subset {subset} is not a candidate of this stage"], counts
    expected = {
        "total_candidates": len(combos),
        "skipped_insufficient_rows": skipped,
        "skipped_singular": 0,
        "scored": len(combos) - skipped,
    }
    errors = [f"{tag} {key}={got[key]}, expected {want}"
              for key, want in expected.items() if got[key] != want]
    best = cv_mse(table, table.cols(subset), stage.folds)
    if not close(got["cv_mse"], best):
        errors.append(f"{tag} cv_mse {got['cv_mse']!r} != lstsq {best!r}")
    viable = np.flatnonzero(usable >= stage.min_rows)
    if len(viable) > spot_checks:
        viable = rng.choice(viable, size=spot_checks, replace=False)
    for c in viable:
        names = stage.must + tuple(stage.pool[p] for p in combos[c])
        score = cv_mse(table, table.cols(names), stage.folds)
        if score < best and not close(score, best):
            errors.append(f"{tag} {sorted(names)} scores {score!r}, below "
                          f"the chosen {sorted(subset)} at {best!r}")
            break
    return errors, counts


def inversion_count(order_a, order_b) -> int:
    """Pairs ranked in opposite order, by merge sort in O(n log n)."""
    position = {item: i for i, item in enumerate(order_b)}
    seq = [position[item] for item in order_a]

    def sort(lo, hi):
        if hi - lo < 2:
            return 0
        mid = (lo + hi) // 2
        count = sort(lo, mid) + sort(mid, hi)
        left, right = seq[lo:mid], seq[mid:hi]
        i = j = 0
        for k in range(lo, hi):
            if j == len(right) or (i < len(left) and left[i] <= right[j]):
                seq[k] = left[i]
                i += 1
            else:
                seq[k] = right[j]
                count += len(left) - i
                j += 1
        return count

    return sort(0, len(seq))


def predict_rows(table: Table, model: dict) -> np.ndarray:
    """Summary predictions of a model document for every table row."""
    cols = table.cols(model["environment_ids"])
    coef = np.array(model["coefficients"], dtype=np.float64)
    linear = table.phi[:, cols] @ coef + (model.get("intercept") or 0.0)
    return np.power(10.0, linear) - 1.0


def pearson(table: Table, a: int, b: int) -> float:
    both = table.present[:, a] & table.present[:, b]
    return float(np.corrcoef(table.phi[both, a], table.phi[both, b])[0, 1])


def single_game_r2(table: Table, g: int) -> float:
    rows = table.present[:, g]
    A = np.column_stack([table.phi[rows, g], np.ones(rows.sum())])
    y = table.target[rows]
    beta = np.linalg.lstsq(A, y, rcond=None)[0]
    residual = y - A @ beta
    return 1.0 - float(residual @ residual) / float(((y - y.mean()) ** 2).sum())
