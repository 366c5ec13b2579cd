"""Seeded generator of paper-shaped score tables for the benchmark.

Every table is a pure function of its seed and arguments: the same seed
writes byte-identical CSV files, and the caller records their checksums.
Game names and the random/human references come from the shipped
normalization table, so the program under test normalizes the generated
raw scores exactly as it would published ones.

Scores are drawn in log-normalized space, phi = log10(1 + Z), from a
family model and then mapped back to raw game scores:

    phi[a, g] = offset[g] + loading[g] * (strength[a] + skill[a, family[g]])
                + noise[a, g]

Games of one family share a skill, so they correlate at about 0.94 (the
paper's clusters of games with PCC > 0.9), while games of different
families correlate at about 0.8.

A few *planted* games sit outside the families. Each algorithm's target,
phi of its median normalized score over the games it has, is split into
random shares p_i >= PLANTED_MIN_SHARE, one per planted game, and planted
game i scores phi_i = target * (1 + PLANTED_GAIN * p_i) plus a little
noise. That puts every planted score above the median, so planting does
not move the median it encodes, and the planted games together predict the
target almost exactly (equal weights 1 / (count + gain)), while any subset
missing one of them misses that game's random share. The planted games are
therefore the best subset of their size by a wide margin, whatever the gaps
in the table.
"""

from __future__ import annotations

import csv
import hashlib
import os

import numpy as np

FAMILIES = 5
PLANTED = 5
STRENGTH_RANGE = (0.3, 3.0)
SKILL_SD = 0.35
OFFSET_SD = 0.25
LOADING_RANGE = (0.85, 1.15)
NOISE_RANGE = (0.1, 0.2)
PLANTED_GAIN = 2.0
PLANTED_MIN_SHARE = 0.1
PLANTED_NOISE = 0.01
PHI_FLOOR = 0.01


def read_norms(path):
    """(name, random, human) triples of the normalization table, in order."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [(r[0].strip(), float(r[1]), float(r[2])) for r in rows[1:] if r]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def family_phi(rng, n_algorithms: int, family: np.ndarray) -> np.ndarray:
    """Draw a (n_algorithms, len(family)) phi matrix from the family model."""
    n_games = len(family)
    strength = rng.uniform(*STRENGTH_RANGE, size=n_algorithms)
    skill = rng.normal(0.0, SKILL_SD, size=(n_algorithms, FAMILIES))
    offset = rng.normal(0.0, OFFSET_SD, size=n_games)
    loading = rng.uniform(*LOADING_RANGE, size=n_games)
    noise_sd = rng.uniform(*NOISE_RANGE, size=n_games)
    noise = rng.normal(0.0, 1.0, size=(n_algorithms, n_games)) * noise_sd
    phi = offset + loading * (strength[:, None] + skill[:, family]) + noise
    return np.maximum(phi, PHI_FLOOR)


def plant(rng, phi: np.ndarray, holes: np.ndarray, planted) -> None:
    """Overwrite the planted columns of ``phi`` in place (see module doc).

    While every planted score is above the median, the median over a row's
    present games is an order statistic of its other present games alone.
    """
    others = np.setdiff1d(np.arange(phi.shape[1]), planted)
    target = np.empty(phi.shape[0])
    for i in range(phi.shape[0]):
        z = np.sort(np.power(10.0, phi[i, others][~holes[i, others]]) - 1.0)
        k = len(z) + len(planted)
        median = z[k // 2] if k % 2 else (z[k // 2 - 1] + z[k // 2]) / 2.0
        target[i] = np.log10(1.0 + max(0.0, median))
    free = 1.0 - PLANTED_MIN_SHARE * len(planted)
    share = PLANTED_MIN_SHARE + free * rng.dirichlet(
        np.ones(len(planted)), size=phi.shape[0])
    noise = rng.normal(0.0, PLANTED_NOISE, size=share.shape)
    phi[:, planted] = target[:, None] * (1.0 + PLANTED_GAIN * share) + noise


def raw_scores(phi: np.ndarray, refs) -> np.ndarray:
    """Invert phi = log10(1 + Z) and Z = 100 (x - random) / (human - random)."""
    random = np.array([r for _, r, _ in refs])
    human = np.array([h for _, _, h in refs])
    z = np.power(10.0, phi) - 1.0
    return random + z / 100.0 * (human - random)


def structured_holes(rng, n_algorithms: int, n_games: int, keep_cols,
                     share: float, max_missing: int, max_missing_per_game: int,
                     groups: int, block: int) -> np.ndarray:
    """Leaderboard-style gaps: whole blocks of games absent for whole groups
    of algorithms, as when a paper reports only the games of an older
    evaluation protocol.

    Algorithms split into ``groups`` groups and the games outside
    ``keep_cols`` into blocks of ``block``; random (group, block) pairs are
    blanked until ``share`` of all cells is missing, never leaving an
    algorithm with more than ``max_missing`` gaps or a game with more than
    ``max_missing_per_game``. The last pair blanks only as many of its
    games as the share still allows.
    """
    holes = np.zeros((n_algorithms, n_games), dtype=bool)
    members = np.array_split(rng.permutation(n_algorithms), groups)
    free = rng.permutation(np.setdiff1d(np.arange(n_games), keep_cols))
    blocks = [free[i:i + block] for i in range(0, len(free), block)]
    pairs = [(g, b) for g in range(groups) for b in range(len(blocks))]
    target = round(share * n_algorithms * n_games)
    for p in rng.permutation(len(pairs)):
        rows, cols = members[pairs[p][0]], blocks[pairs[p][1]]
        if ((holes[:, cols].sum(axis=0) + len(rows) > max_missing_per_game).any()
                or (holes[rows].sum(axis=1) + len(cols) > max_missing).any()):
            continue
        room = round((target - holes.sum()) / len(rows))
        if room <= 0:
            break
        holes[np.ix_(rows, cols[:room])] = True
    return holes


def iid_holes(rng, n_algorithms: int, n_games: int, keep_cols,
              share: float, max_missing: int, max_missing_per_game: int
              ) -> np.ndarray:
    """Independent gaps: ``share`` of all cells, drawn uniformly from the
    cells outside ``keep_cols``; a draw that leaves an algorithm with more
    than ``max_missing`` gaps, or a game with more than
    ``max_missing_per_game``, is drawn again."""
    eligible = np.setdiff1d(np.arange(n_games), keep_cols)
    while True:
        holes = np.zeros((n_algorithms, n_games), dtype=bool)
        cells = rng.choice(n_algorithms * len(eligible),
                           size=round(share * n_algorithms * n_games),
                           replace=False)
        holes[cells // len(eligible), eligible[cells % len(eligible)]] = True
        if (holes.sum(axis=1).max() <= max_missing
                and holes.sum(axis=0).max() <= max_missing_per_game):
            return holes


def write_scores(path, algorithms, games, raw: np.ndarray, holes: np.ndarray,
                 extra=None) -> str:
    """Write a score CSV (empty cell = missing); returns its sha256.

    ``extra`` optionally maps a column name to one value per algorithm,
    appended after the game columns.
    """
    extra = extra or {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["algorithm", *games, *extra])
        for i, name in enumerate(algorithms):
            cells = ["" if holes[i, j] else f"{raw[i, j]:.10g}"
                     for j in range(len(games))]
            writer.writerow([name, *cells,
                             *(f"{v[i]:.10g}" for v in extra.values())])
    return sha256_file(path)


def make_table(path, seed: int, refs, *, n_algorithms: int, missingness: str,
               share: float, min_games: int, min_algorithms: int,
               keep_games=(), prefix: str = "algo",
               truth_column: str | None = None, **hole_args) -> dict:
    """Generate and write one score table; returns its descriptor.

    ``refs`` are the (name, random, human) triples of the games to use;
    games named in ``keep_games`` and the planted games are never missing,
    every algorithm keeps ``min_games`` games and every game
    ``min_algorithms`` algorithms, so benchsel's filters drop nothing.
    With ``truth_column`` the table gains a column holding each algorithm's
    median normalized score over all games, taken before gaps are cut.
    """
    rng = np.random.default_rng(seed)
    games = [name for name, _, _ in refs]
    planted = np.sort(rng.choice(len(games), size=PLANTED, replace=False))
    family = np.arange(len(games)) % FAMILIES
    rng.shuffle(family)
    family[planted] = -1    # in no family; plant() overwrites their scores
    phi = family_phi(rng, n_algorithms, family)
    keep = np.union1d(planted, [games.index(g) for g in keep_games])
    limits = (len(games) - min_games, n_algorithms - min_algorithms)
    if missingness == "structured":
        holes = structured_holes(rng, n_algorithms, len(games), keep, share,
                                 *limits, **hole_args)
    else:
        holes = iid_holes(rng, n_algorithms, len(games), keep, share, *limits)
    plant(rng, phi, holes, planted)
    raw = raw_scores(phi, refs)
    width = len(str(n_algorithms - 1))
    algorithms = [f"{prefix}-{i:0{width}d}" for i in range(n_algorithms)]
    extra = {}
    if truth_column:
        extra[truth_column] = np.median(np.power(10.0, phi) - 1.0, axis=1)
    digest = write_scores(path, algorithms, games, raw, holes, extra)
    return {
        "file": os.path.basename(path),
        "sha256": digest,
        "algorithms": n_algorithms,
        "games": len(games),
        "missingness": missingness,
        "missing_share": float(holes.mean()),
        "min_games_per_algorithm": int((~holes).sum(axis=1).min()),
        "min_algorithms_per_game": int((~holes).sum(axis=0).min()),
        "planted": [games[j] for j in planted],
        "families": [[games[j] for j in np.flatnonzero(family == f)]
                     for f in range(FAMILIES)],
    }
