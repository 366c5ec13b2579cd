"""Score-table ingestion, normalization, and the log-score transform.

Raw benchmark results enter as an algorithms x environments CSV with
optional gaps. This module turns them into the log-normalized matrix and
per-algorithm target vector that every downstream fit consumes:

    raw score -> Z = 100 * (x - random) / (human - random)
              -> phi(Z) = log10(1 + max(0, Z))

Missing entries stay missing throughout; nothing is imputed.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .errors import (
    DegenerateDataError,
    DuplicateEnvironmentError,
    EnvironmentLookupError,
    SchemaError,
    ValidationError,
)

TARGET_STATS = ("median", "mean")

_CANON_RE = re.compile(r"[^0-9a-z]+")
_BLANK = math.nan  # the score of a blank cell


def canonical_key(name: str) -> str:
    """Lower-case an environment name and drop spaces, asterisks and punctuation.

    "Q*Bert", "QBert" and "q bert" all map to "qbert"; the display spelling
    is taken from whichever table is declared canonical (the normalization
    table, for full pipelines).
    """
    return _CANON_RE.sub("", name.casefold())


class EnvironmentIndex:
    """Positions of a sequence of environment names, matched by
    :func:`canonical_key`, the one rule for when two spellings name one
    game; two names of one game raise DuplicateEnvironmentError."""

    def __init__(self, names):
        self.names = tuple(names)
        self._positions: dict[str, int] = {}
        for j, name in enumerate(self.names):
            first = self._positions.setdefault(canonical_key(name), j)
            if first != j:
                raise DuplicateEnvironmentError(name, self.names[first], j)

    def __contains__(self, name: str) -> bool:
        return canonical_key(name) in self._positions

    def get(self, name: str) -> int | None:
        return self._positions.get(canonical_key(name))

    def position(self, name: str, where: str | None = None) -> int:
        """Position of ``name``, else EnvironmentLookupError (saying it is
        not in ``where``, if given)."""
        j = self.get(name)
        if j is None:
            raise EnvironmentLookupError(
                name, where and f"environment {name!r} not in {where}")
        return j

    def take(self, rows, names) -> np.ndarray:
        """Columns ``names`` of the 2-d ``rows``, NaN for a name this index
        does not hold; in C order, so each row sums as a 1-d input would."""
        padded = np.hstack([np.asarray(rows, dtype=np.float64),
                            np.full((len(rows), 1), np.nan)])
        return padded.take([self._positions.get(canonical_key(n), -1)
                            for n in names], axis=1)


class FilterConfig(NamedTuple):
    min_games: int
    min_algorithms: int


class NormEntry(NamedTuple):
    name: str
    random: float
    human: float

    def normalize(self, x):
        """Z = 100 * (x - random) / (human - random); dividing before
        scaling lands the references exactly on 0 and 100."""
        return (x - self.random) / (self.human - self.random) * 100.0


def _index_axes(table, matrix: np.ndarray, what: str) -> None:
    """Check ``matrix`` against the algorithm and environment ids of a raw
    or prepared table, and give the table its environment index."""
    m, n = len(table.algorithm_ids), len(table.environment_ids)
    if matrix.shape != (m, n):
        raise ValidationError(
            f"{what} matrix is {matrix.shape}, expected ({m}, {n})")
    if len(set(table.algorithm_ids)) != m:
        dupe = next(a for a in table.algorithm_ids
                    if table.algorithm_ids.count(a) > 1)
        raise ValidationError(f"duplicate algorithm {dupe!r}")
    object.__setattr__(table, "index", EnvironmentIndex(table.environment_ids))


@dataclass(frozen=True)
class RawScoreTable:
    """Algorithms x environments matrix of raw game scores.

    ``scores[i, j]`` is the raw score of algorithm i on environment j, with
    NaN marking a missing entry. Present entries are finite reals.
    """

    algorithm_ids: tuple[str, ...]
    environment_ids: tuple[str, ...]
    scores: np.ndarray
    provenance: tuple[str | None, ...] | None = None
    index: EnvironmentIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        object.__setattr__(self, "scores", scores)
        _index_axes(self, scores, "score")
        if np.isinf(scores).any():
            raise ValidationError("score table contains non-finite entries")
        if (self.provenance is not None
                and len(self.provenance) != len(scores)):
            raise ValidationError("provenance must have one entry per algorithm")
        scores.flags.writeable = False

    @property
    def present(self) -> np.ndarray:
        """Boolean mask of available entries."""
        return ~np.isnan(self.scores)

    @property
    def n_algorithms(self) -> int:
        return len(self.algorithm_ids)

    @property
    def n_environments(self) -> int:
        return len(self.environment_ids)


@dataclass(frozen=True)
class NormalizationTable:
    """Per-environment random and human reference scores."""

    entries: tuple[NormEntry, ...]
    index: EnvironmentIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "index",
                           EnvironmentIndex(e.name for e in self.entries))
        for entry in self.entries:
            if entry.human == entry.random:
                raise ValidationError(
                    f"environment {entry.name!r}: human and random scores are "
                    "equal, normalization undefined")

    @classmethod
    def from_pairs(cls, pairs) -> "NormalizationTable":
        """Build from an iterable of (name, random, human) triples."""
        return cls(tuple(NormEntry(name, float(random), float(human))
                         for name, random, human in pairs))

    def lookup(self, environment: str) -> NormEntry:
        return self.entries[self.index.position(environment,
                                                "normalization table")]

    @property
    def environment_ids(self) -> tuple[str, ...]:
        return self.index.names


@dataclass(frozen=True)
class PreparedDataset:
    """Log-normalized score matrix plus per-algorithm targets.

    ``log_scores[i, j]`` is phi(Z) for algorithm i on environment j (NaN if
    missing); ``targets[i]`` is phi of the algorithm's summary statistic
    over its present normalized scores.
    """

    algorithm_ids: tuple[str, ...]
    environment_ids: tuple[str, ...]
    log_scores: np.ndarray
    targets: np.ndarray
    target_stat: str
    filter_config: FilterConfig
    index: EnvironmentIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        log_scores = np.asarray(self.log_scores, dtype=np.float64)
        targets = np.asarray(self.targets, dtype=np.float64)
        object.__setattr__(self, "log_scores", log_scores)
        object.__setattr__(self, "targets", targets)
        _index_axes(self, log_scores, "log-score")
        m, n = log_scores.shape
        if targets.shape != (m,):
            raise ValidationError("targets must have one value per algorithm")
        if not np.isfinite(targets).all():
            raise ValidationError("targets contain non-finite values")
        if self.target_stat not in TARGET_STATS:
            raise ValidationError(f"target_stat must be one of {TARGET_STATS}")
        present = ~np.isnan(log_scores)
        with np.errstate(invalid="ignore"):
            if bool((log_scores[present] < 0).any()):
                raise ValidationError("log scores must be non-negative "
                                      "(clipping happens before the log)")
        min_games, min_algorithms = self.filter_config
        games_per_algo = present.sum(axis=1)
        if m and games_per_algo.min() < min_games:
            worst = self.algorithm_ids[int(games_per_algo.argmin())]
            raise ValidationError(
                f"algorithm {worst!r} has fewer than {min_games} scores")
        algos_per_env = present.sum(axis=0)
        if n and algos_per_env.min() < min_algorithms:
            worst = self.environment_ids[int(algos_per_env.argmin())]
            raise ValidationError(
                f"environment {worst!r} has fewer than {min_algorithms} scores")
        log_scores.flags.writeable = False
        targets.flags.writeable = False

    @property
    def present(self) -> np.ndarray:
        return ~np.isnan(self.log_scores)

    @property
    def n_algorithms(self) -> int:
        return len(self.algorithm_ids)

    @property
    def n_environments(self) -> int:
        return len(self.environment_ids)

    def content_hash(self) -> str:
        """Stable hex digest of ids, matrix and targets, for manifests."""
        import hashlib

        h = hashlib.sha256()
        h.update("\x1f".join(self.algorithm_ids).encode())
        h.update("\x1e".encode())
        h.update("\x1f".join(self.environment_ids).encode())
        h.update(self.log_scores.tobytes())
        h.update(self.targets.tobytes())
        h.update(f"{self.target_stat}:{self.filter_config}".encode())
        return h.hexdigest()


def read_csv_rows(path, header=()) -> Iterator[tuple[int, list[str]]]:
    """Stream (file line number, cells) of every CSV row with a non-blank
    cell.

    Blank rows are skipped; line numbers still point into the file. With a
    ``header``, the first row must start with those names (any case) and is
    not yielded, and every other row must have at least as many cells.
    Undecodable bytes, malformed quoting and an empty file are SchemaErrors,
    raised when the reader reaches them.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = ((reader.line_num, row) for row in reader
                if any(cell.strip() for cell in row))
        try:
            first = next(rows, None)
            if first is None:
                raise SchemaError(f"{path}: empty file")
            if not header:
                yield first
            elif ([cell.strip().casefold() for cell in first[1][:len(header)]]
                  != list(header)):
                raise SchemaError(f"{path}: header must be {','.join(header)}")
            for i, row in rows:
                if len(row) < len(header):
                    raise SchemaError(f"{path}: row {i} has fewer than "
                                      f"{len(header)} cells")
                yield i, row
        except UnicodeDecodeError:
            raise SchemaError(f"{path}: not UTF-8 text") from None
        except csv.Error as exc:
            raise SchemaError(f"{path}: line {reader.line_num}: {exc}") from None


def _parse_number(path, line: int, column: str, cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise SchemaError(f"{path}: row {line}, column {column!r}: "
                          f"cannot parse {cell!r} as a number") from None


def _parse_scores(path, line: int, row: list[str],
                  env_cols: list[tuple[int, str]]) -> list[float]:
    """The row's scores in ``env_cols`` order, NaN for a blank cell; a cell
    that is not a finite number is a SchemaError naming its column."""
    try:
        parsed = [float(row[j]) if row[j] else _BLANK for j, _ in env_cols]
    except ValueError:  # junk, or a whitespace-only blank
        pass
    else:
        # Blank cells are the only non-finite values allowed; count()
        # matches the shared _BLANK by identity, so a "nan" cell is no blank.
        if len(parsed) - sum(map(math.isfinite, parsed)) == parsed.count(
                _BLANK):
            return parsed
    # Cell by cell: a whitespace-only cell is blank, and the first faulty
    # cell is named.
    parsed = []
    for j, env in env_cols:
        cell = row[j].strip()
        if not cell:
            parsed.append(_BLANK)
            continue
        value = _parse_number(path, line, env, cell)
        if not math.isfinite(value):
            raise SchemaError(f"{path}: row {line}, column {env!r}: "
                              f"non-finite score {cell!r}")
        parsed.append(value)
    return parsed


def load_scores(path) -> RawScoreTable:
    """Read a raw score CSV: header ``algorithm,<env_1>,...``, one row per
    algorithm, empty cell = missing score.

    A column named ``provenance`` (any case) is diverted into the
    per-algorithm provenance tag instead of the score matrix.
    """
    table, _ = load_scores_with_values(path)
    return table


def load_scores_with_values(path, value_columns=(), ignore=()
                            ) -> tuple[RawScoreTable, dict[str, dict]]:
    """Like :func:`load_scores`, but diverts the named columns out of the
    score matrix and returns them as ``{column: {algorithm: value|None}}``
    (for score files that carry, say, a true-summary column). Columns named
    in ``ignore`` are left out of both, unread.

    Requested names are matched before the provenance column is diverted,
    so a requested ``provenance`` column is that column. Two spellings of
    one name among them raise DuplicateEnvironmentError. Rows stream from
    the file into one flat array of doubles, so the file is never held in
    memory.
    """
    value_index = EnvironmentIndex(dict.fromkeys((*value_columns, *ignore)))
    rows = read_csv_rows(path)
    header = [cell.strip() for cell in next(rows)[1]]
    if header[0].casefold() != "algorithm":
        raise SchemaError(f"{path}: first header column must be 'algorithm', "
                          f"got {header[0]!r}")
    prov_col = None
    env_cols: list[tuple[int, str]] = []
    value_cols: dict[str, int] = {}
    for j, name in enumerate(header[1:], start=1):
        if (k := value_index.get(name)) is not None:
            column = value_index.names[k]
            if column in value_cols:
                raise SchemaError(
                    f"{path}: columns {header[value_cols[column]]!r} and "
                    f"{name!r} both name value column {column!r}")
            value_cols[column] = j
        elif name.casefold() == "provenance":
            if prov_col is not None:
                raise SchemaError(f"{path}: multiple provenance columns")
            prov_col = j
        elif not name:
            raise SchemaError(f"{path}: empty environment name in column {j + 1}")
        else:
            env_cols.append((j, name))
    missing_values = sorted(set(value_index.names) - set(value_cols))
    if missing_values:
        raise SchemaError(f"{path}: no column named {missing_values[0]!r}")
    value_cols = {c: j for c, j in value_cols.items() if c in value_columns}

    algorithm_ids: list[str] = []
    provenance: list[str | None] = []
    values: dict[str, dict] = {c: {} for c in value_cols}
    scores = array("d")
    for i, row in rows:
        if len(row) != len(header):
            raise SchemaError(f"{path}: row {i} has {len(row)} cells, "
                              f"expected {len(header)}")
        name = row[0].strip()
        if not name:
            raise SchemaError(f"{path}: row {i} has an empty algorithm name")
        algorithm_ids.append(name)
        provenance.append(row[prov_col].strip() or None
                          if prov_col is not None else None)
        for column, j in value_cols.items():
            cell = row[j].strip()
            if not cell:
                values[column][name] = None
                continue
            values[column][name] = _parse_number(path, i, column, cell)
        scores.extend(_parse_scores(path, i, row, env_cols))
    try:
        table = RawScoreTable(
            algorithm_ids=tuple(algorithm_ids),
            environment_ids=tuple(name for _, name in env_cols),
            scores=np.frombuffer(scores, dtype=np.float64).reshape(
                len(algorithm_ids), len(env_cols)),
            provenance=tuple(provenance) if prov_col is not None else None,
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return table, values


def load_norms(path) -> NormalizationTable:
    """Read a normalization CSV: header ``environment,random,human``."""
    pairs = []
    for i, row in read_csv_rows(path, ("environment", "random", "human")):
        name = row[0].strip()
        if not name:
            raise SchemaError(f"{path}: row {i} has an empty environment name")
        try:
            random, human = float(row[1]), float(row[2])
        except ValueError:
            raise SchemaError(f"{path}: row {i}: cannot parse reference "
                              "scores as numbers") from None
        if not (np.isfinite(random) and np.isfinite(human)):
            raise SchemaError(f"{path}: row {i}: non-finite reference score")
        pairs.append((name, random, human))
    try:
        return NormalizationTable.from_pairs(pairs)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def normalize(raw: RawScoreTable, norms: NormalizationTable) -> np.ndarray:
    """Map raw scores to the 0-100 scale: Z = 100 * (x - r) / (h - r).

    The random reference maps to 0 and the human reference to 100 exactly;
    scores above human stay above 100 (never capped). Missing entries stay
    NaN. Raises if an environment has no normalization entry.
    """
    out = np.empty_like(raw.scores)
    for j, env in enumerate(raw.environment_ids):
        out[:, j] = norms.lookup(env).normalize(raw.scores[:, j])
    return out


def log_transform(x):
    """phi(x) = log10(1 + max(0, x)); accepts scalars or arrays.

    Negative inputs (scores slightly worse than the random reference) clip
    to 0, so the result is always >= 0. NaN passes through.
    """
    return np.log10(1.0 + np.maximum(0.0, x))


def inverse_log_transform(y):
    """phi^-1(y) = 10**y - 1; inverse of :func:`log_transform` on x >= 0."""
    return np.power(10.0, y) - 1.0


def filter_dataset(raw: RawScoreTable, min_games: int,
                   min_algorithms: int) -> RawScoreTable:
    """Drop sparse rows then sparse columns, in that order.

    First removes algorithms with fewer than ``min_games`` present scores,
    then removes environments with fewer than ``min_algorithms`` present
    scores among the retained algorithms. The two passes run exactly once
    (not iterated to a fixed point).
    """
    if min_games < 1 or min_algorithms < 1:
        raise ValidationError("filter thresholds must be >= 1")
    present = raw.present
    keep_algos = present.sum(axis=1) >= min_games
    keep_envs = present[keep_algos].sum(axis=0) >= min_algorithms
    if not keep_algos.any() or not keep_envs.any():
        raise DegenerateDataError(
            f"filtering at min_games={min_games}, "
            f"min_algorithms={min_algorithms} leaves an empty table")
    algo_idx = np.flatnonzero(keep_algos)
    env_idx = np.flatnonzero(keep_envs)
    return RawScoreTable(
        algorithm_ids=tuple(raw.algorithm_ids[i] for i in algo_idx),
        environment_ids=tuple(raw.environment_ids[j] for j in env_idx),
        scores=raw.scores[np.ix_(algo_idx, env_idx)],
        provenance=(tuple(raw.provenance[i] for i in algo_idx)
                    if raw.provenance is not None else None),
    )


def summary_statistic(normalized: np.ndarray, stat: str = "median"
                      ) -> np.ndarray:
    """Per-algorithm stat over the row's present normalized scores.

    The statistic is taken over available entries only (nothing imputed);
    an even-count median is the midpoint of the two central values.
    """
    if stat not in TARGET_STATS:
        raise ValidationError(f"target stat must be one of {TARGET_STATS}")
    normalized = np.asarray(normalized, dtype=np.float64)
    counts = (~np.isnan(normalized)).sum(axis=1)
    if normalized.shape[0] and counts.min() < 1:
        raise DegenerateDataError(
            f"algorithm at row {int(counts.argmin())} has no present scores")
    if stat == "mean":
        return np.nanmean(normalized, axis=1)
    # The middle two present values of each sorted row (NaN sorts last),
    # halved as np.nanmedian does; np.nanmedian imports numpy.ma (~20 ms).
    middle = np.stack([(counts - 1) // 2, counts // 2], axis=1)
    low, high = np.take_along_axis(np.sort(normalized, axis=1), middle,
                                   axis=1).T
    return (low + high) / 2.0


def compute_target(normalized: np.ndarray, stat: str = "median") -> np.ndarray:
    """Per-algorithm target: phi of :func:`summary_statistic`, i.e. in
    log-normalized units, phi applied to the summary rather than to the
    individual scores first."""
    return np.asarray(log_transform(summary_statistic(normalized, stat)))


def prepare_dataset(raw: RawScoreTable, norms: NormalizationTable, *,
                    min_games: int = 40, min_algorithms: int = 40,
                    target_stat: str = "median") -> PreparedDataset:
    """Full ingestion pipeline: filter, normalize, log-transform, target.

    Environment ids in the result use the normalization table's spelling
    (the canonical form). Filtering happens on the raw table, before
    normalization, and targets are computed from each retained algorithm's
    present games only.
    """
    filtered = filter_dataset(raw, min_games, min_algorithms)
    normalized = normalize(filtered, norms)
    canonical_ids = tuple(norms.lookup(e).name for e in filtered.environment_ids)
    return PreparedDataset(
        algorithm_ids=filtered.algorithm_ids,
        environment_ids=canonical_ids,
        log_scores=np.asarray(log_transform(normalized)),
        targets=compute_target(normalized, target_stat),
        target_stat=target_stat,
        filter_config=FilterConfig(min_games, min_algorithms),
    )
