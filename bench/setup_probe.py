"""Set-up probe: what every benchsel command does before its own work.

Usage: python3 bench/setup_probe.py SCORES NORMS MIN_GAMES [IGNORE_COLUMNS]

Imports ``benchsel.cli``, then loads the score and normalization tables
and prepares the dataset, as the search and analyze commands do. The
caller times the whole process from launch to exit.
"""

import sys


def main(scores, norms, min_games, ignore=""):
    import benchsel.cli  # noqa: F401  (the import is part of the set-up)
    from benchsel.data import (load_norms, load_scores_with_values,
                               prepare_dataset)

    columns = tuple(c for c in ignore.split(",") if c)
    table, _ = load_scores_with_values(scores, columns)
    prepare_dataset(table, load_norms(norms), min_games=int(min_games))


if __name__ == "__main__":
    main(*sys.argv[1:])
