"""Shipped reference data: the 57-game normalization table, pre-fitted
subset models and per-game model banks, historical subsets, a genre
sidecar, and a small synthetic demo score table.

The reference models were fitted on a 62-algorithm corpus of published
57-game Atari results; they let ``benchsel predict`` work out of the box
without assembling that corpus locally.
"""

from __future__ import annotations

from pathlib import Path

from ..data import load_norms
from ..errors import ValidationError
from ..formats import load_bank, load_model, read_json

_ROOT = Path(__file__).parent

SUBSET_MODEL_NAMES = ("atari1", "atari3", "atari5", "atari10",
                      "atari3val", "atari5val")
BANK_NAMES = ("atari5_bank", "atari10_bank")


def normalization_path() -> Path:
    return _ROOT / "ale_normalization.csv"


def categories_path() -> Path:
    return _ROOT / "ale_categories.csv"


def demo_scores_path() -> Path:
    return _ROOT / "demo_scores.csv"


def subset_model_path(name: str) -> Path:
    if name not in SUBSET_MODEL_NAMES:
        raise ValidationError(
            f"unknown reference model {name!r}; shipped models: "
            f"{', '.join(SUBSET_MODEL_NAMES)}")
    return _ROOT / "models" / f"{name}.json"


def bank_path(name: str) -> Path:
    if name not in BANK_NAMES:
        raise ValidationError(
            f"unknown reference bank {name!r}; shipped banks: "
            f"{', '.join(BANK_NAMES)}")
    return _ROOT / "banks" / f"{name}.json"


def load_normalization():
    return load_norms(normalization_path())


def load_subset_model(name: str):
    """Load a shipped subset model; returns (LinearModel, document)."""
    return load_model(subset_model_path(name))


def load_reference_bank(name: str):
    """Load a shipped per-game model bank; returns (ModelBank, document)."""
    return load_bank(bank_path(name))


def load_reference_subsets() -> dict:
    return read_json(_ROOT / "reference_subsets.json")["subsets"]
