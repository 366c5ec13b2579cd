"""Every document benchsel reads or writes, in one place.

JSON documents carry a format tag and are written with two-space indent,
sorted keys and a trailing newline, numbers at full precision. CSV outputs
open with ``#`` comment lines and render floats with ``repr``. Files that
must be byte-reproducible embed the input checksum chain and name the run
manifest, which holds the volatile details (wall time, worker count).
``json_text`` and ``csv_text`` render a file's text; ``write_files`` writes
a run's files, creating every directory before it writes any file.

Readers validate what they load: a file that is not JSON, or a model or
bank document with a missing or mistyped key, raises :class:`SchemaError`
naming the file and the key; another format tag raises ValidationError.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from collections.abc import Mapping
from dataclasses import asdict

import numpy as np

from .errors import SchemaError, ValidationError
from .linreg import FitStats, LinearModel
from .search import ModelBank, SubsetSuite

MODEL_FORMAT = "benchsel-model/1"
BANK_FORMAT = "benchsel-bank/1"
SUITE_FORMAT = "benchsel-suite/1"
PREDICTIONS_FORMAT = "benchsel-predictions/1"
FAIRNESS_FORMAT = "benchsel-fairness/1"
MANIFEST_FORMAT = "benchsel-manifest/1"

MANIFEST_NAME = "manifest.json"


# ---------------------------------------------------------------------------
# Writers.

def dumps(doc, *, sort_keys: bool = True) -> str:
    return json.dumps(doc, indent=2, sort_keys=sort_keys)


def json_text(doc) -> str:
    return dumps(doc) + "\n"


def write_text(path, text: str) -> None:
    """Write ``text`` untranslated (csv rows end in ``\\r\\n``)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def write_files(out, files: Mapping[str, str]) -> None:
    """Write each named text under ``out`` (an absolute name stays where it
    points), after creating every directory they need."""
    paths = {os.path.join(out, name): text for name, text in files.items()}
    for path in paths:
        os.makedirs(os.path.dirname(path), exist_ok=True)
    for path, text in paths.items():
        write_text(path, text)


def _format_cell(value) -> str:
    """Full-precision, reproducible rendering of a cell value."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text(preamble, header, rows) -> str:
    """``# <line>`` for each preamble line, then the header and rows."""
    buf = io.StringIO()
    buf.writelines(f"# {line}\n" for line in preamble)
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([_format_cell(v) for v in row] for row in rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Checksums and the run manifest.

def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return f"sha256:{h.hexdigest()}"


def checksum_chain(checksums: dict[str, str]) -> str:
    """One-line rendering of the input checksum chain for embedding in
    deterministic output files."""
    return " -> ".join(f"{k}={v}" for k, v in checksums.items())


def provenance(checksums: dict[str, str]) -> dict:
    """The entries that tie a deterministic JSON output to its inputs and
    its run manifest."""
    return {"input_checksums": checksums, "manifest": MANIFEST_NAME}


# ---------------------------------------------------------------------------
# Models, banks and suites.

def model_to_dict(model: LinearModel, *, name: str | None = None,
                  norms_checksum: str | None = None) -> dict:
    """Serializable form of a model, numbers at full decimal precision."""
    return {
        "format": MODEL_FORMAT,
        "name": name,
        "environment_ids": list(model.environment_ids),
        "coefficients": [float(c) for c in model.coefficients],
        "intercept": None if model.intercept is None else float(model.intercept),
        "constrained_nonnegative": bool(model.constrained_nonnegative),
        "stats": asdict(model.stats),
        "norms_checksum": norms_checksum,
    }


def bank_to_dict(bank: ModelBank, *, name: str | None = None,
                 norms_checksum: str | None = None) -> dict:
    return {
        "format": BANK_FORMAT,
        "name": name,
        "subset": list(bank.subset),
        "norms_checksum": norms_checksum,
        "models": {env: model_to_dict(m, name=env)
                   for env, m in sorted(bank.models.items())},
        "skipped": dict(sorted(bank.skipped.items())),
        "n_used": dict(sorted(bank.n_used.items())),
    }


def suite_to_dict(suite: SubsetSuite, *, norms_checksum: str | None = None
                  ) -> dict:
    return {
        "format": SUITE_FORMAT,
        "seed": suite.seed,
        "folds": suite.folds,
        "dataset_hash": suite.dataset_hash,
        "norms_checksum": norms_checksum,
        "skip_stats": suite.skip_stats,
        "models": {
            name: {
                "subset": list(cand.subset),
                "cv_mse": cand.cv_mse,
                "n_algorithms_used": cand.n_algorithms_used,
                "model": model_to_dict(cand.model, name=name,
                                       norms_checksum=norms_checksum),
            }
            for name, cand in sorted(suite.models.items())
        },
        "banks": {name: bank_to_dict(bank, name=name,
                                     norms_checksum=norms_checksum)
                  for name, bank in sorted(suite.banks.items())},
    }


_OPTIONAL_NUMBER = (int, float, type(None))


def _field(doc: Mapping, key: str, kinds, *, required: bool = True,
           items=None):
    """``doc[key]`` checked against ``kinds`` (and, for a list or mapping,
    every item or value against ``items``); None when absent and optional."""
    if key not in doc:
        if required:
            raise SchemaError(f"missing key {key!r}")
        return None
    value = doc[key]
    if not isinstance(value, kinds):
        raise SchemaError(f"key {key!r} has the wrong type "
                          f"({type(value).__name__})")
    if items is not None:
        for item in value.values() if isinstance(value, Mapping) else value:
            if not isinstance(item, items):
                raise SchemaError(f"key {key!r} holds an item of the wrong "
                                  f"type ({type(item).__name__})")
    return value


def _check_format(doc, tag: str, what: str) -> None:
    if not isinstance(doc, Mapping):
        raise SchemaError(f"expected a JSON object, got "
                          f"{type(doc).__name__}")
    if doc.get("format") != tag:
        raise ValidationError(f"not a {what} document (format="
                              f"{doc.get('format')!r})")


def model_from_dict(doc: Mapping) -> LinearModel:
    _check_format(doc, MODEL_FORMAT, "model")
    intercept = _field(doc, "intercept", _OPTIONAL_NUMBER, required=False)
    stats = _field(doc, "stats", dict, required=False,
                   items=_OPTIONAL_NUMBER) or {}
    return LinearModel(
        environment_ids=tuple(_field(doc, "environment_ids", list,
                                     items=str)),
        coefficients=np.array(_field(doc, "coefficients", list,
                                     items=(int, float)), dtype=np.float64),
        intercept=None if intercept is None else float(intercept),
        stats=FitStats(r_squared=stats.get("r_squared"),
                       cv_mse=stats.get("cv_mse"),
                       log_mae=stats.get("log_mae")),
        constrained_nonnegative=bool(_field(doc, "constrained_nonnegative",
                                            bool, required=False)),
    )


def bank_from_dict(doc) -> ModelBank:
    _check_format(doc, BANK_FORMAT, "model-bank")
    models = {}
    for env, model_doc in _field(doc, "models", dict).items():
        try:
            models[env] = model_from_dict(model_doc)
        except (SchemaError, ValidationError) as exc:
            raise type(exc)(f"models[{env!r}]: {exc}") from None
    return ModelBank(
        subset=tuple(_field(doc, "subset", list, items=str)),
        models=models,
        skipped=dict(_field(doc, "skipped", dict, required=False,
                            items=str) or {}),
        n_used=dict(_field(doc, "n_used", dict, required=False,
                           items=int) or {}),
    )


def read_json(path):
    """Parse a JSON file; a file that is not JSON raises SchemaError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise SchemaError(f"{path}: not a JSON document ({exc})") from None


def _load(path, from_dict):
    doc = read_json(path)
    try:
        return from_dict(doc), doc
    except (SchemaError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_model(path) -> tuple[LinearModel, dict]:
    """Read a model file; returns (model, full document) so callers can
    check the embedded norms checksum."""
    return _load(path, model_from_dict)


def load_bank(path) -> tuple[ModelBank, dict]:
    return _load(path, bank_from_dict)


def save_model(path, model: LinearModel, *, name: str | None = None,
               norms_checksum: str | None = None) -> None:
    write_text(path, json_text(model_to_dict(
        model, name=name, norms_checksum=norms_checksum)))


# ---------------------------------------------------------------------------
# Prediction and fairness reports.

def _report_to_dict(r) -> dict:
    return {"algorithm": r.algorithm_id, "predicted": r.predicted_summary,
            "true": r.true_summary, "rel_error": r.relative_error}


def predictions_to_dict(reports, *, model_name, checksums, inversions,
                        baseline, row_errors, rebased) -> dict:
    return {
        "format": PREDICTIONS_FORMAT,
        "model": model_name,
        **provenance(checksums),
        "inversion_count": inversions,
        "baseline": baseline,
        "row_errors": dict(sorted(row_errors.items())),
        "reports": [{**_report_to_dict(r), "inputs_used": r.inputs_used}
                    for r in reports],
        "rebased": (None if rebased is None
                    else [_report_to_dict(r) for r in rebased]),
    }


def fairness_to_dict(report, checksums) -> dict:
    return {
        "format": FAIRNESS_FORMAT,
        "alpha": report.alpha,
        **provenance(checksums),
        "groups": {
            name: {"algorithms": list(g.algorithm_ids),
                   "mean_abs_rel_error": g.mean_abs_rel_error,
                   "mean_rel_error": g.mean_rel_error}
            for name, g in report.groups.items()
        },
        "pairwise": {
            f"{a}-vs-{b}": t.__dict__
            for (a, b), t in report.pairwise.items()
        },
        "any_significant": report.any_significant,
    }
