"""Every file promptuq reads or writes, and its format.

A run writes ``posterior.ndjson``, ``trace.csv``, one risk-rejection curve
per evaluation block and score (``curve_<block>_<score>.csv``) and
``summary.json``; ``predict`` writes a predictive table, ``compare`` writes
``compare.json`` and ``compare.csv``. Every writer formats deterministically
(floats as ``repr``, JSON keys sorted), so a config and seed rewrite the same
bytes. The readers take config JSON, posteriors, predictive tables, labeled
datasets and ``lower-bound`` flag files; a JSON reader refuses NaN, Infinity
and numbers beyond the float range as it parses (``errors.is_json_number``),
and a record reader names the line of a malformed record.
"""

from __future__ import annotations

import csv
import json
import os
import shutil

import numpy as np

from .blackbox import LabeledSet
from .errors import ConfigError, is_json_number
from .estimators import PosteriorEnsemble
from .predictive import PredictiveTable
from .uqeval import RiskRejectionCurve


def _json_number(text: str) -> float:
    """``json``'s float and constant hook: JSON's number grammar has no NaN or
    Infinity, and a float must fit."""
    value = float(text)
    if not is_json_number(value):
        raise ValueError(f"{text} is not a finite JSON number")
    return value


def load_json_object(path, option: str) -> dict:
    """The JSON object in ``path``; a config error naming ``option`` otherwise."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, parse_float=_json_number, parse_constant=_json_number)
    except OSError as exc:
        raise ConfigError(option, f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError; deep nesting
        raise ConfigError(option, f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(option, f"{path} must hold a JSON object")
    return data


def save_summary_json(summary, path) -> None:
    """Indented JSON, keys sorted, ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _number_records(path, vector: str, scalar: str, default, is_scalar, shape: str):
    """The ``vector`` and ``scalar`` of each record of an NDJSON file, as two
    lists in line order. A record is a JSON object on a non-blank line whose
    ``vector`` is a flat list of JSON numbers and whose ``scalar`` (``default``
    when absent) passes ``is_scalar``.

    Raises OSError if the file cannot be read and ValueError naming the line
    of a line that is not JSON, holds a number that is not finite, or is no
    such record ("need <shape>").
    """
    vectors, scalars = [], []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line, parse_float=_json_number,
                                    parse_constant=_json_number)
            except (ValueError, RecursionError) as exc:  # not JSON; deep nesting
                raise ValueError(f"line {number}: {exc}") from exc
            if not isinstance(record, dict):
                record = {}
            values, value = record.get(vector), record.get(scalar, default)
            if not (isinstance(values, list) and all(map(is_json_number, values))
                    and is_scalar(value)):
                raise ValueError(f"line {number}: need {shape}")
            vectors.append(values)
            scalars.append(value)
    return vectors, scalars


def save_ensemble(ensemble: PosteriorEnsemble, path) -> None:
    """Newline-delimited JSON, one record {index, weight, z} per sample."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (w, z) in enumerate(zip(ensemble.weights, ensemble.samples)):
            fh.write(json.dumps({"index": i, "weight": float(w),
                                 "z": [float(v) for v in z]}) + "\n")


def load_ensemble(path) -> PosteriorEnsemble:
    """Records {"weight": number, "z": [numbers]}, as ``save_ensemble`` writes them.

    Raises OSError if the file cannot be read and ValueError naming the line
    of a malformed record.
    """
    samples, weights = _number_records(path, "z", "weight", None, is_json_number,
                                       '{"weight": number, "z": [numbers]}')
    return PosteriorEnsemble(np.asarray(samples), np.asarray(weights), "loaded")


def load_labeled_ndjson(path) -> LabeledSet:
    """Records {"x": [...], "y": int}; y may be omitted for unlabeled OOD rows.

    Raises OSError if the file cannot be read and ValueError if it is malformed.
    """
    xs, ys = _number_records(path, "x", "y", -1, lambda y: type(y) is int,
                             '{"x": [numbers], "y": int}')
    try:
        data = LabeledSet(np.array(xs, dtype=float), np.array(ys, dtype=np.int64))
    except OverflowError as exc:  # a label beyond int64
        raise ValueError(f"number out of range: {exc}") from exc
    if data.X.ndim != 2 or data.X.size == 0:
        raise ValueError("need one or more records with equal-length finite x rows")
    return data


def _save_csv(path, header, rows, lineterminator: str = "\r\n") -> None:
    """A header and rows in the csv module's default dialect (floats as repr,
    None as an empty field), lines ending in ``lineterminator``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)


def save_trace_csv(trace: dict[str, list], path) -> None:
    """The trace's keys as the header, then one row per entry of its columns."""
    _save_csv(path, trace, zip(*trace.values()))


def save_predictive_csv(table: PredictiveTable, path) -> None:
    """Columns p_0..p_{C-1} plus the argmax predicted class."""
    _save_csv(path, [f"p_{c}" for c in range(table.classes)] + ["predicted"],
              ([repr(float(v)) for v in row] + [int(cls)]
               for row, cls in zip(table.probs, table.predicted())))


def load_predictive_csv(path) -> PredictiveTable:
    """A table exactly as ``save_predictive_csv`` writes it: the header
    p_0..p_{C-1},predicted, C + 1 fields in every row, probabilities without
    ``_`` or surrounding whitespace (``float`` takes both, ``repr`` writes
    neither), and each row's ``predicted`` equal to its argmax. Raises
    ValueError for anything else."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            classes = len(header) - 1
            if header != [f"p_{c}" for c in range(classes)] + ["predicted"]:
                raise ValueError(f"header {','.join(header)!r} is not p_0..p_{{C-1}},predicted")
            rows, predicted = [], []
            for record in reader:
                if len(record) != classes + 1:
                    raise ValueError(f"line {reader.line_num}: {len(record)} fields, "
                                     f"the header has {classes + 1}")
                if any("_" in v or v != v.strip() for v in record[:-1]):
                    raise ValueError(f"line {reader.line_num}: a probability holds '_' "
                                     f"or surrounding whitespace")
                rows.append([float(v) for v in record[:-1]])
                predicted.append(record[-1])
        except csv.Error as exc:  # such as a field past the csv module's size limit
            raise ValueError(f"line {reader.line_num}: {exc}") from exc
    table = PredictiveTable(np.asarray(rows))
    for row, (written, cls) in enumerate(zip(predicted, table.predicted())):
        if written != str(cls):
            raise ValueError(f"row {row}: predicted {written!r}, its argmax is {cls}")
    return table


def save_curve_csv(curve: RiskRejectionCurve, path) -> None:
    """Columns k, rejection_rate and risk, floats as repr, in the csv module's
    default dialect: no field needs quoting and lines end in CRLF. Equal
    curves give byte-identical files."""
    m = len(curve.risks)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("k,rejection_rate,risk\r\n")
        fh.writelines(f"{k},{k / m!r},{risk!r}\r\n"
                      for k, risk in enumerate(curve.risks.tolist()))


def save_curves(curves: dict, out_dir: str, block: str, files: dict[str, str]) -> None:
    """Each score's curve to ``curve_<block>_<score>.csv``, its path into ``files``.

    Equal curves are formatted once: a curve whose risks have the same dtype
    and bits as an earlier one's gets a copy of that file, byte-identical to
    what ``save_curve_csv`` writes for it alone. With two classes both
    scores rank the rows alike, so a block's two curves are usually equal."""
    written: dict[tuple[str, bytes], str] = {}  # (dtype, bits) of risks -> its file
    for score, curve in curves.items():
        name = f"curve_{block}_{score}"
        path = files[name] = os.path.join(out_dir, f"{name}.csv")
        key = (curve.risks.dtype.str, curve.risks.tobytes())
        if key in written:
            shutil.copyfile(written[key], path)
        else:
            save_curve_csv(curve, path)
            written[key] = path


def save_compare_csv(rows: list[dict], path) -> None:
    """The first row's keys as the header, then each row's values, lines
    ending in LF."""
    _save_csv(path, rows[0], (row.values() for row in rows), "\n")


def load_flags(path) -> np.ndarray:
    """A ``lower-bound`` flags file: one 0 or 1 per non-blank line, at least
    one; a config error naming ``flags`` otherwise."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise ConfigError("flags", f"cannot read {path}: {exc}") from exc
    if not lines or not set(lines) <= {"0", "1"}:
        raise ConfigError("flags", f"{path} must hold one 0 or 1 per line, at least one")
    return np.array(lines) == "1"
