"""Historical dataset ingestion and source-model transfer.

Input CSV layout (header row required)::

    id,size_kloc,actual_effort[,effort_unit][,source_model][,sibr][,weight],<driver columns...>

- ``size_kloc`` is thousands of source lines; efforts are normalized to
  person-years on parse (``effort_unit`` one of ``person_months`` /
  ``person_years``, default person-months).
- ``source_model`` is COCOMO81 or COCOMO87 (falls back to the parse-time
  default); driver columns must belong to that model and hold the six-level
  labels VL/L/N/H/VH/XH (MODE holds ORGANIC/SEMIDETACHED/EMBEDDED).  Empty
  cells mean "driver not recorded".

Transfer mappings are data, not code: a YAML file lists ordered rules
(source driver -> target parameter, with a label transform), a default label
transform, and the default rating for every target the rules do not cover.
The packaged mappings under ``data/`` are documented reconstructions meant
as editable starting points, not the original published guideline tables.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from importlib import resources
from itertools import islice
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np
import yaml

from . import params
from .errors import (
    DatasetParseError,
    DatasetSchemaError,
    MappingError,
)

COCOMO81 = "COCOMO81"
COCOMO87 = "COCOMO87"
SOURCE_MODELS = (COCOMO81, COCOMO87)

_COMMON_DRIVERS = (
    "MODE", "RELY", "DATA", "CPLX", "TIME", "STOR", "TURN", "ACAP",
    "AEXP", "PCAP", "VEXP", "LEXP", "MODP", "TOOL", "SCED",
)
SOURCE_DRIVERS = {
    COCOMO81: _COMMON_DRIVERS + ("VIRT",),
    COCOMO87: _COMMON_DRIVERS + ("RUSE", "VMVH", "VMVT"),
}

SOURCE_RATING_LABELS = ("VL", "L", "N", "H", "VH", "XH")
MODE_LABELS = ("ORGANIC", "SEMIDETACHED", "EMBEDDED")

_META_COLUMNS = ("id", "size_kloc", "actual_effort", "effort_unit",
                 "source_model", "sibr", "weight")
_UNIT_ALIASES = {
    "person_months": "person_months", "pm": "person_months",
    "person_years": "person_years", "py": "person_years",
}
MONTHS_PER_PERSON_YEAR = 12.0


@dataclass(frozen=True)
class RawProjectRecord:
    """One source-format row, effort already normalized to person-years."""

    id: str
    size_kloc: float
    actual_effort: float          # person-years
    effort_unit: str              # unit as declared in the file
    ratings: Mapping[str, str]    # source driver -> source label
    source_model: str
    sibr: float = 0.0
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "ratings", MappingProxyType(dict(self.ratings)))


def _row_error(path, line_no, message) -> DatasetParseError:
    return DatasetParseError(f"{path}: row {line_no}: {message}")


def parse_dataset(path, default_source_model: str = COCOMO81) -> list[RawProjectRecord]:
    """Read and validate a source-format CSV; one record per row."""
    path = Path(path)
    if not path.exists():
        raise DatasetParseError(f"dataset not found: {path}")
    if default_source_model not in SOURCE_MODELS:
        raise DatasetSchemaError(f"unknown source model {default_source_model!r}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DatasetSchemaError(f"{path}: empty file, header row required")
        header = [h.strip() for h in reader.fieldnames]
        for required in ("id", "size_kloc", "actual_effort"):
            if required not in header:
                raise DatasetSchemaError(f"{path}: missing required column {required!r}")
        driver_columns = [h for h in header if h not in _META_COLUMNS]
        all_known = set(SOURCE_DRIVERS[COCOMO81]) | set(SOURCE_DRIVERS[COCOMO87])
        unknown = sorted(set(driver_columns) - all_known)
        if unknown:
            raise DatasetSchemaError(
                f"{path}: unknown driver column(s): {', '.join(unknown)}"
            )
        foreign = {
            m: sorted(c for c in driver_columns if c not in SOURCE_DRIVERS[m])
            for m in SOURCE_MODELS
        }

        records = []
        for line_no, row in enumerate(reader, start=2):
            rec_id = (row.get("id") or "").strip()
            if not rec_id:
                raise _row_error(path, line_no, "missing project id")
            model = (row.get("source_model") or default_source_model).strip().upper()
            if model not in SOURCE_MODELS:
                raise _row_error(path, line_no, f"unknown source model {model!r}")
            bad = [c for c in foreign[model] if (row.get(c) or "").strip()]
            if bad:
                raise _row_error(
                    path, line_no,
                    f"driver(s) {', '.join(bad)} do not belong to {model}",
                )
            try:
                size_kloc = float(row["size_kloc"])
                effort_raw = float(row["actual_effort"])
            except (TypeError, ValueError):
                raise _row_error(path, line_no, "size_kloc and actual_effort must be numeric")
            if size_kloc <= 0 or effort_raw <= 0:
                raise _row_error(path, line_no, "size and effort must be positive")
            unit_token = (row.get("effort_unit") or "person_months").strip().lower()
            unit = _UNIT_ALIASES.get(unit_token)
            if unit is None:
                raise _row_error(path, line_no, f"unknown effort unit {unit_token!r}")
            effort_py = effort_raw / MONTHS_PER_PERSON_YEAR if unit == "person_months" else effort_raw
            try:
                sibr = float(row.get("sibr") or 0.0)
                weight = float(row.get("weight") or 1.0)
            except ValueError:
                raise _row_error(path, line_no, "sibr and weight must be numeric")

            ratings = {}
            for col in driver_columns:
                label = (row.get(col) or "").strip().upper()
                if not label:
                    continue
                valid = MODE_LABELS if col == "MODE" else SOURCE_RATING_LABELS
                if label not in valid:
                    raise _row_error(
                        path, line_no,
                        f"rating label {label!r} for driver {col} is outside "
                        f"the {model} scale",
                    )
                ratings[col] = label
            records.append(
                RawProjectRecord(
                    id=rec_id, size_kloc=size_kloc, actual_effort=effort_py,
                    effort_unit=unit, ratings=ratings, source_model=model,
                    sibr=sibr, weight=weight,
                )
            )
    return records


@dataclass(frozen=True)
class MappingRule:
    """source driver -> target parameter, with label -> coordinate transform."""

    source: str
    target: str
    ratings: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "ratings", MappingProxyType(dict(self.ratings)))


@dataclass(frozen=True)
class MappingTable:
    """Ordered transfer rules for one source model plus the fallback rating."""

    source_model: str
    rules: tuple[MappingRule, ...] = field(default_factory=tuple)
    default_coordinate: float = params.NOMINAL_COORDINATE

    def __post_init__(self):
        if self.source_model not in SOURCE_MODELS:
            raise MappingError(f"unknown source model {self.source_model!r}")
        seen = {}
        for rule in self.rules:
            if rule.target not in params.RATED_COLUMN:
                raise MappingError(f"rule target {rule.target!r} is not a rated parameter")
            if rule.source not in SOURCE_DRIVERS[self.source_model]:
                raise MappingError(
                    f"rule source {rule.source!r} is not a {self.source_model} driver"
                )
            if rule.target in seen:
                raise MappingError(
                    f"parameter {rule.target} is covered by two rules "
                    f"({seen[rule.target]} and {rule.source})"
                )
            seen[rule.target] = rule.source
        if not 1.0 <= self.default_coordinate <= 18.0:
            raise MappingError(
                f"default coordinate {self.default_coordinate!r} outside [1, 18]"
            )


def _resolve_coordinate(value, where: str) -> float:
    try:
        return params.coerce_rating(value)
    except Exception as exc:
        raise MappingError(f"{where}: bad rating value {value!r}: {exc}") from exc


def load_mapping(path) -> MappingTable:
    """Parse a mapping YAML file into a validated MappingTable."""
    path = Path(path)
    if not path.exists():
        raise MappingError(f"mapping not found: {path}")
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise MappingError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(doc, dict) or "source_model" not in doc:
        raise MappingError(f"{path}: missing 'source_model' key")
    return _mapping_from_doc(doc, str(path))


def _mapping_from_doc(doc: dict, where: str) -> MappingTable:
    model = str(doc["source_model"]).upper()
    label_map = {
        str(k).upper(): _resolve_coordinate(v, f"{where}: label_map[{k}]")
        for k, v in (doc.get("label_map") or {}).items()
    }
    rules = []
    for i, entry in enumerate(doc.get("rules") or []):
        if not isinstance(entry, dict) or "source" not in entry or "target" not in entry:
            raise MappingError(f"{where}: rule #{i + 1} needs 'source' and 'target'")
        transform = entry.get("ratings")
        if transform is None:
            if not label_map:
                raise MappingError(
                    f"{where}: rule #{i + 1} has no 'ratings' and no label_map to inherit"
                )
            resolved = dict(label_map)
        else:
            resolved = {
                str(k).upper(): _resolve_coordinate(
                    v, f"{where}: rule {entry['source']}->{entry['target']}"
                )
                for k, v in transform.items()
            }
        rules.append(
            MappingRule(str(entry["source"]).upper(), str(entry["target"]).upper(), resolved)
        )
    default = doc.get("default_rating", "Nom")
    return MappingTable(
        source_model=model,
        rules=tuple(rules),
        default_coordinate=_resolve_coordinate(default, f"{where}: default_rating"),
    )


def builtin_mapping(source_model: str) -> MappingTable:
    """Packaged reconstruction mapping for one source model."""
    if source_model not in SOURCE_MODELS:
        raise MappingError(f"unknown source model {source_model!r}")
    ref = resources.files("seercal").joinpath("data", f"mapping_{source_model.lower()}.yaml")
    doc = yaml.safe_load(ref.read_text(encoding="utf-8"))
    return _mapping_from_doc(doc, f"builtin:{source_model}")


def transfer(record: RawProjectRecord, mapping: MappingTable) -> params.SeerProject:
    """Apply a mapping to one record, producing a model-ready project.

    Every rated parameter not covered by a rule receives the mapping's
    default (Nominal) coordinate.
    """
    return transfer_all([record], {record.source_model: mapping})[0]


def transfer_all(
    records: Sequence[RawProjectRecord],
    mappings: Mapping[str, MappingTable] | None = None,
) -> params.ProjectSet:
    """Transfer a heterogeneous record list, choosing the mapping per model.

    Each rule is one label -> coordinate lookup over the records of its
    model.  A failure raises what transferring the records one at a time
    meets first: the first failing record's mapping error, else its range
    error.
    """
    mappings = dict(mappings or {})
    coords = np.full((len(records), params.N_RATED), np.nan)
    models = [r.source_model for r in records]
    for model in dict.fromkeys(models):
        if model not in mappings and model in SOURCE_MODELS:
            mappings[model] = builtin_mapping(model)
        mapping = mappings.get(model)
        if mapping is None or mapping.source_model != model:
            continue  # the rows stay NaN and _check_record raises below
        rows = [i for i, m in enumerate(models) if m == model]
        ratings = [records[i].ratings for i in rows]
        coords[rows] = mapping.default_coordinate
        for rule in mapping.rules:
            to_coordinate = rule.ratings.get
            coords[rows, params.RATED_COLUMN[rule.target]] = [
                to_coordinate(r.get(rule.source), np.nan) for r in ratings
            ]
    columns = (
        [r.id for r in records], coords,
        np.array([r.size_kloc for r in records], dtype=float) * 1000.0,
        [r.sibr for r in records], [r.actual_effort for r in records],
        [r.weight for r in records],
    )
    failed = np.isnan(coords).any(axis=1)
    if failed.any():
        first = int(failed.argmax())
        params.ProjectSet(*(c[:first] for c in columns))  # earlier range errors win
        _check_record(records[first], mappings)
    return params.ProjectSet(*columns)


def _check_record(record: RawProjectRecord, mappings: dict) -> None:
    """Raise the mapping error that transferring ``record`` meets, if any."""
    mapping = mappings.get(record.source_model) or builtin_mapping(record.source_model)
    if mapping.source_model != record.source_model:
        raise MappingError(
            f"project {record.id!r}: record is {record.source_model} but the "
            f"mapping covers {mapping.source_model}"
        )
    for rule in mapping.rules:
        label = record.ratings.get(rule.source)
        if label is None:
            raise MappingError(
                f"project {record.id!r}: rule {rule.source}->{rule.target} "
                f"references a driver absent from the record"
            )
        if rule.ratings.get(label) is None:
            raise MappingError(
                f"project {record.id!r}: rule {rule.source}->{rule.target} "
                f"has no transform for label {label!r}"
            )


# --- canonical model-ready project files -----------------------------------

_PROJECT_FIELDS = ("id", "size_sloc", "actual_effort_py", "sibr", "weight")
# The numeric cells of a CSV row in the order they are converted, and what
# an empty cell reads as (None: the cell must hold a number).
_NUMERIC_CELLS = params.RATED_SYMBOLS + ("size_sloc", "actual_effort_py", "sibr", "weight")
_EMPTY_CELL = (params.NOMINAL_COORDINATE,) * params.N_RATED + (None, None, 0.0, 1.0)


def _rows(projects: params.ProjectSet):
    """(id, size, actual, sibr, weight, coordinates) per project, as Python
    values converted a block at a time."""
    columns = (projects.sizes, projects.actuals, projects.sibrs, projects.weights,
               projects.coords)
    for start in range(0, len(projects), params.BLOCK_ROWS):
        block = slice(start, start + params.BLOCK_ROWS)
        yield from zip(projects.ids[block], *(c[block].tolist() for c in columns))


def save_projects(projects: Sequence[params.SeerProject], path) -> None:
    """Write projects in the canonical format (CSV or JSON by suffix)."""
    path = Path(path)
    projects = params.ProjectSet.of(projects)
    if path.suffix.lower() == ".json":
        doc = [
            {
                "id": pid, "size_sloc": size, "actual_effort_py": actual,
                "sibr": sibr, "weight": weight,
                "ratings": dict(zip(params.RATED_SYMBOLS, coords)),
            }
            for pid, size, actual, sibr, weight, coords in _rows(projects)
        ]
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(_PROJECT_FIELDS) + list(params.RATED_SYMBOLS))
        for pid, *numbers, coords in _rows(projects):
            writer.writerow([pid, *map(repr, numbers), *map(repr, coords)])


def load_projects(path) -> params.ProjectSet:
    """Read projects written by :func:`save_projects`.

    A CSV file is read a block of rows at a time into the arrays.  Errors are
    those of reading the rows one at a time with ``csv.DictReader`` (blank
    lines skipped, missing trailing cells empty): the first bad row raises,
    and its number counts the rows read.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetParseError(f"projects file not found: {path}")
    if path.suffix.lower() == ".json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        return params.ProjectSet.of([
            params.SeerProject(
                id=entry["id"], size=entry["size_sloc"],
                actual_effort=entry["actual_effort_py"], sibr=entry.get("sibr", 0.0),
                ratings=entry.get("ratings", {}), weight=entry.get("weight", 1.0),
            )
            for entry in doc
        ])
    ids: list = []
    blocks = [np.empty((0, len(_NUMERIC_CELLS)))]
    error = None
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DatasetSchemaError(f"{path}: empty file, header row required")
        missing = sorted(set(_PROJECT_FIELDS) - set(header))
        if missing:
            raise DatasetSchemaError(f"{path}: missing column(s): {', '.join(missing)}")
        # Rows are cut or padded to the header; a duplicate name reads its last
        # column, and an absent rating column the empty cell past the header.
        column = {name: k for k, name in enumerate(header)}
        padding = [None] * (len(header) + 1)
        cells_of = itemgetter(*(column.get(name, len(header)) for name in _NUMERIC_CELLS))
        rows = filter(None, reader)  # blank lines, as csv.DictReader skips them
        while error is None and (block := list(islice(rows, params.BLOCK_ROWS))):
            numbers = []
            for row in block:
                row = row[:len(header)] + padding
                try:
                    numbers.append([
                        float(c) if c or empty is None else empty
                        for c, empty in zip(cells_of(row), _EMPTY_CELL)
                    ])
                except (TypeError, ValueError) as exc:
                    error = _row_error(path, len(ids) + 2, f"bad numeric field: {exc}")
                    break
                ids.append(row[column["id"]])
            blocks.append(np.reshape(numbers, (-1, len(_NUMERIC_CELLS))))
    numbers = np.concatenate(blocks)
    size, actual, sibr, weight = numbers[:, params.N_RATED:].T
    # The rows before a bad one are checked first: their range errors win.
    projects = params.ProjectSet(ids, numbers[:, :params.N_RATED], size, sibr, actual, weight)
    if error is not None:
        raise error
    return projects
