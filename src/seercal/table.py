"""The trainable parameter-value table: storage, validation, file format.

A table holds one row of 18 positive quantitative values per rated parameter
(34 rows) plus a declared monotone direction per row.  Rows follow the
registry order of :data:`seercal.params.RATED_SYMBOLS`.

File format (YAML)::

    format: seercal-value-table/1
    meta: {...}                      # optional free-form provenance block
    parameters:
      ACAP: {direction: decreasing, values: [v1, ..., v18]}
      ...                            # all 34 rated symbols, 18 values each

The shipped default table is SYNTHETIC (geometric ramps); the vendor's real
parameter values are proprietary and must be supplied by the user for any
serious calibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import params
from .errors import TableFormatError, UnknownParameterError

INCREASING = "increasing"
DECREASING = "decreasing"
DIRECTIONS = (INCREASING, DECREASING)

TABLE_FORMAT = "seercal-value-table/1"

# libyaml parses and emits the same documents several times faster than the
# pure-Python SafeLoader/SafeDumper, which remain the fallback.
if yaml.__with_libyaml__:
    _LOADER, _DUMPER = yaml.CSafeLoader, yaml.CSafeDumper
else:
    _LOADER, _DUMPER = yaml.SafeLoader, yaml.SafeDumper


@dataclass(frozen=True, eq=False)
class ValueTable:
    """34x18 matrix of parameter values plus per-row monotone direction."""

    values: np.ndarray
    directions: tuple[str, ...]

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.shape != (params.N_RATED, params.N_LEVELS):
            raise TableFormatError(
                f"value table must be {params.N_RATED}x{params.N_LEVELS}, "
                f"got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        dirs = tuple(self.directions)
        if len(dirs) != params.N_RATED:
            raise TableFormatError(
                f"expected {params.N_RATED} directions, got {len(dirs)}"
            )
        for sym, d in zip(params.RATED_SYMBOLS, dirs):
            if d not in DIRECTIONS:
                raise TableFormatError(
                    f"parameter {sym}: direction must be one of {DIRECTIONS}, got {d!r}"
                )
        object.__setattr__(self, "directions", dirs)

    def row(self, symbol: str) -> np.ndarray:
        return self.values[self._col(symbol)]

    def direction(self, symbol: str) -> str:
        return self.directions[self._col(symbol)]

    def with_values(self, values: np.ndarray) -> "ValueTable":
        """New table with the same directions and replaced values."""
        return ValueTable(values, self.directions)

    def equals(self, other: "ValueTable") -> bool:
        return (
            self.directions == other.directions
            and np.array_equal(self.values, other.values)
        )

    @staticmethod
    def _col(symbol: str) -> int:
        try:
            return params.RATED_COLUMN[symbol]
        except KeyError:
            raise UnknownParameterError(
                f"{symbol!r} is not a rated parameter"
            ) from None


_ENTRY_REQUIREMENTS = {"positivity": "positive", "finiteness": "finite"}


@dataclass(frozen=True)
class Violation:
    """One invariant breach found by :func:`validate_table`."""

    symbol: str
    kind: str  # "positivity" | "finiteness" | "monotonicity"
    levels: tuple[int, ...]
    offending: tuple[float, ...]

    def __str__(self):
        if self.kind in _ENTRY_REQUIREMENTS:
            return (
                f"{self.symbol}: value at level {self.levels[0]} must be "
                f"{_ENTRY_REQUIREMENTS[self.kind]}, got {self.offending[0]}"
            )
        lo, hi = self.levels
        a, b = self.offending
        return (
            f"{self.symbol}: values at levels ({lo}, {hi}) break the declared "
            f"monotone order: {a} vs {b}"
        )


def validate_table(tbl: ValueTable) -> list[Violation]:
    """Scan every row for positive, finite entries and declared-direction
    monotonicity.

    Returns an empty list iff all invariants hold.  Monotonicity is
    non-strict (plateaus are allowed).
    """
    out: list[Violation] = []
    for j, sym in enumerate(params.RATED_SYMBOLS):
        row = tbl.values[j]
        direction = tbl.directions[j]
        for r in range(params.N_LEVELS):
            if not row[r] > 0:
                out.append(Violation(sym, "positivity", (r + 1,), (float(row[r]),)))
            elif row[r] == np.inf:
                out.append(Violation(sym, "finiteness", (r + 1,), (float(row[r]),)))
        for r in range(params.N_LEVELS - 1):
            a, b = float(row[r]), float(row[r + 1])
            bad = b < a if direction == INCREASING else b > a
            if bad:
                out.append(Violation(sym, "monotonicity", (r + 1, r + 2), (a, b)))
    return out


def table_text(tbl: ValueTable, meta: dict | None = None) -> str:
    """Serialize a table (plus optional provenance block) in the documented format."""
    doc: dict = {"format": TABLE_FORMAT}
    if meta:
        doc["meta"] = meta
    doc["parameters"] = {
        sym: {
            "direction": tbl.directions[j],
            "values": [float(v) for v in tbl.values[j]],
        }
        for j, sym in enumerate(params.RATED_SYMBOLS)
    }
    return yaml.dump(doc, Dumper=_DUMPER, sort_keys=False, default_flow_style=None)


def save_table(tbl: ValueTable, path, meta: dict | None = None) -> None:
    Path(path).write_text(table_text(tbl, meta), encoding="utf-8")


def load_table(path) -> ValueTable:
    tbl, _meta = load_table_with_meta(path)
    return tbl


def load_table_with_meta(path) -> tuple[ValueTable, dict]:
    """Parse a table file; reject missing rows, missing levels, unknown keys."""
    try:
        doc = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise TableFormatError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(doc, dict) or "parameters" not in doc:
        raise TableFormatError(f"{path}: missing 'parameters' section")
    entries = doc["parameters"]
    if not isinstance(entries, dict):
        raise TableFormatError(f"{path}: 'parameters' must be a mapping")
    unknown = sorted(set(entries) - set(params.RATED_SYMBOLS))
    if unknown:
        raise TableFormatError(f"{path}: unknown parameter(s): {', '.join(unknown)}")
    missing = sorted(set(params.RATED_SYMBOLS) - set(entries))
    if missing:
        raise TableFormatError(f"{path}: missing parameter(s): {', '.join(missing)}")
    values = np.empty((params.N_RATED, params.N_LEVELS))
    directions = []
    for j, sym in enumerate(params.RATED_SYMBOLS):
        entry = entries[sym]
        if not isinstance(entry, dict) or "direction" not in entry or "values" not in entry:
            raise TableFormatError(
                f"{path}: parameter {sym} needs 'direction' and 'values' keys"
            )
        direction = entry["direction"]
        if direction not in DIRECTIONS:
            raise TableFormatError(
                f"{path}: parameter {sym}: direction must be one of {DIRECTIONS}, "
                f"got {direction!r}"
            )
        row = entry["values"]
        if not isinstance(row, list) or len(row) != params.N_LEVELS:
            got = len(row) if isinstance(row, list) else type(row).__name__
            raise TableFormatError(
                f"{path}: parameter {sym}: expected {params.N_LEVELS} values, got {got}"
            )
        try:
            values[j] = [float(v) for v in row]
        except (TypeError, ValueError) as exc:
            raise TableFormatError(
                f"{path}: parameter {sym}: non-numeric value in row"
            ) from exc
        directions.append(direction)
    meta = doc.get("meta") or {}
    return ValueTable(values, tuple(directions)), meta


# --- shipped synthetic default -------------------------------------------
#
# Multiplier parameters ramp geometrically around 1.0 at Nominal; the
# quantitative inputs of the combined-parameter formulas ramp over a
# plausible positive range.  Directions follow common estimation practice:
# capability/tool factors fall with better ratings, everything else rises.

_MULTIPLIER_STEP = 1.04
_DECREASING_MULTIPLIERS = ("ACAP", "MODP", "PCAP", "TOOL", "TERM")
_QUANTITATIVE_RANGES = {
    "AEXP": (0.5, 10.0),
    "APPL": (1.0, 5.0),
    "LANG": (1.0, 5.0),
    "LEXP": (0.5, 10.0),
    "TSYS": (1.0, 5.0),
    "TEXP": (0.5, 10.0),
    "DSY": (1.0, 5.0),
    "DEXP": (0.5, 10.0),
    "PSYS": (1.0, 5.0),
    "PEXP": (0.5, 10.0),
    "REUS": (1.0, 2.0),
    "TURN": (1.0, 4.0),
    "D": (4.0, 15.0),
}


def synthetic_table() -> ValueTable:
    """Self-contained SYNTHETIC default table (monotone geometric ramps).

    Not calibrated against anything; it exists so the repo runs end to end
    without proprietary inputs.
    """
    levels = np.arange(1, params.N_LEVELS + 1, dtype=float)
    values = np.empty((params.N_RATED, params.N_LEVELS))
    directions = []
    for j, sym in enumerate(params.RATED_SYMBOLS):
        if sym in _QUANTITATIVE_RANGES:
            lo, hi = _QUANTITATIVE_RANGES[sym]
            values[j] = lo * (hi / lo) ** ((levels - 1) / (params.N_LEVELS - 1))
            directions.append(INCREASING)
        elif sym in _DECREASING_MULTIPLIERS:
            values[j] = _MULTIPLIER_STEP ** (8.0 - levels)
            directions.append(DECREASING)
        else:
            values[j] = _MULTIPLIER_STEP ** (levels - 8.0)
            directions.append(INCREASING)
    return ValueTable(values, tuple(directions))
