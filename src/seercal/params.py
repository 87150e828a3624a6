"""Rating scale, parameter registry, and historical project records.

The SEER-SEM effort model rates 34 technology/environment/staffing parameters
on an 18-level linguistic scale; one extra non-rated input (SIBR, the fraction
of software impacted by reuse) is carried alongside.  Ratings are stored as
numeric grid coordinates in [1, 18] so that linguistic labels and continuous
rating values share one representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .errors import (
    CoordinateRangeError,
    RatingError,
    UnknownParameterError,
)

RATING_LABELS: tuple[str, ...] = (
    "VLo-", "VLo", "VLo+",
    "Low-", "Low", "Low+",
    "Nom-", "Nom", "Nom+",
    "Hi-", "Hi", "Hi+",
    "VHi-", "VHi", "VHi+",
    "EHi-", "EHi", "EHi+",
)

N_LEVELS = 18
NOMINAL_COORDINATE = 8.0

_GRID = {label: float(i + 1) for i, label in enumerate(RATING_LABELS)}



def rating_to_coordinate(label: str) -> float:
    """Return the grid coordinate (1..18) of a linguistic rating label."""
    try:
        return _GRID[label]
    except KeyError:
        raise RatingError(f"unknown rating label {label!r}") from None


def coordinate_to_rating(x: float) -> str:
    """Return the label whose grid point is nearest to ``x``.

    Ties (x exactly halfway between two grid points) round toward the
    lower grid point.
    """
    if not 1.0 <= x <= 18.0:
        raise CoordinateRangeError(f"rating coordinate {x!r} outside [1, 18]")
    grid = int(math.ceil(x - 0.5))
    grid = min(max(grid, 1), N_LEVELS)
    return RATING_LABELS[grid - 1]


def coerce_rating(value) -> float:
    """Accept a label or a number; return a validated coordinate in [1, 18]."""
    if isinstance(value, str):
        return rating_to_coordinate(value)
    x = float(value)
    if not 1.0 <= x <= 18.0:
        raise CoordinateRangeError(f"rating coordinate {x!r} outside [1, 18]")
    return x


@dataclass(frozen=True)
class ParameterId:
    """A model parameter: mnemonic symbol plus canonical 1-based index."""

    symbol: str
    index: int

    @property
    def rated(self) -> bool:
        return self.index <= 34


# Canonical index order.  Indices 1-34 are rated (each owns a trainable table
# row); index 34 is the staffing-complexity parameter D and index 35 is the
# non-rated reuse fraction SIBR.
_CANONICAL_ORDER: tuple[str, ...] = (
    "ACAP", "AEXP", "PCAP", "LEXP", "DEXP", "TEXP", "PEXP", "MODP",
    "TOOL", "TURN", "TERM", "MULT", "RDED", "RLOC", "DSVL", "PSVL",
    "RVOL", "SPEC", "TEST", "QUAL", "RHST", "REUS", "LANG", "DSY",
    "APPL", "PSYS", "DISP", "MEMC", "TIMC", "RTIM", "TSYS", "TSVL",
    "SECR", "D", "SIBR",
)

PARAMETERS: tuple[ParameterId, ...] = tuple(
    ParameterId(sym, i + 1) for i, sym in enumerate(_CANONICAL_ORDER)
)
RATED_SYMBOLS: tuple[str, ...] = tuple(p.symbol for p in PARAMETERS if p.rated)
N_RATED = len(RATED_SYMBOLS)

# 0-based table-row / matrix-column position per rated symbol.
RATED_COLUMN: Mapping[str, int] = MappingProxyType(
    {sym: j for j, sym in enumerate(RATED_SYMBOLS)}
)

_BY_SYMBOL = {p.symbol: p for p in PARAMETERS}


def parameter(symbol: str) -> ParameterId:
    try:
        return _BY_SYMBOL[symbol]
    except KeyError:
        raise UnknownParameterError(f"unknown parameter symbol {symbol!r}") from None


@dataclass(frozen=True)
class SeerProject:
    """One historical project in model terms.

    ``ratings`` maps rated symbols to grid coordinates; labels are accepted
    and coerced on construction, and any rated parameter left out defaults to
    Nominal (coordinate 8).  ``actual_effort`` is in person-years.
    """

    id: str
    size: float
    actual_effort: float
    sibr: float = 0.0
    ratings: Mapping[str, float | str] = field(default_factory=dict)
    weight: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.size) and self.size > 0):
            raise CoordinateRangeError(
                f"project {self.id!r}: size must be positive, got {self.size!r}"
            )
        if not (math.isfinite(self.actual_effort) and self.actual_effort > 0):
            raise CoordinateRangeError(
                f"project {self.id!r}: actual effort must be positive, "
                f"got {self.actual_effort!r}"
            )
        if not 0.0 <= self.sibr <= 1.0:
            raise CoordinateRangeError(
                f"project {self.id!r}: SIBR must lie in [0, 1], got {self.sibr!r}"
            )
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise CoordinateRangeError(
                f"project {self.id!r}: weight must be non-negative, got {self.weight!r}"
            )
        coords: dict[str, float] = {}
        for symbol, raw in dict(self.ratings).items():
            if symbol not in RATED_COLUMN:
                raise UnknownParameterError(
                    f"project {self.id!r}: {symbol!r} is not a rated parameter"
                )
            coords[symbol] = coerce_rating(raw)
        for symbol in RATED_SYMBOLS:
            coords.setdefault(symbol, NOMINAL_COORDINATE)
        object.__setattr__(self, "ratings", MappingProxyType(coords))

    def coordinates(self) -> list[float]:
        """Rating coordinates in registry order (length 34)."""
        return [self.ratings[s] for s in RATED_SYMBOLS]
