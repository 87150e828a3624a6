"""Fuzzy sub-models turning rating coordinates into quantitative values.

Each rated parameter owns a single-input Takagi-Sugeno system with 18 fixed
unit-width triangular memberships centred on the grid points 1..18 and one
crisp consequent per level (the table row).  Because adjacent triangles
overlap by exactly one unit, the firing strengths partition unity on [1, 18]
and the defuzzified output reduces to piecewise-linear interpolation of the
row -- which is the property the calibration relies on.

Membership functions are fixed; only the consequents (table values) train.

Every caller evaluates the bank on an (n, 34) coordinate matrix:
:func:`membership_weights` finds each active level and weight once and
:func:`interpolate` gathers from the table.  :func:`membership`,
:func:`firing_strengths`, :func:`normalize` and :func:`nf_output` are the
literal Takagi-Sugeno definition the tests compare that path against.
"""

from __future__ import annotations

import numpy as np

from . import params
from .errors import CoordinateRangeError, DegenerateInputError
from .table import ValueTable

GRID = np.arange(1, params.N_LEVELS + 1, dtype=float)


def _check_coordinate(x: float) -> float:
    x = float(x)
    if not 1.0 <= x <= 18.0:
        raise CoordinateRangeError(f"rating coordinate {x!r} outside [1, 18]")
    return x


def membership(r: int, x: float) -> float:
    """Triangular membership grade of coordinate ``x`` in level ``r``.

    Triangles have unit half-width: peak 1 at x == r, zero at |x - r| >= 1.
    Defined on the padded domain [0, 19].
    """
    if not 1 <= int(r) <= params.N_LEVELS or int(r) != r:
        raise CoordinateRangeError(f"level index {r!r} outside 1..18")
    x = float(x)
    if not 0.0 <= x <= 19.0:
        raise CoordinateRangeError(f"membership input {x!r} outside [0, 19]")
    return max(0.0, 1.0 - abs(x - r))


def firing_strengths(x: float) -> np.ndarray:
    """Rule activations for coordinate ``x``: one per level, at most 2 nonzero.

    Rules have a single antecedent, so each firing strength equals the
    membership grade itself.
    """
    x = _check_coordinate(x)
    return np.maximum(0.0, 1.0 - np.abs(x - GRID))


def normalize(w) -> np.ndarray:
    """Scale a firing-strength vector to sum to one."""
    w = np.asarray(w, dtype=float)
    total = float(w.sum())
    if total <= 0.0:
        raise DegenerateInputError("all rule firing strengths are zero")
    return w / total


def nf_output(x: float, row) -> float:
    """Weighted-sum defuzzification: sum of normalized strengths times consequents."""
    row = np.asarray(row, dtype=float)
    if row.shape != (params.N_LEVELS,):
        raise CoordinateRangeError(
            f"consequent row must have {params.N_LEVELS} values, got shape {row.shape}"
        )
    wbar = normalize(firing_strengths(x))
    return float(wbar @ row)


def bank_translate(project: params.SeerProject, tbl: ValueTable) -> dict[str, float]:
    """Translate every rated coordinate of a project through its sub-model.

    SIBR is not rated and passes through unchanged.
    """
    row = translate_matrix(np.array([project.coordinates()]), tbl)[0]
    out = dict(zip(params.RATED_SYMBOLS, row.tolist()))
    out["SIBR"] = project.sibr
    return out


def translate_matrix(coords: np.ndarray, tbl: ValueTable) -> np.ndarray:
    """Bank translation for an (n_projects, 34) coordinate matrix.

    Equals applying :func:`nf_output` entrywise, up to rounding (asserted in
    tests).
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != params.N_RATED:
        raise CoordinateRangeError(
            f"coordinate matrix must be (n, {params.N_RATED}), got {coords.shape}"
        )
    if coords.size and (coords.min() < 1.0 or coords.max() > 18.0):
        raise CoordinateRangeError("rating coordinates outside [1, 18]")
    return interpolate(tbl.values, *membership_weights(coords))


def membership_weights(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry flat table index of the lower active level, and upper-level weight.

    The membership grade of coordinate x in column j is (1 - frac) at level
    lo and frac at level lo + 1; every other level is zero.  The index is
    j * 18 + lo - 1, a position in the row-major (34, 18) table.
    """
    coords = np.asarray(coords, dtype=float)
    lo = np.clip(np.floor(coords).astype(int), 1, params.N_LEVELS - 1)
    return np.arange(params.N_RATED) * params.N_LEVELS + lo - 1, coords - lo


def interpolate(values: np.ndarray, entry: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Bank outputs of a (34, 18) table at the active entries of :func:`membership_weights`.

    The upper level is read through the table shifted by one entry, so no
    ``entry + 1`` index is built.
    """
    flat = values.reshape(-1)
    return np.take(flat, entry) * (1.0 - frac) + np.take(flat[1:], entry) * frac
