"""Pure evaluation of the SEER-SEM effort model.

Development effort in person-years is a fixed fraction of lifecycle effort
K = D^0.4 * (Size / C_te)^1.2, where effective technology C_te divides basic
technology C_tb by a 21-factor adjustment product.  C_tb responds to the
product of the personnel/tooling factors (ctbx) through an exponential whose
sensitivity is damped by the turnaround parameter.  Six factor pairs enter
through published combination formulas rather than directly.

The model is written once, as the array forward :func:`effort_terms`, which
also returns the intermediates the calibration backward pass and
:func:`combined_partials` reuse.  The scalar ``compute_*`` functions are
n = 1 wrappers around it.  They and the batch evaluation in
:mod:`seercal.metrics` validate through one vectorized domain check.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from . import params
from .errors import EngineDomainError, MissingParameterError
from .nfbank import bank_translate
from .table import ValueTable

# Published model constants.
DEV_FRACTION = 0.393469        # development share of lifecycle effort
BASIC_TECH_SCALE = 2000.0      # basic-technology scale
CTBX_PIVOT = 4.11              # ctbx value at which C_tb == BASIC_TECH_SCALE
TECH_EXP_COEFF = 3.70945       # exponential coefficient of the C_tb response
TURN_DAMPING = 5.0             # turnaround damping of that response
SIZE_EXPONENT = 1.2
STAFFING_EXPONENT = 0.4

# (a, b) argument convention per kind; the first feeds ctbx, the rest the
# adjustment product, in this order.
COMBINED_ARGS = {
    "AEXPAPPL": ("AEXP", "APPL"),
    "LANGLEXP": ("LANG", "LEXP"),
    "TSYSTEXP": ("TSYS", "TEXP"),
    "DSYSDEXP": ("DSY", "DEXP"),
    "PSYSPEXP": ("PSYS", "PEXP"),
    "SIBRREUS": ("SIBR", "REUS"),
}
ADJUSTMENT_COMBINED = tuple(COMBINED_ARGS)[1:]

# Plain (non-combined) members of the ctbx product.
CTBX_SINGLES = ("ACAP", "MODP", "PCAP", "TOOL", "TERM")

# The 16 plain adjustment factors, in the published enumeration order.
ADJUSTMENT_SINGLES = (
    "MULT", "RDED", "RLOC", "DSVL", "PSVL", "RVOL", "SPEC", "TEST",
    "QUAL", "RHST", "DISP", "MEMC", "TIMC", "RTIM", "SECR", "TSVL",
)

_CTBX_INPUTS = COMBINED_ARGS["AEXPAPPL"] + CTBX_SINGLES
_ADJUSTMENT_INPUTS = (
    sum((COMBINED_ARGS[k] for k in ADJUSTMENT_COMBINED), ()) + ADJUSTMENT_SINGLES
)

_POSITIVE = ("be positive", lambda x: x > 0)
# The constrained argument of each combined formula and its domain.
_COMBINED_DOMAIN = {
    "AEXPAPPL": ("APPL", *_POSITIVE),
    "LANGLEXP": ("LANG", *_POSITIVE),
    "TSYSTEXP": ("TSYS", *_POSITIVE),
    "DSYSDEXP": ("DSY", *_POSITIVE),
    "PSYSPEXP": ("PSYS", "be non-negative", lambda x: x >= 0),
    "SIBRREUS": ("SIBR", "lie in [0, 1]", lambda x: (x >= 0.0) & (x <= 1.0)),
}


@dataclass(frozen=True)
class EffortBreakdown:
    """Intermediate and final quantities of one effort evaluation."""

    ctbx: float
    parm_adjustment: float
    basic_technology: float      # C_tb
    effective_technology: float  # C_te
    lifecycle_effort: float      # K, person-years
    effort: float                # development effort, person-years


@dataclass(frozen=True)
class EffortTerms(EffortBreakdown):
    """One array forward evaluation, with what the backward pass reuses.

    Every quantity is an array with one entry per project.  ``combined``
    maps each kind to its factor followed by the terms
    :func:`combined_partials` reads.
    """

    values: Mapping[str, np.ndarray]  # quantitative values by symbol, SIBR included
    d: np.ndarray
    combined: Mapping[str, tuple]

    def first(self) -> EffortBreakdown:
        """The first project's quantities as plain floats."""
        return EffortBreakdown(
            *(float(getattr(self, f.name)[0]) for f in fields(EffortBreakdown))
        )


def _combined(kind: str, a: np.ndarray, b: np.ndarray) -> tuple:
    """One combined formula: (factor, *terms its partial derivatives reuse)."""
    if kind == "AEXPAPPL":
        scaled = 0.47 * np.exp(-0.95977 * (a / b))
        return 0.82 + scaled, scaled
    if kind == "LANGLEXP":
        e = np.exp(-b / (a / 3.0))
        scaled = ((1.11 + 0.085 * a) - 1.0) * e
        return 1.0 + scaled, e, scaled
    if kind == "TSYSTEXP":
        e = np.exp(-3.0 * b / a)
        scaled = (0.035 + 0.025 * a) * e
        return 1.0 + scaled, e, scaled
    if kind == "DSYSDEXP":
        e = np.exp(-3.0 * b / a)
        scaled = (0.06 + 0.05 * a) * e
        return 1.0 + scaled, e, scaled
    if kind == "PSYSPEXP":
        safe = np.where(a == 0.0, 1.0, a)
        e = np.exp(-3.0 * b / safe)
        base = 0.91**safe + 0.23 * safe * e
        return np.where(a == 0.0, 1.0, base**0.833), e, base
    if kind == "SIBRREUS":
        return (a * b + 1.0,)
    raise EngineDomainError(f"unknown combined-parameter kind {kind!r}")


# d(coefficient)/da of the three "1 + (c0 + c1 * a) * exp(-3b/a)" formulas.
_COEFF_SLOPE = {"LANGLEXP": 0.085, "TSYSTEXP": 0.025, "DSYSDEXP": 0.05}


def combined_partials(kind: str, a, b, factor, *terms):
    """Partial derivatives (d/da, d/db) of a combined formula.

    Reads the factor and terms that :func:`effort_terms` cached for ``kind``.
    At the PSYS == 0 special point the formula is the constant 1, so both
    partials are zero.
    """
    if kind == "AEXPAPPL":
        (scaled,) = terms
        return scaled * (-0.95977 / b), scaled * (0.95977 * a / b**2)
    if kind in _COEFF_SLOPE:
        e, scaled = terms
        return _COEFF_SLOPE[kind] * e + scaled * (3.0 * b / a**2), scaled * (-3.0 / a)
    if kind == "PSYSPEXP":
        e, base = terms
        safe = np.where(a == 0.0, 1.0, a)
        outer = 0.833 * base ** (0.833 - 1.0)
        dbase_da = 0.91**safe * np.log(0.91) + 0.23 * e + 0.23 * safe * e * (3.0 * b / safe**2)
        dbase_db = -0.69 * e
        return (np.where(a == 0.0, 0.0, outer * dbase_da),
                np.where(a == 0.0, 0.0, outer * dbase_db))
    if kind == "SIBRREUS":
        return b, a
    raise EngineDomainError(f"unknown combined-parameter kind {kind!r}")


def _combined_all(values: Mapping[str, np.ndarray], kinds) -> dict[str, tuple]:
    return {kind: _combined(kind, *(values[n] for n in COMBINED_ARGS[kind])) for kind in kinds}


def _ctbx(values: Mapping[str, np.ndarray], combined: Mapping[str, tuple]) -> np.ndarray:
    out = values["ACAP"] * combined["AEXPAPPL"][0]
    for sym in CTBX_SINGLES[1:]:
        out = out * values[sym]
    return out


def _parm_adjustment(values: Mapping[str, np.ndarray], combined: Mapping[str, tuple]):
    out = combined[ADJUSTMENT_COMBINED[0]][0]
    for kind in ADJUSTMENT_COMBINED[1:]:
        out = out * combined[kind][0]
    for sym in ADJUSTMENT_SINGLES:
        out = out * values[sym]
    return out


def basic_technology(ctbx, turn):
    """C_tb: exponential response to ctbx, damped by turnaround."""
    return BASIC_TECH_SCALE * np.exp(
        -TECH_EXP_COEFF * np.log(ctbx / CTBX_PIVOT) / (TURN_DAMPING * turn)
    )


def effort_terms(size, d, values: Mapping[str, np.ndarray]) -> EffortTerms:
    """The array forward model, no validation.

    ``values`` maps TURN, SIBR and every symbol of the ctbx and adjustment
    products to an array with one entry per project; ``size`` and ``d`` are
    arrays of the same length.
    """
    combined = _combined_all(values, COMBINED_ARGS)
    ctbx = _ctbx(values, combined)
    c_tb = basic_technology(ctbx, values["TURN"])
    adjustment = _parm_adjustment(values, combined)
    c_te = c_tb / adjustment
    k = d**STAFFING_EXPONENT * (size / c_te) ** SIZE_EXPONENT
    return EffortTerms(
        ctbx=ctbx, parm_adjustment=adjustment, basic_technology=c_tb,
        effective_technology=c_te, lifecycle_effort=k, effort=DEV_FRACTION * k,
        values=values, d=d, combined=combined,
    )


def _columns(values: Mapping[str, float], symbols) -> dict[str, np.ndarray]:
    """One-entry arrays of the named quantitative values."""
    try:
        column = np.array([values[symbol] for symbol in symbols], dtype=float)
    except KeyError as exc:
        raise MissingParameterError(f"missing quantitative value for {exc.args[0]}") from None
    return dict(zip(symbols, column[:, None]))


def _combined_checks(values: Mapping[str, np.ndarray], kinds) -> list[tuple]:
    """Domain checks of the constrained argument of each named combined formula."""
    checks = []
    for kind in kinds:
        name, requirement, ok = _COMBINED_DOMAIN[kind]
        checks.append((f"{kind}: {name}", values[name], requirement, ok))
    return checks


def _effort_checks(size, terms: EffortTerms) -> list[tuple]:
    """Domain checks of one effort forward, in the order they are reported."""
    return [
        ("size", size, *_POSITIVE),
        ("staffing complexity", terms.d, *_POSITIVE),
        ("TURN", terms.values["TURN"], *_POSITIVE),
        *_combined_checks(terms.values, COMBINED_ARGS),
        ("ctbx", terms.ctbx, *_POSITIVE),
    ]


def _check_domain(checks, ids=None) -> None:
    """Vectorized domain checks; raise :class:`EngineDomainError` on a failure.

    ``checks`` holds (label, array, requirement, predicate) tuples with one
    array entry per project.  The first project that fails any check is
    reported with its first failing check, as a project-by-project loop
    would; ``ids`` names that project in the message.
    """
    bad = np.array([~ok(x) for _, x, _, ok in checks])
    failing = bad.any(axis=0)
    if failing.any():
        i = int(np.argmax(failing))
        label, x, requirement, _ = checks[int(np.argmax(bad[:, i]))]
        where = f"project {ids[i]!r}: " if ids is not None else ""
        raise EngineDomainError(f"{where}{label} must {requirement}, got {float(x[i])!r}")


def compute_combined(kind: str, a: float, b: float) -> float:
    """Evaluate one combined-parameter formula with its (a, b) convention."""
    if kind not in COMBINED_ARGS:
        raise EngineDomainError(f"unknown combined-parameter kind {kind!r}")
    values = dict(zip(COMBINED_ARGS[kind], np.array([[a], [b]], dtype=float)))
    _check_domain(_combined_checks(values, (kind,)))
    with np.errstate(all="ignore"):
        return float(_combined_all(values, (kind,))[kind][0][0])


def compute_ctbx(values: Mapping[str, float]) -> float:
    """Personnel/tooling product feeding basic technology."""
    columns = _columns(values, _CTBX_INPUTS)
    _check_domain(_combined_checks(columns, ("AEXPAPPL",)))
    with np.errstate(all="ignore"):
        return float(_ctbx(columns, _combined_all(columns, ("AEXPAPPL",)))[0])


def compute_parm_adjustment(values: Mapping[str, float], sibr: float) -> float:
    """21-factor adjustment product: 5 combined factors then 16 singles."""
    columns = _columns({**values, "SIBR": sibr}, _ADJUSTMENT_INPUTS)
    _check_domain(_combined_checks(columns, ADJUSTMENT_COMBINED))
    with np.errstate(all="ignore"):
        combined = _combined_all(columns, ADJUSTMENT_COMBINED)
        return float(_parm_adjustment(columns, combined)[0])


def compute_effort(
    size: float, d: float, values: Mapping[str, float], sibr: float
) -> EffortBreakdown:
    """Full effort evaluation; all intermediate quantities returned.

    ``size`` is effective size in SLOC, ``d`` the staffing-complexity value,
    ``values`` the quantitative parameter values (bank outputs), ``sibr`` the
    reuse fraction.  Efforts are person-years.
    """
    columns = _columns({**values, "SIBR": sibr}, ("TURN",) + _CTBX_INPUTS + _ADJUSTMENT_INPUTS)
    size_ = np.array([size], dtype=float)
    with np.errstate(all="ignore"):
        terms = effort_terms(size_, np.array([d], dtype=float), columns)
    _check_domain(_effort_checks(size_, terms))
    breakdown = terms.first()
    if not np.isfinite(breakdown.effort):
        raise EngineDomainError(f"effort is non-finite for the given inputs: {breakdown}")
    return breakdown


def effort_for_project(project: params.SeerProject, tbl: ValueTable) -> EffortBreakdown:
    """Translate a project's ratings through the bank, then evaluate effort."""
    values = bank_translate(project, tbl)
    return compute_effort(project.size, values["D"], values, project.sibr)
