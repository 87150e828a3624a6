"""Gradient-descent calibration of the value table against project history.

The loss is half the weighted sum of squared relative effort errors.  Loss
and gradient share one forward, :func:`seercal.engine.effort_terms`; the
backward pass reads its cached intermediates and chains an analytic effort
gradient per quantitative value through the membership grade linking each
value to its two active table entries.  The update is plain full-batch
descent followed by a positivity floor and a least-squares monotone repair
(pool-adjacent-violators) of every row, so the returned table always
satisfies the declared directions.

Analytic gradients are validated against central finite differences in the
test suite; training optionally halves the learning rate whenever a step
would increase the loss, which keeps the recorded loss trace non-increasing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import engine, params
from .engine import (
    ADJUSTMENT_SINGLES,
    COMBINED_ARGS,
    CTBX_PIVOT,
    CTBX_SINGLES,
    SIZE_EXPONENT,
    STAFFING_EXPONENT,
    TECH_EXP_COEFF,
    TURN_DAMPING,
    EffortTerms,
    combined_partials,
)
from .errors import (
    DegenerateInputError,
    MetricsDomainError,
    TableFormatError,
    TrainingDivergedError,
)
from .nfbank import interpolate, membership_weights
from .table import DECREASING, INCREASING, ValueTable, validate_table

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CalibrationConfig:
    """Training knobs.  Full-batch descent, deterministic for a fixed config."""

    learning_rate: float = 1e-3
    max_epochs: int = 500
    tolerance: float = 1e-6  # stop when relative loss decrease falls below this
    seed: int = 0
    value_floor: float = 1e-6  # positivity floor applied after each update
    backtrack: bool = True     # halve the learning rate on loss increase
    max_halvings: int = 40

    def __post_init__(self):
        if not self.learning_rate >= 0:
            raise ValueError(f"learning rate must be >= 0, got {self.learning_rate!r}")
        if not self.max_epochs >= 0:
            raise ValueError(f"max_epochs must be >= 0, got {self.max_epochs!r}")
        if not self.tolerance >= 0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance!r}")
        if not self.value_floor > 0:
            raise ValueError(f"value_floor must be positive, got {self.value_floor!r}")

    def to_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "max_epochs": self.max_epochs,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "value_floor": self.value_floor,
            "backtrack": self.backtrack,
            "max_halvings": self.max_halvings,
        }


@dataclass
class TrainingTrace:
    """Per-epoch record of one training run plus the final table."""

    initial_loss: float
    losses: list[float] = field(default_factory=list)
    projection_counts: list[int] = field(default_factory=list)
    floor_counts: list[int] = field(default_factory=list)
    alphas: list[float] = field(default_factory=list)
    stop_reason: str = ""
    table: ValueTable | None = None

    @property
    def epochs_run(self) -> int:
        return len(self.losses)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else self.initial_loss


class _Batch:
    """Projects unpacked into arrays once per training/loss call."""

    def __init__(self, projects: Sequence[params.SeerProject]):
        projects = params.ProjectSet.of(projects)
        if not len(projects):
            raise DegenerateInputError("project list is empty")
        self.sizes, self.sibrs = projects.sizes, projects.sibrs
        self.actuals, self.weights = projects.actuals, projects.weights
        # Flat table index of the lower active level, and upper-level weight.
        self.entry_lo, self.level_frac = membership_weights(projects.coords)

    def bank_values(self, values_matrix: np.ndarray) -> np.ndarray:
        return interpolate(values_matrix, self.entry_lo, self.level_frac)


def _col(symbol: str) -> int:
    return params.RATED_COLUMN[symbol]


def _batch_forward(batch: _Batch, values_matrix: np.ndarray) -> EffortTerms:
    v = batch.bank_values(values_matrix)
    columns = {sym: v[:, _col(sym)] for sym in params.RATED_SYMBOLS}
    columns["SIBR"] = batch.sibrs
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return engine.effort_terms(batch.sizes, columns["D"], columns)


def _batch_efforts(batch: _Batch, values_matrix: np.ndarray) -> np.ndarray:
    return _batch_forward(batch, values_matrix).effort


def _value_gradients(terms: EffortTerms) -> np.ndarray:
    """Analytic effort gradient per quantitative value, as an (n, 34) matrix.

    Closed forms per factor family, all sharing the evaluated effort E:

    - plain adjustment factor P:   1.2 * E / P
    - staffing complexity D:       0.4 * E / D
    - plain ctbx member P:         E * 1.2 * 3.70945 / (5 * TURN * P)
    - TURN:                        -E * 1.2 * 3.70945 * ln(ctbx/4.11) / (5 * TURN^2)
    - combined constituents: the matching family form, chained through the
      combination formula's partial derivative.
    """
    v, efforts, turn = terms.values, terms.effort, terms.values["TURN"]
    grads = np.empty((len(efforts), params.N_RATED))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ctbx_sens = SIZE_EXPONENT * TECH_EXP_COEFF / (TURN_DAMPING * turn)
        for sym in CTBX_SINGLES:
            grads[:, _col(sym)] = efforts * ctbx_sens / v[sym]
        grads[:, _col("TURN")] = (
            -efforts * SIZE_EXPONENT * TECH_EXP_COEFF
            * np.log(terms.ctbx / CTBX_PIVOT) / (TURN_DAMPING * turn**2)
        )
        grads[:, _col("D")] = STAFFING_EXPONENT * efforts / terms.d
        for sym in ADJUSTMENT_SINGLES:
            grads[:, _col(sym)] = SIZE_EXPONENT * efforts / v[sym]
        for kind, names in COMBINED_ARGS.items():
            factor, *cached = terms.combined[kind]
            a, b = (v[name] for name in names)
            sens = efforts * ctbx_sens if kind == "AEXPAPPL" else SIZE_EXPONENT * efforts
            for name, part in zip(names, combined_partials(kind, a, b, factor, *cached)):
                if name != "SIBR":
                    grads[:, _col(name)] = sens / factor * part
    return grads


def loss(projects: Sequence[params.SeerProject], tbl: ValueTable) -> float:
    """Half the weighted sum of squared relative effort errors."""
    batch = _Batch(projects)
    return _loss_from_efforts(batch, _batch_efforts(batch, tbl.values))


def _loss_from_efforts(batch: _Batch, efforts: np.ndarray) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        rel = (efforts - batch.actuals) / batch.actuals
        return float(0.5 * np.sum(batch.weights * rel**2))


def grad_effort_wrt_value(
    project: params.SeerProject, tbl: ValueTable, symbol: str
) -> float:
    """Analytic sensitivity of one project's effort to one quantitative value."""
    grads = _value_gradients(_batch_forward(_Batch([project]), tbl.values))
    return float(grads[0, _col(symbol)])


def loss_gradient(projects: Sequence[params.SeerProject], tbl: ValueTable) -> np.ndarray:
    """Full (34, 18) gradient of the loss w.r.t. every table entry."""
    batch = _Batch(projects)
    return _loss_gradient(batch, _batch_forward(batch, tbl.values))


def _loss_gradient(batch: _Batch, terms: EffortTerms) -> np.ndarray:
    """Backward pass of the loss on a cached forward of ``batch``."""
    coef = batch.weights * (terms.effort - batch.actuals) / batch.actuals**2
    contrib = coef[:, None] * _value_gradients(terms)
    out = np.zeros(params.N_RATED * params.N_LEVELS)
    np.add.at(out, batch.entry_lo, contrib * (1.0 - batch.level_frac))
    np.add.at(out, batch.entry_lo + 1, contrib * batch.level_frac)
    return out.reshape(params.N_RATED, params.N_LEVELS)


def grad_loss_wrt_consequent(
    projects: Sequence[params.SeerProject], tbl: ValueTable, symbol: str, level: int
) -> float:
    """Loss gradient for one table entry (symbol, level in 1..18)."""
    if not 1 <= level <= params.N_LEVELS:
        raise MetricsDomainError(f"level must lie in 1..{params.N_LEVELS}, got {level}")
    return float(loss_gradient(projects, tbl)[_col(symbol), level - 1])


def _pava_increasing(y: np.ndarray) -> np.ndarray:
    """Least-squares non-decreasing fit by pool-adjacent-violators.

    Pools only on strict violations, so already-monotone input comes back
    bit-identical.
    """
    means: list[float] = []
    counts: list[int] = []
    for v in y:
        mean = float(v)
        count = 1
        while means and means[-1] > mean:
            prev_mean = means.pop()
            prev_count = counts.pop()
            mean = (prev_mean * prev_count + mean * count) / (prev_count + count)
            count += prev_count
        means.append(mean)
        counts.append(count)
    out = np.empty(len(y))
    pos = 0
    for mean, count in zip(means, counts):
        out[pos:pos + count] = mean
        pos += count
    return out


def enforce_monotone(row, direction: str) -> np.ndarray:
    """Closest (least-squares) monotone row in the declared direction.

    Idempotent; exact fixpoint on rows that already satisfy the direction.
    """
    row = np.asarray(row, dtype=float)
    if direction == INCREASING:
        return _pava_increasing(row)
    if direction == DECREASING:
        return -_pava_increasing(-row)
    raise TableFormatError(f"unknown direction {direction!r}")


_DIRECTION_SIGN = {INCREASING: 1.0, DECREASING: -1.0}


def _project_rows(values: np.ndarray, directions: tuple[str, ...]) -> tuple[np.ndarray, int]:
    """Monotone-repair every row; returns (repaired matrix, #rows changed).

    Rows whose every step already follows their direction are left alone,
    since PAVA would return them bit for bit; rows with NaN or infinite
    entries (and unknown directions) still go through it.
    """
    out = values.copy()
    changed = 0
    sign = np.array([_DIRECTION_SIGN.get(d, np.nan) for d in directions])
    with np.errstate(over="ignore", invalid="ignore"):
        in_order = ((np.diff(values, axis=1) * sign[:, None]) >= 0).all(axis=1)
    for j in np.flatnonzero(~in_order):
        repaired = enforce_monotone(out[j], directions[j])
        if not np.array_equal(repaired, out[j]):
            changed += 1
            out[j] = repaired
    return out, changed


def train(
    projects: Sequence[params.SeerProject],
    tbl: ValueTable,
    config: CalibrationConfig | None = None,
) -> TrainingTrace:
    """Full-batch gradient descent on the table under monotone constraints.

    Each epoch evaluates all gradients against the epoch-start table, updates
    every entry, floors values at ``config.value_floor``, and repairs every
    row to its declared direction.  Each candidate table costs one forward;
    the next epoch's gradient reuses the accepted candidate's.  Stops at
    ``max_epochs``, when the relative loss decrease falls below
    ``tolerance``, or when backtracking runs out of halvings.  Raises :class:`TrainingDivergedError` (carrying the trace so
    far) if the loss turns non-finite and cannot be rescued by backtracking.
    """
    config = config or CalibrationConfig()
    violations = validate_table(tbl)
    if violations:
        raise TableFormatError(f"refusing to train on an invalid table: {violations[0]}")
    batch = _Batch(projects)
    current = tbl.values.copy()
    terms = _batch_forward(batch, current)
    current_loss = _loss_from_efforts(batch, terms.effort)
    trace = TrainingTrace(initial_loss=current_loss)
    if not np.isfinite(current_loss):
        trace.table = tbl
        trace.stop_reason = "diverged"
        raise TrainingDivergedError("loss is non-finite under the initial table", trace)

    alpha = config.learning_rate
    halvings_left = config.max_halvings
    floor_warned = False
    stop_reason = "max_epochs"
    for _epoch in range(config.max_epochs):
        grad = _loss_gradient(batch, terms)
        stalled = False
        while True:
            candidate = current - alpha * grad
            floor_count = int(np.count_nonzero(candidate < config.value_floor))
            if floor_count:
                candidate = np.maximum(candidate, config.value_floor)
            candidate, projection_count = _project_rows(candidate, tbl.directions)
            candidate_terms = _batch_forward(batch, candidate)
            candidate_loss = _loss_from_efforts(batch, candidate_terms.effort)
            can_halve = config.backtrack and halvings_left > 0 and alpha > 0.0
            if not np.isfinite(candidate_loss):
                if can_halve:
                    alpha *= 0.5
                    halvings_left -= 1
                    continue
                trace.table = tbl.with_values(current)
                trace.stop_reason = "diverged"
                raise TrainingDivergedError("loss became non-finite during training", trace)
            if config.backtrack and candidate_loss > current_loss:
                if can_halve:
                    alpha *= 0.5
                    halvings_left -= 1
                    continue
                stalled = True
            break
        if stalled:
            stop_reason = "stalled"
            break
        if floor_count and not floor_warned:
            log.warning(
                "positivity floor %g activated on %d table entries",
                config.value_floor, floor_count,
            )
            floor_warned = True
        previous_loss = current_loss
        current, terms, current_loss = candidate, candidate_terms, candidate_loss
        trace.losses.append(current_loss)
        trace.projection_counts.append(projection_count)
        trace.floor_counts.append(floor_count)
        trace.alphas.append(alpha)
        relative_decrease = (
            (previous_loss - current_loss) / previous_loss if previous_loss > 0 else 0.0
        )
        if relative_decrease < config.tolerance:
            stop_reason = "converged"
            break
    trace.stop_reason = stop_reason
    trace.table = tbl.with_values(current)
    return trace
