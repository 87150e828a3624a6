import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perturbed_table
from conftest import projects as project_strategy
from seercal import calibration, params
from seercal.calibration import (
    CalibrationConfig,
    enforce_monotone,
    loss,
    loss_gradient,
    train,
)
from seercal.engine import compute_effort, effort_for_project
from seercal.errors import (
    DegenerateInputError,
    TableFormatError,
    TrainingDivergedError,
)
from seercal.nfbank import bank_translate, membership_weights, translate_matrix
from seercal.params import SeerProject
from seercal.synth import perturb_table, synthesize_projects
from seercal.table import DECREASING, INCREASING, synthetic_table, validate_table


def fd_loss_gradient(projects, tbl, col, level_idx, step=1e-6):
    """Central finite difference of the loss w.r.t. one table entry."""
    values = tbl.values.copy()
    h = step * max(1.0, abs(values[col, level_idx]))
    values[col, level_idx] += h
    up = loss(projects, tbl.with_values(values))
    values[col, level_idx] -= 2 * h
    down = loss(projects, tbl.with_values(values))
    return (up - down) / (2 * h)


def fd_effort_gradient(project, tbl, symbol, step=1e-6):
    """Central finite difference of the engine effort w.r.t. one value."""
    values = bank_translate(project, tbl)
    h = step * max(1.0, abs(values[symbol]))
    up = dict(values)
    up[symbol] += h
    down = dict(values)
    down[symbol] -= h
    e_up = compute_effort(project.size, up["D"], up, project.sibr).effort
    e_down = compute_effort(project.size, down["D"], down, project.sibr).effort
    return (e_up - e_down) / (2 * h)


def effort_gradient(project, tbl, symbol):
    """Analytic effort gradient of one project w.r.t. one quantitative value."""
    terms = calibration._batch_forward(calibration._Batch([project]), tbl.values)
    return float(calibration._value_gradients(terms)[0, params.RATED_COLUMN[symbol]])


def assert_gradient_close(analytic, fd, rel=1e-5, abs_tol=1e-8):
    if abs(fd) < 1e-3:
        assert analytic == pytest.approx(fd, abs=abs_tol)
    else:
        assert analytic == pytest.approx(fd, rel=rel)


def residual_projects(tbl, n=4, seed=0, scale=1.4):
    """Synthetic projects whose actuals are offset so residuals are nonzero."""
    base = synthesize_projects(tbl, n, seed=seed, effort_noise=0.0)
    return [
        SeerProject(
            id=p.id, size=p.size, actual_effort=p.actual_effort * scale,
            sibr=p.sibr, ratings=dict(p.ratings), weight=p.weight,
        )
        for p in base
    ]


# --- loss -------------------------------------------------------------------


def test_loss_zero_when_estimates_match(default_table):
    projects = synthesize_projects(default_table, 3, seed=1, effort_noise=0.0)
    assert loss(projects, default_table) == pytest.approx(0.0, abs=1e-20)


def test_loss_single_project_double_actual(default_table):
    p = synthesize_projects(default_table, 1, seed=2, effort_noise=0.0)[0]
    est = effort_for_project(p, default_table).effort
    doubled = SeerProject(
        id=p.id, size=p.size, actual_effort=est / 2.0, sibr=p.sibr,
        ratings=dict(p.ratings),
    )
    # E_en = 2 * E_acn -> 0.5 * (1)^2 = 0.5
    assert loss([doubled], default_table) == pytest.approx(0.5, rel=1e-12)


def test_loss_matches_direct_summation(default_table):
    rng = np.random.default_rng(3)
    projects = []
    for i, w in enumerate((1.0, 0.5, 2.0)):
        base = synthesize_projects(default_table, 1, seed=10 + i, effort_noise=0.0)[0]
        projects.append(
            SeerProject(
                id=base.id, size=base.size,
                actual_effort=base.actual_effort * rng.uniform(0.5, 2.0),
                sibr=base.sibr, ratings=dict(base.ratings), weight=w,
            )
        )
    expected = 0.0
    for p in projects:
        est = effort_for_project(p, default_table).effort
        expected += 0.5 * p.weight * ((est - p.actual_effort) / p.actual_effort) ** 2
    assert loss(projects, default_table) == pytest.approx(expected, rel=1e-12)


def test_loss_rejects_empty():
    with pytest.raises(DegenerateInputError):
        loss([], synthetic_table())


# --- effort gradients ------------------------------------------------------


def test_effort_gradient_plain_factor_closed_form(default_table):
    p = residual_projects(default_table, n=1, seed=4)[0]
    values = bank_translate(p, default_table)
    effort = effort_for_project(p, default_table).effort
    got = effort_gradient(p, default_table, "TEST")
    assert got == pytest.approx(1.2 * effort / values["TEST"], rel=1e-12)
    assert_gradient_close(got, fd_effort_gradient(p, default_table, "TEST"))


def test_effort_gradient_staffing_complexity(default_table):
    p = residual_projects(default_table, n=1, seed=5)[0]
    values = bank_translate(p, default_table)
    effort = effort_for_project(p, default_table).effort
    got = effort_gradient(p, default_table, "D")
    assert got == pytest.approx(0.4 * effort / values["D"], rel=1e-12)
    assert_gradient_close(got, fd_effort_gradient(p, default_table, "D"))


def test_effort_gradient_reus_inert_when_sibr_zero(default_table):
    p = SeerProject(id="p", size=20_000.0, actual_effort=5.0, sibr=0.0)
    assert effort_gradient(p, default_table, "REUS") == 0.0


def test_effort_gradients_match_finite_differences_everywhere(default_table):
    # FD roundoff scales with the effort magnitude, so the absolute floor
    # for near-zero gradients is scaled by the evaluated effort.
    rng = np.random.default_rng(6)
    for seed in range(5):
        ratings = {s: float(rng.uniform(1, 18)) for s in params.RATED_SYMBOLS}
        p = SeerProject(
            id=f"p{seed}", size=float(rng.uniform(5e3, 5e5)),
            actual_effort=5.0, sibr=float(rng.uniform(0, 1)), ratings=ratings,
        )
        effort = effort_for_project(p, default_table).effort
        floor = 1e-8 * max(1.0, effort)
        for sym in params.RATED_SYMBOLS:
            got = effort_gradient(p, default_table, sym)
            fd = fd_effort_gradient(p, default_table, sym)
            if abs(fd) < 1e-3 * max(1.0, effort / 50.0):
                assert got == pytest.approx(fd, abs=floor)
            else:
                assert got == pytest.approx(fd, rel=1e-4)


# --- loss gradients ---------------------------------------------------------


def test_loss_gradient_zero_when_no_membership(default_table):
    # all ratings at Nominal (8): levels far from 8 receive no gradient
    p = residual_projects(default_table, n=1, seed=7)[0]
    nominal = SeerProject(
        id=p.id, size=p.size, actual_effort=p.actual_effort, sibr=p.sibr,
    )
    grad = loss_gradient([nominal], default_table)
    assert grad[params.RATED_COLUMN["TEST"], 3 - 1] == 0.0
    assert grad[params.RATED_COLUMN["TEST"], 8 - 1] != 0.0


def test_loss_gradient_zero_at_zero_residual(default_table):
    # actuals equal the engine outputs up to last-ulp path differences
    projects = synthesize_projects(default_table, 1, seed=8, effort_noise=0.0)
    g = loss_gradient(projects, default_table)
    assert np.allclose(g, 0.0, atol=1e-12)


def test_loss_gradient_matches_finite_differences(default_table):
    projects = residual_projects(default_table, n=4, seed=9)
    analytic = loss_gradient(projects, default_table)
    rng = np.random.default_rng(10)
    for _ in range(80):
        col = int(rng.integers(0, params.N_RATED))
        level = int(rng.integers(0, params.N_LEVELS))
        fd = fd_loss_gradient(projects, default_table, col, level)
        assert_gradient_close(analytic[col, level], fd)


def reference_loss_gradient(batch, terms):
    """The loss gradient scattered by two unbuffered ``np.add.at`` calls,
    lower levels first: the summation order ``_loss_gradient`` keeps."""
    coef = batch.weights * (terms.effort - batch.actuals) / batch.actuals**2
    contrib = coef[:, None] * calibration._value_gradients(terms)
    out = np.zeros(params.N_RATED * params.N_LEVELS)
    np.add.at(out, batch.entry_lo, contrib * (1.0 - batch.level_frac))
    np.add.at(out, batch.entry_lo + 1, contrib * batch.level_frac)
    return out.reshape(params.N_RATED, params.N_LEVELS)


def assert_scatter_matches_reference(projects, tbl):
    """Bank values and loss gradient of ``_Batch`` equal, bit for bit, the
    bank through explicit ``entry + 1`` indices and the ``np.add.at``
    reference."""
    batch = calibration._Batch(projects)
    coords = np.array([p.coordinates() for p in projects])
    entry, frac = membership_weights(coords)
    bank = np.take(tbl.values, entry) * (1.0 - frac) + np.take(tbl.values, entry + 1) * frac
    assert np.array_equal(batch.bank_values(tbl.values), bank)
    assert np.array_equal(translate_matrix(coords, tbl), bank)
    terms = calibration._batch_forward(batch, tbl.values)
    assert np.array_equal(
        calibration._loss_gradient(batch, terms),
        reference_loss_gradient(batch, terms),
        equal_nan=True,
    )


@given(
    # (project, actual effort, weight, copies): coordinates at 1, 18 and the
    # integer kinks, zero weights, and repeated identical projects
    rows=st.lists(
        st.tuples(
            project_strategy,
            st.floats(min_value=1e-3, max_value=1e9),
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0)),
            st.integers(min_value=1, max_value=3),
        ),
        min_size=1, max_size=6,
    ),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=80, deadline=None)
def test_loss_gradient_equals_add_at_scatter_exactly(rows, seed):
    assert_scatter_matches_reference(
        [dataclasses.replace(p, actual_effort=actual, weight=weight)
         for p, actual, weight, copies in rows for _ in range(copies)],
        perturbed_table(seed),
    )


def test_loss_gradient_equals_add_at_scatter_on_many_projects(default_table):
    # About 16 contributions per table entry, lower and upper mixed, so any
    # other summation order changes some sums' last bits.
    assert_scatter_matches_reference(
        residual_projects(default_table, n=300, seed=8), perturbed_table(8)
    )


# --- monotone projection ----------------------------------------------------


def brute_force_isotonic(y, direction):
    """Exhaustive least-squares monotone fit over all consecutive-block
    partitions (valid for short rows)."""
    n = len(y)
    if direction == DECREASING:
        return [-v for v in brute_force_isotonic([-x for x in y], INCREASING)]
    best = None
    for mask in range(2 ** (n - 1)):
        blocks = []
        start = 0
        for i in range(n - 1):
            if (mask >> i) & 1:
                blocks.append((start, i + 1))
                start = i + 1
        blocks.append((start, n))
        means = [sum(y[a:b]) / (b - a) for a, b in blocks]
        if any(means[i] > means[i + 1] for i in range(len(means) - 1)):
            continue
        fit = []
        for (a, b), m in zip(blocks, means):
            fit.extend([m] * (b - a))
        sse = sum((f - v) ** 2 for f, v in zip(fit, y))
        if best is None or sse < best[0]:
            best = (sse, fit)
    return best[1]


def test_enforce_monotone_decreasing_pools_first_pair():
    out = enforce_monotone([1.4, 1.5, 1.2], DECREASING)
    assert np.allclose(out, [1.45, 1.45, 1.2])


def test_enforce_monotone_fixpoints():
    increasing = np.array([0.8, 0.9, 0.9, 1.4])
    assert np.array_equal(enforce_monotone(increasing, INCREASING), increasing)
    constant = np.full(18, 1.3)
    assert np.array_equal(enforce_monotone(constant, INCREASING), constant)
    assert np.array_equal(enforce_monotone(constant, DECREASING), constant)


@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=5),
    st.sampled_from([INCREASING, DECREASING]),
)
def test_enforce_monotone_matches_exhaustive_fit(row, direction):
    got = enforce_monotone(row, direction)
    want = brute_force_isotonic(row, direction)
    assert np.allclose(got, want, atol=1e-9)


@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=18),
    st.sampled_from([INCREASING, DECREASING]),
)
def test_enforce_monotone_output_is_monotone_and_idempotent(row, direction):
    out = enforce_monotone(row, direction)
    diffs = np.diff(out)
    if direction == INCREASING:
        assert np.all(diffs >= -1e-12)
    else:
        assert np.all(diffs <= 1e-12)
    assert np.array_equal(enforce_monotone(out, direction), out)


entries = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0, math.nan, math.inf, -math.inf]),
    st.floats(min_value=-10.0, max_value=10.0),
)
ordered_rows = st.lists(
    st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=18, max_size=18
).flatmap(lambda row: st.sampled_from([sorted(row), sorted(row, reverse=True)]))
# Rows in either order (ties included), in order but for one NaN or infinite
# entry, or arbitrary.
table_rows = st.one_of(
    ordered_rows,
    st.tuples(
        ordered_rows, st.integers(0, 17), st.sampled_from([math.nan, math.inf, -math.inf])
    ).map(lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:]),
    st.lists(entries, min_size=18, max_size=18),
)


@given(st.lists(table_rows, min_size=params.N_RATED, max_size=params.N_RATED))
def test_project_rows_equals_full_sweep(rows):
    values = np.array(rows)
    directions = synthetic_table().directions
    want, want_count = values.copy(), 0
    for j, direction in enumerate(directions):
        repaired = enforce_monotone(want[j], direction)
        if not np.array_equal(repaired, want[j]):
            want_count += 1
            want[j] = repaired
    got, count = calibration._project_rows(values, directions)
    assert count == want_count
    assert got.tobytes() == want.tobytes()


# --- training ---------------------------------------------------------------


def test_zero_learning_rate_is_identity(default_table):
    projects = residual_projects(default_table, n=3, seed=12)
    trace = train(projects, default_table, CalibrationConfig(learning_rate=0.0))
    assert np.array_equal(trace.table.values, default_table.values)
    assert trace.losses and trace.losses[0] == trace.initial_loss


def test_zero_epochs_is_identity(default_table):
    projects = residual_projects(default_table, n=3, seed=13)
    trace = train(projects, default_table, CalibrationConfig(max_epochs=0))
    assert np.array_equal(trace.table.values, default_table.values)
    assert trace.losses == []


def test_perfect_fit_leaves_table_unchanged(default_table):
    projects = synthesize_projects(default_table, 4, seed=14, effort_noise=0.0)
    trace = train(projects, default_table, CalibrationConfig(max_epochs=10))
    assert np.array_equal(trace.table.values, default_table.values)
    assert trace.initial_loss == pytest.approx(0.0, abs=1e-20)


def test_training_reduces_loss_on_perturbed_table(default_table):
    truth = default_table
    projects = synthesize_projects(truth, 20, seed=15, effort_noise=0.02)
    start = perturb_table(truth, rel_noise=0.15, seed=16)
    config = CalibrationConfig(learning_rate=0.05, max_epochs=60, tolerance=0.0)
    trace = train(projects, start, config)
    assert trace.final_loss < trace.initial_loss
    losses = [trace.initial_loss] + trace.losses
    assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))
    assert validate_table(trace.table) == []


def test_sufficient_descent_with_alpha_halving(default_table):
    projects = residual_projects(default_table, n=5, seed=17)
    alpha = 0.4
    for _ in range(30):
        config = CalibrationConfig(
            learning_rate=alpha, max_epochs=1, backtrack=False, tolerance=0.0
        )
        trace = train(projects, default_table, config)
        if trace.losses and trace.losses[0] <= trace.initial_loss:
            break
        alpha *= 0.5
    else:
        pytest.fail("descent never achieved even with tiny alpha")


def test_trace_length_bounded_by_max_epochs(default_table):
    projects = residual_projects(default_table, n=3, seed=18)
    config = CalibrationConfig(learning_rate=1e-4, max_epochs=7, tolerance=0.0)
    trace = train(projects, default_table, config)
    assert trace.epochs_run <= 7
    assert len(trace.projection_counts) == trace.epochs_run
    assert len(trace.alphas) == trace.epochs_run


def test_training_rejects_invalid_table(default_table):
    values = default_table.values.copy()
    values[0, 0] = -1.0
    with pytest.raises(TableFormatError):
        train(
            residual_projects(default_table, n=1, seed=19),
            default_table.with_values(values),
        )


def test_divergence_raises_with_trace(default_table):
    projects = residual_projects(default_table, n=3, seed=20, scale=50.0)
    config = CalibrationConfig(
        learning_rate=1e12, max_epochs=10, backtrack=False, value_floor=1e-12,
        tolerance=0.0,
    )
    with pytest.raises(TrainingDivergedError) as exc:
        train(projects, default_table, config)
    assert exc.value.trace is not None
    assert exc.value.trace.table is not None


def test_backtracking_rescues_large_alpha(default_table):
    projects = residual_projects(default_table, n=5, seed=21)
    config = CalibrationConfig(
        learning_rate=100.0, max_epochs=20, backtrack=True, tolerance=0.0
    )
    trace = train(projects, default_table, config)
    losses = [trace.initial_loss] + trace.losses
    assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))
    assert validate_table(trace.table) == []


@given(
    batch=st.lists(
        st.builds(
            lambda p, actual: dataclasses.replace(p, actual_effort=actual),
            project_strategy, st.floats(min_value=1e-3, max_value=1e9),
        ),
        min_size=1, max_size=8,
    ),
    seed=st.integers(min_value=0, max_value=100),
    psys_zero_levels=st.sets(st.integers(min_value=0, max_value=17), max_size=2),
    alpha=st.sampled_from([1.0, 1e3, 1e9]),
)
@settings(max_examples=30, deadline=None)
def test_training_keeps_table_valid_and_loss_non_increasing(
    batch, seed, psys_zero_levels, alpha
):
    tbl = perturbed_table(seed, psys_zero_levels)
    config = CalibrationConfig(learning_rate=alpha, max_epochs=10, tolerance=0.0)
    if psys_zero_levels:  # PSYS = 0 breaks positivity: no training starts
        with pytest.raises(TableFormatError):
            train(batch, tbl, config)
        return
    try:
        trace = train(batch, tbl, config)
    except TrainingDivergedError as exc:
        trace = exc.trace
    assert validate_table(trace.table) == []
    losses = [trace.initial_loss] + trace.losses
    assert all(b <= a for a, b in zip(losses, losses[1:]))


def test_config_validation():
    with pytest.raises(ValueError):
        CalibrationConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        CalibrationConfig(max_epochs=-1)


def floor_case():
    """Training whose first candidate hits the positivity floor and is then
    rejected by backtracking; no accepted step floors anything."""
    projects = synthesize_projects(synthetic_table(), 30, seed=4, effort_noise=0.3)
    start = perturb_table(synthetic_table(), 0.2, seed=5)
    return projects, start


def test_floor_warning_ignores_rejected_candidates(caplog):
    projects, start = floor_case()
    config = CalibrationConfig(learning_rate=1.0, max_epochs=20, tolerance=0)
    with caplog.at_level(logging.WARNING, logger="seercal.calibration"):
        trace = train(projects, start, config)
    assert sum(trace.floor_counts) == 0
    assert not [r for r in caplog.records if "positivity floor" in r.getMessage()]


def test_floor_warning_reports_accepted_step(caplog):
    projects, start = floor_case()
    config = CalibrationConfig(learning_rate=1.0, max_epochs=1, tolerance=0, backtrack=False)
    with caplog.at_level(logging.WARNING, logger="seercal.calibration"):
        trace = train(projects, start, config)
    assert trace.floor_counts[0] > 0
    messages = [r.getMessage() for r in caplog.records]
    expected = f"positivity floor 1e-06 activated on {trace.floor_counts[0]} table entries"
    assert messages.count(expected) == 1
    assert len([m for m in messages if "positivity floor" in m]) == 1


def test_training_runs_one_forward_per_candidate(monkeypatch):
    # Every forward starts with a bank evaluation of the candidate table, so
    # counting those counts forwards, including any the gradient would add.
    projects, start = floor_case()
    calls = []
    bank_values = calibration._Batch.bank_values

    def counting(self, values_matrix):
        calls.append(1)
        return bank_values(self, values_matrix)

    monkeypatch.setattr(calibration._Batch, "bank_values", counting)
    config = CalibrationConfig(learning_rate=1.0, max_epochs=20, tolerance=0)
    trace = train(projects, start, config)
    assert trace.stop_reason == "max_epochs"
    rejected = math.log2(config.learning_rate / trace.alphas[-1])
    assert rejected > 0
    assert len(calls) == 1 + trace.epochs_run + rejected
