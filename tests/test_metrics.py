import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perturbed_table, projects
from seercal import params
from seercal.engine import effort_for_project
from seercal.errors import EngineDomainError, MetricsDomainError
from seercal.metrics import (
    EvaluationReport,
    evaluate_projects,
    mmre,
    pred,
    relative_error,
)
from seercal.params import SeerProject
from seercal.synth import synthesize_projects

pair_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.01, max_value=100.0),
    ),
    min_size=1,
    max_size=50,
)


def test_relative_error_examples():
    assert relative_error(1.0, 1.0) == 0.0
    assert relative_error(1.5, 1.0) == pytest.approx(0.5)
    assert relative_error(0.5, 1.0) == pytest.approx(-0.5)


def test_relative_error_rejects_nonpositive_actual():
    with pytest.raises(MetricsDomainError):
        relative_error(1.0, 0.0)
    with pytest.raises(MetricsDomainError):
        relative_error(1.0, -2.0)


def test_mmre_examples():
    assert mmre([(1.0, 1.0)]) == 0.0
    assert mmre([(1.2, 1.0), (1.4, 1.0)]) == pytest.approx(0.3)


def test_mmre_rejects_empty():
    with pytest.raises(MetricsDomainError):
        mmre([])


@given(pair_lists)
def test_mmre_matches_direct_summation(pairs):
    expected = sum(abs((e - a) / a) for e, a in pairs) / len(pairs)
    assert mmre(pairs) == pytest.approx(expected, rel=1e-12)


def test_mmre_93_random_pairs_against_oracle():
    rng = np.random.default_rng(33)
    pairs = [(float(rng.uniform(1, 50)), float(rng.uniform(1, 50))) for _ in range(93)]
    expected = sum(abs((e - a) / a) for e, a in pairs) / 93
    assert mmre(pairs) == pytest.approx(expected, rel=1e-12)


def test_pred_worked_example():
    # 80 of 100 projects within 30%
    pairs = [(1.0 + 0.1 * (i % 3), 1.0) for i in range(80)]  # MRE <= 0.2
    pairs += [(2.0, 1.0)] * 20  # MRE = 1.0
    assert pred(pairs, 0.30) == pytest.approx(0.80, abs=1e-15)


def test_pred_inclusive_boundary():
    pairs = [(1.25, 1.0)]  # MRE exactly 0.25 (representable)
    assert pred(pairs, 0.25) == 1.0
    assert pred(pairs, 0.2499999) == 0.0


def test_pred_all_exact():
    pairs = [(2.0, 2.0)] * 5
    for level in (0.0, 0.2, 1.0):
        assert pred(pairs, level) == 1.0


@given(pair_lists, st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=2.0))
def test_pred_monotone_in_level(pairs, l1, l2):
    lo, hi = sorted((l1, l2))
    assert pred(pairs, lo) <= pred(pairs, hi)


@given(pair_lists)
def test_pred_at_infinity_is_one(pairs):
    assert pred(pairs, float("inf")) == 1.0


def test_evaluate_projects_report(default_table):
    projects = synthesize_projects(default_table, 10, seed=30, effort_noise=0.0)
    # bias some actuals to create outliers
    biased = []
    for i, p in enumerate(projects):
        factor = 3.0 if i < 3 else 1.1
        biased.append(
            SeerProject(
                id=p.id, size=p.size, actual_effort=p.actual_effort * factor,
                sibr=p.sibr, ratings=dict(p.ratings),
            )
        )
    report = evaluate_projects(biased, default_table)
    assert report.n_projects == 10
    assert report.n_outliers == 3
    assert sorted(report.outlier_ids) == sorted(p.id for p in biased[:3])
    # MMRE equals the mean of the per-project MREs
    assert report.mmre == pytest.approx(
        float(np.mean([r.mre for r in report.rows])), rel=1e-12
    )
    # outliers at the 50% threshold complement PRED(50%)
    assert report.n_outliers + round(report.pred_at(0.5) * report.n_projects) == 10


def test_report_round_trip_and_rendering(default_table):
    projects = synthesize_projects(default_table, 5, seed=31, effort_noise=0.04)
    report = evaluate_projects(projects, default_table)
    again = EvaluationReport.from_dict(report.to_dict())
    assert again == report
    text = report.render_text()
    assert "MMRE" in text and "PRED(30%)" in text
    rows = report.csv_rows()
    assert rows[0][0] == "id" and len(rows) == 6


def test_evaluate_rejects_empty(default_table):
    with pytest.raises(MetricsDomainError):
        evaluate_projects([], default_table)


def test_pred_levels_sorted_and_custom(default_table):
    projects = synthesize_projects(default_table, 4, seed=32, effort_noise=0.02)
    report = evaluate_projects(projects, default_table, pred_levels=(1.0, 0.25))
    assert [lvl for lvl, _ in report.pred] == [0.25, 1.0]
    fractions = [frac for _, frac in report.pred]
    assert fractions == sorted(fractions)


@given(
    batch=st.lists(projects, min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=100),
    psys_zero_levels=st.sets(st.integers(min_value=0, max_value=17)),
)
@settings(max_examples=60, deadline=None)
def test_evaluate_rows_equal_scalar_estimates_exactly(batch, seed, psys_zero_levels):
    tbl = perturbed_table(seed, psys_zero_levels)
    report = evaluate_projects(batch, tbl)
    for p, row in zip(batch, report.rows):
        assert row.estimated == effort_for_project(p, tbl).effort


@pytest.mark.parametrize("block", [2048, 1])
def test_domain_error_names_first_offending_project(block, default_table, monkeypatch):
    # APPL is zero only at level 3 and TURN only at level 5, so only projects
    # rated exactly there fail; the first of them is named, even though a
    # later one fails the earlier TURN check, in one block or in several.
    monkeypatch.setattr(params, "BLOCK_ROWS", block)
    values = default_table.values.copy()
    values[params.RATED_COLUMN["APPL"], 2] = 0.0
    values[params.RATED_COLUMN["TURN"], 4] = 0.0
    tbl = default_table.with_values(values)
    batch = [
        SeerProject(id=name, size=1e4, actual_effort=1.0, ratings=ratings)
        for name, ratings in (("ok", {}), ("bad-appl", {"APPL": 3.0}),
                              ("bad-turn", {"TURN": 5.0}))
    ]
    message = "AEXPAPPL: APPL must be positive, got 0.0"
    with pytest.raises(EngineDomainError) as exc:
        evaluate_projects(batch, tbl)
    assert str(exc.value) == f"project 'bad-appl': {message}"
    with pytest.raises(EngineDomainError) as exc:
        effort_for_project(batch[1], tbl)
    assert str(exc.value) == message
    with pytest.raises(EngineDomainError, match="^project 'bad-turn': TURN must be positive"):
        evaluate_projects(batch[2:], tbl)
