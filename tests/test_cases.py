import pytest

from seercal.calibration import CalibrationConfig
from seercal.cases import CaseProtocol, change_summary, render_case_text, run_case, split
from seercal.errors import ProtocolError
from seercal.params import SeerProject
from seercal.synth import perturb_table, synthesize_projects


@pytest.fixture(scope="module")
def dataset93(default_table):
    return synthesize_projects(default_table, 93, seed=50, effort_noise=0.03)


def biased(projects, ids, factor=4.0):
    out = []
    for p in projects:
        scale = factor if p.id in ids else 1.0
        out.append(
            SeerProject(
                id=p.id, size=p.size, actual_effort=p.actual_effort * scale,
                sibr=p.sibr, ratings=dict(p.ratings),
            )
        )
    return out


def test_protocol_parsing():
    assert CaseProtocol.parse("c1").train_mre_limit == 0.5
    assert CaseProtocol.parse("C2").name == "c2"
    assert CaseProtocol.parse("c3").train_mre_limit == 1.5
    assert CaseProtocol.parse("c4-1").test_range == (1, 23)
    assert CaseProtocol.parse("c4-2").train_range == (47, 0)
    custom = CaseProtocol.parse("custom:train=24-93,test=1-23")
    assert custom.train_range == (24, 93) and custom.test_range == (1, 23)
    with pytest.raises(ProtocolError):
        CaseProtocol.parse("c9")


def test_c2_keeps_everything(dataset93):
    training, testing = split(dataset93, "c2")
    assert training == list(dataset93)
    assert testing == list(dataset93)
    assert len(training) == 93 and len(testing) == 93


def test_c4_splits_match_published_sizes(dataset93):
    training, testing = split(dataset93, "c4-1")
    assert len(training) == 70 and len(testing) == 23
    assert training[0].id == dataset93[23].id
    assert testing == list(dataset93[:23])

    training, testing = split(dataset93, "c4-2")
    assert len(training) == 47 and len(testing) == 46
    assert training[0].id == dataset93[46].id


def test_c1_keeps_all_when_no_outliers(default_table, dataset93):
    training, testing = split(dataset93, "c1", default_table)
    # 3% effort noise keeps every baseline MRE well under 50%
    assert len(training) == 93
    assert len(testing) == 93


def test_c1_drops_baseline_outliers(default_table, dataset93):
    bad_ids = {p.id for p in dataset93[:10]}
    projects = biased(dataset93, bad_ids, factor=4.0)
    training, testing = split(projects, "c1", default_table)
    assert len(testing) == 93
    assert len(training) == 83
    assert all(p.id not in bad_ids for p in training)


def test_c3_drops_only_extreme_outliers(default_table, dataset93):
    # scaling actuals DOWN drives MRE above 1: est/act = 1/factor
    mild = {p.id for p in dataset93[:5]}      # MRE ~ 66%
    extreme = {p.id for p in dataset93[5:9]}  # MRE ~ 300%
    projects = biased(biased(dataset93, mild, factor=0.6), extreme, factor=0.25)
    training, _ = split(projects, "c3", default_table)
    kept = {p.id for p in training}
    assert mild <= kept
    assert not (extreme & kept)


def test_mre_protocols_require_table(dataset93):
    with pytest.raises(ProtocolError, match="table"):
        split(dataset93, "c1")


def test_empty_training_split_is_an_error(default_table, dataset93):
    everything = {p.id for p in dataset93}
    projects = biased(dataset93, everything, factor=100.0)
    with pytest.raises(ProtocolError, match="empty"):
        split(projects, "c1", default_table)


def test_range_protocol_on_short_dataset(dataset93):
    with pytest.raises(ProtocolError):
        split(dataset93[:10], "c4-1")


def test_run_case_zero_alpha_changes_nothing(default_table, dataset93):
    config = CalibrationConfig(learning_rate=0.0, max_epochs=3)
    result = run_case(dataset93[:20], default_table, "c2", config)
    assert result.change["mmre"] == 0.0
    assert all(delta == 0.0 for delta in result.change["pred"].values())
    assert result.change["outliers"] == 0
    assert result.baseline == result.calibrated


def test_run_case_improves_perturbed_table(default_table):
    projects = synthesize_projects(default_table, 30, seed=51, effort_noise=0.02)
    start = perturb_table(default_table, rel_noise=0.2, seed=52)
    config = CalibrationConfig(
        learning_rate=0.1, max_epochs=80, tolerance=0.0, backtrack=True
    )
    result = run_case(projects, start, "c2", config)
    assert result.change["mmre"] < 0.0
    assert result.calibrated.mmre < result.baseline.mmre


def test_run_case_c41_reports_only_the_holdout(default_table, dataset93):
    config = CalibrationConfig(learning_rate=1e-3, max_epochs=2)
    result = run_case(dataset93, default_table, "c4-1", config)
    assert result.baseline.n_projects == 23
    reported = [r.id for r in result.baseline.rows]
    assert reported == [p.id for p in dataset93[:23]]


def test_run_case_with_industrial_holdout(default_table, dataset93):
    industrial = synthesize_projects(
        default_table, 6, seed=53, effort_noise=0.05, id_prefix="I"
    )
    config = CalibrationConfig(learning_rate=1e-3, max_epochs=2)
    result = run_case(dataset93[:15], default_table, "c2", config, industrial=industrial)
    assert result.industrial_baseline is not None
    assert result.industrial_baseline.n_projects == 6
    assert set(result.industrial_change) == {"mmre", "pred", "outliers"}
    text = render_case_text(result)
    assert "Industrial" in text


def test_change_summary_convention(default_table, dataset93):
    from seercal.metrics import evaluate_projects

    base = evaluate_projects(dataset93[:10], default_table)
    change = change_summary(base, base)
    assert change["mmre"] == 0.0
    assert change["outliers"] == 0


def test_case_result_to_dict(default_table, dataset93):
    config = CalibrationConfig(learning_rate=0.0, max_epochs=1)
    result = run_case(dataset93[:8], default_table, "c2", config)
    doc = result.to_dict()
    assert doc["protocol"] == "c2"
    assert doc["training"]["epochs_run"] <= 1
    assert "baseline" in doc and "calibrated" in doc and "change" in doc
