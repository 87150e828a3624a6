import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from seercal import params, table
from seercal.calibration import CalibrationConfig, train
from seercal.errors import TableFormatError
from seercal.synth import perturb_table, synthesize_projects
from seercal.table import (
    DECREASING,
    INCREASING,
    ValueTable,
    load_table,
    load_table_with_meta,
    save_table,
    synthetic_table,
    table_text,
    validate_table,
)


def brute_force_violations(row, direction):
    """Dumb pairwise scan used as the oracle for validate_table."""
    bad_pairs = []
    for r in range(len(row) - 1):
        if direction == INCREASING and row[r + 1] < row[r]:
            bad_pairs.append((r + 1, r + 2))
        if direction == DECREASING and row[r + 1] > row[r]:
            bad_pairs.append((r + 1, r + 2))
    nonpositive = [r + 1 for r in range(len(row)) if row[r] <= 0]
    return nonpositive, bad_pairs


def test_synthetic_table_is_valid(default_table):
    assert validate_table(default_table) == []
    assert default_table.values.shape == (34, 18)
    assert np.all(default_table.values > 0)


def test_synthetic_table_directions(default_table):
    assert default_table.direction("ACAP") == DECREASING
    assert default_table.direction("TEST") == INCREASING
    assert default_table.direction("D") == INCREASING
    # multiplier rows anchor at 1.0 on the Nominal grid point
    assert default_table.row("TEST")[7] == pytest.approx(1.0)
    assert default_table.row("ACAP")[7] == pytest.approx(1.0)


def test_monotonicity_violation_names_parameter_and_levels(default_table):
    values = default_table.values.copy()
    acap = params.RATED_COLUMN["ACAP"]
    values[acap, 10] = values[acap, 9] + 0.5  # levels (10, 11), direction decreasing
    violations = validate_table(default_table.with_values(values))
    assert len(violations) == 1
    v = violations[0]
    assert v.symbol == "ACAP" and v.kind == "monotonicity"
    assert v.levels == (10, 11)
    assert "ACAP" in str(v)


def test_positivity_violation(default_table):
    values = default_table.values.copy()
    test_row = params.RATED_COLUMN["TEST"]
    values[test_row, 0] = 0.0
    violations = validate_table(default_table.with_values(values))
    kinds = {v.kind for v in violations if v.symbol == "TEST"}
    assert "positivity" in kinds


@pytest.mark.parametrize(
    "value, kind, message",
    [
        (0.0, "positivity", "must be positive, got 0.0"),
        (-1.0, "positivity", "must be positive, got -1.0"),
        (float("nan"), "positivity", "must be positive, got nan"),
        (float("-inf"), "positivity", "must be positive, got -inf"),
        (float("inf"), "finiteness", "must be finite, got inf"),
    ],
)
def test_entry_violations_name_their_kind(default_table, value, kind, message):
    values = default_table.values.copy()
    values[params.RATED_COLUMN["MULT"], 17] = value  # last level of an increasing row
    violations = validate_table(default_table.with_values(values))
    assert [(v.kind, str(v)) for v in violations if v.kind != "monotonicity"] == [
        (kind, f"MULT: value at level 18 {message}")
    ]


def test_increasing_row_with_direction_satisfied_passes(default_table):
    values = default_table.values.copy()
    test_row = params.RATED_COLUMN["TEST"]
    values[test_row] = np.linspace(0.8, 1.4, 18)
    assert validate_table(default_table.with_values(values)) == []


@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=18, max_size=18),
    st.sampled_from([INCREASING, DECREASING]),
)
def test_validate_matches_brute_force_scan(row, direction):
    tbl = synthetic_table()
    values = tbl.values.copy()
    col = params.RATED_COLUMN["RVOL"]
    values[col] = row
    directions = list(tbl.directions)
    directions[col] = direction
    violations = [
        v for v in validate_table(ValueTable(values, tuple(directions)))
        if v.symbol == "RVOL"
    ]
    nonpositive, bad_pairs = brute_force_violations(row, direction)
    got_pairs = [v.levels for v in violations if v.kind == "monotonicity"]
    got_nonpos = [v.levels[0] for v in violations if v.kind == "positivity"]
    assert got_pairs == bad_pairs
    assert got_nonpos == nonpositive


def test_shape_validation():
    with pytest.raises(TableFormatError):
        ValueTable(np.ones((34, 17)), ("increasing",) * 34)
    with pytest.raises(TableFormatError):
        ValueTable(np.ones((34, 18)), ("increasing",) * 33)
    with pytest.raises(TableFormatError):
        ValueTable(np.ones((34, 18)), ("up",) * 34)


def test_save_load_round_trip(tmp_path, default_table):
    path = tmp_path / "table.yaml"
    save_table(default_table, path, meta={"label": "SYNTHETIC"})
    loaded, meta = load_table_with_meta(path)
    assert loaded.equals(default_table)
    assert meta["label"] == "SYNTHETIC"


def test_loader_rejects_missing_parameter(tmp_path, default_table):
    import yaml

    path = tmp_path / "table.yaml"
    save_table(default_table, path)
    doc = yaml.safe_load(path.read_text())
    del doc["parameters"]["ACAP"]
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(TableFormatError, match="missing parameter.*ACAP"):
        load_table(path)


def test_loader_rejects_unknown_parameter(tmp_path, default_table):
    import yaml

    path = tmp_path / "table.yaml"
    save_table(default_table, path)
    doc = yaml.safe_load(path.read_text())
    doc["parameters"]["BOGUS"] = doc["parameters"]["ACAP"]
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(TableFormatError, match="unknown parameter.*BOGUS"):
        load_table(path)


def test_loader_rejects_missing_level(tmp_path, default_table):
    import yaml

    path = tmp_path / "table.yaml"
    save_table(default_table, path)
    doc = yaml.safe_load(path.read_text())
    doc["parameters"]["TEST"]["values"] = doc["parameters"]["TEST"]["values"][:17]
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(TableFormatError, match="18 values"):
        load_table(path)


def test_loader_rejects_bad_direction(tmp_path, default_table):
    import yaml

    path = tmp_path / "table.yaml"
    save_table(default_table, path)
    doc = yaml.safe_load(path.read_text())
    doc["parameters"]["TEST"]["direction"] = "sideways"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(TableFormatError, match="direction"):
        load_table(path)


def test_loader_rejects_garbage(tmp_path):
    path = tmp_path / "table.yaml"
    path.write_text("not: [a table")
    with pytest.raises(TableFormatError):
        load_table(path)
    path.write_text("just_a_scalar")
    with pytest.raises(TableFormatError, match="parameters"):
        load_table(path)


def test_values_are_read_only(default_table):
    with pytest.raises(ValueError):
        default_table.values[0, 0] = 5.0


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_libyaml_text_matches_pure_python(tmp_path, default_table, monkeypatch):
    projects = synthesize_projects(default_table, 20, seed=71, effort_noise=0.1)
    start = perturb_table(default_table, rel_noise=0.2, seed=72)
    trace = train(projects, start, CalibrationConfig(learning_rate=0.05, max_epochs=5))
    meta = {"final_loss": trace.final_loss, "alphas": trace.alphas}
    texts = {}
    for dumper in (yaml.SafeDumper, yaml.CSafeDumper):
        monkeypatch.setattr(table, "_DUMPER", dumper)
        texts[dumper] = table_text(trace.table, meta=meta)
    assert texts[yaml.SafeDumper] == texts[yaml.CSafeDumper]
    path = tmp_path / "trained.yaml"
    path.write_text(texts[yaml.CSafeDumper], encoding="utf-8")
    loaded = {}
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        monkeypatch.setattr(table, "_LOADER", loader)
        loaded[loader] = load_table_with_meta(path)
    (tbl_py, meta_py), (tbl_c, meta_c) = loaded.values()
    assert tbl_c.equals(trace.table) and tbl_py.equals(trace.table)
    assert meta_c == meta_py == meta
