import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seercal import params
from seercal.dataset import (
    COCOMO81,
    COCOMO87,
    MappingRule,
    MappingTable,
    RawProjectRecord,
    builtin_mapping,
    load_mapping,
    load_projects,
    parse_dataset,
    save_projects,
    transfer,
    transfer_all,
)
from seercal.errors import (
    CoordinateRangeError,
    DatasetParseError,
    DatasetSchemaError,
    MappingError,
)
from seercal.params import SeerProject
from seercal.synth import synthesize_projects

HEADER = "id,size_kloc,actual_effort,effort_unit,source_model,ACAP,AEXP,TOOL,MODE"


def write_csv(tmp_path, rows, header=HEADER, name="data.csv"):
    path = tmp_path / name
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


def test_parse_well_formed_rows(tmp_path):
    path = write_csv(
        tmp_path,
        [
            "P1,10,120,person_months,COCOMO81,N,H,L,ORGANIC",
            "P2,25.5,60,person_months,COCOMO81,VL,N,N,EMBEDDED",
            "P3,5,2.5,person_years,COCOMO81,XH,VH,H,SEMIDETACHED",
        ],
    )
    records = parse_dataset(path)
    assert len(records) == 3
    assert records[0].id == "P1"
    assert records[0].size_kloc == 10.0
    assert records[0].ratings["ACAP"] == "N"


def test_parse_normalizes_person_months(tmp_path):
    path = write_csv(tmp_path, ["P1,10,120,person_months,COCOMO81,N,N,N,ORGANIC"])
    rec = parse_dataset(path)[0]
    assert rec.actual_effort == pytest.approx(10.0)
    assert rec.effort_unit == "person_months"
    path2 = write_csv(tmp_path, ["P1,10,10,person_years,COCOMO81,N,N,N,ORGANIC"],
                      name="d2.csv")
    assert parse_dataset(path2)[0].actual_effort == pytest.approx(10.0)


def test_parse_defaults_to_person_months(tmp_path):
    path = write_csv(
        tmp_path, ["P1,10,24,,COCOMO81,N,N,N,ORGANIC"],
    )
    assert parse_dataset(path)[0].actual_effort == pytest.approx(2.0)


def test_parse_rejects_bad_label_naming_row_and_label(tmp_path):
    path = write_csv(
        tmp_path,
        [
            "P1,10,120,person_months,COCOMO81,N,N,N,ORGANIC",
            "P2,10,120,person_months,COCOMO81,MEDIUM,N,N,ORGANIC",
        ],
    )
    with pytest.raises(DatasetParseError, match="row 3.*MEDIUM"):
        parse_dataset(path)


def test_parse_rejects_unknown_driver_column(tmp_path):
    path = write_csv(
        tmp_path, ["P1,10,120,person_months,COCOMO81,N"],
        header="id,size_kloc,actual_effort,effort_unit,source_model,WOBBLE",
    )
    with pytest.raises(DatasetSchemaError, match="WOBBLE"):
        parse_dataset(path)


def test_parse_rejects_driver_foreign_to_model(tmp_path):
    # VIRT exists only in COCOMO81; a COCOMO87 row may not rate it
    path = write_csv(
        tmp_path, ["P1,10,120,person_months,COCOMO87,N"],
        header="id,size_kloc,actual_effort,effort_unit,source_model,VIRT",
    )
    with pytest.raises(DatasetParseError, match="VIRT"):
        parse_dataset(path)


def test_parse_rejects_nonpositive_numbers(tmp_path):
    path = write_csv(tmp_path, ["P1,0,120,person_months,COCOMO81,N,N,N,ORGANIC"])
    with pytest.raises(DatasetParseError, match="row 2"):
        parse_dataset(path)


def test_parse_missing_required_column(tmp_path):
    path = write_csv(tmp_path, ["P1,10"], header="id,size_kloc")
    with pytest.raises(DatasetSchemaError, match="actual_effort"):
        parse_dataset(path)


# --- mappings ----------------------------------------------------------------


def test_builtin_mappings_load_and_validate():
    for model in ("COCOMO81", "COCOMO87"):
        m = builtin_mapping(model)
        assert m.source_model == model
        assert m.default_coordinate == 8.0
        targets = [r.target for r in m.rules]
        assert len(targets) == len(set(targets))
    m87 = builtin_mapping("COCOMO87")
    by_source = {(r.source, r.target) for r in m87.rules}
    assert ("VMVH", "DSVL") in by_source
    assert ("VMVT", "TSVL") in by_source
    assert ("RUSE", "REUS") in by_source


def test_mapping_rejects_duplicate_target():
    rule = MappingRule("ACAP", "ACAP", {"N": 8.0})
    dup = MappingRule("PCAP", "ACAP", {"N": 8.0})
    with pytest.raises(MappingError, match="two rules"):
        MappingTable("COCOMO81", (rule, dup))


def test_mapping_rejects_unknown_target_or_source():
    with pytest.raises(MappingError):
        MappingTable("COCOMO81", (MappingRule("ACAP", "SIBR", {"N": 8.0}),))
    with pytest.raises(MappingError):
        MappingTable("COCOMO81", (MappingRule("RUSE", "REUS", {"N": 8.0}),))


def test_load_mapping_bad_coordinate(tmp_path):
    path = tmp_path / "m.yaml"
    path.write_text(
        "source_model: COCOMO81\nrules:\n"
        "  - {source: ACAP, target: ACAP, ratings: {N: 25}}\n"
    )
    with pytest.raises(MappingError):
        load_mapping(path)


# --- transfer ----------------------------------------------------------------


def make_record(model="COCOMO81", **ratings):
    return RawProjectRecord(
        id="R1", size_kloc=10.0, actual_effort=5.0, effort_unit="person_years",
        ratings=ratings, source_model=model,
    )


def full_81_record(label="N", mode="SEMIDETACHED"):
    mapping = builtin_mapping("COCOMO81")
    ratings = {rule.source: label for rule in mapping.rules if rule.source != "MODE"}
    ratings["MODE"] = mode
    return make_record(**ratings)


def test_transfer_nominal_fixed_point():
    record = full_81_record(label="N", mode="SEMIDETACHED")
    project = transfer(record, builtin_mapping("COCOMO81"))
    assert set(project.ratings) == set(params.RATED_SYMBOLS)
    assert all(v == 8.0 for v in project.ratings.values())
    assert project.size == pytest.approx(10_000.0)
    assert project.sibr == 0.0


def test_transfer_cocomo87_volatility_drivers():
    mapping = builtin_mapping("COCOMO87")
    ratings = {rule.source: "N" for rule in mapping.rules if rule.source != "MODE"}
    ratings["MODE"] = "SEMIDETACHED"
    ratings["VMVH"] = "H"
    ratings["VMVT"] = "VH"
    record = make_record(model="COCOMO87", **ratings)
    project = transfer(record, mapping)
    assert project.ratings["DSVL"] == 11.0  # Hi
    assert project.ratings["TSVL"] == 14.0  # VHi


def test_transfer_unmapped_parameters_default_to_nominal():
    record = full_81_record()
    project = transfer(record, builtin_mapping("COCOMO81"))
    # LANG has no source driver in the default mapping
    assert project.ratings["LANG"] == 8.0


def test_transfer_missing_driver_is_a_mapping_error():
    record = make_record(ACAP="N")  # most drivers absent
    with pytest.raises(MappingError, match="absent"):
        transfer(record, builtin_mapping("COCOMO81"))


def test_transfer_wrong_source_model():
    record = full_81_record()
    with pytest.raises(MappingError, match="COCOMO87"):
        transfer(record, builtin_mapping("COCOMO87"))


def test_transfer_is_deterministic_and_idempotent():
    record = full_81_record(label="H", mode="EMBEDDED")
    mapping = builtin_mapping("COCOMO81")
    a = transfer(record, mapping)
    b = transfer(record, mapping)
    assert dict(a.ratings) == dict(b.ratings)
    assert a.size == b.size and a.actual_effort == b.actual_effort


def test_transfer_all_selects_mapping_per_model():
    rec81 = full_81_record()
    m87 = builtin_mapping("COCOMO87")
    ratings87 = {rule.source: "N" for rule in m87.rules if rule.source != "MODE"}
    ratings87["MODE"] = "ORGANIC"
    rec87 = RawProjectRecord(
        id="R2", size_kloc=4.0, actual_effort=2.0, effort_unit="person_years",
        ratings=ratings87, source_model="COCOMO87",
    )
    projects = transfer_all([rec81, rec87])
    assert len(projects) == 2
    assert projects[1].ratings["D"] == 5.0  # ORGANIC -> Low


# --- canonical project files --------------------------------------------------


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_save_load_projects_round_trip(tmp_path, default_table, suffix):
    projects = synthesize_projects(default_table, 6, seed=40)
    path = tmp_path / f"projects{suffix}"
    save_projects(projects, path)
    loaded = load_projects(path)
    assert len(loaded) == len(projects)
    for a, b in zip(projects, loaded):
        assert a.id == b.id
        assert a.size == pytest.approx(b.size, rel=1e-15)
        assert a.actual_effort == pytest.approx(b.actual_effort, rel=1e-15)
        assert a.sibr == pytest.approx(b.sibr, rel=1e-15)
        for sym in params.RATED_SYMBOLS:
            assert a.ratings[sym] == pytest.approx(b.ratings[sym], rel=1e-15)


# --- exact errors on adversarial input -------------------------------------

PROJECT_HEADER = "id,size_sloc,actual_effort_py,sibr,weight," + ",".join(params.RATED_SYMBOLS)


def project_row(pid="P1", size="1000.0", effort="5.0", sibr="0.0", weight="1.0", **coords):
    cells = [pid, size, effort, sibr, weight]
    cells += [coords.get(s, "8.0") for s in params.RATED_SYMBOLS]
    return ",".join(cells)


def message_of(call, *args):
    try:
        call(*args)
    except (TypeError, ValueError) as exc:
        return str(exc)
    raise AssertionError("expected an exception")


def assert_raises_exactly(exc_type, message, call, *args):
    with pytest.raises(exc_type) as info:
        call(*args)
    assert type(info.value) is exc_type
    assert str(info.value) == message


def test_load_projects_skips_blank_lines_and_counts_rows_read(tmp_path):
    path = write_csv(
        tmp_path, [project_row("P1"), "", project_row("P2"), "", project_row("P3", size="abc")],
        header=PROJECT_HEADER,
    )
    # Blank lines are skipped and not counted: P3 is the third row read.
    assert_raises_exactly(
        DatasetParseError,
        f"{path}: row 4: bad numeric field: {message_of(float, 'abc')}",
        load_projects, path,
    )
    path = write_csv(tmp_path, [project_row("P1"), "", project_row("P2")],
                     header=PROJECT_HEADER, name="ok.csv")
    assert [p.id for p in load_projects(path)] == ["P1", "P2"]


def test_load_projects_short_rows(tmp_path):
    # Missing trailing rating cells read as Nominal ...
    path = write_csv(tmp_path, ["P1,1000.0,5.0,0.25,2.0,3.0"], header=PROJECT_HEADER)
    (project,) = load_projects(path)
    assert project == SeerProject(id="P1", size=1000.0, actual_effort=5.0, sibr=0.25,
                                  weight=2.0, ratings={"ACAP": 3.0})
    # ... but a missing effort is a bad numeric field.
    path = write_csv(tmp_path, [project_row("P1"), "P2,1000.0"],
                     header=PROJECT_HEADER, name="short.csv")
    assert_raises_exactly(
        DatasetParseError,
        f"{path}: row 3: bad numeric field: {message_of(float, None)}",
        load_projects, path,
    )


@pytest.mark.parametrize("size", ["nan", "inf", "-inf", "0"])
def test_load_projects_rejects_nonfinite_or_nonpositive_size(tmp_path, size):
    path = write_csv(tmp_path, [project_row("P1"), project_row("P2", size=size)],
                     header=PROJECT_HEADER)
    assert_raises_exactly(
        CoordinateRangeError,
        f"project 'P2': size must be positive, got {float(size)!r}",
        load_projects, path,
    )


def test_load_projects_rejects_coordinate_19_and_sibr_above_one(tmp_path):
    path = write_csv(tmp_path, [project_row("P1"), project_row("P2", TEST="19")],
                     header=PROJECT_HEADER)
    assert_raises_exactly(
        CoordinateRangeError, "rating coordinate 19.0 outside [1, 18]", load_projects, path,
    )
    path = write_csv(tmp_path, [project_row("P1", sibr="1.5")],
                     header=PROJECT_HEADER, name="sibr.csv")
    assert_raises_exactly(
        CoordinateRangeError, "project 'P1': SIBR must lie in [0, 1], got 1.5",
        load_projects, path,
    )


def test_load_projects_empty_cells_take_defaults(tmp_path):
    path = write_csv(tmp_path, [project_row("P1", sibr="", weight="", ACAP="", D="3.5")],
                     header=PROJECT_HEADER)
    (project,) = load_projects(path)
    assert project == SeerProject(id="P1", size=1000.0, actual_effort=5.0,
                                  ratings={"D": 3.5})
    assert project.ratings["ACAP"] == params.NOMINAL_COORDINATE
    assert (project.sibr, project.weight) == (0.0, 1.0)
    path = write_csv(tmp_path, [project_row("P1", effort="")],
                     header=PROJECT_HEADER, name="effort.csv")
    assert_raises_exactly(
        DatasetParseError,
        f"{path}: row 2: bad numeric field: {message_of(float, '')}",
        load_projects, path,
    )


@pytest.mark.parametrize("range_first", [True, False])
def test_load_projects_reports_the_first_bad_row(tmp_path, range_first):
    # A range error in row 4 beats a non-numeric cell in row 7, and the
    # other way round.
    rows = [project_row(f"P{i}") for i in range(1, 8)]
    bad_range, bad_cell = (2, 5) if range_first else (5, 2)
    rows[bad_range] = project_row(f"P{bad_range + 1}", TOOL="19")
    rows[bad_cell] = project_row(f"P{bad_cell + 1}", TOOL="x", weight="w")
    path = write_csv(tmp_path, rows, header=PROJECT_HEADER)
    if range_first:
        expected = (CoordinateRangeError, "rating coordinate 19.0 outside [1, 18]")
    else:
        # The first bad cell in registry order (TOOL before weight) is named.
        expected = (DatasetParseError,
                    f"{path}: row 4: bad numeric field: {message_of(float, 'x')}")
    assert_raises_exactly(*expected, load_projects, path)


def nominal_81_record(rec_id, **fields):
    record = full_81_record()
    return RawProjectRecord(
        id=rec_id, size_kloc=fields.get("size_kloc", 10.0),
        actual_effort=fields.get("actual_effort", 5.0), effort_unit="person_years",
        ratings=fields.get("ratings", record.ratings), source_model="COCOMO81",
        sibr=fields.get("sibr", 0.0), weight=fields.get("weight", 1.0),
    )


@pytest.mark.parametrize("mapping_first", [True, False])
def test_transfer_all_reports_the_first_failing_record(mapping_first):
    records = [nominal_81_record(f"R{i}") for i in range(1, 7)]
    bad_sibr, bad_label = (4, 1) if mapping_first else (2, 4)
    records[bad_sibr] = nominal_81_record(f"R{bad_sibr + 1}", sibr=1.5)
    ratings = dict(records[bad_label].ratings)
    del ratings["TOOL"]
    records[bad_label] = nominal_81_record(f"R{bad_label + 1}", ratings=ratings)
    if mapping_first:
        expected = (MappingError, "project 'R2': rule TOOL->TOOL references a "
                                  "driver absent from the record")
    else:
        expected = (CoordinateRangeError, "project 'R3': SIBR must lie in [0, 1], got 1.5")
    assert_raises_exactly(*expected, transfer_all, records)


def test_transfer_all_errors_name_label_and_range():
    ratings = {**full_81_record().ratings, "ACAP": "MEDIUM"}
    records = [nominal_81_record("R1"), nominal_81_record("R2", ratings=ratings)]
    assert_raises_exactly(
        MappingError,
        "project 'R2': rule ACAP->ACAP has no transform for label 'MEDIUM'",
        transfer_all, records,
    )
    assert_raises_exactly(
        CoordinateRangeError, "project 'R1': size must be positive, got nan",
        transfer_all, [nominal_81_record("R1", size_kloc=float("nan"))],
    )


def test_transfer_all_names_an_unknown_or_unmapped_model():
    unknown = replace(nominal_81_record("R2"), source_model="COCOMO2")
    assert_raises_exactly(MappingError, "unknown source model 'COCOMO2'",
                          transfer_all, [nominal_81_record("R1"), unknown])
    assert_raises_exactly(
        CoordinateRangeError, "project 'R1': SIBR must lie in [0, 1], got 1.5",
        transfer_all, [nominal_81_record("R1", sibr=1.5), unknown],
    )
    assert_raises_exactly(
        MappingError,
        "project 'R1': record is COCOMO81 but the mapping covers COCOMO87",
        transfer_all, [nominal_81_record("R1")], {COCOMO81: builtin_mapping(COCOMO87)},
    )


# --- round trip -------------------------------------------------------------


def _reference_project(record):
    """A record transferred by hand, one SeerProject at a time."""
    mapping = builtin_mapping(record.source_model)
    ratings = {rule.target: rule.ratings[record.ratings[rule.source]] for rule in mapping.rules}
    return SeerProject(
        id=record.id, size=record.size_kloc * 1000.0, actual_effort=record.actual_effort,
        sibr=record.sibr, ratings=ratings, weight=record.weight,
    )


@st.composite
def source_records(draw):
    model = draw(st.sampled_from(["COCOMO81", "COCOMO87"]))
    mapping = builtin_mapping(model)
    ratings = {
        rule.source: draw(st.sampled_from(sorted(rule.ratings))) for rule in mapping.rules
    }
    positive = st.floats(min_value=1e-6, max_value=1e6)
    return RawProjectRecord(
        id=draw(st.text(alphabet='Pp0123456789 ,"-', min_size=1, max_size=8)),
        size_kloc=draw(positive), actual_effort=draw(positive), effort_unit="person_years",
        ratings=ratings, source_model=model,
        sibr=draw(st.floats(min_value=0.0, max_value=1.0)),
        weight=draw(st.floats(min_value=0.0, max_value=1e3)),
    )


@pytest.mark.parametrize("suffix", [".csv", ".json"])
@given(records=st.lists(source_records(), max_size=12))
@settings(max_examples=40, deadline=None)
def test_transfer_save_load_round_trip_equals_one_at_a_time(suffix, records):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / f"projects{suffix}"
        save_projects(transfer_all(records), path)
        loaded = load_projects(path)
    assert len(loaded) == len(records)
    assert list(loaded) == [_reference_project(r) for r in records]
