import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seercal import params
from seercal.errors import CoordinateRangeError, RatingError, UnknownParameterError
from seercal.params import (
    RATING_LABELS,
    ProjectSet,
    SeerProject,
    coordinate_to_rating,
    parameter,
    rating_to_coordinate,
)

EXPECTED_ORDER = [
    "VLo-", "VLo", "VLo+", "Low-", "Low", "Low+", "Nom-", "Nom", "Nom+",
    "Hi-", "Hi", "Hi+", "VHi-", "VHi", "VHi+", "EHi-", "EHi", "EHi+",
]


def test_label_order_is_the_declared_total_order():
    assert list(RATING_LABELS) == EXPECTED_ORDER
    assert len(RATING_LABELS) == 18


@pytest.mark.parametrize(
    "label,coord", [("VLo-", 1.0), ("EHi+", 18.0), ("Nom", 8.0)]
)
def test_rating_to_coordinate_anchors(label, coord):
    assert rating_to_coordinate(label) == coord


def test_rating_to_coordinate_matches_position():
    for i, label in enumerate(EXPECTED_ORDER):
        assert rating_to_coordinate(label) == float(i + 1)


def test_unknown_label_names_the_token():
    with pytest.raises(RatingError, match="Medium"):
        rating_to_coordinate("Medium")


@pytest.mark.parametrize(
    "x,label",
    [(8.0, "Nom"), (8.4, "Nom"), (8.5, "Nom"), (8.51, "Nom+"), (1.0, "VLo-"),
     (18.0, "EHi+"), (17.5, "EHi"), (1.49, "VLo-")],
)
def test_coordinate_to_rating(x, label):
    assert coordinate_to_rating(x) == label


@pytest.mark.parametrize("x", [0.99, 18.01, -3.0, float("nan")])
def test_coordinate_to_rating_range_errors(x):
    with pytest.raises(CoordinateRangeError):
        coordinate_to_rating(x)


@given(st.sampled_from(EXPECTED_ORDER))
def test_label_coordinate_round_trip(label):
    assert coordinate_to_rating(rating_to_coordinate(label)) == label


def test_registry_shape():
    assert len(params.PARAMETERS) == 35
    assert len(params.RATED_SYMBOLS) == 34
    assert [p.index for p in params.PARAMETERS] == list(range(1, 36))


@pytest.mark.parametrize(
    "symbol,index",
    [("ACAP", 1), ("PCAP", 3), ("MODP", 8), ("TOOL", 9), ("TURN", 10),
     ("TERM", 11), ("REUS", 22), ("LANG", 23), ("DSY", 24), ("APPL", 25),
     ("PSYS", 26), ("TSYS", 31), ("TSVL", 32), ("SECR", 33), ("D", 34),
     ("SIBR", 35)],
)
def test_canonical_indices(symbol, index):
    assert parameter(symbol).index == index
    assert params.PARAMETERS[index - 1].symbol == symbol


def test_sibr_is_the_only_non_rated_parameter():
    assert not parameter("SIBR").rated
    assert all(parameter(s).rated for s in params.RATED_SYMBOLS)
    assert "SIBR" not in params.RATED_SYMBOLS


def test_project_fills_missing_ratings_with_nominal():
    p = SeerProject(id="a", size=1000.0, actual_effort=2.0)
    assert set(p.ratings) == set(params.RATED_SYMBOLS)
    assert all(v == 8.0 for v in p.ratings.values())


def test_project_accepts_labels_and_numbers():
    p = SeerProject(
        id="a", size=1000.0, actual_effort=2.0,
        ratings={"ACAP": "Hi+", "TEST": 9.25},
    )
    assert p.ratings["ACAP"] == 12.0
    assert p.ratings["TEST"] == 9.25


INVALID_FIELDS = [
    {"size": -1.0},
    {"actual_effort": 0.0},
    {"sibr": 1.5},
    {"weight": -0.1},
    {"ratings": {"ACAP": 19.0}},
    {"ratings": {"ACAP": 0.5}},
]


@pytest.mark.parametrize("kwargs", INVALID_FIELDS)
def test_project_validation_failures(kwargs):
    base = {"id": "a", "size": 1000.0, "actual_effort": 2.0}
    base.update(kwargs)
    with pytest.raises((CoordinateRangeError, RatingError)):
        SeerProject(**base)


def test_project_rejects_unknown_symbol():
    with pytest.raises(UnknownParameterError):
        SeerProject(id="a", size=1.0, actual_effort=1.0, ratings={"SIBR": 8})


def test_project_ratings_are_immutable():
    p = SeerProject(id="a", size=1000.0, actual_effort=2.0)
    with pytest.raises(TypeError):
        p.ratings["ACAP"] = 3.0


def project_columns(projects):
    return (
        [p.id for p in projects], [p.coordinates() for p in projects],
        [p.size for p in projects], [p.sibr for p in projects],
        [p.actual_effort for p in projects], [p.weight for p in projects],
    )


def test_project_set_is_a_sequence_of_projects():
    projects = [
        SeerProject(id=f"p{i}", size=1000.0 * (i + 1), actual_effort=2.0 + i,
                    sibr=i / 4, weight=float(i), ratings={"ACAP": 1.0 + i, "D": 17.5})
        for i in range(4)
    ]
    packed = ProjectSet.of(projects)
    assert ProjectSet.of(packed) is packed
    assert len(packed) == 4
    assert list(packed) == projects
    assert packed[-1] == projects[-1]
    head = packed[1:3]
    assert isinstance(head, ProjectSet)
    assert list(head) == projects[1:3]
    assert head.ids == ("p1", "p2")
    assert packed.coords.shape == (4, params.N_RATED)
    with pytest.raises(ValueError):
        head.sizes[0] = 1.0
    with pytest.raises(IndexError):
        packed[4]
    assert len(ProjectSet.of([])) == 0


def test_project_set_copies_the_callers_arrays():
    project = SeerProject(id="p", size=1000.0, actual_effort=2.0)
    ids, *columns = project_columns([project])
    columns = [np.array(c) for c in columns]
    packed = ProjectSet(ids, *columns)
    for column in columns:
        assert column.flags.writeable
        column[...] = 0.5
    assert list(packed) == [project]


@pytest.mark.parametrize("kwargs", INVALID_FIELDS)
def test_project_set_raises_the_first_invalid_rows_error(kwargs):
    # Rows 1 and 2 are invalid; row 1's SeerProject error is raised.
    ok = {"size": 1000.0, "actual_effort": 2.0, "sibr": 0.0, "weight": 1.0, "ratings": {}}
    with pytest.raises((CoordinateRangeError, RatingError)) as expected:
        SeerProject(id="bad", **{**ok, **kwargs})
    columns = project_columns([SeerProject(id=i, **ok) for i in ("ok", "bad", "worse")])
    for name, column in zip(("size", "sibr", "actual_effort", "weight"), columns[2:]):
        column[1] = column[2] = kwargs.get(name, column[1])
    for symbol, value in kwargs.get("ratings", {}).items():
        columns[1][1][params.RATED_COLUMN[symbol]] = value
    columns[1][2][0] = float("nan")
    with pytest.raises(type(expected.value)) as raised:
        ProjectSet(*columns)
    assert str(raised.value) == str(expected.value)
