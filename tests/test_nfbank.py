import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seercal import params
from seercal.errors import CoordinateRangeError, DegenerateInputError
from seercal.nfbank import (
    bank_translate,
    firing_strengths,
    membership,
    nf_output,
    normalize,
    translate_matrix,
)
from seercal.params import SeerProject


def lerp_oracle(x, row):
    """Independent two-point interpolation between the bracketing grid values."""
    import math

    lo = min(int(math.floor(x)), 17)
    frac = x - lo
    return row[lo - 1] * (1.0 - frac) + row[lo] * frac


monotone_rows = st.builds(
    lambda start, steps: np.concatenate([[start], start + np.cumsum(steps)]),
    st.floats(min_value=0.1, max_value=5.0),
    st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=17, max_size=17
    ).map(np.asarray),
)


def test_membership_peak_and_base():
    assert membership(5, 5.0) == 1.0
    assert membership(5, 4.0) == 0.0
    assert membership(5, 6.0) == 0.0


def test_membership_rising_edge():
    assert membership(5, 4.25) == pytest.approx(0.25, abs=1e-15)


def test_membership_domain_is_padded_grid():
    assert membership(1, 0.0) == 0.0
    assert membership(18, 19.0) == 0.0
    with pytest.raises(CoordinateRangeError):
        membership(5, -0.1)
    with pytest.raises(CoordinateRangeError):
        membership(5, 19.1)
    with pytest.raises(CoordinateRangeError):
        membership(0, 5.0)
    with pytest.raises(CoordinateRangeError):
        membership(19, 5.0)


def test_firing_strengths_at_grid_point():
    w = firing_strengths(8.0)
    expected = np.zeros(18)
    expected[7] = 1.0
    assert np.array_equal(w, expected)


def test_firing_strengths_between_grid_points():
    w = firing_strengths(8.3)
    assert w[7] == pytest.approx(0.7, abs=1e-12)
    assert w[8] == pytest.approx(0.3, abs=1e-12)
    assert np.count_nonzero(w) == 2


def test_firing_strengths_rejects_bank_boundary():
    for x in (0.5, 18.5, 0.0, 19.0):
        with pytest.raises(CoordinateRangeError):
            firing_strengths(x)


@given(st.floats(min_value=1.0, max_value=18.0))
def test_partition_of_unity(x):
    assert abs(firing_strengths(x).sum() - 1.0) <= 1e-12


def test_normalize():
    w = np.zeros(18)
    w[3] = 1.0
    assert np.array_equal(normalize(w), w)
    w2 = np.zeros(18)
    w2[0], w2[1] = 0.7, 0.3
    assert np.allclose(normalize(w2), w2)
    w3 = np.zeros(18)
    w3[0], w3[1] = 2.0, 2.0
    out = normalize(w3)
    assert out[0] == 0.5 and out[1] == 0.5


def test_normalize_rejects_all_zero():
    with pytest.raises(DegenerateInputError):
        normalize(np.zeros(18))


def test_nf_output_at_grid_point(default_table):
    row = default_table.row("TEST")
    assert nf_output(8.0, row) == pytest.approx(row[7], abs=1e-15)


def test_nf_output_midpoint():
    row = np.ones(18)
    row[7], row[8] = 1.0, 1.2
    assert nf_output(8.5, row) == pytest.approx(1.1, abs=1e-12)


@given(
    st.floats(min_value=1.0, max_value=18.0),
    monotone_rows,
)
def test_nf_output_equals_lerp_oracle(x, row):
    assert nf_output(x, row) == pytest.approx(lerp_oracle(x, row), abs=1e-12, rel=1e-12)


@given(st.floats(min_value=1.0, max_value=18.0), monotone_rows)
def test_nf_output_range_preservation(x, row):
    out = nf_output(x, row)
    assert row.min() - 1e-12 <= out <= row.max() + 1e-12


@given(
    st.floats(min_value=1.0, max_value=17.9),
    st.floats(min_value=0.0, max_value=0.1),
    monotone_rows,
)
def test_nf_output_order_preservation(x, dx, row):
    assert nf_output(x + dx, row) >= nf_output(x, row) - 1e-12


def test_bank_translate_all_nominal_returns_nominal_column(default_table):
    p = SeerProject(id="p", size=1000.0, actual_effort=1.0)
    values = bank_translate(p, default_table)
    for sym in params.RATED_SYMBOLS:
        assert values[sym] == pytest.approx(default_table.row(sym)[7], abs=1e-15)
    assert values["SIBR"] == 0.0


def test_bank_translate_single_continuous_rating(default_table):
    p = SeerProject(
        id="p", size=1000.0, actual_effort=1.0, ratings={"TEST": 8.5}
    )
    values = bank_translate(p, default_table)
    row = default_table.row("TEST")
    assert values["TEST"] == pytest.approx((row[7] + row[8]) / 2, rel=1e-12)
    for sym in params.RATED_SYMBOLS:
        if sym != "TEST":
            assert values[sym] == pytest.approx(default_table.row(sym)[7], abs=1e-15)


def test_bank_translate_random_project_matches_oracle(default_table):
    rng = np.random.default_rng(42)
    ratings = {sym: float(rng.uniform(1, 18)) for sym in params.RATED_SYMBOLS}
    p = SeerProject(
        id="p", size=1000.0, actual_effort=1.0, sibr=0.3, ratings=ratings
    )
    values = bank_translate(p, default_table)
    for sym in params.RATED_SYMBOLS:
        expected = lerp_oracle(ratings[sym], default_table.row(sym))
        assert values[sym] == pytest.approx(expected, rel=1e-12)
    assert values["SIBR"] == 0.3


def test_translate_matrix_matches_scalar_bank(default_table):
    rng = np.random.default_rng(7)
    projects = [
        SeerProject(
            id=f"p{i}", size=1000.0, actual_effort=1.0,
            ratings={sym: float(rng.uniform(1, 18)) for sym in params.RATED_SYMBOLS},
        )
        for i in range(20)
    ]
    coords = np.array([p.coordinates() for p in projects])
    matrix = translate_matrix(coords, default_table)
    for i, p in enumerate(projects):
        for sym in params.RATED_SYMBOLS:
            reference = nf_output(p.ratings[sym], default_table.row(sym))
            assert matrix[i, params.RATED_COLUMN[sym]] == pytest.approx(
                reference, rel=1e-12, abs=1e-12
            )


def test_translate_matrix_rejects_out_of_range(default_table):
    coords = np.full((1, 34), 8.0)
    coords[0, 0] = 0.5
    with pytest.raises(CoordinateRangeError):
        translate_matrix(coords, default_table)
