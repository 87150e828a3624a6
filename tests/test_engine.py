import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compensated_values, engine_values, perturbed_table, projects
from seercal import params
from seercal.calibration import _Batch, _batch_efforts
from seercal.engine import (
    ADJUSTMENT_SINGLES,
    compute_combined,
    compute_ctbx,
    compute_effort,
    compute_parm_adjustment,
    effort_for_project,
)
from seercal.errors import EngineDomainError, MissingParameterError
from seercal.nfbank import bank_translate, translate_matrix


def reference_effort(size, d, sibr, v):
    """Straightforward single-pass transcription of the published equations,
    kept independent of the engine's stepwise path."""
    aexpappl = 0.82 + (0.47 * math.exp(-0.95977 * (v["AEXP"] / v["APPL"])))
    ctbx = v["ACAP"] * aexpappl * v["MODP"] * v["PCAP"] * v["TOOL"] * v["TERM"]
    c_tb = 2000.0 * math.exp(-3.70945 * math.log(ctbx / 4.11) / (5.0 * v["TURN"]))
    langlexp = 1 + ((1.11 + 0.085 * v["LANG"]) - 1) * math.exp(-v["LEXP"] / (v["LANG"] / 3))
    tsystexp = 1 + (0.035 + 0.025 * v["TSYS"]) * math.exp(-3 * v["TEXP"] / v["TSYS"])
    dsysdexp = 1 + (0.06 + 0.05 * v["DSY"]) * math.exp(-3 * v["DEXP"] / v["DSY"])
    if v["PSYS"] == 0:
        psyspexp = 1.0
    else:
        psyspexp = (
            0.91 ** v["PSYS"]
            + 0.23 * v["PSYS"] * math.exp(-3 * v["PEXP"] / v["PSYS"])
        ) ** 0.833
    sibrreus = sibr * v["REUS"] + 1
    parm = langlexp * tsystexp * dsysdexp * psyspexp * sibrreus
    for sym in ADJUSTMENT_SINGLES:
        parm *= v[sym]
    c_te = c_tb / parm
    k = d**0.4 * (size / c_te) ** 1.2
    return 0.393469 * k


def random_values(rng):
    v = {}
    for sym in ("ACAP", "MODP", "PCAP", "TOOL", "TERM"):
        v[sym] = rng.uniform(0.6, 1.6)
    for sym in ADJUSTMENT_SINGLES:
        v[sym] = rng.uniform(0.6, 1.6)
    v["TURN"] = rng.uniform(0.5, 4.0)
    v["AEXP"] = rng.uniform(0.1, 10.0)
    v["APPL"] = rng.uniform(0.5, 5.0)
    v["LANG"] = rng.uniform(0.5, 5.0)
    v["LEXP"] = rng.uniform(0.1, 10.0)
    v["TSYS"] = rng.uniform(0.5, 5.0)
    v["TEXP"] = rng.uniform(0.1, 10.0)
    v["DSY"] = rng.uniform(0.5, 5.0)
    v["DEXP"] = rng.uniform(0.1, 10.0)
    v["PSYS"] = rng.uniform(0.0, 5.0)
    v["PEXP"] = rng.uniform(0.1, 10.0)
    v["REUS"] = rng.uniform(1.0, 2.0)
    v["D"] = rng.uniform(2.0, 20.0)
    return v


# --- combined parameters ----------------------------------------------------


def test_psyspexp_is_one_when_psys_zero():
    assert compute_combined("PSYSPEXP", 0.0, 3.7) == 1.0
    assert compute_combined("PSYSPEXP", 0.0, 0.0) == 1.0


def test_sibrreus_with_zero_sibr():
    assert compute_combined("SIBRREUS", 0.0, 2.0) == 1.0


def test_aexpappl_at_zero_experience():
    assert compute_combined("AEXPAPPL", 0.0, 1.0) == pytest.approx(1.29, abs=1e-15)


def test_langlexp_frozen_value():
    # independent single-expression recomputation:
    # 1 + ((1.11 + 0.085*3) - 1) * exp(0) = 1.365
    assert compute_combined("LANGLEXP", 3.0, 0.0) == pytest.approx(1.365, rel=1e-12)


@pytest.mark.parametrize(
    "kind,a,b,fragment",
    [
        ("AEXPAPPL", 1.0, 0.0, "APPL"),
        ("LANGLEXP", 0.0, 1.0, "LANG"),
        ("TSYSTEXP", 0.0, 1.0, "TSYS"),
        ("DSYSDEXP", 0.0, 1.0, "DSY"),
        ("PSYSPEXP", -1.0, 1.0, "PSYS"),
        ("SIBRREUS", 1.5, 1.0, "SIBR"),
    ],
)
def test_combined_domain_errors_name_kind_and_argument(kind, a, b, fragment):
    with pytest.raises(EngineDomainError, match=fragment) as exc:
        compute_combined(kind, a, b)
    assert kind in str(exc.value)


def test_unknown_combined_kind():
    with pytest.raises(EngineDomainError):
        compute_combined("FOO", 1.0, 1.0)


# --- ctbx ---------------------------------------------------------------


def test_ctbx_product_of_ones():
    # AEXP/APPL chosen so the combined factor itself is what it is; force
    # the plain factors to 1 and check linearity instead.
    v = engine_values()
    aexpappl = compute_combined("AEXPAPPL", v["AEXP"], v["APPL"])
    assert compute_ctbx(v) == pytest.approx(aexpappl, rel=1e-12)
    v2 = engine_values(ACAP=2.0)
    assert compute_ctbx(v2) == pytest.approx(2.0 * aexpappl, rel=1e-12)


def test_ctbx_derived_product():
    v = engine_values(ACAP=1.1, AEXP=0.0, APPL=1.0, MODP=0.9, PCAP=1.2,
                      TOOL=1.0, TERM=1.0)
    # oracle: direct product evaluation, AEXPAPPL(0, 1) = 1.29
    assert compute_ctbx(v) == pytest.approx(1.1 * 1.29 * 0.9 * 1.2, rel=1e-12)
    assert compute_ctbx(v) == pytest.approx(1.53252, rel=1e-9)


def test_ctbx_missing_parameter_names_symbol():
    v = engine_values()
    del v["TERM"]
    with pytest.raises(MissingParameterError, match="TERM"):
        compute_ctbx(v)


# --- parm adjustment ------------------------------------------------------


def test_parm_adjustment_combined_only():
    v = engine_values()
    expected = (
        compute_combined("LANGLEXP", v["LANG"], v["LEXP"])
        * compute_combined("TSYSTEXP", v["TSYS"], v["TEXP"])
        * compute_combined("DSYSDEXP", v["DSY"], v["DEXP"])
        * compute_combined("PSYSPEXP", v["PSYS"], v["PEXP"])
    )
    assert compute_parm_adjustment(v, 0.0) == pytest.approx(expected, rel=1e-12)


def test_parm_adjustment_single_factor_scales():
    v = engine_values()
    base = compute_parm_adjustment(v, 0.0)
    v13 = engine_values(TEST=1.3)
    assert compute_parm_adjustment(v13, 0.0) == pytest.approx(1.3 * base, rel=1e-12)


def test_parm_adjustment_sibr_reuse():
    v = engine_values(REUS=2.0)
    base = compute_parm_adjustment(v, 0.0)
    with_reuse = compute_parm_adjustment(v, 0.5)
    # SIBRREUS goes from 1 to 0.5*2+1 = 2
    assert with_reuse == pytest.approx(2.0 * base, rel=1e-12)


def test_parm_adjustment_missing_parameter():
    v = engine_values()
    del v["TSVL"]
    with pytest.raises(MissingParameterError, match="TSVL"):
        compute_parm_adjustment(v, 0.0)


# --- effort ----------------------------------------------------------------


def test_ctbx_at_pivot_gives_exact_basic_technology():
    for turn in (0.5, 1.0, 2.0, 7.5):
        v = compensated_values(TURN=turn)
        b = compute_effort(50_000.0, 10.0, v, 0.0)
        assert b.ctbx == pytest.approx(4.11, rel=1e-12)
        assert b.basic_technology == pytest.approx(2000.0, rel=1e-12)


def test_unit_lifecycle_effort():
    v = compensated_values()
    b = compute_effort(2000.0, 1.0, v, 0.0)  # size == c_te, d == 1
    assert b.lifecycle_effort == pytest.approx(1.0, rel=1e-12)
    assert b.effort == pytest.approx(0.393469, rel=1e-12)


def test_effort_excel_style_cross_check():
    v = compensated_values()
    b = compute_effort(50_000.0, 10.0, v, 0.0)
    assert b.effective_technology == pytest.approx(2000.0, rel=1e-12)
    expected_k = 10.0**0.4 * 25.0**1.2
    assert b.lifecycle_effort == pytest.approx(expected_k, rel=1e-12)
    assert b.effort == pytest.approx(0.393469 * expected_k, rel=1e-12)
    assert b.effort == pytest.approx(47.04, abs=0.01)


def test_effort_breakdown_consistency():
    rng = np.random.default_rng(5)
    v = random_values(rng)
    b = compute_effort(30_000.0, v["D"], v, 0.25)
    assert b.effective_technology == pytest.approx(
        b.basic_technology / b.parm_adjustment, rel=1e-12
    )
    assert b.effort == pytest.approx(0.393469 * b.lifecycle_effort, rel=1e-12)


def test_effort_matches_brute_force_reference():
    rng = np.random.default_rng(11)
    for _ in range(300):
        v = random_values(rng)
        size = rng.uniform(1_000.0, 1_000_000.0)
        sibr = rng.uniform(0.0, 1.0)
        got = compute_effort(size, v["D"], v, sibr).effort
        want = reference_effort(size, v["D"], sibr, v)
        assert got == pytest.approx(want, rel=1e-9)


def test_single_shot_formula_equivalence():
    # stepwise C_tb -> C_te -> K equals the collapsed closed form
    rng = np.random.default_rng(13)
    for _ in range(50):
        v = random_values(rng)
        size = rng.uniform(1_000.0, 500_000.0)
        sibr = rng.uniform(0.0, 1.0)
        b = compute_effort(size, v["D"], v, sibr)
        collapsed = (
            0.393469
            * v["D"] ** 0.4
            * (size / 2000.0) ** 1.2
            * b.parm_adjustment**1.2
            * (b.ctbx / 4.11) ** (1.2 * 3.70945 / (5.0 * v["TURN"]))
        )
        assert b.effort == pytest.approx(collapsed, rel=1e-12)


@given(lam=st.sampled_from([0.5, 2.0, 10.0]))
@settings(max_examples=10)
def test_scaling_law_in_size(lam):
    v = engine_values()
    base = compute_effort(40_000.0, 10.0, v, 0.0).effort
    scaled = compute_effort(lam * 40_000.0, 10.0, v, 0.0).effort
    assert scaled / base == pytest.approx(lam**1.2, rel=1e-9)


@given(lam=st.sampled_from([0.5, 2.0, 10.0]))
@settings(max_examples=10)
def test_scaling_law_in_staffing(lam):
    v = engine_values()
    base = compute_effort(40_000.0, 10.0, v, 0.0).effort
    scaled = compute_effort(40_000.0, lam * 10.0, v, 0.0).effort
    assert scaled / base == pytest.approx(lam**0.4, rel=1e-9)


@given(
    lam=st.floats(min_value=0.2, max_value=5.0),
    sym=st.sampled_from(ADJUSTMENT_SINGLES),
)
@settings(max_examples=40)
def test_multiplicativity_of_adjustment_factors(lam, sym):
    v = engine_values()
    base = compute_effort(40_000.0, 10.0, v, 0.0).effort
    scaled = compute_effort(40_000.0, 10.0, engine_values(**{sym: lam}), 0.0).effort
    assert scaled / base == pytest.approx(lam**1.2, rel=1e-9)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"size": 0.0},
        {"size": -5.0},
        {"d": 0.0},
        {"turn": 0.0},
    ],
)
def test_effort_domain_errors(kwargs):
    v = engine_values()
    size = kwargs.get("size", 40_000.0)
    d = kwargs.get("d", 10.0)
    if "turn" in kwargs:
        v["TURN"] = kwargs["turn"]
    with pytest.raises(EngineDomainError):
        compute_effort(size, d, v, 0.0)


# --- scalar wrappers against the batch forward -------------------------------

@given(
    batch=st.lists(projects, min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=100),
    psys_zero_levels=st.sets(st.integers(min_value=0, max_value=17)),
)
@settings(max_examples=60, deadline=None)
def test_scalar_wrappers_equal_batch_forward_exactly(batch, seed, psys_zero_levels):
    tbl = perturbed_table(seed, psys_zero_levels)
    efforts = _batch_efforts(_Batch(batch), tbl.values)
    matrix = translate_matrix(np.array([p.coordinates() for p in batch]), tbl)
    for i, p in enumerate(batch):
        assert effort_for_project(p, tbl).effort == efforts[i]
        translated = bank_translate(p, tbl)
        assert [translated[sym] for sym in params.RATED_SYMBOLS] == matrix[i].tolist()
