import numpy as np
import pytest
from hypothesis import strategies as st

from seercal import params
from seercal.engine import compute_combined
from seercal.synth import perturb_table
from seercal.table import ValueTable, synthetic_table

# Baseline quantitative inputs: every multiplier at 1, plausible values for
# the combined-formula constituents.  D is carried alongside for bank parity.
BASE_VALUES = {
    "ACAP": 1.0, "AEXP": 1.0, "APPL": 1.0, "MODP": 1.0, "PCAP": 1.0,
    "TOOL": 1.0, "TERM": 1.0, "TURN": 1.0,
    "LANG": 3.0, "LEXP": 10.0, "TSYS": 2.0, "TEXP": 5.0,
    "DSY": 2.0, "DEXP": 5.0, "PSYS": 2.0, "PEXP": 5.0, "REUS": 1.5,
    "MULT": 1.0, "RDED": 1.0, "RLOC": 1.0, "DSVL": 1.0, "PSVL": 1.0,
    "RVOL": 1.0, "SPEC": 1.0, "TEST": 1.0, "QUAL": 1.0, "RHST": 1.0,
    "DISP": 1.0, "MEMC": 1.0, "TIMC": 1.0, "RTIM": 1.0, "SECR": 1.0,
    "TSVL": 1.0, "D": 10.0,
}


def engine_values(**overrides):
    v = dict(BASE_VALUES)
    v.update(overrides)
    return v


def compensated_values(sibr=0.0, **overrides):
    """Values that pin C_te to 2000: MULT cancels the combined adjustment
    factors and ACAP pins ctbx to its pivot."""
    v = engine_values(**overrides)
    pa_combined = (
        compute_combined("LANGLEXP", v["LANG"], v["LEXP"])
        * compute_combined("TSYSTEXP", v["TSYS"], v["TEXP"])
        * compute_combined("DSYSDEXP", v["DSY"], v["DEXP"])
        * compute_combined("PSYSPEXP", v["PSYS"], v["PEXP"])
        * compute_combined("SIBRREUS", sibr, v["REUS"])
    )
    v["MULT"] = 1.0 / pa_combined
    aexpappl = compute_combined("AEXPAPPL", v["AEXP"], v["APPL"])
    v["ACAP"] = 4.11 / aexpappl
    return v


# Projects for the scalar-vs-batch properties: coordinates at 1, 18 and the
# integer kinks, sizes from 1e-3 to 1e12 SLOC, SIBR at 0 and 1.
coordinates = st.one_of(
    st.sampled_from([1.0, 18.0]),
    st.integers(min_value=1, max_value=18).map(float),
    st.floats(min_value=1.0, max_value=18.0),
)
projects = st.builds(
    lambda i, size, sibr, coords: params.SeerProject(
        id=f"p{i}", size=size, actual_effort=1.0, sibr=sibr,
        ratings=dict(zip(params.RATED_SYMBOLS, coords)),
    ),
    st.integers(min_value=0, max_value=10**6),
    st.one_of(st.sampled_from([1e-3, 1.0, 1e12]), st.floats(min_value=1.0, max_value=1e9)),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    st.lists(coordinates, min_size=params.N_RATED, max_size=params.N_RATED),
)


def perturbed_table(seed, psys_zero_levels=()):
    """The synthetic table with 20 % noise, PSYS = 0 at the given levels."""
    values = perturb_table(synthetic_table(), rel_noise=0.2, seed=seed).values.copy()
    values[params.RATED_COLUMN["PSYS"], sorted(psys_zero_levels)] = 0.0
    return synthetic_table().with_values(values)


def demo_dataset_rows(n, model="COCOMO81", seed=0):
    """Small deterministic source-format dataset (CSV lines incl. header)."""
    import random

    from seercal.dataset import builtin_mapping

    rng = random.Random(seed)
    labels = ["VL", "L", "N", "H", "VH"]
    mapping = builtin_mapping(model)
    drivers = sorted({rule.source for rule in mapping.rules} - {"MODE"})
    header = (
        "id,size_kloc,actual_effort,effort_unit,source_model,MODE," + ",".join(drivers)
    )
    rows = [header]
    for i in range(n):
        mode = rng.choice(["ORGANIC", "SEMIDETACHED", "EMBEDDED"])
        size = round(rng.uniform(5, 150), 1)
        effort = round(size * rng.uniform(2.0, 12.0), 1)  # person-months
        cells = [f"P{i + 1:03d}", str(size), str(effort), "person_months", model, mode]
        cells += [rng.choice(labels) for _ in drivers]
        rows.append(",".join(cells))
    return rows


@pytest.fixture(scope="session")
def default_table():
    return synthetic_table()


@pytest.fixture(scope="session")
def identity_table():
    """Constant rows chosen so an all-Nominal, SIBR=0 project sees
    C_te == 2000; D keeps its ramp."""
    vals = compensated_values(sibr=0.0)
    synth = synthetic_table()
    rows = np.empty((params.N_RATED, params.N_LEVELS))
    directions = []
    for j, sym in enumerate(params.RATED_SYMBOLS):
        if sym == "D":
            rows[j] = synth.row("D")
        else:
            rows[j] = vals[sym]
        directions.append(synth.direction(sym))
    return ValueTable(rows, tuple(directions))
