"""Seeded input writers for the benchmark.

The benchmark owns these generators on purpose: they call no generator of
the package (``synthesize_projects``, ``perturb_table``, the demo-dataset
script), so a change to those cannot silently change the benchmark's inputs.
The same seed gives byte-identical files; the sha256 of every file goes into
the results so two commits can be shown to have run identical inputs.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import yaml

from seercal import params
from seercal.calibration import enforce_monotone
from seercal.engine import effort_for_project
from seercal.table import synthetic_table

LABELS = ("VL", "L", "N", "H", "VH", "XH")
LABEL_EFFECT = {"VL": 0.80, "L": 0.90, "N": 1.0, "H": 1.12, "VH": 1.25, "XH": 1.40}
# Capability-style drivers cut effort when rated high and stop at VH.
INVERTED = {"ACAP", "AEXP", "PCAP", "VEXP", "LEXP", "MODP", "TOOL"}
MODES = {"ORGANIC": (2.4, 1.05), "SEMIDETACHED": (3.0, 1.12), "EMBEDDED": (3.6, 1.20)}
# Drivers the packaged transfer mappings cover, fixed here so that a mapping
# edit cannot change which columns the generated files hold.
DRIVERS = {
    "COCOMO81": ("ACAP", "AEXP", "CPLX", "LEXP", "MODP", "PCAP", "RELY",
                 "STOR", "TIME", "TOOL", "TURN", "VEXP", "VIRT"),
    "COCOMO87": ("ACAP", "AEXP", "CPLX", "LEXP", "MODP", "PCAP", "RELY",
                 "RUSE", "STOR", "TIME", "TOOL", "TURN", "VEXP", "VMVH", "VMVT"),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_source_csv(path: Path, n: int, model: str, rng: np.random.Generator) -> None:
    """COCOMO 81/87 source-format rows: a size power law modulated by the
    driver ratings, times uniform noise in [0.7, 1.4] (person-months)."""
    drivers = DRIVERS[model]
    modes = list(MODES)
    lines = ["id,size_kloc,actual_effort,effort_unit,source_model,MODE," + ",".join(drivers)]
    mode_idx = rng.integers(0, len(modes), n)
    sizes = np.round(np.exp(rng.normal(2.8, 0.9, n)) + 2.0, 1).tolist()
    label_u = rng.random((n, len(drivers))).tolist()
    noise = rng.uniform(0.7, 1.4, n).tolist()
    for i in range(n):
        mode = modes[mode_idx[i]]
        a, b = MODES[mode]
        effort = a * sizes[i] ** b
        cells = []
        for k, d in enumerate(drivers):
            label = LABELS[int(label_u[i][k] * (5 if d in INVERTED else 6))]
            factor = LABEL_EFFECT[label]
            effort *= (1.0 / factor) if d in INVERTED else factor
            cells.append(label)
        effort = max(round(effort * noise[i], 1), 0.5)
        lines.append(
            f"{model[-2:]}-{i + 1:05d},{sizes[i]!r},{effort!r},person_months,{model},{mode},"
            + ",".join(cells)
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_coordinate_projects(path: Path, n: int, rng: np.random.Generator) -> None:
    """Canonical projects file with continuous coordinates uniform on [1, 18].

    Sizes are log-uniform on [5e3, 5e5] SLOC and SIBR uniform on [0, 0.5].
    Actual effort is the built-in synthetic table's own estimate times a
    uniform +-5 % noise, so that table is the ground truth to recover.
    """
    truth = synthetic_table()
    coords = rng.uniform(1.0, 18.0, (n, params.N_RATED))
    sizes = np.exp(rng.uniform(np.log(5e3), np.log(5e5), n))
    sibrs = rng.uniform(0.0, 0.5, n)
    noise = 1.0 + rng.uniform(-0.05, 0.05, n)
    header = ["id", "size_sloc", "actual_effort_py", "sibr", "weight", *params.RATED_SYMBOLS]
    lines = [",".join(header)]
    for i in range(n):
        ratings = dict(zip(params.RATED_SYMBOLS, coords[i].tolist()))
        probe = params.SeerProject(
            id=f"P{i + 1:05d}", size=float(sizes[i]), actual_effort=1.0,
            sibr=float(sibrs[i]), ratings=ratings,
        )
        actual = effort_for_project(probe, truth).effort * float(noise[i])
        cells = [probe.id, repr(probe.size), repr(actual), repr(probe.sibr), "1.0"]
        cells += [repr(v) for v in coords[i].tolist()]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_start_table(path: Path, rng: np.random.Generator, rel_noise: float = 0.2) -> None:
    """The synthetic table times uniform +-20 % noise, each row repaired to
    its declared direction with ``enforce_monotone``."""
    truth = synthetic_table()
    noisy = truth.values * rng.uniform(1.0 - rel_noise, 1.0 + rel_noise, truth.values.shape)
    doc = {"format": "seercal-value-table/1", "parameters": {}}
    for j, sym in enumerate(params.RATED_SYMBOLS):
        row = enforce_monotone(noisy[j], truth.directions[j])
        doc["parameters"][sym] = {
            "direction": truth.directions[j],
            "values": [float(v) for v in row],
        }
    path.write_text(yaml.safe_dump(doc, sort_keys=False, default_flow_style=None),
                    encoding="utf-8")
