"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import compensated_values, demo_dataset_rows, engine_values
from test_calibration import brute_force_isotonic
from test_engine import random_values, reference_effort

from seercal import params
from seercal.calibration import (
    CalibrationConfig,
    _Batch,
    _batch_forward,
    _loss_from_efforts,
    enforce_monotone,
    loss_gradient,
    train,
)
from seercal.cases import split
from seercal.cli import main as cli_main
from seercal.engine import compute_combined, compute_effort
from seercal.metrics import pred
from seercal.nfbank import firing_strengths, nf_output
from seercal.params import SeerProject
from seercal.synth import perturb_table, recovery_experiment, synthesize_projects
from seercal.table import DECREASING, INCREASING, save_table, synthetic_table, validate_table


@contextmanager
def criterion(name, budget=None):
    t0 = time.perf_counter()
    try:
        yield
        dt = time.perf_counter() - t0
        if budget is not None and dt >= budget:
            raise AssertionError(f"runtime {dt:.2f}s exceeds budget {budget}s")
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS ({dt:.2f}s)")


def test_c1_engine_oracle_equivalence():
    with criterion("1 engine-oracle-equivalence", budget=1.0):
        rng = np.random.default_rng(100)
        for _ in range(1000):
            v = random_values(rng)
            size = rng.uniform(1_000.0, 1_000_000.0)
            sibr = rng.uniform(0.0, 1.0)
            got = compute_effort(size, v["D"], v, sibr).effort
            want = reference_effort(size, v["D"], sibr, v)
            assert abs(got - want) <= 1e-9 * abs(want)


def test_c2_closed_form_anchors():
    with criterion("2 closed-form-anchors"):
        for turn in (0.5, 1.0, 3.0):
            b = compute_effort(50_000.0, 10.0, compensated_values(TURN=turn), 0.0)
            assert abs(b.ctbx - 4.11) <= 1e-12 * 4.11
            assert abs(b.basic_technology - 2000.0) <= 1e-12 * 2000.0
        b = compute_effort(2000.0, 1.0, compensated_values(), 0.0)  # K == 1
        assert abs(b.lifecycle_effort - 1.0) <= 1e-12
        assert abs(b.effort - 0.393469) <= 1e-12
        assert compute_combined("PSYSPEXP", 0.0, 7.3) == 1.0
        assert compute_combined("SIBRREUS", 0.0, 1.7) == 1.0


def test_c3_scaling_laws():
    with criterion("3 scaling-laws"):
        v = engine_values()
        base = compute_effort(40_000.0, 10.0, v, 0.0).effort
        for lam in (0.5, 2.0, 10.0):
            scaled = compute_effort(lam * 40_000.0, 10.0, v, 0.0).effort
            assert abs(scaled / base - lam**1.2) <= 1e-9 * lam**1.2
            scaled_d = compute_effort(40_000.0, lam * 10.0, v, 0.0).effort
            assert abs(scaled_d / base - lam**0.4) <= 1e-9 * lam**0.4


def test_c4_nf_interpolation():
    with criterion("4 nf-interpolation"):
        rng = np.random.default_rng(101)
        for _ in range(10_000):
            row = np.cumsum(rng.uniform(0.0, 1.0, 18)) + rng.uniform(0.1, 2.0)
            x = float(rng.uniform(1.0, 18.0))
            lo = min(int(math.floor(x)), 17)
            frac = x - lo
            expected = row[lo - 1] * (1.0 - frac) + row[lo] * frac
            assert abs(nf_output(x, row) - expected) <= 1e-12 * max(1.0, abs(expected))
        grid = np.arange(1.0, 18.0 + 1e-9, 1e-3)
        levels = np.arange(1, 19, dtype=float)
        sums = np.maximum(0.0, 1.0 - np.abs(grid[:, None] - levels[None, :])).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12
        # spot-check the vectorized grid against the public function
        for x in (1.0, 4.25, 9.5, 18.0):
            assert abs(firing_strengths(x).sum() - 1.0) <= 1e-12


def test_c5_gradient_correctness():
    with criterion("5 gradient-correctness", budget=30.0):
        rng = np.random.default_rng(102)
        base_table = synthetic_table()
        for ds in range(50):
            tbl = perturb_table(base_table, rel_noise=0.1, seed=200 + ds)
            n = int(rng.integers(1, 11))
            truth = synthesize_projects(tbl, n, seed=300 + ds, effort_noise=0.0)
            projects = [
                SeerProject(
                    id=p.id, size=p.size,
                    actual_effort=p.actual_effort * float(rng.uniform(0.6, 1.8)),
                    sibr=p.sibr, ratings=dict(p.ratings),
                )
                for p in truth
            ]
            analytic = loss_gradient(projects, tbl)
            batch = _Batch(projects)

            def loss_of(values):
                return _loss_from_efforts(batch, _batch_forward(batch, values).effort)

            values = tbl.values.copy()
            for col in range(params.N_RATED):
                for lvl in range(params.N_LEVELS):
                    h = 1e-6 * max(1.0, abs(values[col, lvl]))
                    orig = values[col, lvl]
                    values[col, lvl] = orig + h
                    up = loss_of(values)
                    values[col, lvl] = orig - h
                    down = loss_of(values)
                    values[col, lvl] = orig
                    fd = (up - down) / (2.0 * h)
                    a = analytic[col, lvl]
                    if abs(fd) < 1e-3:
                        assert abs(a - fd) <= 1e-8, (ds, col, lvl, a, fd)
                    else:
                        assert abs(a - fd) <= 1e-5 * abs(fd), (ds, col, lvl, a, fd)


def test_c6_constraint_preservation():
    with criterion("6 constraint-preservation"):
        tbl = synthetic_table()
        projects = synthesize_projects(tbl, 15, seed=103, effort_noise=0.1)
        start = perturb_table(tbl, rel_noise=0.15, seed=104)
        for config in (
            CalibrationConfig(learning_rate=0.05, max_epochs=25, tolerance=0.0),
            CalibrationConfig(learning_rate=5.0, max_epochs=10, tolerance=0.0),
            CalibrationConfig(learning_rate=0.0, max_epochs=2),
        ):
            trace = train(projects, start, config)
            assert validate_table(trace.table) == []
        # exhaustive pool structures: every ordering of 5 distinct values,
        # plus random rows of every length up to 5
        rng = np.random.default_rng(105)
        for perm in itertools.permutations((1.0, 2.0, 3.0, 4.0, 5.0)):
            for direction in (INCREASING, DECREASING):
                got = enforce_monotone(list(perm), direction)
                want = brute_force_isotonic(list(perm), direction)
                assert np.max(np.abs(np.asarray(got) - np.asarray(want))) <= 1e-9
        for n in range(1, 6):
            for _ in range(200):
                row = list(rng.uniform(0.1, 5.0, n))
                for direction in (INCREASING, DECREASING):
                    got = enforce_monotone(row, direction)
                    want = brute_force_isotonic(row, direction)
                    assert np.max(np.abs(np.asarray(got) - np.asarray(want))) <= 1e-9


def test_c7_synthetic_calibration_recovery():
    with criterion("7 synthetic-recovery", budget=60.0):
        result = recovery_experiment(
            n_projects=60, seed=7, effort_noise=0.05, table_noise=0.2
        )
        assert result.case.protocol == "c2"
        assert result.final_mmre <= 0.5 * result.initial_mmre, (
            result.initial_mmre, result.final_mmre,
        )
        losses = [result.trace.initial_loss] + result.trace.losses
        assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))
        assert validate_table(result.trace.table) == []


def test_c8_protocol_fidelity(default_table):
    with criterion("8 protocol-fidelity"):
        projects = synthesize_projects(default_table, 93, seed=106, effort_noise=0.03)
        training, testing = split(projects, "c4-1")
        assert (len(training), len(testing)) == (70, 23)
        training, testing = split(projects, "c4-2")
        assert (len(training), len(testing)) == (47, 46)
        training, testing = split(projects, "c2")
        assert (len(training), len(testing)) == (93, 93)
        # published PRED worked example: n=100, k=80 at L=30%
        pairs = [(1.0, 1.0)] * 80 + [(2.0, 1.0)] * 20
        assert pred(pairs, 0.30) == 0.80


def test_c9_cmd_case_determinism(tmp_path, default_table):
    with criterion("9 case-determinism"):
        dataset = tmp_path / "dataset.csv"
        dataset.write_text("\n".join(demo_dataset_rows(16, seed=5)) + "\n")
        table_path = tmp_path / "table.yaml"
        save_table(default_table, table_path)
        args = [
            "case", "--dataset", str(dataset), "--table", str(table_path),
            "--protocol", "c2", "--alpha", "0.02", "--epochs", "8",
            "--tolerance", "0",
        ]
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert cli_main(args + ["--outdir", str(out1)]) == 0
        assert cli_main(args + ["--outdir", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert sorted(p.name for p in out2.iterdir()) == names
        checked = 0
        for name in names:
            if name == "manifest.json":
                continue  # timestamps live here by design
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
            checked += 1
        assert checked >= 6
        # manifests agree on everything but the clock
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        for volatile in ("started_at", "finished_at"):
            m1.pop(volatile), m2.pop(volatile)
        assert m1 == m2
