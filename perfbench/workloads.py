"""The three workloads: inputs, the timed CLI operation, its checks, the
functions the traced run wraps in spans, and probes of the layers that a
workload's operation does not call.

Every operation writes into a fresh output directory: rerunning ``case``
into an existing directory on an ext4 root raised wall time from about
0.29 s to 0.7-1.1 s while CPU time stayed near 0.3 s.  That delay is disk
write-back of the replaced files, not program work, so the benchmark keeps
it out of every timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import traceback
from pathlib import Path

import numpy as np

import gen
from seercal import calibration, cases, cli, engine, metrics, params
from seercal.calibration import (
    CalibrationConfig,
    enforce_monotone,
    loss,
    loss_gradient,
    train,
)
from seercal.dataset import (
    load_projects,
    parse_dataset,
    save_projects,
    transfer_all,
)
from seercal.engine import effort_for_project
from seercal.metrics import evaluate_projects
from seercal.table import (
    load_table,
    load_table_with_meta,
    save_table,
    synthetic_table,
    table_text,
    validate_table,
)

PROTOCOLS = ("c1", "c2", "c3", "c4-1", "c4-2")

# (owner, attribute, span name): the traced run replaces each attribute by a
# span-wrapped version, under the name where the program looks it up, and
# runs the real ``cli.main``.  Calls made elsewhere are not traced.
TRACED = [
    (cli, "parse_dataset", "dataset.parse"),
    (cli, "transfer_all", "dataset.transfer"),
    (cli, "save_projects", "dataset.save_projects"),
    (cli, "load_projects", "dataset.load_projects"),
    (cli, "load_table", "table.load"),
    (cli, "table_text", "table.text"),
    (cli, "run_case", "cases.run_case"),
    (cli, "train", "calibration.train"),
    (cli, "evaluate_projects", "metrics.evaluate"),
    (cli, "render_case_text", "cli.serialize"),
    (json, "dumps", "cli.serialize"),
    (cases.CaseResult, "to_dict", "cli.serialize"),
    (metrics.EvaluationReport, "to_dict", "cli.serialize"),
    (metrics.EvaluationReport, "csv_rows", "cli.serialize"),
    (metrics.EvaluationReport, "render_text", "cli.serialize"),
    (cases, "split", "cases.split"),
    (cases, "train", "calibration.train"),
    (cases, "evaluate_projects", "metrics.evaluate"),
    (calibration, "validate_table", "table.validate"),
    (cases, "effort_for_project", "engine.effort"),
    (metrics, "effort_for_project", "engine.effort"),
    (engine, "bank_translate", "nfbank.translate"),
]
# Spans whose results the traced run keeps: training traces and reports.
KEPT = ("calibration.train", "metrics.evaluate")


def run_cli(argv: list[str]) -> int:
    """One in-process CLI command; its stdout is captured and dropped.

    A crash inside the command is reported and counted as exit status 1, so
    that the run goes on and counts the operation as failed.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            return 1


def digest_outputs(outdir: Path) -> str:
    """sha256 over every output file except run manifests (they hold timestamps)."""
    h = hashlib.sha256()
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        if path.name.endswith("manifest.json"):
            continue
        h.update(str(path.relative_to(outdir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def trace_losses_non_increasing(path: Path) -> bool:
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    losses = [float(r.split(",")[1]) for r in rows]
    return all(b <= a for a, b in zip(losses, losses[1:]))


def table_is_valid(path: Path) -> bool:
    return not validate_table(load_table(path))


class Workload:
    """Base: subclasses set the class fields and implement the hooks."""

    name = ""
    rows = 0             # source rows one operation processes (projects/s base)
    min_ops = 1          # operations an untraced run makes even when --seconds is short
    coord_rows = 0       # rows of the largest (n, 34) coordinate matrix
    # Whether op and set-up times are reported at reference host speed
    # (speed.py).  Fixed per workload, so a metric keeps one definition.
    scaled = False

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs: dict[str, Path] = {}
        self.first_digest: dict[object, str] = {}
        self.quality: dict[object, float] = {}
        self.calibrated: dict = {}
        self.loss_ratios: dict = {}

    def rng(self, *tag: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *tag])

    # hooks ------------------------------------------------------------------
    def write_inputs(self, d: Path) -> dict[str, Path]:
        raise NotImplementedError

    def keys(self) -> list:
        """Operation keys, cycled in order; one full cycle is the minimum."""
        return [self.name]

    def argvs(self, key, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, key, out: Path) -> bool:
        """Correctness of one operation's outputs (beyond exit status)."""
        raise NotImplementedError

    def probes(self, tr, out: Path) -> None:
        """Spans, under op id "probe", for the layers the operation does not call."""
        raise NotImplementedError

    def mmre(self) -> float:
        return statistics.fmean(self.quality.values())

    def runs_baseline_pass(self, key) -> bool:
        """Whether the operation's split computes baseline MREs."""
        return True

    # shared -----------------------------------------------------------------
    def same_as_first(self, key, out: Path) -> bool:
        digest = digest_outputs(out)
        return self.first_digest.setdefault(key, digest) == digest

    def calibration_probes(self, tr, projects, tbl) -> None:
        """Layer probes of the calibration module on this workload's data."""
        for _ in range(3):
            with tr.span("calibration.train_setup"):
                train(projects, tbl, CalibrationConfig(max_epochs=0))
        for _ in range(5):
            with tr.span("calibration.loss"):
                loss(projects, tbl)
            with tr.span("calibration.loss_gradient"):
                loss_gradient(projects, tbl)
        noisy = synthetic_table().values * self.rng(99).uniform(0.8, 1.2, (params.N_RATED,
                                                                          params.N_LEVELS))
        directions = synthetic_table().directions
        for _ in range(50):
            with tr.span("calibration.monotone"):
                for j in range(params.N_RATED):
                    enforce_monotone(noisy[j], directions[j])

    def table_probes(self, tr, tbl, out: Path) -> None:
        path = out / "probe_table.yaml"
        save_table(tbl, path)
        for _ in range(5):
            with tr.span("table.load"):
                loaded = load_table(path)
            with tr.span("table.validate"):
                validate_table(loaded)


def train_counts(traces) -> dict[str, float]:
    """Counts of the calibration layer, as means over the training traces."""
    epochs = sum(t.epochs_run for t in traces)
    halvings = sum(
        float(np.log2(CalibrationConfig().learning_rate / t.alphas[-1]))
        for t in traces if t.alphas
    )
    return {
        "calibration.epochs": epochs / len(traces),
        "calibration.halvings": halvings / len(traces),
        "calibration.accepted_ratio": epochs / (epochs + halvings),
        "calibration.rows_repaired_ratio":
            sum(sum(t.projection_counts) for t in traces) / (params.N_RATED * epochs),
        "calibration.floor_entries": sum(sum(t.floor_counts) for t in traces) / len(traces),
        "calibration.loss_ratio":
            statistics.fmean(t.final_loss / t.initial_loss for t in traces),
    }


class PaperCase(Workload):
    """``seercal case`` at CLI defaults on 93-row COCOMO81 sources plus a
    6-row COCOMO87 hold-out, cycling c1, c2, c3, c4-1 and c4-2.

    A run cycles through DATASETS seeded source pairs rather than one: the
    calibrated MMRE of one 93-row dataset moves by about 18 % (quartile
    distance over median) from seed to seed, and its mean over twelve datasets
    by about a quarter of that.
    """

    name = "paper-case"
    DATASETS = 12
    rows = 93 + 6
    min_ops = (DATASETS + 1) * len(PROTOCOLS)   # one full cycle plus one repeat
    coord_rows = 93
    scaled = True

    def write_inputs(self, d: Path) -> dict[str, Path]:
        out = {}
        for k in range(self.DATASETS):
            src, ind = d / f"d{k}_cocomo81.csv", d / f"d{k}_cocomo87.csv"
            gen.write_source_csv(src, 93, "COCOMO81", self.rng(k, 81))
            gen.write_source_csv(ind, 6, "COCOMO87", self.rng(k, 87))
            out[src.name], out[ind.name] = src, ind
        return out

    def keys(self) -> list:
        return [(k, p) for k in range(self.DATASETS) for p in PROTOCOLS]

    def runs_baseline_pass(self, key) -> bool:
        return key[1] in ("c1", "c3")

    def argvs(self, key, out: Path) -> list[list[str]]:
        k = key[0]
        return [["case", "--dataset", str(self.inputs[f"d{k}_cocomo81.csv"]),
                 "--industrial", str(self.inputs[f"d{k}_cocomo87.csv"]),
                 "--table", "synthetic", "--protocol", key[1], "--outdir", str(out)]]

    def check(self, key, out: Path) -> bool:
        ok = table_is_valid(out / "calibrated_table.yaml")
        ok &= trace_losses_non_increasing(out / "trace.csv")
        ok &= self.same_as_first(key, out)
        doc = json.loads((out / "case_report.json").read_text(encoding="utf-8"))
        self.quality[key] = doc["calibrated"]["mmre"]
        return ok

    def probes(self, tr, out: Path) -> None:
        projects = transfer_all(parse_dataset(self.inputs["d0_cocomo81.csv"], "COCOMO81"))
        tbl = synthetic_table()
        path = out / "probe_projects.csv"
        for _ in range(5):
            path.unlink(missing_ok=True)
            with tr.span("dataset.save_projects"):
                save_projects(projects, path)
            with tr.span("dataset.load_projects"):
                load_projects(path)
        self.table_probes(tr, tbl, out)
        self.calibration_probes(tr, projects, tbl)


class Calibrate10k(Workload):
    """One ``seercal calibrate`` at CLI defaults per operation, on 10^4
    continuous-coordinate projects whose efforts come from the synthetic
    table, starting from a seeded +-20 % perturbation of it.

    A run cycles through START_TABLES perturbations: the calibrated MMRE
    after 500 epochs depends on the perturbation, and moves by about 12 %
    (quartile distance over median) from seed to seed with one start table.
    """

    name = "calibrate-10k"
    N = 10_000
    START_TABLES = 3
    rows = N
    min_ops = START_TABLES + 1   # one full cycle plus one repeat
    coord_rows = N

    def write_inputs(self, d: Path) -> dict[str, Path]:
        projects = d / "projects.csv"
        gen.write_coordinate_projects(projects, self.N, self.rng(10))
        out = {projects.name: projects}
        for k in range(self.START_TABLES):
            table = d / f"start_table_{k}.yaml"
            gen.write_start_table(table, self.rng(11, k))
            out[table.name] = table
        return out

    def keys(self) -> list:
        return list(range(self.START_TABLES))

    def argvs(self, key, out: Path) -> list[list[str]]:
        return [["calibrate", "--projects", str(self.inputs["projects.csv"]),
                 "--table", str(self.inputs[f"start_table_{key}.yaml"]),
                 "--outdir", str(out)]]

    def check(self, key, out: Path) -> bool:
        table_path = out / "calibrated_table.yaml"
        ok = table_is_valid(table_path)
        ok &= trace_losses_non_increasing(out / "trace.csv")
        tbl, meta = load_table_with_meta(table_path)
        self.loss_ratios[key] = meta["final_loss"] / meta["initial_loss"]
        ok &= self.loss_ratios[key] < 1.0
        self.calibrated.setdefault(key, tbl)
        return ok and self.same_as_first(key, out)

    def mmre(self) -> float:
        """Mean over the start tables of the calibrated table's MMRE on the
        training projects (computed after the timed loop)."""
        projects = load_projects(self.inputs["projects.csv"])
        for key, tbl in self.calibrated.items():
            self.quality[key] = evaluate_projects(projects, tbl).mmre
        return super().mmre()

    def probes(self, tr, out: Path) -> None:
        # The workload's input is already model-ready; the source-format layers
        # are probed on a COCOMO81 file of the same row count.
        raw = out / "probe_cocomo81.csv"
        gen.write_source_csv(raw, self.N, "COCOMO81", self.rng(12))
        with tr.span("dataset.parse"):
            records = parse_dataset(raw, "COCOMO81")
        with tr.span("dataset.transfer"):
            transfer_all(records)
        projects = load_projects(self.inputs["projects.csv"])
        tbl = load_table(self.inputs["start_table_0.yaml"])
        with tr.span("dataset.save_projects"):
            save_projects(projects, out / "probe_projects.csv")
        with tr.patched(TRACED, KEPT):
            # split and evaluate_projects as the case command calls them
            cases.split(projects[:1000], "c3", tbl)
            cases.evaluate_projects(projects, self.calibrated[0])
        self.calibration_probes(tr, projects, tbl)


class Portfolio30k(Workload):
    """``seercal transfer`` then ``seercal evaluate`` (synthetic table) on a
    3x10^4-row COCOMO81 source file; the table is only read."""

    name = "portfolio-30k"
    N = 30_000
    rows = N
    min_ops = 2
    coord_rows = N
    SAMPLE = 64        # report estimates re-derived with effort_for_project

    def write_inputs(self, d: Path) -> dict[str, Path]:
        raw = d / "portfolio_cocomo81.csv"
        gen.write_source_csv(raw, self.N, "COCOMO81", self.rng(30))
        return {raw.name: raw}

    def argvs(self, key, out: Path) -> list[list[str]]:
        projects = out / "projects.csv"
        return [
            ["transfer", "--dataset", str(self.inputs["portfolio_cocomo81.csv"]),
             "--out", str(projects)],
            ["evaluate", "--projects", str(projects), "--table", "synthetic",
             "--outdir", str(out / "eval")],
        ]

    def check(self, key, out: Path) -> bool:
        # The content checks run on the first operation; later ones must match
        # it byte for byte and inherit its verdict.
        first = key not in self.first_digest
        ok = self.same_as_first(key, out)
        if not first:
            return ok and self.first_ok
        doc = json.loads((out / "eval" / "report.json").read_text(encoding="utf-8"))
        rows = doc["rows"]
        recomputed = sum(r["mre"] for r in rows) / len(rows)
        ok &= abs(recomputed - doc["mmre"]) <= 1e-12 * doc["mmre"]
        ok &= len(rows) == self.N
        projects = {p.id: p for p in load_projects(out / "projects.csv")}
        tbl = synthetic_table()
        picks = self.rng(31).choice(len(rows), self.SAMPLE, replace=False)
        for i in picks.tolist():
            row = rows[i]
            est = effort_for_project(projects[row["id"]], tbl).effort
            ok &= abs(est - row["estimated"]) <= 1e-9 * abs(est)
        self.quality[key] = doc["mmre"]
        self.first_ok = ok
        return ok

    def probes(self, tr, out: Path) -> None:
        # Training never runs here; the calibration probes use the first 1000
        # transferred projects so that they stay a few seconds long.
        projects = transfer_all(parse_dataset(self.inputs["portfolio_cocomo81.csv"],
                                              "COCOMO81"))
        tbl = synthetic_table()
        subset = projects[:1000]
        for _ in range(5):
            with tr.span("table.text"):
                table_text(tbl)
        self.table_probes(tr, tbl, out)
        with tr.patched(TRACED, KEPT):
            # split and train as the case command calls them
            cases.split(subset, "c3", tbl)
            cases.train(subset, tbl, CalibrationConfig())
        self.calibration_probes(tr, subset, tbl)


WORKLOADS = {w.name: w for w in (PaperCase, Calibrate10k, Portfolio30k)}
