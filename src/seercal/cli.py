"""Command-line front-end.

Subcommands: estimate, validate-table, transfer, calibrate, evaluate, case,
report.  Every command that writes files also writes exactly one JSON run
manifest alongside them (``manifest.json`` in the output directory, or
``<out>.manifest.json`` next to a single output file); on a stage failure the
manifest records the failure and no partial reports are left behind.

All report content is deterministic for identical inputs and config; only
the manifest carries timestamps.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import yaml

from . import __version__, params
from .calibration import (
    CalibrationConfig,
    TrainingTrace,
    train,
)
from .cases import CaseProtocol, render_case_text, run_case
from .dataset import (
    MONTHS_PER_PERSON_YEAR,
    load_mapping,
    load_projects,
    parse_dataset,
    save_projects,
    transfer_all,
)
from .errors import SeercalError
from .metrics import (
    DEFAULT_OUTLIER_THRESHOLD,
    DEFAULT_PRED_LEVELS,
    EvaluationReport,
    evaluate_projects,
)
from .table import ValueTable, load_table, synthetic_table, table_text, validate_table

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_INPUT = 2

OUTDIR_ENV = "SEERCAL_OUTDIR"


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _config_digest(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except SeercalError as exc:
        raise SeercalError(f"{name}: {exc}") from exc


class _RunWriter:
    """Collects output files and writes them plus one manifest."""

    def __init__(self, outdir: Path, command: str, inputs: dict, config: dict):
        self.outdir = outdir
        self.command = command
        self.inputs = inputs
        self.config = config
        self.started = _utcnow()
        self.pending: dict[str, str] = {}

    def add(self, name: str, text: str) -> None:
        self.pending[name] = text

    def _manifest(self, status: str, error: str | None) -> dict:
        doc = {
            "command": self.command,
            "tool_version": __version__,
            "inputs": self.inputs,
            "config": self.config,
            "config_digest": _config_digest(self.config),
            "outputs": sorted(self.pending) if status == "ok" else [],
            "started_at": self.started,
            "finished_at": _utcnow(),
            "status": status,
        }
        if error:
            doc["error"] = error
        return doc

    def commit(self) -> None:
        self.outdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.pending.items():
            (self.outdir / name).write_text(text, encoding="utf-8")
        manifest = self._manifest("ok", None)
        (self.outdir / "manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )

    def fail(self, error: str) -> None:
        self.outdir.mkdir(parents=True, exist_ok=True)
        manifest = self._manifest("failed", error)
        (self.outdir / "manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )


def _load_table_arg(spec: str) -> ValueTable:
    if spec == "synthetic":
        return synthetic_table()
    path = Path(spec)
    if not path.exists():
        raise SeercalError(f"table not found: {path}")
    return load_table(path)


def _resolve_outdir(args) -> Path:
    if args.outdir:
        return Path(args.outdir)
    env = os.environ.get(OUTDIR_ENV)
    if env:
        return Path(env)
    raise SeercalError(f"no output directory: pass --outdir or set {OUTDIR_ENV}")


def _load_cli_config(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise SeercalError(f"config file not found: {p}")
    doc = yaml.safe_load(p.read_text(encoding="utf-8")) or {}
    if not isinstance(doc, dict):
        raise SeercalError(f"{p}: config file must hold a mapping")
    return doc


def _calibration_config(args, file_config: dict) -> CalibrationConfig:
    """Defaults < config file < explicit flags (flags win)."""
    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        return file_config.get(key, default)

    return CalibrationConfig(
        learning_rate=float(pick(args.alpha, "alpha", 1e-3)),
        max_epochs=int(pick(args.epochs, "epochs", 500)),
        tolerance=float(pick(args.tolerance, "tolerance", 1e-6)),
        seed=int(pick(args.seed, "seed", 0)),
        value_floor=float(pick(args.floor, "floor", 1e-6)),
        backtrack=not args.no_backtrack if args.no_backtrack is not None
        else bool(file_config.get("backtrack", True)),
    )


def _evaluation_knobs(args, file_config: dict) -> tuple[tuple[float, ...], float]:
    raw_levels = args.pred_levels or file_config.get("pred_levels")
    if raw_levels is None:
        levels = DEFAULT_PRED_LEVELS
    elif isinstance(raw_levels, str):
        levels = tuple(float(tok) / 100.0 for tok in raw_levels.split(","))
    else:
        levels = tuple(float(v) / 100.0 for v in raw_levels)
    raw_threshold = (
        args.outlier_threshold
        if args.outlier_threshold is not None
        else file_config.get("outlier_threshold")
    )
    threshold = (
        DEFAULT_OUTLIER_THRESHOLD if raw_threshold is None else float(raw_threshold) / 100.0
    )
    return levels, threshold


def _report_csv(report: EvaluationReport) -> str:
    return "\n".join(",".join(row) for row in report.csv_rows()) + "\n"


def _change_csv(result_change: dict, baseline: EvaluationReport,
                calibrated: EvaluationReport) -> str:
    lines = ["metric,baseline,calibrated,change"]
    lines.append(
        f"mmre,{baseline.mmre!r},{calibrated.mmre!r},{result_change['mmre']!r}"
    )
    for lvl, frac in baseline.pred:
        lines.append(
            f"pred_{lvl!r},{frac!r},{calibrated.pred_at(lvl)!r},"
            f"{result_change['pred'][repr(lvl)]!r}"
        )
    lines.append(
        f"outliers,{baseline.n_outliers},{calibrated.n_outliers},"
        f"{result_change['outliers']}"
    )
    return "\n".join(lines) + "\n"


def _trace_csv(trace: TrainingTrace) -> str:
    lines = ["epoch,loss,projection_count,floor_count,alpha"]
    for i, lo in enumerate(trace.losses):
        lines.append(
            f"{i + 1},{lo!r},{trace.projection_counts[i]},"
            f"{trace.floor_counts[i]},{trace.alphas[i]!r}"
        )
    return "\n".join(lines) + "\n"


def _gather_ratings(args) -> dict:
    ratings: dict[str, object] = {}
    if args.ratings_file:
        p = Path(args.ratings_file)
        if not p.exists():
            raise SeercalError(f"ratings file not found: {p}")
        doc = yaml.safe_load(p.read_text(encoding="utf-8")) or {}
        if not isinstance(doc, dict):
            raise SeercalError(f"{p}: ratings file must map symbols to ratings")
        ratings.update(doc)
    for token in args.rating or []:
        if "=" not in token:
            raise SeercalError(f"--rating expects SYMBOL=VALUE, got {token!r}")
        sym, value = token.split("=", 1)
        try:
            ratings[sym.strip().upper()] = float(value)
        except ValueError:
            ratings[sym.strip().upper()] = value.strip()
    return ratings


# --- commands ---------------------------------------------------------------


def cmd_estimate(args) -> int:
    tbl = _load_table_arg(args.table)
    violations = validate_table(tbl)
    if violations:
        raise SeercalError(f"table is invalid: {violations[0]}")
    project = params.SeerProject(
        id="cli", size=args.size, actual_effort=1.0, sibr=args.sibr,
        ratings=_gather_ratings(args),
    )
    from .engine import effort_for_project

    breakdown = effort_for_project(project, tbl)
    months = args.months_per_person_year
    if args.json:
        doc = {
            "ctbx": breakdown.ctbx,
            "parm_adjustment": breakdown.parm_adjustment,
            "basic_technology": breakdown.basic_technology,
            "effective_technology": breakdown.effective_technology,
            "lifecycle_effort_py": breakdown.lifecycle_effort,
            "effort_py": breakdown.effort,
            "effort_pm": breakdown.effort * months,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"ctbx                  {breakdown.ctbx:.6f}")
        print(f"parm adjustment       {breakdown.parm_adjustment:.6f}")
        print(f"basic technology      {breakdown.basic_technology:.6f}")
        print(f"effective technology  {breakdown.effective_technology:.6f}")
        print(f"lifecycle effort      {breakdown.lifecycle_effort:.6f} person-years")
        print(f"effort                {breakdown.effort:.6f} person-years")
        print(f"effort                {breakdown.effort * months:.6f} person-months")
    return EXIT_OK


def cmd_validate_table(args) -> int:
    tbl = _load_table_arg(args.table)
    violations = validate_table(tbl)
    if not violations:
        print(f"table OK: {params.N_RATED} parameters x {params.N_LEVELS} levels")
        return EXIT_OK
    for v in violations:
        print(str(v), file=sys.stderr)
    print(f"{len(violations)} violation(s) found", file=sys.stderr)
    return EXIT_FAILURE


def _load_mappings(args) -> dict:
    mappings = {}
    for spec in args.mapping or []:
        m = _stage("mapping", load_mapping, spec)
        mappings[m.source_model] = m
    return mappings


def cmd_transfer(args) -> int:
    out_path = Path(args.out)
    records = _stage("parse", parse_dataset, args.dataset, args.source_model)
    mappings = _load_mappings(args)
    projects = _stage("transfer", transfer_all, records, mappings)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_projects(projects, out_path)
    manifest = {
        "command": "transfer",
        "tool_version": __version__,
        "inputs": {"dataset": args.dataset, "mappings": args.mapping or ["builtin"]},
        "config": {"source_model": args.source_model},
        "config_digest": _config_digest({"source_model": args.source_model}),
        "outputs": [out_path.name],
        "started_at": _utcnow(),
        "finished_at": _utcnow(),
        "status": "ok",
    }
    Path(str(out_path) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(projects)} project(s) to {out_path}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    outdir = _resolve_outdir(args)
    file_config = _load_cli_config(args.config)
    config = _calibration_config(args, file_config)
    writer = _RunWriter(
        outdir, "calibrate",
        {"projects": args.projects, "table": args.table},
        config.to_dict(),
    )
    try:
        tbl = _stage("load-table", _load_table_arg, args.table)
        projects = _stage("load-projects", load_projects, args.projects)
        trace = _stage("train", train, projects, tbl, config)
    except SeercalError as exc:
        writer.fail(str(exc))
        raise
    meta = {
        "generated_by": f"seercal {__version__}",
        "config": config.to_dict(),
        "epochs_run": trace.epochs_run,
        "initial_loss": trace.initial_loss,
        "final_loss": trace.final_loss,
        "stop_reason": trace.stop_reason,
    }
    writer.add("calibrated_table.yaml", table_text(trace.table, meta=meta))
    writer.add("trace.csv", _trace_csv(trace))
    writer.commit()
    print(
        f"calibrated in {trace.epochs_run} epoch(s); loss "
        f"{trace.initial_loss:.6g} -> {trace.final_loss:.6g} ({trace.stop_reason})"
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    outdir = _resolve_outdir(args)
    file_config = _load_cli_config(args.config)
    levels, threshold = _evaluation_knobs(args, file_config)
    knobs = {"pred_levels": list(levels), "outlier_threshold": threshold}
    writer = _RunWriter(
        outdir, "evaluate",
        {"projects": args.projects, "table": args.table},
        knobs,
    )
    try:
        tbl = _stage("load-table", _load_table_arg, args.table)
        projects = _stage("load-projects", load_projects, args.projects)
        report = _stage("evaluate", evaluate_projects, projects, tbl, levels, threshold)
    except SeercalError as exc:
        writer.fail(str(exc))
        raise
    writer.add("report.json", json.dumps(report.to_dict(), indent=2) + "\n")
    writer.add("report.csv", _report_csv(report))
    writer.add("report.txt", report.render_text() + "\n")
    writer.commit()
    print(report.render_text())
    return EXIT_OK


def cmd_case(args) -> int:
    outdir = _resolve_outdir(args)
    file_config = _load_cli_config(args.config)
    config = _calibration_config(args, file_config)
    levels, threshold = _evaluation_knobs(args, file_config)
    run_config = dict(config.to_dict())
    run_config.update({"pred_levels": list(levels), "outlier_threshold": threshold,
                       "protocol": args.protocol})
    writer = _RunWriter(
        outdir, "case",
        {
            "dataset": args.dataset,
            "mappings": args.mapping or ["builtin"],
            "table": args.table,
            "industrial": args.industrial,
        },
        run_config,
    )
    try:
        protocol = _stage("protocol", CaseProtocol.parse, args.protocol)
        tbl = _stage("load-table", _load_table_arg, args.table)
        records = _stage("parse", parse_dataset, args.dataset, args.source_model)
        mappings = _load_mappings(args)
        projects = _stage("transfer", transfer_all, records, mappings)
        industrial = None
        if args.industrial:
            ind_records = _stage(
                "parse-industrial", parse_dataset, args.industrial, "COCOMO87"
            )
            industrial = _stage("transfer-industrial", transfer_all, ind_records, mappings)
        result = _stage(
            "case", run_case, projects, tbl, protocol, config, industrial,
            levels, threshold,
        )
    except SeercalError as exc:
        writer.fail(str(exc))
        raise
    writer.add("case_report.json", json.dumps(result.to_dict(), indent=2) + "\n")
    writer.add("case_report.txt", render_case_text(result) + "\n")
    writer.add("report_baseline.csv", _report_csv(result.baseline))
    writer.add("report_calibrated.csv", _report_csv(result.calibrated))
    writer.add("change.csv", _change_csv(result.change, result.baseline, result.calibrated))
    writer.add("trace.csv", _trace_csv(result.trace))
    if result.industrial_baseline is not None:
        writer.add("industrial_baseline.csv", _report_csv(result.industrial_baseline))
        writer.add("industrial_calibrated.csv", _report_csv(result.industrial_calibrated))
    meta = {
        "generated_by": f"seercal {__version__}",
        "config": config.to_dict(),
        "protocol": result.protocol,
        "epochs_run": result.trace.epochs_run,
        "initial_loss": result.trace.initial_loss,
        "final_loss": result.trace.final_loss,
        "stop_reason": result.trace.stop_reason,
    }
    writer.add("calibrated_table.yaml", table_text(result.table, meta=meta))
    writer.commit()
    print(render_case_text(result))
    return EXIT_OK


def cmd_report(args) -> int:
    path = Path(args.input)
    if not path.exists():
        raise SeercalError(f"report not found: {path}")
    doc = json.loads(path.read_text(encoding="utf-8"))
    if "protocol" in doc:
        baseline = EvaluationReport.from_dict(doc["baseline"])
        calibrated = EvaluationReport.from_dict(doc["calibrated"])
        if args.format == "csv":
            text = _change_csv(doc["change"], baseline, calibrated)
        else:
            text = (
                baseline.render_text(f"Case {doc['protocol']} baseline")
                + "\n\n"
                + calibrated.render_text(f"Case {doc['protocol']} calibrated")
                + "\n"
            )
    else:
        report = EvaluationReport.from_dict(doc)
        text = _report_csv(report) if args.format == "csv" else report.render_text() + "\n"
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text, encoding="utf-8")
        manifest = {
            "command": "report",
            "tool_version": __version__,
            "inputs": {"input": str(path)},
            "config": {"format": args.format},
            "config_digest": _config_digest({"format": args.format}),
            "outputs": [out_path.name],
            "started_at": _utcnow(),
            "finished_at": _utcnow(),
            "status": "ok",
        }
        Path(str(out_path) + ".manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )
    else:
        print(text, end="")
    return EXIT_OK


# --- parser -----------------------------------------------------------------


def _add_table_arg(p):
    p.add_argument("--table", required=True,
                   help="value-table YAML path, or 'synthetic' for the built-in default")


def _add_calibration_args(p):
    p.add_argument("--alpha", type=float, default=None, help="learning rate")
    p.add_argument("--epochs", type=int, default=None, help="maximum training epochs")
    p.add_argument("--tolerance", type=float, default=None,
                   help="stop when relative loss decrease falls below this")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--floor", type=float, default=None, help="positivity floor")
    p.add_argument("--no-backtrack", action="store_true", default=None,
                   help="disable automatic learning-rate halving")
    p.add_argument("--config", default=None,
                   help="YAML config file; explicit flags win over file values")


def _add_evaluation_args(p):
    p.add_argument("--pred-levels", default=None,
                   help="comma-separated PRED levels in percent (default 20,30,50,100)")
    p.add_argument("--outlier-threshold", type=float, default=None,
                   help="outlier MRE threshold in percent (default 50)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seercal",
        description="SEER-SEM effort estimation with a trainable parameter-value table",
    )
    parser.add_argument("--version", action="version", version=f"seercal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate one project's effort")
    _add_table_arg(p)
    p.add_argument("--size", type=float, required=True, help="effective size in SLOC")
    p.add_argument("--sibr", type=float, default=0.0, help="reuse fraction in [0, 1]")
    p.add_argument("--rating", action="append", metavar="SYMBOL=VALUE",
                   help="rating label or coordinate; repeatable; missing = Nom")
    p.add_argument("--ratings-file", default=None,
                   help="YAML mapping of symbol to rating label or coordinate")
    p.add_argument("--months-per-person-year", type=float,
                   default=MONTHS_PER_PERSON_YEAR)
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("validate-table", help="check a table's invariants")
    _add_table_arg(p)
    p.set_defaults(func=cmd_validate_table)

    p = sub.add_parser("transfer", help="convert a source-format dataset")
    p.add_argument("--dataset", required=True, help="source-format CSV")
    p.add_argument("--mapping", action="append", default=None,
                   help="mapping YAML; repeatable (one per source model); "
                        "defaults to the packaged reconstructions")
    p.add_argument("--source-model", default="COCOMO81",
                   help="source model for rows without a source_model column")
    p.add_argument("--out", required=True, help="output projects file (.csv or .json)")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("calibrate", help="train a table on model-ready projects")
    p.add_argument("--projects", required=True, help="canonical projects file")
    _add_table_arg(p)
    p.add_argument("--outdir", default=None)
    _add_calibration_args(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="evaluate a table against actual efforts")
    p.add_argument("--projects", required=True, help="canonical projects file")
    _add_table_arg(p)
    p.add_argument("--outdir", default=None)
    p.add_argument("--config", default=None)
    _add_evaluation_args(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("case", help="full study: transfer, split, train, evaluate")
    p.add_argument("--dataset", required=True, help="source-format CSV")
    p.add_argument("--mapping", action="append", default=None)
    p.add_argument("--source-model", default="COCOMO81")
    p.add_argument("--industrial", default=None,
                   help="optional hold-out CSV (COCOMO87 rows by default)")
    _add_table_arg(p)
    p.add_argument("--protocol", required=True,
                   help="c1, c2, c3, c4-1, c4-2 or custom:train=A-B,test=C-D")
    p.add_argument("--outdir", default=None)
    _add_calibration_args(p)
    _add_evaluation_args(p)
    p.set_defaults(func=cmd_case)

    p = sub.add_parser("report", help="re-render a JSON report as text or CSV")
    p.add_argument("--input", required=True, help="report JSON produced by evaluate/case")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--out", default=None, help="write here instead of stdout")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SeercalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
