"""Command-line front-end.

Subcommands: estimate, validate-table, transfer, calibrate, evaluate, case,
report.  Every command that writes files (transfer, calibrate, evaluate, case,
and report with --out) runs inside one ``_RunWriter``, which writes exactly
one JSON run manifest alongside the outputs (``manifest.json`` in the output
directory, or ``<out>.manifest.json`` next to a single output file).

Every failure is a named stage error: config, YAML and OS errors become
``SeercalError("<stage>: ...")``, the command exits 2 with that message on
stderr, and the manifest records the failure with no outputs left behind.
When the output location itself cannot be created there is no manifest.

The training and evaluation settings are the keys of ``SETTINGS``.  A
``--config`` YAML file may hold any of them, and a flag of the same name wins
over the file.  Both go through the key's one parser in stage ``config``, so
a bad value fails with the same message either way.  Settings left unset take
their defaults from ``CalibrationConfig`` and ``metrics.DEFAULT_*``.

All report content is deterministic for identical inputs and config; only
the manifest carries timestamps.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

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
from .errors import ReportFormatError, SeercalError
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
    """Run one stage; any seercal, config, YAML or OS error becomes
    ``SeercalError("<name>: ...")``."""
    try:
        return fn(*args, **kwargs)
    except (SeercalError, OSError, ValueError, yaml.YAMLError) as exc:
        raise SeercalError(f"{name}: {exc}") from exc


class _RunWriter:
    """One run of a file-writing command: its outputs plus exactly one manifest.

    The target is an output directory (``manifest.json`` goes in it) or, with
    ``single_file``, one output file (``<out>.manifest.json`` goes beside it).
    Entering creates the output directory, so an unusable location fails
    before any work.  A clean exit writes the outputs and an ``ok`` manifest;
    a stage error writes a ``failed`` manifest, removes any output this run
    wrote, and propagates.
    """

    def __init__(self, command: str, target: Path, inputs: dict,
                 single_file: bool = False):
        self.started = _utcnow()
        self.command = command
        self.inputs = inputs
        self.config: dict = {}
        self.pending: dict[str, str | Callable[[Path], None]] = {}
        self.written: list[Path] = []
        if single_file:
            self.outdir, self.manifest_name = target.parent, f"{target.name}.manifest.json"
        else:
            self.outdir, self.manifest_name = target, "manifest.json"

    def add(self, name: str, content: str | Callable[[Path], None]) -> None:
        """Queue an output: its text, or a function that writes it to a path."""
        self.pending[name] = content

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

    def _write_manifest(self, status: str, error: str | None = None) -> None:
        (self.outdir / self.manifest_name).write_text(
            json.dumps(self._manifest(status, error), indent=2) + "\n", encoding="utf-8"
        )

    def _commit(self) -> None:
        for name, content in self.pending.items():
            path = self.outdir / name
            self.written.append(path)
            if callable(content):
                content(path)
            else:
                path.write_text(content, encoding="utf-8")
        self._write_manifest("ok")

    def _fail(self, error: str) -> None:
        for path in self.written:
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
        # When the output location is unusable there is no manifest, and the
        # stage error alone reports the failure.
        with contextlib.suppress(OSError):
            self._write_manifest("failed", error)

    def __enter__(self) -> "_RunWriter":
        _stage("write", self.outdir.mkdir, parents=True, exist_ok=True)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is None:
            try:
                _stage("write", self._commit)
            except SeercalError as err:
                self._fail(str(err))
                raise
        elif isinstance(exc, SeercalError):
            self._fail(str(exc))


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


def _number(raw) -> float:
    if not isinstance(raw, bool):  # YAML's true is not the number 1
        with contextlib.suppress(TypeError, ValueError):
            return float(raw)
    raise ValueError(f"expected a number, got {raw!r}")


def _whole(raw) -> int:
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    value = _number(raw)
    if not value.is_integer():
        raise ValueError(f"expected a whole number, got {raw!r}")
    return int(value)


def _boolean(raw) -> bool:
    if not isinstance(raw, bool):
        raise ValueError(f"expected true or false, got {raw!r}")
    return raw


def _percent(raw) -> float:
    """A non-negative percentage, as a fraction."""
    value = _number(raw)
    if not value >= 0:
        raise ValueError(f"must be non-negative, got {raw!r}")
    return value / 100.0


def _percents(raw) -> tuple[float, ...]:
    """Percentages as comma-separated text or a list, as fractions."""
    tokens = raw.split(",") if isinstance(raw, str) else raw
    if not isinstance(tokens, list):
        raise ValueError(f"expected a list of percentages, got {raw!r}")
    return tuple(_percent(token) for token in tokens)


# Every setting a ``--config`` file may hold: its parser, and the
# CalibrationConfig field it sets (None for the evaluation settings).  The
# flag of the same name (``--pred-levels`` for ``pred_levels``, and
# ``--no-backtrack``) gives the raw value to the same parser.
SETTINGS: dict[str, tuple[Callable[[object], object], str | None]] = {
    "alpha": (_number, "learning_rate"),
    "epochs": (_whole, "max_epochs"),
    "tolerance": (_number, "tolerance"),
    "floor": (_number, "value_floor"),
    "backtrack": (_boolean, "backtrack"),
    "pred_levels": (_percents, None),
    "outlier_threshold": (_percent, None),
}


def _settings(args) -> dict:
    """The parsed settings of the ``--config`` file and the flags; flags win,
    and every file value is checked, also where a flag overrides it."""
    given: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise SeercalError(f"config file not found: {path}")
        given = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
        if not isinstance(given, dict):
            raise SeercalError(f"{path}: config file must hold a mapping")
        for key in given:
            if key not in SETTINGS:
                raise SeercalError(f"unknown key {key!r}")
    flags = {key: getattr(args, key) for key in SETTINGS
             if getattr(args, key, None) is not None}
    settings = {}
    for source in (given, flags):
        for key, raw in source.items():
            parse, field_name = SETTINGS[key]
            try:
                settings[key] = parse(raw)
                if field_name:  # CalibrationConfig checks the value's range
                    CalibrationConfig(**{field_name: settings[key]})
            except ValueError as exc:
                raise SeercalError(f"{key}: {exc}") from None
    return settings


def _calibration_config(settings: dict) -> CalibrationConfig:
    """CalibrationConfig's defaults under the given settings."""
    return CalibrationConfig(**{
        SETTINGS[key][1]: value for key, value in settings.items() if SETTINGS[key][1]
    })


def _calibrated_table_text(trace: TrainingTrace, config: CalibrationConfig,
                           **extra) -> str:
    meta = {
        "generated_by": f"seercal {__version__}",
        "config": config.to_dict(),
        **extra,
        "epochs_run": trace.epochs_run,
        "initial_loss": trace.initial_loss,
        "final_loss": trace.final_loss,
        "stop_reason": trace.stop_reason,
    }
    return table_text(trace.table, meta=meta)


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
    tbl = _stage("load-table", _load_table_arg, args.table)
    violations = validate_table(tbl)
    if violations:
        raise SeercalError(f"load-table: table is invalid: {violations[0]}")
    ratings = _stage("ratings", _gather_ratings, args)
    from .engine import effort_for_project

    project = _stage(
        "estimate", params.SeerProject,
        id="cli", size=args.size, actual_effort=1.0, sibr=args.sibr, ratings=ratings,
    )
    breakdown = _stage("estimate", effort_for_project, project, tbl)
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
    tbl = _stage("load-table", _load_table_arg, args.table)
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
    inputs = {"dataset": args.dataset, "mappings": args.mapping or ["builtin"]}
    with _RunWriter("transfer", out_path, inputs, single_file=True) as run:
        run.config = {"source_model": args.source_model}
        records = _stage("parse", parse_dataset, args.dataset, args.source_model)
        mappings = _load_mappings(args)
        projects = _stage("transfer", transfer_all, records, mappings)
        run.add(out_path.name, lambda path: save_projects(projects, path))
    print(f"wrote {len(projects)} project(s) to {out_path}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    inputs = {"projects": args.projects, "table": args.table}
    outdir = _stage("config", _resolve_outdir, args)
    with _RunWriter("calibrate", outdir, inputs) as run:
        settings = _stage("config", _settings, args)
        config = _stage("config", _calibration_config, settings)
        run.config = config.to_dict()
        tbl = _stage("load-table", _load_table_arg, args.table)
        projects = _stage("load-projects", load_projects, args.projects)
        trace = _stage("train", train, projects, tbl, config)
        run.add("calibrated_table.yaml", _calibrated_table_text(trace, config))
        run.add("trace.csv", _trace_csv(trace))
    print(
        f"calibrated in {trace.epochs_run} epoch(s); loss "
        f"{trace.initial_loss:.6g} -> {trace.final_loss:.6g} ({trace.stop_reason})"
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    inputs = {"projects": args.projects, "table": args.table}
    outdir = _stage("config", _resolve_outdir, args)
    with _RunWriter("evaluate", outdir, inputs) as run:
        settings = _stage("config", _settings, args)
        levels = settings.get("pred_levels", DEFAULT_PRED_LEVELS)
        threshold = settings.get("outlier_threshold", DEFAULT_OUTLIER_THRESHOLD)
        run.config = {"pred_levels": list(levels), "outlier_threshold": threshold}
        tbl = _stage("load-table", _load_table_arg, args.table)
        projects = _stage("load-projects", load_projects, args.projects)
        report = _stage("evaluate", evaluate_projects, projects, tbl, levels, threshold)
        run.add("report.json", json.dumps(report.to_dict(), indent=2) + "\n")
        run.add("report.csv", _report_csv(report))
        run.add("report.txt", report.render_text() + "\n")
    print(report.render_text())
    return EXIT_OK


def cmd_case(args) -> int:
    inputs = {
        "dataset": args.dataset,
        "mappings": args.mapping or ["builtin"],
        "table": args.table,
        "industrial": args.industrial,
    }
    outdir = _stage("config", _resolve_outdir, args)
    with _RunWriter("case", outdir, inputs) as run:
        settings = _stage("config", _settings, args)
        config = _stage("config", _calibration_config, settings)
        levels = settings.get("pred_levels", DEFAULT_PRED_LEVELS)
        threshold = settings.get("outlier_threshold", DEFAULT_OUTLIER_THRESHOLD)
        run.config = {**config.to_dict(), "pred_levels": list(levels),
                      "outlier_threshold": threshold, "protocol": args.protocol}
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
        run.add("case_report.json", json.dumps(result.to_dict(), indent=2) + "\n")
        run.add("case_report.txt", render_case_text(result) + "\n")
        run.add("report_baseline.csv", _report_csv(result.baseline))
        run.add("report_calibrated.csv", _report_csv(result.calibrated))
        run.add("change.csv", _change_csv(result.change, result.baseline, result.calibrated))
        run.add("trace.csv", _trace_csv(result.trace))
        if result.industrial_baseline is not None:
            run.add("industrial_baseline.csv", _report_csv(result.industrial_baseline))
            run.add("industrial_calibrated.csv", _report_csv(result.industrial_calibrated))
        run.add("calibrated_table.yaml",
                _calibrated_table_text(result.trace, config, protocol=result.protocol))
    print(render_case_text(result))
    return EXIT_OK


def _report_text(path: Path, fmt: str) -> str:
    """Re-render an evaluate or case report JSON as text or CSV."""
    if not path.exists():
        raise SeercalError(f"report not found: {path}")
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ReportFormatError(f"{path}: not a report (expected a JSON object)")
    if "protocol" not in doc:
        report = EvaluationReport.from_dict(doc)
        return _report_csv(report) if fmt == "csv" else report.render_text() + "\n"
    missing = [key for key in ("baseline", "calibrated", "change") if key not in doc]
    if missing:
        raise ReportFormatError(f"{path}: case report has no {', '.join(missing)}")
    baseline = EvaluationReport.from_dict(doc["baseline"])
    calibrated = EvaluationReport.from_dict(doc["calibrated"])
    if fmt == "csv":
        return _change_csv(doc["change"], baseline, calibrated)
    return (
        baseline.render_text(f"Case {doc['protocol']} baseline")
        + "\n\n"
        + calibrated.render_text(f"Case {doc['protocol']} calibrated")
        + "\n"
    )


def cmd_report(args) -> int:
    path = Path(args.input)
    if not args.out:
        print(_stage("read", _report_text, path, args.format), end="")
        return EXIT_OK
    out_path = Path(args.out)
    with _RunWriter("report", out_path, {"input": str(path)}, single_file=True) as run:
        run.config = {"format": args.format}
        run.add(out_path.name, _stage("read", _report_text, path, args.format))
    return EXIT_OK


# --- parser -----------------------------------------------------------------


def _add_table_arg(p):
    p.add_argument("--table", required=True,
                   help="value-table YAML path, or 'synthetic' for the built-in default")


def _add_calibration_args(p):
    p.add_argument("--alpha", help="learning rate")
    p.add_argument("--epochs", help="maximum training epochs")
    p.add_argument("--tolerance", help="stop when relative loss decrease falls below this")
    p.add_argument("--floor", help="positivity floor")
    p.add_argument("--no-backtrack", dest="backtrack", action="store_false", default=None,
                   help="disable automatic learning-rate halving")
    p.add_argument("--config", default=None,
                   help="YAML config file; explicit flags win over file values")


def _add_evaluation_args(p):
    levels = ",".join(f"{100 * level:g}" for level in DEFAULT_PRED_LEVELS)
    p.add_argument("--pred-levels",
                   help=f"comma-separated PRED levels in percent (default {levels})")
    p.add_argument("--outlier-threshold", help="outlier MRE threshold in percent "
                   f"(default {100 * DEFAULT_OUTLIER_THRESHOLD:g})")


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
