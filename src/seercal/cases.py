"""Case protocols: dataset splits and the train/evaluate study runner.

Named protocols (1-based positions into the dataset order):

- c1    train on projects whose baseline MRE <= 50%, test on all
- c2    train and test on all projects
- c3    train on projects whose baseline MRE <= 150%, test on all
- c4-1  train on positions 24..n, test on 1..23
- c4-2  train on positions 47..n, test on 1..46
- custom:train=A-B,test=C-D   explicit 1-based inclusive ranges

Baseline MREs are computed with the uncalibrated input table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from . import params
from .calibration import CalibrationConfig, TrainingTrace, train
from .errors import ProtocolError
from .metrics import (
    DEFAULT_OUTLIER_THRESHOLD,
    DEFAULT_PRED_LEVELS,
    EvaluationReport,
    evaluate_projects,
    magnitude_relative_error,
)
from .engine import effort_for_project
from .table import ValueTable

_RANGE_RE = re.compile(r"^custom:train=(\d+)-(\d+),test=(\d+)-(\d+)$")


@dataclass(frozen=True, eq=False)
class CaseProtocol:
    """How to carve a dataset into training and testing lists."""

    name: str
    train_mre_limit: float | None = None          # keep projects with MRE <= limit
    train_range: tuple[int, int] | None = None    # 1-based inclusive
    test_range: tuple[int, int] | None = None

    @staticmethod
    def parse(spec: str) -> "CaseProtocol":
        spec = spec.strip().lower()
        if spec == "c1":
            return CaseProtocol("c1", train_mre_limit=0.5)
        if spec == "c2":
            return CaseProtocol("c2")
        if spec == "c3":
            return CaseProtocol("c3", train_mre_limit=1.5)
        if spec == "c4-1":
            return CaseProtocol("c4-1", train_range=(24, 0), test_range=(1, 23))
        if spec == "c4-2":
            return CaseProtocol("c4-2", train_range=(47, 0), test_range=(1, 46))
        m = _RANGE_RE.match(spec)
        if m:
            a, b, c, d = (int(g) for g in m.groups())
            return CaseProtocol("custom", train_range=(a, b), test_range=(c, d))
        raise ProtocolError(
            f"unknown protocol {spec!r}; expected c1, c2, c3, c4-1, c4-2 or "
            "custom:train=A-B,test=C-D"
        )


def _slice(projects: Sequence[params.SeerProject], rng: tuple[int, int], what: str):
    lo, hi = rng
    if hi == 0:
        hi = len(projects)
    if not 1 <= lo <= hi <= len(projects):
        raise ProtocolError(
            f"{what} range {lo}-{hi} does not fit a dataset of {len(projects)} projects"
        )
    return list(projects[lo - 1:hi])


def split(
    projects: Sequence[params.SeerProject],
    protocol: CaseProtocol | str,
    tbl: ValueTable | None = None,
) -> tuple[list[params.SeerProject], list[params.SeerProject]]:
    """Split a dataset into (training, testing) lists per the protocol."""
    if isinstance(protocol, str):
        protocol = CaseProtocol.parse(protocol)
    if not projects:
        raise ProtocolError("cannot split an empty dataset")

    if protocol.train_mre_limit is not None:
        if tbl is None:
            raise ProtocolError(
                f"protocol {protocol.name!r} selects by baseline MRE and needs a table"
            )
        training = [
            p for p in projects
            if magnitude_relative_error(effort_for_project(p, tbl).effort, p.actual_effort)
            <= protocol.train_mre_limit
        ]
        testing = list(projects)
    elif protocol.train_range is not None:
        training = _slice(projects, protocol.train_range, "training")
        testing = _slice(projects, protocol.test_range, "testing")
    else:  # c2
        training = list(projects)
        testing = list(projects)

    if not training:
        raise ProtocolError(f"protocol {protocol.name!r} produced an empty training split")
    return training, testing


@dataclass
class CaseResult:
    """Baseline vs calibrated evaluation of one protocol run."""

    protocol: str
    baseline: EvaluationReport
    calibrated: EvaluationReport
    change: dict
    trace: TrainingTrace
    table: ValueTable
    industrial_baseline: EvaluationReport | None = None
    industrial_calibrated: EvaluationReport | None = None
    industrial_change: dict | None = None

    def to_dict(self) -> dict:
        doc = {
            "protocol": self.protocol,
            "baseline": self.baseline.to_dict(),
            "calibrated": self.calibrated.to_dict(),
            "change": self.change,
            "training": {
                "initial_loss": self.trace.initial_loss,
                "final_loss": self.trace.final_loss,
                "epochs_run": self.trace.epochs_run,
                "stop_reason": self.trace.stop_reason,
            },
        }
        if self.industrial_baseline is not None:
            doc["industrial_baseline"] = self.industrial_baseline.to_dict()
            doc["industrial_calibrated"] = self.industrial_calibrated.to_dict()
            doc["industrial_change"] = self.industrial_change
        return doc


def change_summary(baseline: EvaluationReport, calibrated: EvaluationReport) -> dict:
    """calibrated - baseline per metric; negative MMRE change is improvement."""
    return {
        "mmre": calibrated.mmre - baseline.mmre,
        "pred": {
            repr(lvl): calibrated.pred_at(lvl) - frac for lvl, frac in baseline.pred
        },
        "outliers": calibrated.n_outliers - baseline.n_outliers,
    }


def run_case(
    projects: Sequence[params.SeerProject],
    tbl: ValueTable,
    protocol: CaseProtocol | str,
    config: CalibrationConfig | None = None,
    industrial: Sequence[params.SeerProject] | None = None,
    pred_levels: Sequence[float] = DEFAULT_PRED_LEVELS,
    outlier_threshold: float = DEFAULT_OUTLIER_THRESHOLD,
) -> CaseResult:
    """Split, train on the training list, evaluate both tables on the test list.

    When an industrial hold-out set is supplied it is evaluated with both
    tables as well.
    """
    if isinstance(protocol, str):
        protocol = CaseProtocol.parse(protocol)
    config = config or CalibrationConfig()
    training, testing = split(projects, protocol, tbl)
    trace = train(training, tbl, config)
    calibrated_table = trace.table

    def _report(project_list, which_table):
        return evaluate_projects(project_list, which_table, pred_levels, outlier_threshold)

    baseline = _report(testing, tbl)
    calibrated = _report(testing, calibrated_table)
    result = CaseResult(
        protocol=protocol.name,
        baseline=baseline,
        calibrated=calibrated,
        change=change_summary(baseline, calibrated),
        trace=trace,
        table=calibrated_table,
    )
    if industrial:
        result.industrial_baseline = _report(industrial, tbl)
        result.industrial_calibrated = _report(industrial, calibrated_table)
        result.industrial_change = change_summary(
            result.industrial_baseline, result.industrial_calibrated
        )
    return result


def render_case_text(result: CaseResult) -> str:
    """Aligned baseline/calibrated/change table for terminals and reports."""
    def rows_for(base: EvaluationReport, cal: EvaluationReport, change: dict):
        rows = [("MMRE", base.mmre, cal.mmre, change["mmre"])]
        for lvl, frac in base.pred:
            rows.append(
                (f"PRED({100 * lvl:.0f}%)", frac, cal.pred_at(lvl),
                 change["pred"][repr(lvl)])
            )
        return rows

    def block(title, base, cal, change):
        lines = [title, f"{'metric':<12}{'baseline':>12}{'calibrated':>12}{'change':>12}"]
        for name, b, c, delta in rows_for(base, cal, change):
            lines.append(
                f"{name:<12}{100 * b:>11.2f}%{100 * c:>11.2f}%{100 * delta:>+11.2f}%"
            )
        lines.append(
            f"{'outliers':<12}{base.n_outliers:>12}{cal.n_outliers:>12}"
            f"{change['outliers']:>+12}"
        )
        return lines

    lines = block(
        f"Case {result.protocol} (n={result.baseline.n_projects})",
        result.baseline, result.calibrated, result.change,
    )
    if result.industrial_baseline is not None:
        lines.append("")
        lines.extend(
            block(
                f"Industrial hold-out (n={result.industrial_baseline.n_projects})",
                result.industrial_baseline,
                result.industrial_calibrated,
                result.industrial_change,
            )
        )
    t = result.trace
    lines.append("")
    lines.append(
        f"Training: {t.epochs_run} epochs, loss {t.initial_loss:.6g} -> "
        f"{t.final_loss:.6g} ({t.stop_reason})"
    )
    return "\n".join(lines)
