"""Evaluation metrics and per-dataset reports: RE, MRE, MMRE, PRED(L).

Underlying values are kept at full precision; the text rendering shows
percentages with two decimals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import engine, params
from .calibration import _Batch, _batch_forward
from .engine import effort_for_project  # noqa: F401  (perfbench's TRACED patches this name)
from .errors import MetricsDomainError, ReportFormatError
from .table import ValueTable

DEFAULT_PRED_LEVELS = (0.2, 0.3, 0.5, 1.0)
DEFAULT_OUTLIER_THRESHOLD = 0.5


def relative_error(estimated: float, actual: float) -> float:
    """Signed relative error (estimated - actual) / actual."""
    if not actual > 0:
        raise MetricsDomainError(f"actual effort must be positive, got {actual!r}")
    return (estimated - actual) / actual


def magnitude_relative_error(estimated: float, actual: float) -> float:
    return abs(relative_error(estimated, actual))


def mmre(pairs: Iterable[tuple[float, float]]) -> float:
    """Mean magnitude of relative error over (estimated, actual) pairs."""
    return _mmre([magnitude_relative_error(est, act) for est, act in pairs])


def _mmre(mres: list[float]) -> float:
    if not mres:
        raise MetricsDomainError("MMRE needs at least one pair")
    return sum(mres) / len(mres)


def pred(pairs: Iterable[tuple[float, float]], level: float) -> float:
    """Fraction of pairs whose MRE is <= level (inclusive boundary)."""
    return _pred((magnitude_relative_error(est, act) for est, act in pairs), level)


def _pred(mres: Iterable[float], level: float) -> float:
    if not level >= 0:
        raise MetricsDomainError(f"PRED level must be non-negative, got {level!r}")
    mres = list(mres)
    if not mres:
        raise MetricsDomainError("PRED needs at least one pair")
    return sum(1 for m in mres if m <= level) / len(mres)


@dataclass(frozen=True)
class ProjectEvaluation:
    id: str
    estimated: float  # person-years
    actual: float     # person-years
    relative_error: float
    mre: float


@dataclass(frozen=True)
class EvaluationReport:
    """Per-project errors plus dataset aggregates."""

    rows: tuple[ProjectEvaluation, ...]
    mmre: float
    pred: tuple[tuple[float, float], ...]  # (level, fraction), sorted by level
    outlier_threshold: float
    outlier_ids: tuple[str, ...]

    @property
    def n_projects(self) -> int:
        return len(self.rows)

    @property
    def n_outliers(self) -> int:
        return len(self.outlier_ids)

    def pred_at(self, level: float) -> float:
        for lvl, frac in self.pred:
            if lvl == level:
                return frac
        raise MetricsDomainError(f"PRED({level}) was not computed for this report")

    def to_dict(self) -> dict:
        return {
            "n_projects": self.n_projects,
            "mmre": self.mmre,
            "pred": [[lvl, frac] for lvl, frac in self.pred],
            "outlier_threshold": self.outlier_threshold,
            "outlier_ids": list(self.outlier_ids),
            "n_outliers": self.n_outliers,
            "rows": [
                {
                    "id": r.id,
                    "estimated": r.estimated,
                    "actual": r.actual,
                    "relative_error": r.relative_error,
                    "mre": r.mre,
                }
                for r in self.rows
            ],
        }

    @staticmethod
    def from_dict(doc: dict) -> "EvaluationReport":
        try:
            return EvaluationReport(
                rows=tuple(
                    ProjectEvaluation(
                        r["id"], r["estimated"], r["actual"], r["relative_error"], r["mre"]
                    )
                    for r in doc["rows"]
                ),
                mmre=doc["mmre"],
                pred=tuple((lvl, frac) for lvl, frac in doc["pred"]),
                outlier_threshold=doc["outlier_threshold"],
                outlier_ids=tuple(doc["outlier_ids"]),
            )
        except KeyError as exc:
            raise ReportFormatError(f"not an evaluation report: no {exc} entry") from None

    def csv_rows(self) -> list[list[str]]:
        out = [["id", "estimated_py", "actual_py", "relative_error", "mre"]]
        for r in self.rows:
            out.append(
                [r.id, repr(r.estimated), repr(r.actual),
                 repr(r.relative_error), repr(r.mre)]
            )
        return out

    def render_text(self, title: str = "Evaluation") -> str:
        lines = [f"{title} (n={self.n_projects}, efforts in person-years)"]
        lines.append(f"  MMRE        {100 * self.mmre:8.2f}%")
        for lvl, frac in self.pred:
            lines.append(f"  PRED({100 * lvl:.0f}%)   {100 * frac:8.2f}%")
        lines.append(
            f"  Outliers (MRE > {100 * self.outlier_threshold:.0f}%): {self.n_outliers}"
        )
        return "\n".join(lines)


def _estimates(projects: params.ProjectSet, tbl: ValueTable) -> list[float]:
    """Every project's effort by batch forward, with the domain checks of
    :func:`seercal.engine.compute_effort`; an error names the first
    offending project."""
    efforts: list[float] = []
    for start in range(0, len(projects), params.BLOCK_ROWS):
        block = projects[start:start + params.BLOCK_ROWS]
        batch = _Batch(block)
        terms = _batch_forward(batch, tbl.values)
        engine._check_domain(
            engine._effort_checks(batch.sizes, terms)
            + [("effort", terms.effort, "be finite", np.isfinite)],
            ids=block.ids,
        )
        efforts += terms.effort.tolist()
    return efforts


def evaluate_projects(
    projects: Sequence[params.SeerProject],
    tbl: ValueTable,
    pred_levels: Sequence[float] = DEFAULT_PRED_LEVELS,
    outlier_threshold: float = DEFAULT_OUTLIER_THRESHOLD,
) -> EvaluationReport:
    """Estimate every project with the given table and aggregate the errors."""
    if not projects:
        raise MetricsDomainError("cannot evaluate an empty project list")
    projects = params.ProjectSet.of(projects)
    rows = []
    for pid, est, actual in zip(
        projects.ids, _estimates(projects, tbl), projects.actuals.tolist()
    ):
        re = relative_error(est, actual)
        rows.append(ProjectEvaluation(pid, est, actual, re, abs(re)))
    mres = [r.mre for r in rows]
    levels = tuple(sorted(set(float(lvl) for lvl in pred_levels)))
    return EvaluationReport(
        rows=tuple(rows),
        mmre=_mmre(mres),
        pred=tuple((lvl, _pred(mres, lvl)) for lvl in levels),
        outlier_threshold=outlier_threshold,
        outlier_ids=tuple(r.id for r in rows if r.mre > outlier_threshold),
    )
