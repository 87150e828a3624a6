"""Evaluation metrics and per-dataset reports: RE, MRE, MMRE, PRED(L).

Underlying values are kept at full precision; the text rendering shows
percentages with two decimals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import params
from .engine import effort_for_project
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
    mres = [magnitude_relative_error(est, act) for est, act in pairs]
    if not mres:
        raise MetricsDomainError("MMRE needs at least one pair")
    return sum(mres) / len(mres)


def pred(pairs: Iterable[tuple[float, float]], level: float) -> float:
    """Fraction of pairs whose MRE is <= level (inclusive boundary)."""
    if not level >= 0:
        raise MetricsDomainError(f"PRED level must be non-negative, got {level!r}")
    mres = [magnitude_relative_error(est, act) for est, act in pairs]
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


def evaluate_projects(
    projects: Sequence[params.SeerProject],
    tbl: ValueTable,
    pred_levels: Sequence[float] = DEFAULT_PRED_LEVELS,
    outlier_threshold: float = DEFAULT_OUTLIER_THRESHOLD,
) -> EvaluationReport:
    """Estimate every project with the given table and aggregate the errors."""
    if not projects:
        raise MetricsDomainError("cannot evaluate an empty project list")
    rows = []
    for p in projects:
        est = effort_for_project(p, tbl).effort
        re = relative_error(est, p.actual_effort)
        rows.append(ProjectEvaluation(p.id, est, p.actual_effort, re, abs(re)))
    pairs = [(r.estimated, r.actual) for r in rows]
    levels = tuple(sorted(set(float(lvl) for lvl in pred_levels)))
    return EvaluationReport(
        rows=tuple(rows),
        mmre=mmre(pairs),
        pred=tuple((lvl, pred(pairs, lvl)) for lvl in levels),
        outlier_threshold=outlier_threshold,
        outlier_ids=tuple(r.id for r in rows if r.mre > outlier_threshold),
    )
