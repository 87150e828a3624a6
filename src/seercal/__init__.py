"""SEER-SEM effort estimation with a trainable, monotone parameter-value table.

Library layout:

- :mod:`seercal.params`      rating scale, parameter registry, project records
                             (``ProjectSet`` columns; ``SeerProject`` is its n = 1 view)
- :mod:`seercal.table`       the 34x18 value table, validation, file format
- :mod:`seercal.nfbank`      fuzzy sub-models: batch bank plus the reference definition
- :mod:`seercal.engine`      the array effort model and its n = 1 wrappers
- :mod:`seercal.calibration` loss, analytic gradients, monotone training
- :mod:`seercal.metrics`     RE / MRE / MMRE / PRED and reports
- :mod:`seercal.cases`       dataset split protocols and the study runner
- :mod:`seercal.dataset`     CSV ingestion and source-model transfer
- :mod:`seercal.synth`       synthetic data and the recovery experiment
- :mod:`seercal.cli`         the ``seercal`` command
"""

__version__ = "0.1.0"

from .calibration import (
    CalibrationConfig,
    TrainingTrace,
    enforce_monotone,
    grad_effort_wrt_value,
    grad_loss_wrt_consequent,
    loss,
    loss_gradient,
    train,
)
from .cases import CaseProtocol, CaseResult, run_case, split
from .dataset import (
    MappingRule,
    MappingTable,
    RawProjectRecord,
    builtin_mapping,
    load_mapping,
    load_projects,
    parse_dataset,
    save_projects,
    transfer,
    transfer_all,
)
from .engine import (
    EffortBreakdown,
    compute_combined,
    compute_ctbx,
    compute_effort,
    compute_parm_adjustment,
    effort_for_project,
)
from .errors import SeercalError
from .metrics import (
    EvaluationReport,
    evaluate_projects,
    magnitude_relative_error,
    mmre,
    pred,
    relative_error,
)
from .nfbank import bank_translate, firing_strengths, membership, nf_output, normalize
from .params import (
    RATING_LABELS,
    ParameterId,
    ProjectSet,
    SeerProject,
    coordinate_to_rating,
    rating_to_coordinate,
)
from .synth import perturb_table, recovery_experiment, synthesize_projects
from .table import (
    ValueTable,
    Violation,
    load_table,
    save_table,
    synthetic_table,
    validate_table,
)

__all__ = [
    "__version__",
    "CalibrationConfig", "TrainingTrace", "enforce_monotone",
    "grad_effort_wrt_value", "grad_loss_wrt_consequent", "loss", "loss_gradient",
    "train",
    "CaseProtocol", "CaseResult", "run_case", "split",
    "MappingRule", "MappingTable", "RawProjectRecord", "builtin_mapping",
    "load_mapping", "load_projects", "parse_dataset", "save_projects",
    "transfer", "transfer_all",
    "EffortBreakdown", "compute_combined", "compute_ctbx", "compute_effort",
    "compute_parm_adjustment", "effort_for_project",
    "SeercalError",
    "EvaluationReport", "evaluate_projects", "magnitude_relative_error",
    "mmre", "pred", "relative_error",
    "bank_translate", "firing_strengths", "membership", "nf_output", "normalize",
    "RATING_LABELS", "ParameterId", "ProjectSet", "SeerProject", "coordinate_to_rating",
    "rating_to_coordinate",
    "perturb_table", "recovery_experiment", "synthesize_projects",
    "ValueTable", "Violation", "load_table", "save_table", "synthetic_table",
    "validate_table",
]
