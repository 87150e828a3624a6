"""Exception types shared across the package."""


class SeercalError(Exception):
    """Base class for every error raised by seercal."""


class RatingError(SeercalError):
    """Unknown or malformed rating label."""


class CoordinateRangeError(SeercalError):
    """A rating coordinate lies outside its valid range."""


class UnknownParameterError(SeercalError):
    """A symbol is not part of the parameter registry."""


class TableFormatError(SeercalError):
    """A value-table file is malformed (missing rows, levels, or keys)."""


class EngineDomainError(SeercalError):
    """Effort-model inputs violate a domain precondition."""


class MissingParameterError(SeercalError):
    """A required quantitative parameter value is absent."""


class DegenerateInputError(SeercalError):
    """An input carries no usable signal (e.g. all-zero firing strengths)."""


class MetricsDomainError(SeercalError):
    """Evaluation metric preconditions violated (empty set, nonpositive actual)."""


class DatasetSchemaError(SeercalError):
    """Dataset file header does not match the documented layout."""


class DatasetParseError(SeercalError):
    """A dataset row cannot be parsed."""


class MappingError(SeercalError):
    """A transfer mapping is inconsistent with a record or the registry."""


class ReportFormatError(SeercalError):
    """A report file is not an evaluate or case report."""


class ProtocolError(SeercalError):
    """A case protocol cannot be applied to the given dataset."""


class TrainingDivergedError(SeercalError):
    """Training produced a non-finite loss; carries the last valid trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
