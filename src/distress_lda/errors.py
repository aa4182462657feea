"""Exception hierarchy.

Grouped by pipeline stage so the CLI can map each family onto a distinct
exit status (config 2, input parsing 3, fit singularity 4, evaluation 5).
"""


class DistressLdaError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(DistressLdaError):
    """Invalid run configuration (bad flag value, inverted window, ...)."""


# ---------------------------------------------------------------- input data


class PanelError(DistressLdaError):
    """Base class for CSV panel and model-file input problems."""


class SchemaError(PanelError):
    """A required column or key is missing, or a file has the wrong shape."""


class ParseError(PanelError):
    """A cell failed to parse; message names the row and column."""


class DuplicateRecordError(PanelError):
    """The same (bank, year) appears twice in one panel."""


class EmptyWindowError(PanelError):
    """No available observations for a bank inside the averaging window, or no finite mean."""


class InsufficientGroupError(PanelError):
    """A group has too few members for the requested statistic."""


class VariableCountError(PanelError):
    """More predictor variables than the sample size can support."""


class ZeroVarianceError(PanelError):
    """A variable (or score group) is constant, or overflows, where variance is required."""


class ModelFileError(PanelError):
    """A model or zones file is missing keys or holds out-of-range values."""


# ----------------------------------------------------------------- numerics


class DomainError(DistressLdaError):
    """Argument outside the mathematical domain of a special function."""


class SingularMatrixError(DistressLdaError):
    """The pooled covariance is singular or indefinite; names the pivot."""


class DegenerateSeparationError(DistressLdaError):
    """Group means coincide; no discriminant direction exists."""


# --------------------------------------------------------------- evaluation


class EvaluationError(DistressLdaError):
    """Base class for scoring/evaluation-stage problems."""


class BindingError(EvaluationError):
    """An observation does not carry the variables the model expects."""


class MissingLabelError(EvaluationError):
    """A bank in the evaluation panel has no actual group label."""
