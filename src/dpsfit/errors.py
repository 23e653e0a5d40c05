"""Exception types shared across the package.

Everything raised deliberately by this package derives from
:class:`DpsFitError`, so callers (including the command line driver) can
distinguish data and modeling problems from genuine bugs.
"""

__all__ = [
    "DpsFitError",
    "DomainError",
    "ParseError",
    "SchemaError",
    "PreprocessingError",
    "InsufficientDataError",
    "IncompatibleModelError",
    "InitializationError",
    "SolverError",
    "FitError",
    "StandardizationError",
    "EnsembleError",
    "StagingError",
    "MappingError",
    "MetricError",
    "DegenerateTestError",
]


class DpsFitError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DpsFitError, ValueError):
    """Numeric input outside the mathematical domain (non-finite, wrong sign)."""


class ParseError(DpsFitError):
    """A data file could not be parsed; the message names the offending line."""


class SchemaError(DpsFitError):
    """File contents disagree with the expected column or key layout."""


class PreprocessingError(DpsFitError):
    """A preprocessing step lacks the data it needs (for example too few
    control records in a stratum)."""


class InsufficientDataError(DpsFitError):
    """Too few measurement points to estimate the requested parameters."""


class IncompatibleModelError(DpsFitError):
    """Data and model share no biomarkers, so no estimate is possible."""


class InitializationError(DpsFitError):
    """Initial parameter values could not be derived from the data."""


class SolverError(DpsFitError):
    """The inner optimizer could not evaluate or reduce its objective."""


class FitError(DpsFitError):
    """Model fitting failed; the message names the biomarker or subject and
    the outer iteration."""


class StandardizationError(DpsFitError):
    """Score standardization is impossible (empty or degenerate anchor set)."""


class EnsembleError(DpsFitError):
    """Too many bootstrap replicates failed to produce a usable ensemble."""


class StagingError(DpsFitError):
    """A staging classifier could not be built or applied."""


class MappingError(DpsFitError):
    """A score-to-time mapping could not be estimated."""


class MetricError(DpsFitError):
    """A metric is undefined for the given inputs."""


class DegenerateTestError(DpsFitError):
    """A statistical test has no information to work with (for example all
    paired differences are zero)."""
