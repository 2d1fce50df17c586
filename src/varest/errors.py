"""Semantic exception hierarchy for varest.

Every error raised by the library derives from :class:`VarestError`, so callers
can catch one type at an API boundary (the CLI maps them to exit codes).
"""


class VarestError(Exception):
    """Base class for all varest errors."""


class InvalidInput(VarestError, ValueError):
    """An argument has an invalid value: non-finite, out of range or of the wrong shape.

    Also a ``ValueError``, so callers that catch that keep working.
    """


class NearSingularCovariance(VarestError):
    """Covariance matrix has an eigenvalue below the relative tolerance."""


class TooFewObservations(VarestError):
    """An operation needs more observations than the dataset provides."""


class TooFewColumns(VarestError):
    """An operation needs more covariate columns than are available."""


class LengthMismatch(VarestError):
    """Vector arguments have different lengths."""


class DimensionMismatch(VarestError):
    """Array arguments have incompatible shapes."""


class DegenerateZeroEstimator(VarestError):
    """The pairwise-product zero-estimator is undefined (needs p >= 2)."""


class UnsupportedDependenceStructure(VarestError):
    """Operation requires a covariate model with independent columns."""


class IndexOutOfRange(VarestError):
    """A column index set refers to columns outside ``range(p)``."""


class InvalidScenario(VarestError):
    """A simulation scenario violates its own constraints."""


class InsufficientRecords(VarestError):
    """Summaries need at least two replication records per estimator."""


class NonFiniteResult(VarestError):
    """An estimator's arithmetic overflowed or produced an undefined value."""


class InitialEstimatorFailure(VarestError):
    """The initial estimator failed inside a bootstrap resample.

    Carries the resample index so failures are attributable.
    """

    def __init__(self, resample_index: int, cause: BaseException):
        self.resample_index = resample_index
        self.cause = cause
        super().__init__(f"initial estimator failed on resample {resample_index}: {cause!r}")
