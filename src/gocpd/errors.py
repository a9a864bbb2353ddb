"""Exception types shared across the package."""


class GocpdError(Exception):
    """Base class for all package errors."""


class NonPositiveDefinite(GocpdError):
    """A Gram/covariance matrix could not be Cholesky-factorized, even
    after the maximum allowed diagonal jitter."""


class TooFewPoints(GocpdError):
    """A window is shorter than the minimum required for fitting."""


class EmptyDomain(GocpdError):
    """The candidate search interval contains no admissible timestamps."""


class NonContiguousBatch(GocpdError):
    """An incoming batch does not continue the stream's timestamps."""


class NonFiniteObservation(GocpdError, ValueError):
    """An incoming batch holds a NaN or infinite input or output."""


class ZeroVariance(GocpdError):
    """A channel has zero variance and cannot be standardized."""


class EmptyLog(GocpdError):
    """An instrumentation log contains no usable records."""


class ConfigError(GocpdError):
    """A configuration document is missing fields or holds invalid values."""
