"""Greedy online change point detection.

Locates candidate change points by maximizing a two-segment averaged
log-likelihood split metric with a warm-started ternary search, and
declares a change once a two-segment modified-Mahalanobis test holds for a
configurable number of consecutive iterations.
"""

from .datagen import RegimeScript, sample_piecewise_gp, standard_script, step_example
from .detector import (DetectionEvent, Detector, DetectorConfig, ModelSpec,
                       run_stream, stream_batches)
from .errors import (ConfigError, EmptyDomain, EmptyLog, GocpdError,
                     NonContiguousBatch, NonFiniteObservation,
                     NonPositiveDefinite, NumericalOverflow, TooFewPoints,
                     ZeroVariance)
from .metrics import MatchReport, aggregate_instrumentation, match_detections, rates
from .models import (GaussianProcessModel, IidGaussianModel, Kernel,
                     ModelParams, ObservationModel, PosteriorSummary)
from .search import SplitScorer, effective_interval, ternary_argmax
from .window import TimeSeriesWindow

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DetectionEvent",
    "Detector",
    "DetectorConfig",
    "EmptyDomain",
    "EmptyLog",
    "GaussianProcessModel",
    "GocpdError",
    "IidGaussianModel",
    "Kernel",
    "MatchReport",
    "ModelParams",
    "ModelSpec",
    "NonContiguousBatch",
    "NonFiniteObservation",
    "NonPositiveDefinite",
    "NumericalOverflow",
    "ObservationModel",
    "PosteriorSummary",
    "RegimeScript",
    "SplitScorer",
    "TimeSeriesWindow",
    "TooFewPoints",
    "ZeroVariance",
    "aggregate_instrumentation",
    "effective_interval",
    "match_detections",
    "rates",
    "run_stream",
    "sample_piecewise_gp",
    "standard_script",
    "step_example",
    "stream_batches",
    "ternary_argmax",
]
