"""Online change point detection loop.

Per arriving batch the detector: (1) waits out the warm-up and any
post-detection quiet period, (2) refits the single-model hypothesis on all
data since the last detected change, (3) updates the candidate change
point with a ternary search over the effective interval, whose left edge
is the saved candidate, and (4) applies a two-segment acceptance test: the
modified Mahalanobis distance of the data before and after the candidate,
measured against the single model, must exceed thresholds ``nu1`` and
``nu2`` while the candidate stays put. The persistence counter ``k`` rises
by one on a searched iteration where the criterion holds and the candidate
stays within ``search_tol`` of both the previous candidate and the
``anchor`` (where it first held), and is otherwise reset to 0 with the
anchor dropped.
Once ``k`` exceeds ``k_max`` the change is declared, the pre-change data
dropped, and every model reset to its priors. ``candidate``,
``candidate_score``, ``k`` and ``anchor`` are plain ``Detector`` fields,
set together with ``last_change`` and the quiet period by ``_restart``.

Steps (2)-(4) change no state until all of them have run. Every ``step``
appends one iteration record with the same keys, written before any
detection reset, so a detection's record shows its candidate.

The two-segment test is what gives robustness to outliers: an isolated
spike only raises the distance of the segment containing it, so the
conjunction fails and the persistence counter restarts.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, fields, asdict, replace
from typing import Iterable, Iterator

from .errors import (ConfigError, NonPositiveDefinite, TooFewPoints, check_fields,
                     check_keys, is_number)
from .models import (GaussianProcessModel, IidGaussianModel, Kernel,
                     ModelParams, ObservationModel)
from .search import SplitScorer, effective_interval, ternary_argmax
from .window import TimeSeriesWindow, require_finite

logger = logging.getLogger("gocpd.detector")


@dataclass
class ModelSpec:
    """Observation-model choice and priors, JSON-serializable; the priors, checked at
    construction, hold one placeholder mean, since the data sets the channel count."""

    family: str = "iid"
    kernel: str = "rbf"
    lengthscale: float = 1.0
    output_scale: float = 1.0
    noise_std: float = 0.1
    fix_noise: bool = False
    fix_kernel: bool = False
    fix_output_scale: bool = False
    min_fit_points: int = 3
    max_fit_iters: int = 50

    def __post_init__(self):
        check_fields(self, "model.", family=("iid", "gp"), kernel=("rbf", "dirac"),
                     min_fit_points=">= 1", max_fit_iters=">= 0")
        try:
            self.priors = ModelParams(
                mean=[0.0],
                noise_std=self.noise_std,
                lengthscale=self.lengthscale,
                output_scale=self.output_scale,
                kernel=Kernel(self.kernel) if self.family == "gp" else None,
            )
        except ValueError as exc:
            raise ConfigError(f"model.{exc}") from exc

    def build(self) -> ObservationModel:
        """A fresh model at the priors; a GP model with every hyperparameter
        fixed comes with its own grid factor."""
        if self.family == "iid":
            return IidGaussianModel(self.priors, min_fit_points=self.min_fit_points,
                                    fix_noise=self.fix_noise)
        return GaussianProcessModel(
            self.priors, min_fit_points=self.min_fit_points, fix_noise=self.fix_noise,
            fix_kernel=self.fix_kernel, fix_output_scale=self.fix_output_scale,
            max_fit_iters=self.max_fit_iters)


@dataclass
class DetectorConfig:
    """Thresholds and timing of the online loop.

    ``nu1``/``nu2`` gate the pre-/post-candidate segment distances;
    ``k_max`` is the persistence requirement; ``t_ini`` the warm-up length
    after a change; ``wait`` the extra quiet period after each detection;
    ``search_tol`` both terminates the ternary search and bounds the
    candidate jitter still counted as "stable".
    """

    nu1: float = 2.0
    nu2: float = 2.0
    k_max: int = 10
    t_ini: int = 30
    wait: int = 80
    search_tol: int = 2
    batch_size: int = 1
    model: ModelSpec = field(default_factory=ModelSpec)

    REQUIRED = ("nu1", "nu2", "k_max", "t_ini", "wait")

    def __post_init__(self):
        # t_ini leaves room for two segments of model.min_fit_points each.
        check_fields(self, nu1="> 0", nu2="> 0", k_max=">= 1",
                     t_ini=f">= {2 * self.model.min_fit_points}", wait=">= 0",
                     search_tol=">= 1", batch_size=">= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "DetectorConfig":
        check_keys(doc, "config", [f.name for f in fields(cls)], cls.REQUIRED)
        model_doc = doc.get("model", {})
        check_keys(model_doc, "config.model", [f.name for f in fields(ModelSpec)])
        return cls(**{**doc, "model": ModelSpec(**model_doc)})


@dataclass
class DetectionEvent:
    """A declared change: where it happened and when it was declared."""

    change_point: int
    declared_at: int
    candidate_score: float
    distance_left: float
    distance_right: float

    def to_dict(self) -> dict:
        return {"kind": "detection", **asdict(self)}


class Detector:
    """Stateful online detector over one stream.

    Instances are strictly sequential: feed contiguous batches through
    ``step``. Separate streams need separate instances.
    """

    def __init__(self, config: DetectorConfig):
        self.config = config
        self.m0 = config.model.build()
        self.m1 = config.model.build()
        self.m2 = config.model.build()
        self.window: TimeSeriesWindow | None = None
        self._restart(0, 0)
        self.events: list[DetectionEvent] = []
        self.instrumentation: list[dict] = []

    def step(self, batch: TimeSeriesWindow) -> DetectionEvent | None:
        """Advance the detector by one contiguous batch.

        Returns the DetectionEvent if this batch's iteration declared a
        change, else None. Every call appends exactly one iteration record.
        Numerical failures inside the search or the criterion degrade to a
        logged no-op; the stream stays alive. A batch holding NaN or inf
        (``NonFiniteObservation``, checked here for the first batch and by
        ``TimeSeriesWindow.extend`` for later ones, before anything else), or
        a later batch that does not continue the window (``NonContiguousBatch``)
        or whose input or channel count differs from it (``ValueError``, both
        from ``extend``) raises and leaves the detector as it was. The first
        batch sets the channel count.
        """
        started = time.perf_counter()
        cfg = self.config
        if self.window is None:
            require_finite(batch)
            self.window = batch
            self.last_change = batch.start_index
        else:
            self.window = self.window.extend(batch)
        t = self.window.end_index

        domain_size = evals = 0
        satisfied = stable = d_left = d_right = event = error = None
        if self.wait_remaining > 0:
            self.wait_remaining = max(0, self.wait_remaining - len(batch))
        elif t - self.last_change >= cfg.t_ini:
            # m0 is fitted even on an empty domain: a learned GP warm-starts from it.
            try:
                self.m0.fit(self.window)
                lo, hi = effective_interval(t, self.last_change, self.candidate,
                                            cfg.model.min_fit_points)
                if lo <= hi:
                    scorer = SplitScorer(self.window, self.m1, self.m2,
                                         self.m0.prefix, self.m0.suffix)
                    tau = ternary_argmax(scorer.evaluate, lo, hi, cfg.search_tol)
                    satisfied, d_left, d_right = self.criterion(tau)
                    domain_size, evals = hi - lo + 1, len(scorer.cache)
            except (NonPositiveDefinite, TooFewPoints) as exc:
                logger.warning("degraded step at t=%d: %s", t, exc)
                error = str(exc)
        if domain_size:
            stable = (self.candidate is not None and abs(tau - self.candidate) <= cfg.search_tol
                      and (self.anchor is None or abs(tau - self.anchor) <= cfg.search_tol))
            if satisfied and stable:
                self.k += 1
                if self.anchor is None:
                    self.anchor = tau
            else:
                self.k = 0
                self.anchor = None
            self.candidate, self.candidate_score = tau, scorer.cache[tau]
            if self.k > cfg.k_max:
                event = DetectionEvent(tau, t, self.candidate_score, d_left, d_right)
        self.instrumentation.append({
            "kind": "iteration",
            "t": t,
            "interval": t - self.last_change,
            "effective": None if self.candidate is None else t - self.candidate,
            "candidate": self.candidate,
            "score": self.candidate_score,
            "k": self.k,
            "searched": domain_size > 0, "domain_size": domain_size, "evals": evals,
            "criterion": satisfied, "stable": stable,
            "distance_left": d_left, "distance_right": d_right,
            "elapsed_s": time.perf_counter() - started,
            "error": error,
        })
        if event is not None:
            self.events.append(event)
            self.window = self.window.slice(event.change_point, t)
            self._restart(event.change_point, cfg.wait)
        return event

    def criterion(self, candidate: int) -> tuple[bool, float, float]:
        """Two-segment acceptance test against the single-model fit.

        Distances are the modified Mahalanobis of each segment under the
        current single-model parameters; segments are treated
        independently (no cross-segment covariance). The split is
        ``[last_change, candidate] | [candidate + 1, t]``, one point right of
        the search's ``[start, tau - 1] | [tau, t]`` and of the reset's. A candidate
        before the first ``step`` or outside ``[last_change, t - 1]`` is an IndexError.
        """
        if self.window is None:
            raise IndexError(f"candidate {candidate} before the first step")
        t = self.window.end_index
        if not self.last_change <= candidate < t:
            raise IndexError(f"candidate {candidate} outside [{self.last_change}, {t - 1}]")
        d_left = self._distance(self.m0.prefix, self.last_change, candidate)
        d_right = self._distance(self.m0.suffix, candidate + 1, t)
        ok = d_left > self.config.nu1 and d_right > self.config.nu2
        return ok, d_left, d_right

    def _distance(self, sums, a: int, b: int) -> float:
        """``m0``'s modified Mahalanobis distance of ``[a, b]``, read from its
        forward or backward ``sums`` when they were built from this window,
        which starts at ``last_change``, else from a slice."""
        if sums is not None and sums.window is self.window:
            return sums.modified_mahalanobis(b - a + 1, self.m0.params.mean)
        return self.m0.modified_mahalanobis(self.window.slice(a, b))

    def _restart(self, change_point: int, wait: int) -> None:
        """Begin a segment at ``change_point``: every model at its priors, no
        candidate, and ``wait`` quiet points before the next fit."""
        for model in (self.m0, self.m1, self.m2):
            model.reset()
        self.last_change: int = change_point
        self.candidate: int | None = None
        self.candidate_score: float | None = None
        self.k: int = 0
        self.anchor: int | None = None
        self.wait_remaining: int = wait


def stream_batches(window: TimeSeriesWindow, batch_size: int) -> Iterator[TimeSeriesWindow]:
    """Cut a window into contiguous batches for simulated-online replay."""
    for start in range(window.start_index, window.end_index + 1, batch_size):
        stop = min(start + batch_size - 1, window.end_index)
        yield window.slice(start, stop)


def run_stream(series: TimeSeriesWindow,
               config: DetectorConfig) -> tuple[list[DetectionEvent], list[dict]]:
    """Replay a window batch by batch through a fresh detector.

    Returns all detection events plus the per-iteration instrumentation
    records. A live source feeds its batches to ``Detector.step`` instead.
    """
    if not isinstance(series, TimeSeriesWindow):
        raise TypeError(f"run_stream replays a TimeSeriesWindow, got {type(series).__name__}; "
                        "feed a live source to Detector.step")
    detector = Detector(config)
    for batch in stream_batches(series, config.batch_size):
        detector.step(batch)
    return detector.events, detector.instrumentation


def grid_search_thresholds(series: TimeSeriesWindow, truth: list[int],
                           base_config: DetectorConfig,
                           nu_grid: Iterable,
                           k_max_grid: Iterable[int] | None = None,
                           train_frac: float = 0.3,
                           tolerance: int = 25) -> DetectorConfig:
    """Tune (nu1, nu2, k_max) on the leading fraction of a labeled series.

    ``nu_grid`` entries are either scalars (symmetric thresholds) or
    ``(nu1, nu2)`` pairs. Each grid point is scored by the F1 of its
    matched detections on the train split; ties prefer stricter (larger)
    thresholds. Returns a new config with the winning values. An empty
    grid, an entry that is neither a number nor a pair, a grid point that
    makes a bad config, or a bad ``train_frac`` or ``tolerance``, is a
    ValueError raised before any replay.
    """
    from .metrics import check_tolerance, match_detections, rates

    if not 0 < train_frac <= 1:
        raise ValueError(f"train_frac must be in (0, 1], got {train_frac}")
    check_tolerance(tolerance)
    split_at = series.start_index + max(1, int(len(series) * train_frac)) - 1
    train = series.slice(series.start_index, split_at)
    train_truth = [c for c in truth if c <= split_at]

    nu_values = list(nu_grid)
    k_values = list(k_max_grid) if k_max_grid is not None else [base_config.k_max]
    for name, grid in (("nu_grid", nu_values), ("k_max_grid", k_values)):
        if not grid:
            raise ValueError(f"{name} is empty")
    pairs = []
    for nu in nu_values:
        if is_number(nu):
            pairs.append((nu, nu))
        elif isinstance(nu, (tuple, list)) and len(nu) == 2:
            pairs.append(tuple(nu))
        else:
            raise ValueError(f"nu_grid entry {nu!r} is neither a number nor a (nu1, nu2) pair")
    candidates = [replace(base_config, nu1=nu1, nu2=nu2, k_max=k_max)
                  for k_max in k_values for nu1, nu2 in pairs]

    def train_f1(config: DetectorConfig) -> float:
        events, _ = run_stream(train, config)
        report = match_detections(train_truth, [e.change_point for e in events], tolerance)
        tpr, ppv, _ = rates(report)
        return 0.0 if (tpr + ppv) == 0 else 2 * tpr * ppv / (tpr + ppv)

    # max keeps the first of equal keys, as a strict ">" scan would.
    return max(candidates, key=lambda c: (train_f1(c), c.nu1, c.nu2, c.k_max))
