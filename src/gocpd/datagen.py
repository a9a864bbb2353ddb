"""Seeded synthetic time series with piecewise-constant GP hyperparameters.

A regime script lists segment boundaries and, for one chosen
hyperparameter, a multiplicative factor per segment. Each segment is an
independent draw from a GP with the scripted hyperparameters on a
unit-spaced input grid, so consecutive segments are statistically
independent. Also provides the 101-point mean-step example stream and the
per-channel standardization used before detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ZeroVariance, check_fields, check_keys, is_number
from .models import Kernel, ModelParams, chol_with_jitter, noisy_gram
from .window import TimeSeriesWindow, require_finite

VARIABLE_PARAMS = ("lengthscale", "output_scale", "mean", "noise_std")

# Segment boundary grid shared by the bundled 1000-point scripts.
DEFAULT_CHANGE_LOCATIONS = [0, 60, 150, 240, 450, 650, 800, 890]
DEFAULT_BASE = dict(lengthscale=1.0, output_scale=0.5, mean=1.0, noise_std=0.01, kernel="rbf")

# Per-segment factors for each scripted hyperparameter change.
FACTOR_TABLES = {
    "lengthscale": [10, 2, 10, 1, 5, 1 / 5, 1, 20],
    "output_scale": [1 / 10, 10, 1 / 20, 1, 10, 1 / 10, 3, 1 / 8],
    "mean": [0, 2, -1, 3, 0, -1.4, 3.5, 0.2],
    "noise_std": [1 / 5, 10, 1 / 5, 10, 1 / 5, 5, 1 / 5, 5],
}

MIN_SEGMENT_GAP = 50


def base_params(base: dict) -> ModelParams:
    """A script's base hyperparameters: ``DEFAULT_BASE`` with the fields of
    ``base`` put over it. Raises ConfigError naming ``base`` for an unknown
    field and ``base.<field>`` for a bad value."""
    check_keys(base, "base", DEFAULT_BASE)
    kinds = [kind.value for kind in Kernel]
    for name, value in base.items():
        if name == "kernel" and value not in kinds:
            raise ConfigError(f"base.kernel must be one of {', '.join(kinds)}, got {value!r}")
        if name != "kernel" and not (is_number(value) and -np.inf < value < np.inf):
            raise ConfigError(f"base.{name} must be a finite number, got {value!r}")
    base = {**DEFAULT_BASE, **base}
    try:
        return ModelParams(mean=[base["mean"]], noise_std=base["noise_std"],
                           lengthscale=base["lengthscale"], output_scale=base["output_scale"],
                           kernel=Kernel(base["kernel"]))
    except ValueError as exc:  # each message starts with the field's name
        raise ConfigError(f"base.{exc}") from None


@dataclass
class RegimeScript:
    """Recipe for one piecewise-stationary series.

    ``factors`` multiply ``base_params.<vary>`` segment by segment; for the
    mean this is equivalent to absolute levels when the base mean is 1. A
    factor of any other hyperparameter must be positive.
    """

    length: int
    change_locations: list[int]
    vary: str
    factors: list[float]
    seed: int = 0
    base_params: ModelParams = field(default_factory=lambda: base_params({}))

    def __post_init__(self):
        check_fields(self, vary=VARIABLE_PARAMS, seed=">= 0")
        locs = self.change_locations
        if not locs or locs[0] != 0:
            raise ConfigError("change_locations must start at 0")
        if any(b - a < MIN_SEGMENT_GAP for a, b in zip(locs, locs[1:])):
            raise ConfigError(f"change_locations must be increasing, at least "
                              f"{MIN_SEGMENT_GAP} apart")
        if self.length <= locs[-1]:
            raise ConfigError("length must exceed the last change location")
        if len(self.factors) != len(locs):
            raise ConfigError(f"{len(locs)} segments but {len(self.factors)} factors")
        if self.vary != "mean" and not all(f > 0 for f in self.factors):
            raise ConfigError(f"factors must be > 0 when varying {self.vary}")
        for index in range(len(locs)):
            try:
                self.segment_params(index)
            except ValueError as exc:
                raise ConfigError(f"factors[{index}]: {exc}") from None

    def segment_bounds(self) -> list[tuple[int, int]]:
        """Half-open (start, stop) index pairs covering 0..length."""
        starts = list(self.change_locations)
        stops = starts[1:] + [self.length]
        return list(zip(starts, stops))

    def interior_changes(self) -> list[int]:
        """Ground-truth change locations (the leading 0 is not a change)."""
        return list(self.change_locations[1:])

    def segment_params(self, index: int) -> ModelParams:
        p = self.base_params.copy()
        return replace(p, **{self.vary: getattr(p, self.vary) * self.factors[index]})


def standard_script(vary: str, seed: int = 0) -> RegimeScript:
    """The bundled 1000-point script varying one hyperparameter."""
    return RegimeScript(
        length=1000,
        change_locations=list(DEFAULT_CHANGE_LOCATIONS),
        vary=vary,
        factors=list(FACTOR_TABLES.get(vary, [])),  # RegimeScript rejects an unknown vary
        seed=seed,
    )


def sample_piecewise_gp(script: RegimeScript) -> tuple[TimeSeriesWindow, list[int]]:
    """Draw the scripted series; returns the window and true change locations.

    Each segment is an independent GP sample: outputs are drawn from
    ``N(mean, K + noise_std^2 I)`` with the segment's hyperparameters
    evaluated on the segment's own unit grid.
    """
    rng = np.random.default_rng(script.seed)
    pieces = []
    for index, (start, stop) in enumerate(script.segment_bounds()):
        params = script.segment_params(index)
        n = stop - start
        lower = chol_with_jitter(noisy_gram(np.arange(n, dtype=float)[:, None], params))
        pieces.append(params.mean[0] + lower @ rng.standard_normal(n))
    y = np.concatenate(pieces)
    t = np.arange(script.length, dtype=float)[:, None]
    return TimeSeriesWindow(t, y, start_index=0), script.interior_changes()


def step_example(seed: int = 0) -> TimeSeriesWindow:
    """Seeded 101-point stream with a unit mean step at t = 50.

    The first 50 points are ``N(0, 0.1^2)`` and points 50..100 are
    ``N(1, 0.1^2)``.
    """
    rng = np.random.default_rng(seed)
    y = np.concatenate([
        rng.normal(0.0, 0.1, size=50),
        rng.normal(1.0, 0.1, size=51),
    ])
    t = np.arange(101, dtype=float)[:, None]
    return TimeSeriesWindow(t, y, start_index=0)


def standardize(window: TimeSeriesWindow) -> tuple[TimeSeriesWindow, list[tuple[float, float]]]:
    """Scale each channel to zero mean and unit standard deviation.

    Returns the transformed window and the per-channel ``(mean, std)``
    pairs needed to invert the transform. Raises NonFiniteObservation at
    the first timestamp holding a NaN or inf, before any statistic, then
    ZeroVariance for a constant channel and ValueError for an overflowing one.
    """
    require_finite(window)
    y = window.outputs
    transform = []
    cols = []
    for c in range(window.channel_count):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            mu, sd = float(y[:, c].mean()), float(y[:, c].std())
        if sd <= 0.0:
            raise ZeroVariance(f"channel {c} has zero variance")
        if not sd < np.inf:  # NaN too
            raise ValueError(f"channel {c}: its mean or spread overflows a float")
        transform.append((mu, sd))
        cols.append((y[:, c] - mu) / sd)
    out = TimeSeriesWindow(window.inputs.copy(), np.column_stack(cols),
                           start_index=window.start_index)
    return out, transform

