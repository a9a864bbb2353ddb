"""Candidate change point search primitives.

The split metric for a window spanning ``[start, t]`` and a split point
``tau`` sums the log-likelihoods of two models fitted on ``[start, tau - 1]``
and ``[tau, t]``, each divided by its segment's length, in one line of
``SplitScorer.evaluate``. For data containing a single change the metric is
unimodal in ``tau``, so its argmax can be located with a discrete ternary
search in ``O(log n)`` evaluations instead of a linear scan. Searches start
from the best split of the previous iteration, the saved candidate. By rule,
no split left of it is searched again, so it is the domain's left edge ``lo``
whenever that edge is admissible, and the search compares ``score(lo)``
against its probes at every level. The rule is a choice, not a property of the
metric: the optimum can move left of the candidate, and ROADMAP.md item 4
measures what that costs.

``Detector.step`` composes the pieces: ``effective_interval``'s bounds,
then a ``SplitScorer``, then ``ternary_argmax``. ``Detector`` keeps the
saved candidate.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import EmptyDomain, NumericalOverflow, TooFewPoints
from .models import ModelParams, ObservationModel, PrefixSums
from .window import TimeSeriesWindow


def effective_interval(t: int, last_change: int, candidate: int | None,
                       min_fit_points: int) -> tuple[int, int]:
    """Inclusive bounds ``(lo, hi)`` of the admissible split points at ``t``.

    ``lo`` leaves the search's left segment ``[last_change, tau - 1]`` at
    least ``min_fit_points`` points, and the saved-candidate truncation
    raises it to ``candidate``: timestamps before it are never searched
    again. ``hi`` holds the criterion's right segment ``[tau + 1, t]`` at
    ``min_fit_points``, so the search's own ``[tau, t]`` never has fewer
    than ``min_fit_points + 1`` points, one more than ``SplitScorer``
    accepts. The domain is empty when ``hi < lo``.
    """
    lo = last_change + min_fit_points
    if candidate is not None:
        lo = max(lo, candidate)
    return lo, t - min_fit_points


class SplitScorer:
    """Memoized evaluator of the split metric over one window.

    Scores depend on the window's right edge, so a scorer is valid for a
    single iteration; build a fresh one when the stream advances.
    ``cache`` maps each evaluated split to its score, so ``len(cache)``
    counts the evaluations made.

    ``evaluate`` forms the metric ``ll_left / m + ll_right / r`` from the
    log-likelihoods of the split's segments of ``m`` and ``r`` points, and
    raises ``NumericalOverflow`` when it is not finite. Given
    the forward and backward ``PrefixSums`` of ``window`` under the models'
    fixed hyperparameters, each is one entry of ``prefix.scores`` or
    ``suffix.scores``; else it is what fitting a model on a view of the
    window returns. Models that learn hyperparameters (a non-empty
    ``fitted``) warm-start from the nearest previously evaluated split of
    this iteration (or, for the first evaluation, from their current
    parameters); ``fits`` keeps those parameters, and stays empty for
    other models, whose fits ignore where they start. Fits never write to
    the parameters they start from, so they are handed back by reference.
    """

    def __init__(self, window: TimeSeriesWindow, left_model: ObservationModel,
                 right_model: ObservationModel, prefix: PrefixSums | None = None,
                 suffix: PrefixSums | None = None):
        self.window = window
        self.left_model = left_model
        self.right_model = right_model
        self.prefix = prefix
        self.suffix = suffix
        self.cache: dict[int, float] = {}
        self.fits: dict[int, tuple[ModelParams, ModelParams]] = {}

    def evaluate(self, tau: int) -> float:
        hit = self.cache.get(tau)
        if hit is not None:
            return hit
        win = self.window
        if not (win.start_index < tau <= win.end_index):
            raise ValueError(f"split {tau} outside window ({win.start_index}, {win.end_index}]")
        m, r = tau - win.start_index, win.end_index - tau + 1
        if self.prefix is None:
            warm = self.left_model.fitted
            if warm and self.fits:
                nearest = min(self.fits, key=lambda seen: abs(seen - tau))
                self.left_model.params, self.right_model.params = self.fits[nearest]
            ll_left = self.left_model.fit(win.slice(win.start_index, tau - 1))
            ll_right = self.right_model.fit(win.slice(tau, win.end_index))
            if warm:
                self.fits[tau] = (self.left_model.params, self.right_model.params)
        else:
            if m < self.left_model.min_fit_points or r < self.right_model.min_fit_points:
                raise TooFewPoints(f"split {tau} leaves a segment below the fitting minimum")
            ll_left, ll_right = self.prefix.scores.item(m), self.suffix.scores.item(r)
        value = float(ll_left / m + ll_right / r)  # the split metric
        if not math.isfinite(value):
            raise NumericalOverflow(f"split metric at {tau} is {value}")
        self.cache[tau] = value
        return value


def ternary_argmax(score: Callable[[int], float], lo: int, hi: int, tol: int) -> int:
    """Argmax of a unimodal integer-indexed sequence on ``[lo, hi]``.

    Follows the saved-candidate recursion: besides the two interior probe
    points ``t1 < t2``, the left edge ``lo`` (the saved candidate, or the
    first admissible split) is compared against them, and the bracket
    collapses onto ``[lo, t1]`` while ``lo`` still dominates. When the
    probes come within ``tol`` of each other the remaining bracket is
    scanned linearly, so the returned index is the exact argmax of the
    final bracket. ``score`` should memoize: ``lo`` is re-examined at
    every level.
    """
    if lo > hi:
        raise EmptyDomain(f"empty search domain [{lo}, {hi}]")
    left, right = lo, hi
    while True:
        third = (right - left) // 3
        t1 = left + third
        t2 = right - third
        # Once the probes come within tol of each other -- or land on the
        # bracket ends, where the update cannot shrink it -- scan what is left.
        if t2 - t1 < tol or third == 0:
            return max(range(left, right + 1), key=lambda tau: (score(tau), -tau))
        s1 = score(t1)
        s2 = score(t2)
        # Collapse onto the left edge only while it dominates both probes.
        # For a unimodal sequence s(lo) > s(t1) already implies
        # s(t2) <= s(t1), so this is the plain candidate-comparison branch;
        # requiring it to also beat s(t2) keeps transiently bimodal scores
        # from discarding a lobe growing on the right.
        if lo < t1 and score(lo) > s1 and score(lo) >= s2:
            left, right = lo, t1
            continue
        if s1 < s2:
            left = t1
        elif s1 > s2:
            right = t2
        else:
            left, right = t1, t2
