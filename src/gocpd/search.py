"""Candidate change point search primitives.

This module holds the pieces; ``Detector._search_and_test`` is the one
place that composes them (``effective_interval``'s bounds, then a
``SplitScorer``, then ``ternary_argmax``), and ``Detector`` keeps the
saved candidate.

The split metric for a window spanning ``[start, t]`` and a split point
``tau`` is the sum of the averaged log-likelihoods of two models fitted on
``[start, tau - 1]`` and ``[tau, t]``. For data containing a single change
the metric is unimodal in ``tau``, so its argmax can be located with a
discrete ternary search in ``O(log n)`` evaluations instead of a linear
scan. Searches are warm-started from the best split of the previous
iteration: the saved candidate both truncates the domain (the optimum
never moves left of it) and serves as a comparison point inside the
recursion.
"""

from __future__ import annotations

from typing import Callable

from .errors import EmptyDomain, TooFewPoints
from .models import ModelParams, ObservationModel, PrefixSums
from .window import TimeSeriesWindow

DEFAULT_TOL = 2


def effective_interval(t: int, last_change: int, prev_candidate: int,
                       min_fit_points: int = 3) -> range:
    """Admissible split points at time ``t``, as an inclusive integer range.

    Combines the split-point domain ``[last_change + 1, t - 1]``, the
    minimum size of both fitted segments, and the saved-candidate
    truncation: timestamps before ``prev_candidate`` are never searched
    again. The result may be empty.
    """
    lo = max(prev_candidate, last_change + min_fit_points)
    hi = t - min_fit_points
    if hi < lo:
        return range(lo, lo)
    return range(lo, hi + 1)


class SplitScorer:
    """Memoized evaluator of the split metric over one window.

    Scores depend on the window's right edge, so a scorer is valid for a
    single iteration; build a fresh one when the stream advances.
    ``cache`` maps each evaluated split to its score, so ``len(cache)``
    counts the evaluations made.

    ``prefix`` and ``suffix``, when given, hold the forward and backward
    ``PrefixSums`` of ``window`` under the models' fixed hyperparameters:
    a split then reads one entry of each one's ``scores``, with no slice,
    fit or array arithmetic. Otherwise each evaluation fits both models,
    warm-starting from the nearest previously evaluated split of this
    iteration (or, for the first evaluation, from the models' current
    parameters); ``fits`` keeps those parameters. Fits never write to the
    parameters they start from, so they are handed back by reference.
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
        if self.prefix is None:
            if self.fits:
                nearest = min(self.fits, key=lambda seen: abs(seen - tau))
                self.left_model.params, self.right_model.params = self.fits[nearest]
            left = win.slice(win.start_index, tau - 1)
            right = win.slice(tau, win.end_index)
            self.left_model.fit(left)
            self.right_model.fit(right)
            value = float(self.left_model.avg_log_likelihood(left)
                          + self.right_model.avg_log_likelihood(right))
            self.fits[tau] = (self.left_model.params, self.right_model.params)
        else:
            m, r = tau - win.start_index, win.end_index - tau + 1
            if m < self.left_model.min_fit_points or r < self.right_model.min_fit_points:
                raise TooFewPoints(f"split {tau} leaves a segment below the fitting minimum")
            value = self.prefix.scores[m] + self.suffix.scores[r]
        self.cache[tau] = value
        return value


def ternary_argmax(score: Callable[[int], float], lo: int, hi: int,
                   prev: int, tol: int = DEFAULT_TOL) -> int:
    """Argmax of a unimodal integer-indexed sequence on ``[lo, hi]``.

    Follows the saved-candidate recursion: besides the two interior probe
    points, the previous candidate (clamped into the domain) is compared
    against the left probe, and the bracket collapses onto it when it
    still dominates. When the probes come within ``tol`` of each other the
    remaining bracket is scanned linearly, so the returned index is the
    exact argmax of the final bracket. ``score`` should memoize: the
    anchor is re-examined at every level.
    """
    if lo > hi:
        raise EmptyDomain(f"empty search domain [{lo}, {hi}]")
    if lo == hi:
        score(lo)
        return lo
    anchor = min(max(prev, lo), hi)
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
        # Collapse onto the saved candidate only while it dominates both
        # probes. For a unimodal sequence s(anchor) > s(t1) already implies
        # s(t2) <= s(t1), so this is the plain candidate-comparison branch;
        # requiring it to also beat s(t2) keeps transiently bimodal scores
        # from discarding a lobe growing on the right.
        if anchor < t1 and score(anchor) > s1 and score(anchor) >= s2:
            left, right = anchor, t1
            continue
        if s1 < s2:
            left = t1
        elif s1 > s2:
            right = t2
        else:
            left, right = t1, t2
