"""An independent reference of the online detector, for end-to-end tests.

The detector of ``gocpd.detector`` written once more from its rules, plainly
and densely, so that a change to any layer of the package can be checked
against the algorithm itself and not only against its parent. It imports
nothing from ``gocpd``. Every likelihood is
``scipy.stats.multivariate_normal.logpdf`` on the dense covariance of a
segment, every mean is the generalized-least-squares mean under that
covariance, and every distance is one dense solve. Channels are independent,
so their log-densities and squared distances add.

The rules, for a stream whose points are indexed ``0, 1, ...`` and arrive
one at a time (batch size 1), with ``mfp`` the fitting minimum
``min_fit_points``:

* Wait: after a detection, ``wait`` arriving points are only appended.
  After that, a point ``t`` is searched once ``t - last_change >= t_ini``.
* Single model: means (and, when learned, the IID noise) fitted by maximum
  likelihood on ``[last_change, t]``.
* Domain: splits ``tau`` in ``[last_change + mfp, t - mfp]``, with the left
  edge raised to the saved candidate when there is one.
* Split metric: the averaged log-likelihood of ``[last_change, tau - 1]``
  plus that of ``[tau, t]``, each under its own maximum-likelihood fit.
* Search: ternary search for the metric's argmax on the domain, comparing
  the domain's left edge against both probes at every level and collapsing
  onto ``[lo, t1]`` while it beats them; once the probes come within
  ``search_tol`` of each other, or a third of the bracket is empty, the
  bracket is scanned and the first maximum wins. Each split is scored once.
* Criterion: the modified Mahalanobis distance ``d^(2/n)`` of
  ``[last_change, tau]`` and of ``[tau + 1, t]`` under the single model
  must exceed ``nu1`` and ``nu2``.
* Persistence: ``k`` rises by one when the criterion holds and ``tau`` is
  within ``search_tol`` of the previous candidate and of the anchor (the
  candidate where the run of ``k`` began); otherwise ``k`` and the anchor
  are cleared. Once ``k > k_max`` the change ``tau`` is declared at ``t``,
  the data before ``tau`` are dropped and the wait begins.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import multivariate_normal

NOISE_FLOOR = 1e-6  # smallest learned noise standard deviation


@dataclass(frozen=True)
class Family:
    """A Gaussian observation model with one constant mean per channel.

    ``kernel`` is "iid" (white noise only), "rbf" or "dirac" (the indicator
    of equal inputs). ``learn_noise`` fits the IID noise by maximum
    likelihood, pooled over channels; otherwise ``noise_std`` is fixed.
    """

    kernel: str
    noise_std: float
    learn_noise: bool = False
    lengthscale: float = 1.0
    output_scale: float = 1.0


def covariance(family: Family, x: np.ndarray, noise_std: float) -> np.ndarray:
    """Dense covariance of one channel's noisy outputs at the inputs ``x``."""
    diff = x[:, None] - x[None, :]
    if family.kernel == "iid":
        k = np.zeros_like(diff)
    elif family.kernel == "dirac":
        k = (diff == 0.0).astype(float)
    else:
        k = family.output_scale**2 * np.exp(-0.5 * diff**2 / family.lengthscale**2)
    return k + noise_std**2 * np.eye(len(x))


def fit(family: Family, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Maximum-likelihood per-channel means and noise standard deviation."""
    weights = np.linalg.solve(covariance(family, x, family.noise_std), np.ones(len(x)))
    mean = weights @ y / weights.sum()
    if not family.learn_noise:
        return mean, family.noise_std
    return mean, max(math.sqrt(np.mean((y - mean) ** 2)), NOISE_FLOOR)


def log_likelihood(family: Family, x, y, mean, noise_std) -> float:
    cov = covariance(family, x, noise_std)
    return sum(multivariate_normal.logpdf(y[:, c], np.full(len(x), mean[c]), cov)
               for c in range(y.shape[1]))


def modified_mahalanobis(family: Family, x, y, mean, noise_std) -> float:
    cov, r = covariance(family, x, noise_std), y - mean
    d = math.sqrt(max(sum(r[:, c] @ np.linalg.solve(cov, r[:, c])
                          for c in range(y.shape[1])), 0.0))
    return 0.0 if d == 0.0 else d ** (2.0 / len(x))


def split_metric(family: Family, x, y, tau: int) -> float:
    """Sum of the averaged log-likelihoods of ``y[:tau]`` and ``y[tau:]``,
    each under its own fit."""
    return sum(log_likelihood(family, xs, ys, *fit(family, xs, ys)) / len(xs)
               for xs, ys in ((x[:tau], y[:tau]), (x[tau:], y[tau:])))


def ternary_search(score, lo: int, hi: int, tol: int) -> int:
    """Argmax of ``score`` on ``[lo, hi]`` by the saved-candidate ternary search."""
    left, right = lo, hi
    while True:
        third = (right - left) // 3
        t1, t2 = left + third, right - third
        if third == 0 or t2 - t1 < tol:
            best = left
            for tau in range(left + 1, right + 1):
                if score(tau) > score(best):
                    best = tau
            return best
        s1, s2 = score(t1), score(t2)
        if lo < t1 and score(lo) > s1 and score(lo) >= s2:
            left, right = lo, t1
        elif s1 < s2:
            left = t1
        elif s1 > s2:
            right = t2
        else:
            left, right = t1, t2


def detect(x: np.ndarray, y: np.ndarray, family: Family, *, nu1: float, nu2: float,
           k_max: int, t_ini: int, wait: int, search_tol: int,
           min_fit_points: int) -> tuple[list[tuple[int, int]], list[dict]]:
    """Replay the stream ``(x, y)`` one point at a time.

    Returns the declared ``(change_point, declared_at)`` pairs and one
    record per searched point: ``t``, the ``candidate`` and its ``score``,
    the number of splits scored (``evals``), ``k`` after the update, and
    the criterion's ``distance_left`` and ``distance_right``.
    """
    y = y.reshape(len(y), -1)
    last_change, candidate, anchor, k, wait_left = 0, None, None, 0, 0
    events, records = [], []
    for t in range(len(y)):
        if wait_left > 0:
            wait_left -= 1
            continue
        if t - last_change < t_ini:
            continue
        xs, ys = x[last_change:t + 1], y[last_change:t + 1]
        mean, noise_std = fit(family, xs, ys)
        lo = last_change + min_fit_points
        if candidate is not None:
            lo = max(lo, candidate)
        hi = t - min_fit_points
        if lo > hi:
            continue
        scores = {}

        def score(tau: int) -> float:
            if tau not in scores:
                scores[tau] = split_metric(family, xs, ys, tau - last_change)
            return scores[tau]

        tau = ternary_search(score, lo, hi, search_tol)
        cut = tau - last_change + 1  # the criterion's left segment ends at tau
        d_left = modified_mahalanobis(family, xs[:cut], ys[:cut], mean, noise_std)
        d_right = modified_mahalanobis(family, xs[cut:], ys[cut:], mean, noise_std)
        stable = (candidate is not None and abs(tau - candidate) <= search_tol
                  and (anchor is None or abs(tau - anchor) <= search_tol))
        if d_left > nu1 and d_right > nu2 and stable:
            k += 1
            anchor = tau if anchor is None else anchor
        else:
            k, anchor = 0, None
        candidate = tau
        records.append({"t": t, "candidate": tau, "score": scores[tau], "evals": len(scores),
                        "k": k, "distance_left": d_left, "distance_right": d_right})
        if k > k_max:
            events.append((tau, t))
            last_change, candidate, anchor, k, wait_left = tau, None, None, 0, wait
    return events, records
