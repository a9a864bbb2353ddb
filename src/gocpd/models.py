"""Gaussian observation models.

Two model families share one interface so the search and detection layers
stay model-agnostic:

* ``IidGaussianModel`` -- independent ``N(mu_c, sigma_n^2)`` per channel,
  with closed-form maximum-likelihood fitting.
* ``GaussianProcessModel`` -- a GP per channel with a shared kernel (RBF or
  Dirac-delta) and per-channel constant mean; channels are modeled as
  independent outputs, so joint covariances are block-diagonal.

Every model exposes what the search and the detector read:

* ``fit(window)`` -- maximum-likelihood parameter fitting;
* ``log_likelihood(window)`` -- exact Gaussian (marginal) log-density;
* ``avg_log_likelihood(window)`` -- log-likelihood divided by window length;
* ``mahalanobis(window)`` / ``modified_mahalanobis(window)`` -- the distance
  ``sqrt(r^T Sigma^{-1} r)`` of the observations from the fitted means under
  the marginal covariance, and the length-corrected variant ``d^(2/n)``.

Only the GP predicts: ``GaussianProcessModel.posterior(query_inputs, train)``
is the Gaussian of the noisy outputs at the query inputs given a training window.

Every fit starts from the model's current ``params`` and ends by binding
``params`` to a new ``ModelParams`` built in that call; it never writes to
a parameter object it did not create, so callers may keep fitted ``params``
and hand them back as a later starting point without copying. ``reset()``
is the only way back to the priors.

The GP family has one kernel (``gram``, ``noisy_gram``), one whitening
(``PrefixSums.whiten``) and one seam that picks a factor and whitens a
window with it, ``GaussianProcessModel._whiten``: every GP fit, likelihood
and distance goes through it, so a faster whitening replaces it there.
Each Gaussian log-density, optimal mean and Mahalanobis distance sums the
innovations ``L^{-1} v`` against the lower Cholesky factor ``L`` of the
noisy Gram (Rasmussen & Williams, *GPML*, Algorithm 2.1). As ``L^{-1}`` is
lower triangular, the first ``m`` innovations use only the first ``m``
entries of ``v`` and the leading block of ``L^{-1}``, the inverse factor of
the first ``m`` points, so the prefix sums of one window's innovations
score each of its prefixes exactly: a split's left segment, the
criterion's left segment, the window.

A GP model whose hyperparameters are all fixed owns a ``UniformGramFactor``:
the inverse ``W = L^{-1}`` of the lower Cholesky factor of the noisy Gram
on the grid ``0, dx, 2dx, ...``, one read-only contiguous array of exactly
the longest segment's size, 8 n^2 bytes per model (two arrays only while a
growth is in progress). A stationary kernel depends only on input
differences, so on a segment whose inputs are ``x[0] + k * dx`` the noisy
Gram and ``W`` are leading blocks of the grid's, exactly, and the whitening
is one product ``W[:n, :n] @ v`` in numpy. Learned hyperparameters,
non-uniform inputs, and growth its conditioning bound refuses all factor
afresh with ``chol_with_jitter``, which stays the reference.

On the grid ``fit`` also keeps backward sums. The grid's noisy Gram ``K``
is symmetric Toeplitz, hence persymmetric: ``J K J = K`` with ``J`` the
reversal (Golub & Van Loan, section 4.7). So the last ``r`` points read
backwards have the same Gram ``K_r`` and the same ``log det``, and their
innovations are the first ``r`` innovations of the reversed window under
the same leading factor. ``fit`` whitens ``[1, y - y[0], rev(y) - y[-1]]``
in one product and keeps the forward sums as ``prefix`` and the backward
ones as ``suffix``, each with the score of every segment it covers in a
table (``PrefixSums.scores``), as in Truong, Oudre & Vayatis (2020). The
two tables are the rows of one float64 array, built with no Python object
per entry; a search reads only the few entries it probes.

Observations are checked for NaN and inf once, as they arrive
(``Detector.step`` checks the first batch, ``TimeSeriesWindow.extend`` the
rest), so the dense path's triangular solves, against a factor ``cholesky``
checked, skip scipy's finite check (``check_finite=False``); ``cholesky``
and ``posterior``, whose training window comes from the caller, keep it.
Only dense factors need scipy: a learned GP model imports ``scipy.linalg``
when built, a fixed one at its first dense factor (off the grid or past
its ``limit``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial

import numpy as np

from .errors import NonPositiveDefinite, TooFewPoints
from .window import TimeSeriesWindow

LOG_2PI = math.log(2.0 * math.pi)
_EPS = float(np.finfo(float).eps)

# Diagonal jitter ladder applied when a Gram matrix fails to factorize.
JITTER_INITIAL = 1e-8
JITTER_MAX = 1e-4

# Stability bounds for log-parameterized hyperparameters during fitting.
_NOISE_FLOOR = 1e-6
_LOG_BOUNDS = {
    "lengthscale": (math.log(1e-3), math.log(1e5)),
    "output_scale": (math.log(1e-6), math.log(1e5)),
    "noise_std": (math.log(_NOISE_FLOOR), math.log(1e5)),
}
_GRAD_TOL = 1e-5  # gradient norm that ends a GP fit


class Kernel(str, Enum):
    """Covariance function kinds for the GP family."""

    RBF = "rbf"
    DIRAC_DELTA = "dirac"


@dataclass
class ModelParams:
    """Hyperparameters of a Gaussian observation model.

    ``lengthscale`` and ``output_scale`` are ignored by the Dirac-delta
    kernel, whose covariance is the indicator ``K(x, x') = 1 if x == x'``.
    ``mean`` holds one constant per channel.
    """

    mean: np.ndarray
    noise_std: float
    lengthscale: float = 1.0
    output_scale: float = 1.0
    kernel: Kernel | None = None

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if not 0 < self.lengthscale < math.inf:
            raise ValueError(f"lengthscale must be > 0 and finite, got {self.lengthscale}")
        if not 0 < self.output_scale < math.inf:
            raise ValueError(f"output_scale must be > 0 and finite, got {self.output_scale}")
        if not 0 < self.noise_std < math.inf:
            raise ValueError(f"noise_std must be > 0 and finite, got {self.noise_std}")

    def copy(self) -> "ModelParams":
        return replace(self, mean=self.mean.copy())


@dataclass
class PosteriorSummary:
    """Predictive mean and covariance over flattened outputs.

    Outputs are flattened channel-major: all timestamps of channel 0, then
    channel 1, and so on. The covariance is block-diagonal across channels.
    """

    mean: np.ndarray
    cov: np.ndarray


_scipy_linalg = None


def _linalg():
    """``scipy.linalg``, imported on the first call: by a learned GP model when
    it is built, keeping the import inside set-up, and by a fixed one at its
    first dense factor. It is not asked to find NaN, which the detector
    rejects as observations arrive.
    """
    global _scipy_linalg
    if _scipy_linalg is None:
        import scipy.linalg
        _scipy_linalg = scipy.linalg
    return _scipy_linalg


def cholesky(mat: np.ndarray) -> np.ndarray:
    """Lower factor by ``scipy.linalg.cholesky``: every model factorization goes here."""
    return _linalg().cholesky(mat, lower=True)


def chol_with_jitter(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, escalating diagonal jitter on failure.

    Jitter starts at ``JITTER_INITIAL`` and doubles until ``JITTER_MAX``;
    past that the matrix is declared not positive definite.
    """
    try:
        return cholesky(mat)
    except np.linalg.LinAlgError:
        pass
    eye = np.eye(len(mat))
    eps = JITTER_INITIAL
    while eps <= JITTER_MAX:
        try:
            return cholesky(mat + eps * eye)
        except np.linalg.LinAlgError:
            eps *= 2.0
    raise NonPositiveDefinite(
        f"matrix of size {len(mat)} not positive definite after jitter {JITTER_MAX}"
    )


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sum((a[:, None, :] - b[None, :, :])**2, axis=-1)


def gram(a: np.ndarray, b: np.ndarray, params: ModelParams) -> np.ndarray:
    """Noise-free kernel matrix between the input rows of ``a`` and ``b``.

    RBF: ``output_scale^2 * exp(-|x - x'|^2 / (2 lengthscale^2))``; Dirac
    delta: the indicator ``1[x == x']``.
    """
    sq = _sqdist(a, b)
    if params.kernel == Kernel.DIRAC_DELTA:
        return (sq == 0.0).astype(float)
    return params.output_scale**2 * np.exp(-0.5 * sq / params.lengthscale**2)


def noisy_gram(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """Covariance of the noisy outputs at the inputs ``x``."""
    return gram(x, x, params) + params.noise_std**2 * np.eye(len(x))


class UniformGramFactor:
    """``W = L^{-1}`` and ``2 log L_kk`` of the noisy Gram's factor on ``0, dx, 2dx, ...``.

    Each GP model whose hyperparameters are all fixed owns one. It is bound
    to the first hyperparameters and spacing ``dx`` it is asked for; other
    requests get ``None``. A segment is on the grid when each ``x[k] - x[0]``
    is ``k * dx`` within 1e-12 relative plus the rounding of ``x`` itself,
    so inputs such as ``0.1 * t`` qualify at any offset. Each new size
    regrows ``W`` once by a bordered update, ``A = W K_12``, ``L_22 =
    chol(K_22 - A^T A)``, ``W_21 = -L_22^{-1} A^T W``; ``leading`` returns
    read-only views. An explicit inverse loses accuracy like ``cond(L) eps``,
    so growth is refused where the Gershgorin bound ``cond(K) <= r / max(
    noise_std^2, 2 K_kk - r)``, with ``r`` twice the Gram row's sum less
    ``K_kk``, exceeds ``COND_MAX`` (at 1e4 the fits agreed with the dense
    path to 2e-10 relative). It is not retried at that size or above, and
    those segments take the dense path.
    """

    COND_MAX = 1e4

    def __init__(self):
        self.key: tuple | None = None
        self.dx: np.ndarray | None = None
        self.size = 0
        self.limit: int | None = None
        self._inv = np.zeros((0, 0))
        self._logdiag = np.zeros(0)

    def leading(self, x: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray] | None:
        """``W`` and ``2 log L_kk`` of the noisy Gram on ``x``, or None off the grid."""
        n = len(x)
        if n < 2:
            return None
        key = (params.kernel, params.lengthscale, params.output_scale, params.noise_std)
        if self.key is not None and key != self.key:
            return None
        dx = (x[-1] - x[0]) / (n - 1) if self.key is None else self.dx
        grid = np.arange(n)[:, None] * dx
        tol = 1e-12 * np.abs(grid) + 4 * _EPS * (np.abs(x[0]) + np.abs(x[-1]))
        if not (np.abs(x - x[0] - grid) <= tol).all():
            return None
        self.key, self.dx = key, dx
        if n > self.size and not self._grow(n, params):
            return None
        return self._inv[:n, :n], self._logdiag[:n]

    def _grow(self, n: int, params: ModelParams) -> bool:
        if self.limit is not None and n >= self.limit:
            return False
        m = self.size
        grid = np.arange(n)[:, None] * self.dx
        k_new = gram(grid, grid[m:], params)
        k_new[m:] += params.noise_std**2 * np.eye(n - m)
        col = k_new[:, -1]  # the Toeplitz Gram's first row, reversed
        row_sum = 2.0 * col.sum() - col[-1]
        if row_sum > self.COND_MAX * max(params.noise_std**2, 2.0 * col[-1] - row_sum):
            self.limit = n
            return False
        a = self._inv @ k_new[:m]
        l22 = np.linalg.cholesky(k_new[m:] - a.T @ a)
        w22 = np.linalg.inv(l22)
        inv = np.empty((n, n))
        inv[:m, :m], inv[:m, m:] = self._inv, 0.0
        inv[m:, :m], inv[m:, m:] = -w22 @ (a.T @ self._inv), w22
        logdiag = np.concatenate([self._logdiag, 2.0 * np.log(np.diag(l22))])
        inv.flags.writeable = logdiag.flags.writeable = False
        self._inv, self._logdiag, self.size = inv, logdiag, n
        return True


def _length_corrected(d: float, n: int) -> float:
    """The modified Mahalanobis distance ``d^(2 / n)``; 0 stays 0."""
    return 0.0 if d == 0.0 else float(d ** (2.0 / n))


@dataclass
class PrefixSums:
    """Prefix sums of one window's innovations.

    With ``L`` the factor of the window's noisy Gram, ``z_1 = L^{-1} 1`` and
    ``z_y = L^{-1} (y - ref)``, row ``m`` sums the first ``m`` points:
    ``s11`` of ``z_1^2``, ``logdet`` of ``2 log L_kk`` and, per channel,
    ``s1y`` of ``z_1 z_y`` and ``syy`` of ``z_y^2``. Shifting by the first
    output row ``ref`` bounds the ``syy - s1y^2 / s11`` cancellation by the
    spread of the outputs, not by their level. Sums of the reversed window
    (``ref = y[-1]``) score its last ``m`` points in the same way.

    A backward whitening tabulates ``scores[m] = log_likelihood(m, mean(m)) / m``,
    the average log-likelihood at the segment's own means, in a float64
    array of ``len(window) + 1`` entries whose ``scores[0]`` is NaN. The
    forward and backward tables are the two rows of one array; a reader
    takes each entry it needs as a Python float, ``scores.item(m)``.
    """

    window: TimeSeriesWindow
    ref: np.ndarray
    s11: np.ndarray
    logdet: np.ndarray
    s1y: np.ndarray
    syy: np.ndarray
    scores: np.ndarray | None = None

    @classmethod
    def whiten(cls, window: TimeSeriesWindow, solve, logdiag: np.ndarray,
               backward: bool = True) -> tuple["PrefixSums", "PrefixSums | None"]:
        """The forward and backward sums of ``window``, from one whitening
        ``solve(B) = L^{-1} B`` of ``B = [1, y - y[0], rev(y) - y[-1]]``, with
        ``logdiag`` the ``2 log L_kk`` of its factor ``L``.

        The backward sums need a persymmetric Gram; for any other factor
        pass ``backward=False`` to whiten ``[1, y - y[0]]`` and get ``None``.
        """
        y = window.outputs
        cols = [np.ones((len(y), 1)), y - y[0]] + ([y[::-1] - y[-1]] if backward else [])
        z = solve(np.hstack(cols))
        terms = np.hstack([z[:, :1]**2, logdiag[:, None],
                           z[:, :1] * z[:, 1:], z[:, 1:]**2])
        sums = np.vstack([np.zeros(terms.shape[1]), np.cumsum(terms, axis=0)])
        s11, logdet, c, k = sums[:, 0], sums[:, 1], y.shape[1], z.shape[1] - 1
        s1y, syy = sums[:, 2:2 + k], sums[:, 2 + k:]
        if not backward:
            return cls(window, y[0], s11, logdet, s1y, syy), None
        # Both tables at once, in the order of operations of mean() and log_likelihood().
        ref, a, g = np.hstack([y[0], y[-1]]), s1y[1:], s11[1:, None]
        m = np.arange(1, len(y) + 1)[:, None]
        shift = (ref + a / g) - ref
        quad = (syy[1:] - 2.0 * shift * a + shift**2 * g).reshape(-1, 2, c).sum(axis=2)
        scores = np.full((2, len(y) + 1), math.nan)
        scores[:, 1:] = (-0.5 * (quad + c * (logdet[1:, None] + m * LOG_2PI)) / m).T
        return (cls(window, y[0], s11, logdet, s1y[:, :c], syy[:, :c], scores[0]),
                cls(window, y[-1], s11, logdet, s1y[:, c:], syy[:, c:], scores[1]))

    def mean(self, m: int) -> np.ndarray:
        """Maximum-likelihood per-channel means of the first ``m`` points."""
        return self.ref + self.s1y[m] / self.s11[m]

    def _quad(self, m: int, mean: np.ndarray) -> float:
        shift = mean - self.ref
        return float(np.sum(self.syy[m] - 2.0 * shift * self.s1y[m] + shift**2 * self.s11[m]))

    def log_likelihood(self, m: int, mean: np.ndarray) -> float:
        """Log-likelihood of the first ``m`` points under the means ``mean``."""
        return -0.5 * (self._quad(m, mean) + len(self.ref) * (self.logdet[m] + m * LOG_2PI))

    def mahalanobis(self, m: int, mean: np.ndarray) -> float:
        """Mahalanobis distance of the first ``m`` points from ``mean``."""
        return math.sqrt(max(self._quad(m, mean), 0.0))

    def modified_mahalanobis(self, m: int, mean: np.ndarray) -> float:
        """Modified Mahalanobis distance of the first ``m`` points from ``mean``."""
        return _length_corrected(self.mahalanobis(m, mean), m)


class ObservationModel:
    """Base class: parameter bookkeeping plus the shared distance metrics.

    Concrete families implement ``fit``, ``log_likelihood`` and the marginal
    ``mahalanobis``; ``avg_log_likelihood`` and ``modified_mahalanobis``
    derive from them. These five are all the search and the detector read.
    Instances are single-writer: do not fit and score concurrently on one object.
    """

    # Forward and backward sums of the last fitted window, where kept.
    prefix: PrefixSums | None = None
    suffix: PrefixSums | None = None
    # Hyperparameters fitted by gradient ascent, which starts where the last fit ended.
    fitted: tuple[str, ...] = ()

    def __init__(self, prior_params: ModelParams, min_fit_points: int = 3):
        self.prior_params = prior_params.copy()
        self.params = prior_params.copy()
        self.min_fit_points = int(min_fit_points)

    def reset(self) -> None:
        """Restore parameters to the priors, exactly."""
        self.params = self.prior_params.copy()

    @property
    def channel_count(self) -> int:
        return len(self.params.mean)

    def _check_window(self, window: TimeSeriesWindow) -> None:
        if window.channel_count != self.channel_count:
            raise ValueError(
                f"window has {window.channel_count} channels, model expects "
                f"{self.channel_count}"
            )

    def _check_fit_size(self, window: TimeSeriesWindow) -> None:
        if len(window) < self.min_fit_points:
            raise TooFewPoints(
                f"window of {len(window)} points is below the fitting minimum "
                f"of {self.min_fit_points}"
            )

    # -- interface implemented by families ---------------------------------

    def fit(self, window: TimeSeriesWindow) -> "ObservationModel":
        """Fit from the current ``params``; bind ``params`` to a new object."""
        raise NotImplementedError

    def log_likelihood(self, window: TimeSeriesWindow) -> float:
        raise NotImplementedError

    def mahalanobis(self, window: TimeSeriesWindow) -> float:
        """Distance of the outputs from the fitted means.

        ``sqrt(r^T Sigma^{-1} r)`` with ``r`` the flattened residuals and
        ``Sigma`` the marginal covariance on ``window.inputs`` under the
        fitted parameters; channels contribute independent blocks.
        """
        raise NotImplementedError

    # -- derived quantities -------------------------------------------------

    def avg_log_likelihood(self, window: TimeSeriesWindow) -> float:
        """Log-likelihood divided by the number of observations."""
        return self.log_likelihood(window) / len(window)

    def modified_mahalanobis(self, window: TimeSeriesWindow) -> float:
        """Length-corrected distance ``d^(2 / n)``; 0 stays 0."""
        return _length_corrected(self.mahalanobis(window), len(window))


class IidGaussianModel(ObservationModel):
    """Independent Gaussians ``N(mu_c, sigma_n^2)``, one mean per channel.

    ``fix_noise=True`` keeps ``noise_std`` at its prior value during
    fitting, reproducing fixed-variance model families; otherwise the
    noise is the maximum-likelihood standard deviation pooled over
    channels.
    """

    def __init__(self, prior_params: ModelParams, min_fit_points: int = 1,
                 fix_noise: bool = False):
        super().__init__(prior_params, min_fit_points=min_fit_points)
        self.fix_noise = fix_noise

    def fit(self, window: TimeSeriesWindow) -> "IidGaussianModel":
        self._check_window(window)
        self._check_fit_size(window)
        y, p = window.outputs, self.params
        # The ufunc reductions np.mean and np.sum make, without their wrappers.
        mean = np.add.reduce(y, 0) / len(y)
        noise_std = p.noise_std
        if not self.fix_noise:
            r = y - mean
            noise_std = max(math.sqrt(np.add.reduce(r * r, None) / r.size), _NOISE_FLOOR)
        # Built directly: dataclasses.replace costs about 3x more per fit.
        self.params = ModelParams(mean, noise_std, p.lengthscale, p.output_scale, p.kernel)
        return self

    def log_likelihood(self, window: TimeSeriesWindow) -> float:
        self._check_window(window)
        r = window.outputs - self.params.mean
        var = self.params.noise_std**2
        return float(-0.5 * (np.add.reduce(r * r, None) / var + r.size * (math.log(var) + LOG_2PI)))

    def mahalanobis(self, window: TimeSeriesWindow) -> float:
        # Diagonal covariance: the distance is the norm of the scaled residuals.
        self._check_window(window)
        r = (window.outputs - self.params.mean) / self.params.noise_std
        return math.sqrt(np.add.reduce(r * r, None))


class GaussianProcessModel(ObservationModel):
    """GP regression with a shared kernel over independent channels.

    The kernel is ``gram``'s RBF or Dirac delta; the Dirac delta ignores
    ``lengthscale`` and ``output_scale``. Observation noise ``noise_std``
    is added on the diagonal, and all predictive covariances are for the
    noisy outputs.

    Fitting is gradient ascent on the log marginal likelihood in the log
    of each fitted hyperparameter, with the per-channel means set to their
    exact conditional optimum each iteration. Iterations are capped
    (``max_fit_iters``) and stop early when the gradient norm falls below
    ``_GRAD_TOL``. The ``fix_*`` flags choose at construction which
    hyperparameters are fitted; ``fitted`` names them in gradient order.

    Every log-likelihood, optimal mean and marginal distance is read from
    the forward ``PrefixSums`` of one ``_whiten`` call. A model that fits no
    hyperparameter owns a ``UniformGramFactor`` (``gram_factor``, else
    ``None``); a fit that uses it keeps ``prefix`` and ``suffix``.
    """

    def __init__(self, prior_params: ModelParams, min_fit_points: int = 3,
                 fix_noise: bool = False, fix_kernel: bool = False,
                 fix_output_scale: bool = False, max_fit_iters: int = 50):
        if prior_params.kernel is None:
            raise ValueError("GaussianProcessModel requires a kernel kind")
        super().__init__(prior_params, min_fit_points=min_fit_points)
        learn_kernel = not fix_kernel and prior_params.kernel == Kernel.RBF
        self.fitted = tuple(name for name, on in (
            ("lengthscale", learn_kernel),
            ("output_scale", learn_kernel and not fix_output_scale),
            ("noise_std", not fix_noise)) if on)
        self.max_fit_iters = int(max_fit_iters)
        if self.fitted:
            _linalg()  # a learned model factors densely from its first fit on
        self.gram_factor = None if self.fitted else UniformGramFactor()

    # -- factor and sums -----------------------------------------------------

    def _whiten(self, window: TimeSeriesWindow, params: ModelParams, backward: bool = False
                ) -> tuple[PrefixSums, PrefixSums | None, np.ndarray | None]:
        """Forward sums of ``window`` under ``params``, backward sums (on the
        grid, when ``backward`` asks; else None) and the dense lower factor
        solved against (None where the grid factor's inverse applies)."""
        x = window.inputs
        grid = None if self.gram_factor is None else self.gram_factor.leading(x, params)
        if grid is not None:
            inverse, logdiag = grid
            return *PrefixSums.whiten(window, inverse.__matmul__, logdiag, backward), None
        lower = chol_with_jitter(noisy_gram(x, params))
        solve = partial(_linalg().solve_triangular, lower, lower=True, check_finite=False)
        forward, _ = PrefixSums.whiten(window, solve, 2.0 * np.log(np.diag(lower)), False)
        return forward, None, lower

    def _sums(self, window: TimeSeriesWindow) -> PrefixSums:
        """Forward sums of ``window`` under the fitted kernel and noise."""
        self._check_window(window)
        return self._whiten(window, self.params)[0]

    def log_likelihood(self, window: TimeSeriesWindow) -> float:
        return self._sums(window).log_likelihood(len(window), self.params.mean)

    def mahalanobis(self, window: TimeSeriesWindow) -> float:
        return self._sums(window).mahalanobis(len(window), self.params.mean)

    # -- fitting -------------------------------------------------------------

    def _objective(self, window: TimeSeriesWindow,
                   params: ModelParams) -> tuple[float, np.ndarray]:
        """Marginal log-likelihood, with the means set to their exact optimum,
        and the Gram factor it used."""
        sums, _, chol_lower = self._whiten(window, params)
        n = len(window)
        params.mean = sums.mean(n)
        return sums.log_likelihood(n, params.mean), chol_lower

    def _gradient(self, window: TimeSeriesWindow, params: ModelParams,
                  chol_lower: np.ndarray, sq: np.ndarray) -> np.ndarray:
        """Gradient of the marginal log-likelihood in the fitted log-parameters,
        from the factor ``_objective`` returned (the means leave the Gram alone)
        and the inputs' squared distances ``sq``."""
        y, x = window.outputs, window.inputs
        kinv = _linalg().cho_solve((chol_lower, True), np.eye(len(y)), check_finite=False)
        alphas = [kinv @ (y[:, c] - params.mean[c]) for c in range(self.channel_count)]
        dmats = []  # noisy-Gram derivatives, in ``fitted`` order
        if "lengthscale" in self.fitted:
            ks = gram(x, x, params)
            dmats.append(ks * (sq / params.lengthscale**2))
            if "output_scale" in self.fitted:
                dmats.append(2.0 * ks)
        if "noise_std" in self.fitted:
            dmats.append(2.0 * params.noise_std**2 * np.eye(len(sq)))
        grad = []
        for dmat in dmats:
            quad = sum(a @ dmat @ a for a in alphas)
            trace = float(np.sum(kinv * dmat))  # dmat symmetric
            grad.append(0.5 * quad - 0.5 * self.channel_count * trace)
        return np.array(grad)

    def fit(self, window: TimeSeriesWindow) -> "GaussianProcessModel":
        self._check_window(window)
        self._check_fit_size(window)
        if not self.fitted:
            # Fixed kernel and noise: the means are the whole fit. The sums
            # are kept on the grid only, where they come with their tables.
            self.prefix = self.suffix = None
            prefix, suffix, _ = self._whiten(window, self.params, backward=True)
            self.params = replace(self.params, mean=prefix.mean(len(window)))
            if suffix is not None:
                self.prefix, self.suffix = prefix, suffix
            return self
        params = self.params.copy()
        sq = _sqdist(window.inputs, window.inputs)
        objective, chol_lower = self._objective(window, params)
        step = 0.25  # step length in log-parameter units
        for _ in range(self.max_fit_iters):
            gvec = self._gradient(window, params, chol_lower, sq)
            gnorm = float(np.linalg.norm(gvec))
            if gnorm < _GRAD_TOL:
                break
            direction = gvec / gnorm
            # Backtracking on the objective only; gradients are recomputed
            # once per accepted step, and a direction with no gain ends the fit.
            for _ in range(8):
                trial = params.copy()
                for i, name in enumerate(self.fitted):
                    lo, hi = _LOG_BOUNDS[name]
                    new_log = min(max(math.log(getattr(params, name)) + step * direction[i], lo), hi)
                    setattr(trial, name, math.exp(new_log))
                try:
                    trial_objective, trial_chol = self._objective(window, trial)
                except NonPositiveDefinite:
                    step *= 0.5
                    continue
                if trial_objective > objective:
                    params, objective, chol_lower = trial, trial_objective, trial_chol
                    step = min(step * 1.5, 1.0)
                    break
                step *= 0.5
            else:
                break

        self.params = params
        return self

    # -- prediction ----------------------------------------------------------

    def posterior(self, query_inputs, train: TimeSeriesWindow) -> PosteriorSummary:
        """Predictive distribution of the noisy outputs at ``query_inputs`` (a 1-D
        array is D = 1) given ``train``'s outputs, under the fitted parameters."""
        self._check_window(train)
        q = np.asarray(query_inputs, dtype=float)
        q, p = q[:, None] if q.ndim == 1 else q, self.params
        k_tq = gram(train.inputs, q, p)
        chol_lower = chol_with_jitter(noisy_gram(train.inputs, p))
        solved = _linalg().cho_solve((chol_lower, True), k_tq)
        cov = gram(q, q, p) - k_tq.T @ solved + p.noise_std**2 * np.eye(len(q))
        cov = 0.5 * (cov + cov.T)
        means = p.mean + solved.T @ (train.outputs - p.mean)
        if self.channel_count > 1:
            cov = _linalg().block_diag(*[cov] * self.channel_count)
        return PosteriorSummary(mean=means.T.reshape(-1), cov=cov)
