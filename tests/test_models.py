import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import block_diag, cholesky, solve_triangular
from scipy.stats import multivariate_normal

from conftest import params_equal

import gocpd.models as models
from gocpd.detector import Detector, DetectorConfig, ModelSpec, stream_batches
from gocpd.errors import NonPositiveDefinite, TooFewPoints
from gocpd.models import (GaussianProcessModel, IidGaussianModel, Kernel,
                          ModelParams, PrefixSums, chol_with_jitter, noisy_gram)
from gocpd.search import SplitScorer, ternary_argmax
from gocpd.window import TimeSeriesWindow

LOG_2PI = math.log(2 * math.pi)


def iid(mean=0.0, noise=1.0, **kw):
    return IidGaussianModel(ModelParams(mean=[mean], noise_std=noise), **kw)


def gp(mean=0.0, noise=0.2, lengthscale=1.3, output_scale=0.8, kernel=Kernel.RBF, **kw):
    return GaussianProcessModel(
        ModelParams(mean=[mean], noise_std=noise, lengthscale=lengthscale,
                    output_scale=output_scale, kernel=kernel), **kw)


def window(y, x=None, start=0):
    y = np.asarray(y, dtype=float)
    if x is None:
        x = np.arange(len(y), dtype=float)
    return TimeSeriesWindow(x, y, start_index=start)


def rbf_cov(x, lengthscale, output_scale, noise):
    x = np.asarray(x, dtype=float).reshape(len(x), -1)
    sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
    return output_scale**2 * np.exp(-0.5 * sq / lengthscale**2) + noise**2 * np.eye(len(x))


# -- log_likelihood -----------------------------------------------------------

def test_iid_single_point_at_mean():
    assert iid().log_likelihood(window([0.0])) == pytest.approx(-0.5 * LOG_2PI)


def test_iid_single_point_one_sigma_out():
    assert iid().log_likelihood(window([1.0])) == pytest.approx(-0.5 * LOG_2PI - 0.5)


def test_gp_log_likelihood_matches_dense_mvn():
    rng = np.random.default_rng(0)
    x = np.linspace(0, 4, 5)
    y = rng.normal(size=5)
    m = gp(mean=0.3)
    cov = rbf_cov(x, 1.3, 0.8, 0.2)
    oracle = multivariate_normal(mean=np.full(5, 0.3), cov=cov).logpdf(y)
    assert m.log_likelihood(window(y, x)) == pytest.approx(oracle, rel=1e-10)


def test_gp_log_likelihood_dense_oracle_up_to_64_points():
    rng = np.random.default_rng(7)
    for n in (16, 33, 64):
        x = np.sort(rng.uniform(0, 20, size=n))
        y = rng.normal(size=n)
        m = gp(mean=-0.1, noise=0.35, lengthscale=2.0, output_scale=1.1)
        cov = rbf_cov(x, 2.0, 1.1, 0.35)
        oracle = multivariate_normal(mean=np.full(n, -0.1), cov=cov).logpdf(y)
        assert m.log_likelihood(window(y, x)) == pytest.approx(oracle, rel=1e-8)


def test_multichannel_likelihood_sums_over_channels():
    rng = np.random.default_rng(3)
    x = np.arange(6.0)
    y = rng.normal(size=(6, 2))
    m = GaussianProcessModel(ModelParams(mean=[0.1, -0.2], noise_std=0.3,
                                         lengthscale=1.0, output_scale=0.7,
                                         kernel=Kernel.RBF))
    cov = rbf_cov(x, 1.0, 0.7, 0.3)
    oracle = (multivariate_normal(mean=np.full(6, 0.1), cov=cov).logpdf(y[:, 0])
              + multivariate_normal(mean=np.full(6, -0.2), cov=cov).logpdf(y[:, 1]))
    w = TimeSeriesWindow(x, y)
    assert m.log_likelihood(w) == pytest.approx(oracle, rel=1e-10)


def test_chained_conditioning_matches_joint_density():
    # log p(y_all) == log p(y_head) + log p(y_tail | y_head)
    rng = np.random.default_rng(11)
    x = np.arange(12.0)
    y = rng.normal(size=12)
    m = gp(mean=0.2, noise=0.4, lengthscale=1.7, output_scale=0.9)
    full = m.log_likelihood(window(y, x))
    head = window(y[:7], x[:7])
    tail_post = m.posterior(x[7:, None], train=head)
    chained = (m.log_likelihood(head)
               + multivariate_normal(mean=tail_post.mean, cov=tail_post.cov).logpdf(y[7:]))
    assert chained == pytest.approx(full, rel=1e-8)


# -- avg_log_likelihood -------------------------------------------------------

def test_avg_equals_ll_for_single_point():
    m = iid()
    w = window([0.7])
    assert m.avg_log_likelihood(w) == pytest.approx(m.log_likelihood(w))


def test_avg_two_zeros_is_standard_normal_density():
    assert iid().avg_log_likelihood(window([0.0, 0.0])) == pytest.approx(-0.5 * LOG_2PI)


def test_avg_is_length_invariant_for_identical_points():
    m = iid(mean=0.5, noise=0.7)
    a = m.avg_log_likelihood(window([1.2] * 2))
    b = m.avg_log_likelihood(window([1.2] * 10))
    assert a == pytest.approx(b, rel=1e-12)


def test_avg_scaling_identity():
    rng = np.random.default_rng(5)
    m = gp()
    for n in (3, 17, 40):
        w = window(rng.normal(size=n))
        assert m.avg_log_likelihood(w) * n == pytest.approx(m.log_likelihood(w), rel=1e-12)


# -- fit ----------------------------------------------------------------------

def test_iid_fit_zero_data_gives_zero_mean():
    m = iid(mean=3.0, noise=1.0, fix_noise=True)
    m.fit(window([0.0, 0.0, 0.0, 0.0]))
    assert m.params.mean[0] == 0.0


def test_iid_fit_constant_ones_with_fixed_noise():
    m = iid(mean=0.0, noise=0.5, fix_noise=True)
    m.fit(window([1.0, 1.0, 1.0, 1.0]))
    assert m.params.mean[0] == 1.0
    assert m.params.noise_std == 0.5


def test_iid_fit_recovers_sample_mean_exactly():
    rng = np.random.default_rng(2)
    y = rng.normal(2.0, 1.0, size=37)
    m = iid(fix_noise=True)
    m.fit(window(y))
    assert m.params.mean[0] == pytest.approx(y.mean(), abs=1e-15)


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("fix_noise", [True, False])
@pytest.mark.parametrize("level", [0.0, 1e3])
def test_iid_model_equals_the_numpy_formulas_exactly(channels, fix_noise, level):
    # The oracle is the textbook numpy: y.mean(axis=0) and np.sum(resid**2).
    rng = np.random.default_rng(7)
    y = level + rng.normal(0.0, 0.3, size=(60, channels))
    whole = TimeSeriesWindow(np.arange(60.0), y, start_index=100)
    segment = whole.slice(117, 151)
    prior = ModelParams(mean=[0.5] * channels, noise_std=0.2)
    m = IidGaussianModel(prior, fix_noise=fix_noise)
    m.fit(segment)
    out = segment.outputs
    mean = out.mean(axis=0)
    noise = 0.2 if fix_noise else max(float(np.sqrt(np.mean((out - mean)**2))), 1e-6)
    assert np.array_equal(m.params.mean, mean)
    assert m.params.noise_std == noise
    for w in (segment, whole.slice(100, 116), whole):
        resid = w.outputs - mean
        ll = float(-0.5 * (np.sum(resid**2) / noise**2
                           + resid.size * (math.log(noise**2) + LOG_2PI)))
        assert m.log_likelihood(w) == ll
        assert m.avg_log_likelihood(w) == ll / len(w)
        assert m.mahalanobis(w) == float(np.sqrt(np.sum((resid / noise)**2)))


def test_window_of_another_channel_count_is_rejected():
    two = TimeSeriesWindow(np.arange(5.0), np.zeros((5, 2)))
    for model in (iid(), gp()):
        for call in (model.fit, model.log_likelihood, model.mahalanobis):
            with pytest.raises(ValueError, match="window has 2 channels, model expects 1"):
                call(two)


def test_gp_requires_a_kernel():
    with pytest.raises(ValueError, match="requires a kernel"):
        GaussianProcessModel(ModelParams(mean=[0.0], noise_std=0.2))


def test_fit_rejects_short_windows():
    m = gp(min_fit_points=3)
    with pytest.raises(TooFewPoints):
        m.fit(window([1.0, 2.0]))


def test_gp_fit_recovers_lengthscale():
    # 20 seeded draws at lengthscale 1.0; fitted value within a factor of 2
    # on at least 80% of them.
    def draw(seed, n=50):
        rng = np.random.default_rng(seed)
        x = np.arange(n, dtype=float)
        cov = rbf_cov(x, 1.0, 0.5, 0.01)
        y = 1.0 + chol_with_jitter(cov) @ rng.standard_normal(n)
        return window(y, x)

    hits = 0
    for seed in range(20):
        m = gp(mean=0.0, noise=0.1, lengthscale=0.5, output_scale=1.0)
        m.fit(draw(seed))
        hits += 0.5 <= m.params.lengthscale <= 2.0
    assert hits >= 16


def test_warm_start_begins_from_current_params():
    rng = np.random.default_rng(9)
    w = window(rng.normal(size=30))
    m = gp(max_fit_iters=0)  # no iterations: fit returns the start point
    m.params.lengthscale = 3.21
    m.fit(w)
    assert m.params.lengthscale == pytest.approx(3.21)
    m.reset()  # the only way back to the priors
    m.fit(w)
    assert m.params.lengthscale == pytest.approx(m.prior_params.lengthscale)


def test_reset_restores_priors_bit_exact():
    rng = np.random.default_rng(4)
    m = gp(mean=0.25, noise=0.17)
    prior = m.prior_params.copy()
    m.fit(window(rng.normal(size=25)))
    assert not params_equal(m.params, prior)
    m.reset()
    assert params_equal(m.params, prior)
    assert m.params.mean is not m.prior_params.mean  # independent storage


@pytest.mark.parametrize("make", [
    lambda: iid(mean=0.3, noise=0.5),
    lambda: gp(fix_kernel=True, fix_noise=True),
    lambda: gp(max_fit_iters=5),
], ids=["iid", "fixed_gp", "learned_gp"])
def test_fit_never_writes_to_its_starting_params(make):
    m = make()
    start = m.params
    snapshot = start.copy()
    m.fit(window(np.random.default_rng(6).normal(1.0, 0.4, size=25)))
    assert params_equal(start, snapshot)
    assert m.params is not start
    assert not params_equal(m.params, snapshot)  # the fit did move the parameters


def test_learned_fit_factors_the_gram_once_per_objective(monkeypatch):
    counts = {"cholesky": 0, "objective": 0}
    raw_cholesky = models.cholesky

    def counting_cholesky(*args, **kwargs):
        counts["cholesky"] += 1
        return raw_cholesky(*args, **kwargs)

    monkeypatch.setattr(models, "cholesky", counting_cholesky)
    m = gp(max_fit_iters=3)
    raw_objective = m._objective

    def counting_objective(*args):
        counts["objective"] += 1
        return raw_objective(*args)

    monkeypatch.setattr(m, "_objective", counting_objective)
    m.fit(window(np.random.default_rng(7).normal(size=30)))
    assert counts["objective"] >= 4  # the start point and a trial per iteration
    assert counts["cholesky"] == counts["objective"]  # the gradient adds none


# -- posterior ----------------------------------------------------------------

def test_gp_posterior_interpolates_as_noise_vanishes():
    rng = np.random.default_rng(6)
    x = np.arange(5.0)
    y = rng.normal(size=5)
    m = gp(mean=0.0, noise=1e-5, lengthscale=1.0, output_scale=1.0)
    train = window(y, x)
    post = m.posterior(x[:1, None], train=train)
    assert post.mean[0] == pytest.approx(y[0], abs=1e-6)


def test_gp_posterior_matches_textbook_conditional():
    rng = np.random.default_rng(8)
    x = np.arange(6.0)
    y = rng.normal(size=6)
    m = gp(mean=0.3)
    train = window(y[:4], x[:4])
    q = x[4:, None]
    post = m.posterior(q, train=train)

    k = rbf_cov(x, 1.3, 0.8, 0.0)
    ktt = k[:4, :4] + 0.2**2 * np.eye(4)
    ktq = k[:4, 4:]
    kqq = k[4:, 4:] + 0.2**2 * np.eye(2)
    mean = 0.3 + ktq.T @ np.linalg.solve(ktt, y[:4] - 0.3)
    cov = kqq - ktq.T @ np.linalg.solve(ktt, ktq)
    assert np.allclose(post.mean, mean, rtol=1e-8)
    assert np.allclose(post.cov, cov, rtol=1e-8, atol=1e-12)


def test_dirac_kernel_covariance_is_indicator():
    m = gp(kernel=Kernel.DIRAC_DELTA, noise=0.5, lengthscale=9.9, output_scale=7.7)
    cov = noisy_gram(np.array([[0.0], [1.0], [1.0]]), m.params)
    # 1 where the inputs are equal, plus noise^2 on the diagonal;
    # lengthscale/output_scale ignored
    assert np.array_equal(cov, [[1.25, 0.0, 0.0], [0.0, 1.25, 1.0], [0.0, 1.0, 1.25]])


def test_dirac_kernel_fit_learns_mean_and_noise():
    rng = np.random.default_rng(14)
    y = rng.normal(2.0, 1.5, size=80)  # marginal std sqrt(1 + sn^2) = 1.5
    m = gp(kernel=Kernel.DIRAC_DELTA, mean=0.0, noise=0.5, max_fit_iters=40)
    m.fit(window(y))
    assert m.params.mean[0] == pytest.approx(y.mean(), abs=1e-6)
    assert m.params.noise_std == pytest.approx(np.sqrt(max(y.var() - 1.0, 0.0)), rel=0.2)


# -- mahalanobis --------------------------------------------------------------

def test_mahalanobis_zero_residual():
    m = iid(mean=2.0, noise=0.3)
    assert m.mahalanobis(window([2.0, 2.0, 2.0])) == 0.0


def test_mahalanobis_single_standardized_point():
    assert iid().mahalanobis(window([3.0])) == pytest.approx(3.0)


def test_mahalanobis_diagonal_case_is_root_sum_squares():
    m = iid(mean=0.0, noise=0.5)
    y = np.array([0.5, -1.0, 0.25])
    expected = math.sqrt(np.sum((y / 0.5) ** 2))
    assert m.mahalanobis(window(y)) == pytest.approx(expected, rel=1e-12)


def test_mahalanobis_gp_matches_generic_formula():
    rng = np.random.default_rng(10)
    x = np.arange(8.0)
    y = rng.normal(size=8)
    m = gp(mean=0.1)
    cov = rbf_cov(x, 1.3, 0.8, 0.2)
    expected = math.sqrt((y - 0.1) @ np.linalg.solve(cov, y - 0.1))
    assert m.mahalanobis(window(y, x)) == pytest.approx(expected, rel=1e-10)


def test_mahalanobis_nonnegative_and_zero_iff_zero_residual():
    rng = np.random.default_rng(12)
    m = iid(mean=0.0, noise=1.0)
    for _ in range(20):
        y = rng.normal(size=5)
        d = m.mahalanobis(window(y))
        assert d >= 0.0
        assert (d < 1e-10) == bool(np.all(np.abs(y) < 1e-10))


def test_multichannel_mahalanobis_matches_block_diagonal_oracle():
    # The marginal distance against the block-diagonal covariance of one
    # noisy Gram per channel, for a learned model (dense factor) and a fixed
    # one (grid factor).
    rng = np.random.default_rng(15)
    x = np.arange(10.0)
    y = rng.normal(size=(10, 3))
    params = ModelParams(mean=[0.1, -0.2, 0.4], noise_std=0.3, lengthscale=1.5,
                         output_scale=0.8, kernel=Kernel.RBF)
    query = TimeSeriesWindow(x[6:], y[6:], start_index=6)
    for m in (GaussianProcessModel(params),
              GaussianProcessModel(params, fix_kernel=True, fix_noise=True)):
        cov = block_diag(*[noisy_gram(query.inputs, m.params)] * 3)
        resid = (query.outputs - m.params.mean).T.reshape(-1)
        z = solve_triangular(chol_with_jitter(cov), resid, lower=True)
        assert m.mahalanobis(query) == pytest.approx(math.sqrt(z @ z), rel=1e-10)
    assert m.gram_factor.size == len(query)


# -- modified mahalanobis -----------------------------------------------------

def test_modified_mahalanobis_exponent_one():
    # d = 4 over 2 points -> 4^(2/2) = 4
    m = iid(mean=0.0, noise=1.0)
    y = np.array([4.0 / math.sqrt(2)] * 2)
    assert m.mahalanobis(window(y)) == pytest.approx(4.0)
    assert m.modified_mahalanobis(window(y)) == pytest.approx(4.0)


def test_modified_mahalanobis_square_root_case():
    # d = 9 over 4 points -> 9^(1/2) = 3
    m = iid(mean=0.0, noise=1.0)
    y = np.array([4.5] * 4)
    assert m.mahalanobis(window(y)) == pytest.approx(9.0)
    assert m.modified_mahalanobis(window(y)) == pytest.approx(3.0)


def test_modified_mahalanobis_zero_stays_zero():
    m = iid(mean=0.0, noise=1.0)
    assert m.modified_mahalanobis(window([0.0] * 7)) == 0.0


def test_modified_mahalanobis_power_identity():
    rng = np.random.default_rng(13)
    m = iid(mean=0.0, noise=0.8)
    for n in (2, 5, 11):
        y = rng.normal(size=n)
        d = m.mahalanobis(window(y))
        assert m.modified_mahalanobis(window(y)) == pytest.approx(d ** (2.0 / n), rel=1e-12)


# -- numerical edge cases -----------------------------------------------------

def test_jitter_recovers_degenerate_gram():
    mat = np.ones((4, 4))  # rank 1
    lower = chol_with_jitter(mat)
    assert np.all(np.isfinite(lower))


def test_non_positive_definite_raised_past_jitter():
    mat = -np.eye(3)
    with pytest.raises(NonPositiveDefinite):
        chol_with_jitter(mat)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(mean=[0.0], noise_std=0.0)
    with pytest.raises(ValueError):
        ModelParams(mean=[0.0], noise_std=1.0, lengthscale=-1.0)


# -- grid factor (fast path) vs the dense oracle ------------------------------------

def fixed_gp(kernel=Kernel.RBF, channels=1, noise=0.3, lengthscale=2.0,
             output_scale=0.9, dense=False, **kw):
    """A fixed-hyperparameter GP; ``dense`` switches its grid factor off."""
    settings = dict(fix_kernel=True, fix_noise=True)
    settings.update(kw)
    model = GaussianProcessModel(
        ModelParams(mean=[0.0] * channels, noise_std=noise, lengthscale=lengthscale,
                    output_scale=output_scale, kernel=kernel), **settings)
    if dense:
        model.gram_factor = None
    return model


def grid_window(n, channels, seed, dx=1.0, x0=0.0, start=0):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(n, channels)) + np.where(np.arange(n) < n // 2, 0.0, 1.5)[:, None]
    return TimeSeriesWindow(x0 + dx * np.arange(n), y, start_index=start)


def assert_models_agree(fast, dense, segment, rel):
    fast.fit(segment)
    dense.fit(segment)
    pairs = [(fast.params.mean, dense.params.mean),
             (fast.log_likelihood(segment), dense.log_likelihood(segment)),
             (fast.mahalanobis(segment), dense.mahalanobis(segment))]
    for got, want in pairs:
        if rel == 0:
            assert np.array_equal(got, want)
        else:
            assert np.allclose(got, want, rtol=rel, atol=0)


@pytest.mark.parametrize("kernel", [Kernel.RBF, Kernel.DIRAC_DELTA])
@pytest.mark.parametrize("channels", [1, 3])
def test_grid_factor_matches_dense_on_random_segments(kernel, channels):
    rng = np.random.default_rng(20)
    fast = fixed_gp(kernel, channels)
    dense = fixed_gp(kernel, channels, dense=True)
    factor = fast.gram_factor
    full = grid_window(160, channels, seed=21, dx=0.5, x0=3.0)
    segments = []
    for _ in range(25):
        a = int(rng.integers(0, 150))
        b = int(rng.integers(a + 3, 160))
        segments.append(full.slice(a, b))
    # After a detection the window restarts at the change point: later
    # segments begin at a nonzero offset and need a longer factor.
    reset = full.slice(70, 159)
    segments += [reset, reset.slice(70, 100), reset.slice(101, 159)]
    for segment in segments:
        assert_models_agree(fast, dense, segment, rel=1e-9)
        assert factor.size >= len(segment)
    assert factor.limit is None


def test_grid_factor_unused_on_nonuniform_inputs_or_learned_hyperparameters():
    rng = np.random.default_rng(22)
    x = np.sort(rng.uniform(0, 40, size=40))
    nonuniform = TimeSeriesWindow(x, rng.normal(size=(40, 3)))
    fast = fixed_gp(channels=3)
    factor = fast.gram_factor
    assert_models_agree(fast, fixed_gp(channels=3, dense=True), nonuniform, rel=0)
    assert factor.size == 0 and fast.prefix is None and fast.suffix is None
    # A grid off by 1e-9 is not rounding: it takes the dense path too.
    jittered = TimeSeriesWindow(np.arange(40) + 1e-9 * rng.normal(size=40),
                                rng.normal(size=(40, 3)))
    assert_models_agree(fast, fixed_gp(channels=3, dense=True), jittered, rel=0)
    assert factor.size == 0 and fast.prefix is None and fast.suffix is None

    uniform = grid_window(40, 1, seed=23)
    learned = dict(fix_kernel=False, fix_noise=False, max_fit_iters=5)
    fast = fixed_gp(**learned)
    assert fast.gram_factor is None  # a learned model owns no grid factor
    assert_models_agree(fast, fixed_gp(dense=True, **learned), uniform, rel=0)
    assert fast.prefix is None and fast.suffix is None


def test_grid_factor_serves_only_its_own_hyperparameters():
    # A fixed model whose params a caller replaced takes the dense path.
    segment = grid_window(30, 1, seed=26)
    model = fixed_gp()
    model.fit(segment)
    factor = model.gram_factor
    inverse, size = factor._inv, factor.size
    model.params = replace(model.params, lengthscale=0.7)
    assert factor.leading(segment.inputs, model.params) is None
    fresh = fixed_gp(lengthscale=0.7, dense=True)
    assert_models_agree(model, fresh, segment, rel=0)
    assert model.prefix is None and model.suffix is None
    assert factor._inv is inverse and factor.size == size == 30


def test_grid_factor_growth_failure_falls_back_to_jitter():
    # A long lengthscale and tiny noise make the Gram singular to working
    # precision: the plain factorization fails and the dense path must add
    # jitter. The grid factor's conditioning bound refuses even six points,
    # whose inverse would lose the 1e-9 agreement.
    settings = dict(noise=1e-8, lengthscale=20.0, output_scale=1.0)
    segment = grid_window(40, 1, seed=24)
    fast, dense = fixed_gp(**settings), fixed_gp(dense=True, **settings)
    factor = fast.gram_factor
    assert_models_agree(fast, dense, segment.slice(0, 5), rel=0)
    assert factor.limit == 6 and factor.size == 0
    assert fast.prefix is None and fast.suffix is None  # no whitening either
    with pytest.raises(np.linalg.LinAlgError):
        cholesky(noisy_gram(segment.inputs, fast.params), lower=True)
    assert_models_agree(fast, dense, segment, rel=0)
    assert factor.limit == 6 and factor.size == 0
    assert fast.prefix is None and fast.suffix is None


def test_grid_factor_refused_growth_is_not_retried():
    # At noise 0.05 and lengthscale 20 six points pass the conditioning
    # bound and forty do not: the refused growth leaves the factor as it
    # was, and the long segment takes the dense path.
    settings = dict(noise=0.05, lengthscale=20.0, output_scale=1.0)
    segment = grid_window(40, 1, seed=24)
    fast, dense = fixed_gp(**settings), fixed_gp(dense=True, **settings)
    factor = fast.gram_factor
    assert_models_agree(fast, dense, segment.slice(0, 5), rel=1e-9)  # six points grow
    inverse, size = factor._inv, factor.size
    assert_models_agree(fast, dense, segment, rel=0)
    assert factor.limit == 40 and factor.size < len(segment)
    assert fast.prefix is None and fast.suffix is None  # no whitening either
    assert factor._inv is inverse and factor.size == size == 6
    # Beyond the refused size the factor is never grown again.
    later = grid_window(45, 1, seed=25)
    assert_models_agree(fast, dense, later, rel=0)
    assert factor.limit == 40 and factor._inv is inverse
    # A later segment no longer than the factor still takes the grid path.
    for short in (later.slice(30, 35), later.slice(40, 42)):
        assert_models_agree(fast, dense, short, rel=1e-9)
        assert fast.prefix is not None and fast.suffix is not None


@pytest.mark.parametrize("noise", [1e-1, 1e-3, 1e-5, 1e-8])
def test_grid_factor_agrees_with_dense_or_refuses_at_long_lengthscale(noise):
    # Growth by 1 and by 7 over a long lengthscale: each fit agrees with the
    # dense path at 1e-9 on the grid, or the factor refused to grow.
    settings = dict(noise=noise, lengthscale=20.0, output_scale=1.0)
    fast, dense = fixed_gp(**settings), fixed_gp(dense=True, **settings)
    factor, full = fast.gram_factor, grid_window(150, 1, seed=28)
    for end in list(range(5, 60)) + list(range(60, 150, 7)):
        segment = full.slice(0, end)
        assert_models_agree(fast, dense, segment, rel=0 if factor.limit else 1e-9)
        assert (factor.limit is None) == (factor.size == end + 1)
    assert (factor.limit is None) == (noise == 1e-1)


def assert_factor_close(got, x, params):
    inverse, logdiag = got
    lower = chol_with_jitter(noisy_gram(x, params))
    want = solve_triangular(lower, np.eye(len(x)), lower=True)
    assert inverse.shape == want.shape and not inverse.flags.writeable
    assert np.linalg.norm(inverse - want) <= 1e-12 * np.linalg.norm(want)
    np.testing.assert_allclose(logdiag, 2.0 * np.log(np.diag(lower)), rtol=1e-12, atol=0)


def test_grid_factor_is_exact_size_and_read_only():
    det = Detector(DetectorConfig(k_max=10**9, model=ModelSpec(
        family="gp", lengthscale=2.0, output_scale=0.9, noise_std=0.3,
        fix_kernel=True, fix_output_scale=True, fix_noise=True)))
    y = np.random.default_rng(26).normal(size=600) + (np.arange(600) >= 300)
    for batch in stream_batches(TimeSeriesWindow(np.arange(600.0), y), 1):
        det.step(batch)
    factor = det.m0.gram_factor
    assert det.events == [] and factor.size == 600
    assert factor._inv.shape == (600, 600) and factor._inv.nbytes == 8 * 600**2
    assert factor._inv.flags.c_contiguous and not factor._inv.flags.writeable
    assert factor._logdiag.shape == (600,) and not factor._logdiag.flags.writeable


def test_grid_factor_leading_grows_and_views_exactly():
    fast = fixed_gp()
    factor, params = fast.gram_factor, fast.params
    x = 0.5 * np.arange(200.0)[:, None] + 3.0
    assert_factor_close(factor.leading(x[:120], params), x[:120], params)
    grown = factor.leading(x[:121], params)  # growth by one point
    assert factor.size == 121 and grown[0].base is factor._inv
    assert_factor_close(grown, x[:121], params)
    grown = factor.leading(x[:128], params)  # growth by a batch of 7
    assert factor.size == 128 and grown[0].base is factor._inv
    assert_factor_close(grown, x[:128], params)
    # A shorter segment at a later offset, as after a detection reset, gets
    # a read-only view of the leading block; the factor is left as it was.
    inverse = factor._inv
    short = factor.leading(x[150:190], params)
    assert factor.size == 128 and factor._inv is inverse
    assert short[0].base is inverse and short[1].base is factor._logdiag
    assert_factor_close(short, x[150:190], params)


def test_grid_factor_block_cannot_be_written():
    segment = grid_window(80, 2, seed=27)
    fast = fixed_gp(channels=2)
    fast.fit(segment)
    inverse, logdiag = fast.gram_factor.leading(segment.inputs, fast.params)
    assert inverse.base is fast.gram_factor._inv
    for block in (inverse, logdiag):
        with pytest.raises(ValueError):
            block[0] = 0.0
        with pytest.raises(ValueError):
            block *= 2.0
    fresh = fixed_gp(channels=2)
    for model in (fast, fresh):
        model.fit(segment)
    np.testing.assert_array_equal(fast.prefix.scores, fresh.prefix.scores)
    np.testing.assert_array_equal(fast.suffix.scores, fresh.suffix.scores)


@pytest.mark.parametrize("kernel, lengthscale", [(Kernel.RBF, 0.3), (Kernel.RBF, 1.0),
                                                 (Kernel.RBF, 3.0), (Kernel.RBF, 20.0),
                                                 (Kernel.DIRAC_DELTA, 1.0)])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("growth", [1, 7])
def test_grid_inverse_matches_the_dense_oracle(kernel, lengthscale, channels, growth):
    # The grid factor keeps L^{-1}, grown by bordered updates of 1 or 7
    # points; every fit agrees with the dense Cholesky path, also on a
    # shorter segment at a later offset, as after a detection reset.
    fast = fixed_gp(kernel, channels, lengthscale=lengthscale)
    dense = fixed_gp(kernel, channels, lengthscale=lengthscale, dense=True)
    full = grid_window(200, channels, seed=29, dx=0.5, x0=3.0)
    for end in range(29, 140, growth):
        assert_models_agree(fast, dense, full.slice(0, end), rel=1e-9)
        assert fast.gram_factor.size == end + 1 and fast.suffix is not None
    reset = full.slice(150, 199)
    assert_models_agree(fast, dense, reset, rel=1e-9)
    assert fast.prefix.window is reset and fast.gram_factor.limit is None


# -- prefix sums (one whitening per window) vs slice + fit -------------------------

def fixed_gp_detector(kernel, lengthscale, channels, grid):
    det = Detector(DetectorConfig(model=ModelSpec(
        family="gp", kernel=kernel.value, lengthscale=lengthscale, output_scale=0.9,
        noise_std=0.3, channels=channels, fix_kernel=True, fix_output_scale=True,
        fix_noise=True)))
    if not grid:
        for model in (det.m0, det.m1, det.m2):
            model.gram_factor = None
    return det


PREFIX_KERNELS = [(Kernel.RBF, 0.3), (Kernel.RBF, 1.0), (Kernel.RBF, 3.0),
                  (Kernel.DIRAC_DELTA, 1.0)]


def fail_if_called(*args, **kwargs):
    raise AssertionError("called on the fixed-hyperparameter sums path")


def scalar_segment_score(sums, m):
    """The score of the first ``m`` points as ``PrefixSums`` computed it one
    split at a time, before the scores were tabulated."""
    return sums.log_likelihood(m, sums.mean(m)) / m


def reset_window(channels, level, det):
    """A window that starts at a change point, with ``det``'s grid factor
    grown past it and ``det.m0`` fitted on it."""
    full = grid_window(100, channels, seed=30, dx=0.5, x0=3.0)
    full = TimeSeriesWindow(full.inputs, full.outputs + level)
    det.m0.fit(full)
    window = full.slice(37, 99)
    det.window, det.last_change = window, window.start_index
    det.m0.fit(window)
    return full, window


@pytest.mark.parametrize("kernel, lengthscale", PREFIX_KERNELS)
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("level", [0.0, 1e3])
def test_score_tables_equal_the_scalar_formula(kernel, lengthscale, channels, level):
    # The table repeats the scalar formula's operations in the same order,
    # so every entry is the same double, not merely a close one.
    det = fixed_gp_detector(kernel, lengthscale, channels, grid=True)
    _, window = reset_window(channels, level, det)
    n = len(window)
    for sums in (det.m0.prefix, det.m0.suffix):
        assert len(sums.scores) == n + 1 and math.isnan(sums.scores[0])
        np.testing.assert_array_equal(
            sums.scores[1:], [scalar_segment_score(sums, m) for m in range(1, n + 1)])


@pytest.mark.parametrize("kernel, lengthscale", PREFIX_KERNELS)
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("level", [0.0, 1e3])
def test_prefix_sums_match_slice_and_fit(kernel, lengthscale, channels, level, monkeypatch):
    # The oracle slices each segment and fits and scores it with a dense
    # factorization; the grid-factor detector whitens the window once,
    # forwards for the left segments and backwards for the right ones, and
    # tabulates every segment's score.
    close = dict(rel=1e-9, abs=0)
    fast = fixed_gp_detector(kernel, lengthscale, channels, grid=True)
    dense = fixed_gp_detector(kernel, lengthscale, channels, grid=False)
    full, window = reset_window(channels, level, fast)  # a nonzero offset
    start, end, n = window.start_index, window.end_index, len(window)
    dense.window, dense.last_change = window, start
    dense.m0.fit(window)
    sums, back = fast.m0.prefix, fast.m0.suffix
    assert sums.window is window and back.window is window
    assert dense.m0.prefix is None and dense.m0.suffix is None
    assert fast.m0.params.mean == pytest.approx(dense.m0.params.mean, **close)

    oracle = fixed_gp(kernel, channels, lengthscale=lengthscale, dense=True, min_fit_points=1)
    for m in range(1, n + 1):
        left, right = window.slice(start, start + m - 1), window.slice(end - m + 1, end)
        assert sums.scores[m] == pytest.approx(oracle.fit(left).avg_log_likelihood(left),
                                               **close)
        assert sums.mean(m) == pytest.approx(oracle.params.mean, **close)
        assert back.scores[m] == pytest.approx(oracle.fit(right).avg_log_likelihood(right),
                                               **close)
        assert back.mean(m) == pytest.approx(oracle.params.mean, **close)

    taus = range(start + 3, end - 1)
    dense_scorer = SplitScorer(window, dense.m1, dense.m2)
    wants = [dense_scorer.evaluate(tau) for tau in taus]
    fast.m1.fit = fast.m2.fit = fail_if_called
    # A search on the grid reads the tables alone.
    monkeypatch.setattr(PrefixSums, "log_likelihood", fail_if_called)
    monkeypatch.setattr(PrefixSums, "mean", fail_if_called)
    fast_scorer = SplitScorer(window, fast.m1, fast.m2, sums, back)
    ternary_argmax(fast_scorer.evaluate, taus[0], taus[-1], tol=2)
    assert [fast_scorer.evaluate(tau) for tau in taus] == pytest.approx(wants, **close)
    monkeypatch.undo()
    assert fast.m1.prefix is fast.m2.prefix is fast.m1.suffix is fast.m2.suffix is None

    def criteria(det):  # rows of (satisfied, d_left, d_right) as floats
        return np.array([det.criterion(tau) for tau in range(start, end)], dtype=float)

    wants = criteria(dense)
    fast.m0.modified_mahalanobis = fail_if_called  # both distances come from the sums
    assert criteria(fast) == pytest.approx(wants, **close)
    del fast.m0.modified_mahalanobis
    # With sums of another window, the criterion slices, as it does when
    # called on its own.
    fitted, other = fast.m0.params, full.slice(0, 90)
    fast.m0.fit(other)
    fast.m0.params = fitted
    assert fast.m0.prefix.window is other and fast.m0.suffix.window is other
    assert criteria(fast) == pytest.approx(wants, **close)


@pytest.mark.parametrize("kernel, lengthscale", PREFIX_KERNELS)
def test_prefix_sums_do_not_depend_on_the_output_level(kernel, lengthscale):
    # Whitening y - y[0] and rev(y) - y[-1] rather than y keeps the scores of
    # outputs raised by 1e3 within rounding of the same outputs at level 0
    # (about 4e-13 here); sums of the unshifted outputs drift by 4e-11 to
    # 3e-10.
    base = grid_window(100, 1, seed=30, dx=0.5, x0=3.0).slice(37, 99)
    scores = []
    for level in (0.0, 1e3):
        window = TimeSeriesWindow(base.inputs, base.outputs + level, start_index=37)
        det = fixed_gp_detector(kernel, lengthscale, 1, grid=True)
        det.window, det.last_change = window, 37
        det.m0.fit(window)
        sums, back = det.m0.prefix, det.m0.suffix
        scores.append([sums.scores[m] for m in range(3, len(window))]
                      + [back.scores[r] for r in range(3, len(window))]
                      + [d for tau in range(37, 99) for d in det.criterion(tau)[1:]])
    assert scores[1] == pytest.approx(scores[0], rel=1e-11, abs=0)


@pytest.mark.parametrize("offset", [37, 120, 200, 20000])
def test_grid_factor_serves_rounded_spacing_at_any_offset(offset):
    # On x = 0.1 * t, x[k] - x[0] differs from k * 0.1 in the last bits, and
    # each window's own x[1] - x[0] differs from the spacing the factor was
    # bound to; at t = 20000 the rounding of x alone is 2e-12 of the
    # spacing. Those windows must still take the grid factor.
    close = dict(rel=1e-9, abs=0)
    fast, dense = fixed_gp(), fixed_gp(dense=True)
    factor = fast.gram_factor
    t = np.arange(offset + 80)
    y = np.random.default_rng(31).normal(size=len(t)) + (t >= offset + 30)
    full = TimeSeriesWindow(0.1 * t, y)
    fast.fit(full.slice(0, 29))  # binds the factor, as a detector's first fit does
    window = full.slice(offset, offset + 79)
    fast.fit(window)
    sums, back = fast.prefix, fast.suffix
    assert sums is not None and back is not None and factor.limit is None
    assert fast.params.mean == pytest.approx(dense.fit(window).params.mean, **close)
    start, end = window.start_index, window.end_index
    for tau in range(start + 3, end - 1):
        left, right = window.slice(start, tau - 1), window.slice(tau, end)
        assert sums.scores[len(left)] == pytest.approx(
            dense.fit(left).avg_log_likelihood(left), **close)
        assert back.scores[len(right)] == pytest.approx(
            dense.fit(right).avg_log_likelihood(right), **close)
