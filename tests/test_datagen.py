import numpy as np
import pytest

from gocpd.datagen import (FACTOR_TABLES, RegimeScript, base_params, sample_piecewise_gp,
                           standard_script, standardize, step_example)
from gocpd.errors import ConfigError, NonFiniteObservation, ZeroVariance
from gocpd.models import Kernel, ModelParams
from gocpd.window import TimeSeriesWindow


def test_step_example_length_and_levels():
    w = step_example()
    assert len(w) == 101
    y = w.outputs[:, 0]
    assert abs(y[:50].mean() - 0.0) < 3 * 0.1 / np.sqrt(50)
    assert abs(y[50:].mean() - 1.0) < 3 * 0.1 / np.sqrt(51)


def test_step_example_deterministic():
    assert np.array_equal(step_example(seed=3).outputs, step_example(seed=3).outputs)
    assert not np.array_equal(step_example(seed=3).outputs, step_example(seed=4).outputs)


def test_standard_script_locations_and_factors():
    script = standard_script("mean", seed=1)
    assert script.change_locations == [0, 60, 150, 240, 450, 650, 800, 890]
    assert script.interior_changes() == [60, 150, 240, 450, 650, 800, 890]
    assert script.factors == FACTOR_TABLES["mean"]


def test_script_validation():
    base = dict(length=200, change_locations=[0, 60, 120], vary="mean",
                factors=[1, 2, 3])
    RegimeScript(**base)
    with pytest.raises(ValueError):
        RegimeScript(**{**base, "change_locations": [5, 60, 120]})  # must start at 0
    with pytest.raises(ValueError):
        RegimeScript(**{**base, "change_locations": [0, 60, 100]})  # gap < 50
    with pytest.raises(ValueError):
        RegimeScript(**{**base, "factors": [1, 2]})  # factor count mismatch
    with pytest.raises(ValueError):
        RegimeScript(**{**base, "vary": "frequency"})
    with pytest.raises(ValueError):
        RegimeScript(**{**base, "length": 120})  # must exceed last change
    for factor in (0, -2.0):
        with pytest.raises(ValueError, match="factors must be > 0 when varying noise_std"):
            RegimeScript(**{**base, "vary": "noise_std", "factors": [1, factor, 3]})


@pytest.mark.parametrize("vary, factor", [("noise_std", 1e308), ("lengthscale", 1e-300),
                                          ("output_scale", 1e200)])
def test_script_factor_that_breaks_a_hyperparameter_bound_is_named(vary, factor):
    # The scaled value's square overflows or underflows; found when the script is made.
    base = dict(length=200, change_locations=[0, 60, 120], factors=[1, 2, factor])
    with pytest.raises(ConfigError, match=rf"^factors\[2\]: {vary} must be > 0, with a finite"):
        RegimeScript(**base, vary=vary)
    params = RegimeScript(**{**base, "factors": [1, 2, 3]}, vary=vary).segment_params(2)
    assert getattr(params, vary) == 3 * getattr(base_params({}), vary)


def test_script_accepts_numpy_scalar_factors():
    base = dict(length=200, change_locations=[0, 100], vary="lengthscale", seed=1)
    plain = sample_piecewise_gp(RegimeScript(**base, factors=[2, 0.5]))[0]
    numpy = sample_piecewise_gp(RegimeScript(**base, factors=[np.int64(2), np.float32(0.5)]))[0]
    assert np.array_equal(plain.outputs, numpy.outputs)


def test_mean_change_series_matches_scripted_levels():
    script = standard_script("mean", seed=2)
    window, truth = sample_piecewise_gp(script)
    assert len(window) == 1000
    assert truth == script.interior_changes()
    y = window.outputs[:, 0]
    for index, (a, b) in enumerate(script.segment_bounds()):
        target = 1.0 * script.factors[index]
        seg = y[a:b]
        # within-segment draws are correlated; bound the error by three
        # standard errors of a conservative effective sample size
        stderr = seg.std() / np.sqrt(max(len(seg) / 4, 1))
        assert abs(seg.mean() - target) < max(3 * stderr, 0.5), f"segment {index}"


def test_single_segment_script_is_stationary_draw():
    script = RegimeScript(length=120, change_locations=[0], vary="mean",
                          factors=[1.0], seed=5)
    window, truth = sample_piecewise_gp(script)
    assert truth == []
    assert len(window) == 120


def test_lengthscale_factors_order_autocorrelation():
    script = standard_script("lengthscale", seed=3)
    window, _ = sample_piecewise_gp(script)
    y = window.outputs[:, 0]

    def lag5_autocorr(seg):
        seg = seg - seg.mean()
        denom = np.sum(seg**2)
        if denom == 0:
            return 0.0
        return float(np.sum(seg[5:] * seg[:-5]) / denom)

    corr = [lag5_autocorr(y[a:b]) for a, b in script.segment_bounds()]
    factors = script.factors
    # Ordering check on clearly separated pairs: the smoother side must have
    # a lengthscale large enough (>= 5) to carry signal at lag 5 at all;
    # pairs of near-white segments do not order reliably.
    for i, fi in enumerate(factors):
        for j, fj in enumerate(factors):
            if fi >= 5 and fi >= 5 * fj:
                assert corr[i] > corr[j], (
                    f"segments {i} (factor {fi}) vs {j} (factor {fj}): "
                    f"{corr[i]:.2f} <= {corr[j]:.2f}"
                )


def test_noise_factors_recovered_by_likelihood_fit():
    # The noise floor is invisible to simple difference statistics under a
    # dominant smooth component; recover it per segment with a noise-only
    # GP fit and check the quiet/noisy grouping.
    from gocpd.models import GaussianProcessModel

    script = standard_script("noise_std", seed=4)
    window, _ = sample_piecewise_gp(script)
    fitted = []
    for a, b in script.segment_bounds():
        m = GaussianProcessModel(
            ModelParams(mean=[1.0], noise_std=0.02, lengthscale=1.0,
                        output_scale=0.5, kernel=Kernel.RBF),
            fix_kernel=True, max_fit_iters=40)
        m.fit(window.slice(a, b - 1))
        fitted.append(m.params.noise_std)
    quiet = [s for s, f in zip(fitted, script.factors) if f <= 1]
    noisy = [s for s, f in zip(fitted, script.factors) if f >= 5]
    # short segments can misattribute smooth-amplitude wobble to noise, so
    # compare medians rather than extremes
    assert np.median(quiet) < np.median(noisy)


def test_output_scale_factors_order_segment_spread():
    script = standard_script("output_scale", seed=6)
    window, _ = sample_piecewise_gp(script)
    y = window.outputs[:, 0]
    spreads = [y[a:b].std() for a, b in script.segment_bounds()]
    big = [s for s, f in zip(spreads, script.factors) if f >= 3]
    small = [s for s, f in zip(spreads, script.factors) if f <= 1 / 8]
    assert min(big) > max(small)


def test_sampling_deterministic_per_seed():
    a, _ = sample_piecewise_gp(standard_script("mean", seed=7))
    b, _ = sample_piecewise_gp(standard_script("mean", seed=7))
    c, _ = sample_piecewise_gp(standard_script("mean", seed=8))
    assert np.array_equal(a.outputs, b.outputs)
    assert not np.array_equal(a.outputs, c.outputs)


def test_segments_independent_across_boundary():
    # mean factor 0 segments on both sides of 450; correlation across the
    # boundary should be statistically indistinguishable from zero
    rs = []
    for seed in range(20):
        window, _ = sample_piecewise_gp(standard_script("mean", seed=seed))
        y = window.outputs[:, 0]
        a = y[430:450] - y[430:450].mean()
        b = y[450:470] - y[450:470].mean()
        rs.append(float(np.sum(a * b) / np.sqrt(np.sum(a**2) * np.sum(b**2))))
    assert abs(np.mean(rs)) < 0.2


# -- standardize ---------------------------------------------------------------

def test_standardize_two_point_channel():
    w = TimeSeriesWindow(np.arange(2.0), np.array([0.0, 2.0]))
    out, transform = standardize(w)
    assert np.allclose(out.outputs[:, 0], [-1.0, 1.0])
    assert transform[0] == (1.0, 1.0)


def test_standardize_already_standard_is_identity():
    rng = np.random.default_rng(0)
    y = rng.normal(size=500)
    y = (y - y.mean()) / y.std()
    w = TimeSeriesWindow(np.arange(500.0), y)
    out, transform = standardize(w)
    assert np.allclose(out.outputs, w.outputs, atol=1e-12)
    mu, sd = transform[0]
    assert abs(mu) < 1e-12 and abs(sd - 1.0) < 1e-12


def test_standardize_rejects_constant_channel():
    w = TimeSeriesWindow(np.arange(4.0), np.full(4, 2.5))
    with pytest.raises(ZeroVariance):
        standardize(w)


@pytest.mark.parametrize("column", [np.full(50, 1e308), np.tile([1.5e308, -1.5e308], 25)])
def test_standardize_refuses_a_channel_whose_mean_or_spread_overflows(column):
    # Finite values whose mean (the first) or spread (the second) is past the floats.
    y = np.column_stack([np.arange(50.0), column])
    with pytest.raises(ValueError, match="^channel 1: its mean or spread overflows a float$"):
        standardize(TimeSeriesWindow(np.arange(50.0), y))


def test_standardize_names_first_non_finite_timestamp():
    y = np.column_stack([np.arange(10.0), np.arange(10.0)])
    y[6, 0] = np.inf
    y[4, 1] = np.nan
    w = TimeSeriesWindow(np.arange(30.0, 40.0), y, start_index=30)
    with pytest.raises(NonFiniteObservation, match="t=34"):
        standardize(w)


def test_standardize_per_channel():
    y = np.column_stack([np.array([0.0, 2.0]), np.array([10.0, 30.0])])
    w = TimeSeriesWindow(np.arange(2.0), y)
    out, transform = standardize(w)
    assert np.allclose(out.outputs, [[-1, -1], [1, 1]])
    assert transform == [(1.0, 1.0), (20.0, 10.0)]

