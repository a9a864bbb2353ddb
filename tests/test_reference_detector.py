"""``run_stream`` against the dense reference detector of ``reference.py``:
the same events, the same searched candidates with the same number of
scored splits, and the same scores and criterion distances to 1e-9
relative, on short three-level streams."""

import numpy as np
import pytest

import reference
from gocpd.detector import DetectorConfig, ModelSpec, run_stream
from gocpd.window import TimeSeriesWindow

RULES = dict(nu1=1.005, nu2=1.06, k_max=4, t_ini=16, wait=12, search_tol=2)
MIN_FIT_POINTS = 3
POINTS = 150
CASES = {
    # name: (model spec, reference family, stream noise, channels, seeds)
    "iid_fixed_noise": (dict(family="iid", noise_std=0.3, fix_noise=True),
                        reference.Family("iid", 0.3), 0.3, 1, (0, 1)),
    "iid_learned_noise": (dict(family="iid", noise_std=0.3),
                          reference.Family("iid", 0.3, learn_noise=True), 0.3, 1, (0, 1)),
    "gp_rbf_fixed": (dict(family="gp", kernel="rbf", lengthscale=3.0, noise_std=0.3,
                          fix_kernel=True, fix_noise=True),
                     reference.Family("rbf", 0.3, lengthscale=3.0), 0.3, 1, (0, 1)),
    "gp_dirac_fixed": (dict(family="gp", kernel="dirac", noise_std=0.5, fix_noise=True),
                       reference.Family("dirac", 0.5), 1.0, 1, (0, 1)),
    "gp_rbf_fixed_2_channels": (dict(family="gp", kernel="rbf", lengthscale=3.0,
                                     noise_std=0.3, fix_kernel=True, fix_noise=True),
                                reference.Family("rbf", 0.3, lengthscale=3.0), 0.3, 2, (0,)),
}


def three_level_stream(seed: int, noise: float, channels: int) -> TimeSeriesWindow:
    """``POINTS`` points of white noise on three levels, with changes near
    a third and two thirds of the way and shifts of 2.5-4 noise units."""
    rng = np.random.default_rng(seed)
    cuts = [POINTS // 3 + int(rng.integers(-10, 11)), 2 * POINTS // 3 + int(rng.integers(-10, 11))]
    shifts = rng.choice([-1.0, 1.0], (3, channels)) * rng.uniform(2.5, 4.0, (3, channels))
    shifts[0] = 0.0
    levels = np.repeat(np.cumsum(shifts, axis=0) * noise, np.diff([0, *cuts, POINTS]), axis=0)
    y = levels + rng.normal(0.0, noise, (POINTS, channels))
    return TimeSeriesWindow(np.arange(POINTS, dtype=float), y[:, 0] if channels == 1 else y)


@pytest.mark.parametrize("name", CASES)
def test_run_stream_matches_the_reference_detector(name):
    spec, family, noise, channels, seeds = CASES[name]
    config = DetectorConfig(**RULES, model=ModelSpec(**spec, min_fit_points=MIN_FIT_POINTS))
    for seed in seeds:
        series = three_level_stream(seed, noise, channels)
        events, records = run_stream(series, config)
        want_events, want = reference.detect(series.inputs[:, 0], series.outputs, family,
                                             min_fit_points=MIN_FIT_POINTS, **RULES)
        got = [r for r in records if r["searched"]]
        assert want, "the reference searched nothing"
        assert [(e.change_point, e.declared_at) for e in events] == want_events, seed
        keys = ("t", "candidate", "evals", "k")
        assert [tuple(r[key] for key in keys) for r in got] == \
            [tuple(r[key] for key in keys) for r in want], seed
        for g, w in zip(got, want):
            for key in ("score", "distance_left", "distance_right"):
                assert g[key] == pytest.approx(w[key], rel=1e-9), (seed, g["t"], key)
