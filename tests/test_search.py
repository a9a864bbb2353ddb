import numpy as np
import pytest

from conftest import fixed_iid, params_equal

import gocpd.detector as detector_module
from gocpd.datagen import step_example
from gocpd.detector import DetectorConfig, ModelSpec, run_stream
from gocpd.errors import EmptyDomain, NumericalOverflow, TooFewPoints
from gocpd.metrics import evaluation_count_bound
from gocpd.models import GaussianProcessModel, IidGaussianModel, Kernel, ModelParams
from gocpd.search import SplitScorer, effective_interval, ternary_argmax
from gocpd.window import TimeSeriesWindow


def step_window(n_left=50, n_right=51, delta=1.0, noise=0.1, seed=0):
    rng = np.random.default_rng(seed)
    y = np.concatenate([rng.normal(0, noise, n_left), rng.normal(delta, noise, n_right)])
    return TimeSeriesWindow(np.arange(len(y), dtype=float), y)


def search(w, candidate, tol=2, noise=0.001):
    """One fresh-scorer search of ``w``, composed as the detector does."""
    scorer = SplitScorer(w, fixed_iid(noise=noise), fixed_iid(noise=noise))
    lo, hi = effective_interval(w.end_index, w.start_index, candidate, 3)
    return ternary_argmax(scorer.evaluate, lo, hi, tol), scorer


class CountingScore:
    def __init__(self, values, offset=0):
        self.values = dict(enumerate(values, start=offset))
        self.evaluated = set()

    def __call__(self, tau):
        self.evaluated.add(tau)
        return self.values[tau]


# -- effective_interval -------------------------------------------------------

def test_full_domain_without_saved_candidate():
    # Both segments need 3 points.
    assert effective_interval(100, 0, None, min_fit_points=3) == (3, 97)
    assert effective_interval(100, 0, 2, min_fit_points=3) == (3, 97)


def test_saved_candidate_truncates_domain():
    assert effective_interval(100, 0, 80, min_fit_points=3) == (80, 97)


def test_domain_empty_when_constraints_exclude_everything():
    lo, hi = effective_interval(10, 0, 9, min_fit_points=3)
    assert hi < lo


# -- ternary_argmax on explicit sequences --------------------------------------

def test_argmax_of_small_unimodal_sequence():
    score = CountingScore([1, 3, 5, 4, 2], offset=1)
    assert ternary_argmax(score, 1, 5, tol=1) == 3


def test_singleton_domain_returns_the_point():
    score = CountingScore([7.0], offset=4)
    assert ternary_argmax(score, 4, 4, tol=2) == 4
    assert score.evaluated == {4}


def test_matches_linear_scan_on_random_unimodal_sequences():
    # The search starts at a saved candidate drawn at or before the peak,
    # matching its contract: the argmax never lies left of the candidate.
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(2, 300))
        peak = int(rng.integers(0, n))
        up = np.sort(rng.uniform(-10, 10, size=peak + 1))
        down = up[-1] - np.cumsum(rng.uniform(0.01, 1.0, size=n - peak - 1))
        seq = np.concatenate([up, down])
        candidate = int(rng.integers(0, peak + 1))
        score = CountingScore(seq)
        got = ternary_argmax(score, candidate, n - 1, tol=2)
        assert got == int(np.argmax(seq)), f"trial {trial}"


def test_evaluation_count_is_logarithmic():
    rng = np.random.default_rng(1)
    for n in (10, 50, 200, 1000, 5000):
        peak = int(rng.integers(0, n))
        seq = np.concatenate([
            np.sort(rng.uniform(-5, 5, size=peak + 1)),
            np.sort(rng.uniform(-5, 5, size=n - peak - 1))[::-1] - 5.0,
        ])
        score = CountingScore(seq)
        ternary_argmax(score, 0, n - 1, tol=2)
        assert len(score.evaluated) <= evaluation_count_bound(n)


def test_equal_probes_narrow_to_the_middle_third():
    # Every probe ties, so the bracket shrinks to its middle third each level
    # and the final scan breaks the tie towards the earliest split.
    assert ternary_argmax(lambda tau: 1.0, 0, 20, tol=2) == 9


def test_empty_domain_raises():
    with pytest.raises(EmptyDomain):
        ternary_argmax(lambda tau: 0.0, 5, 4, tol=2)


# -- SplitScorer ---------------------------------------------------------------

def test_split_score_peaks_at_true_change():
    w = step_window()
    scores = {}
    for tau in (25, 50, 75):
        scores[tau] = SplitScorer(w, fixed_iid(), fixed_iid()).evaluate(tau)
    assert scores[50] > scores[25]
    assert scores[50] > scores[75]


def test_split_score_on_constant_data_matches_single_model():
    y = np.full(40, 1.5)
    w = TimeSeriesWindow(np.arange(40.0), y)
    m = fixed_iid(noise=0.1)
    m.fit(w)
    whole = m.avg_log_likelihood(w)
    s = SplitScorer(w, fixed_iid(noise=0.1), fixed_iid(noise=0.1)).evaluate(20)
    assert s == pytest.approx(2 * whole, rel=1e-9)


def test_split_score_rejects_tiny_segments():
    w = step_window()
    with pytest.raises(TooFewPoints):
        SplitScorer(w, fixed_iid(), fixed_iid()).evaluate(1)
    with pytest.raises(TooFewPoints):
        SplitScorer(w, fixed_iid(), fixed_iid()).evaluate(100)


def test_split_outside_the_window_is_rejected():
    w = step_window()
    for tau in (w.start_index, w.end_index + 1):
        with pytest.raises(ValueError, match=f"split {tau} outside window"):
            SplitScorer(w, fixed_iid(), fixed_iid()).evaluate(tau)


def test_split_metric_that_is_not_finite_is_refused():
    # At noise 1e-161 the variance is subnormal: each fit's residual sum of
    # squares is finite, but its log-likelihood is -inf.
    w = step_window()
    scorer = SplitScorer(w, fixed_iid(noise=1e-161), fixed_iid(noise=1e-161))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalOverflow, match="split metric at 50 is -inf"):
            scorer.evaluate(50)
    assert scorer.cache == {}


def test_split_read_from_tables_rejects_tiny_segments():
    w = step_window()
    params = ModelParams(mean=[0.0], noise_std=0.1, lengthscale=2.0, kernel=Kernel.RBF)
    m0, m1, m2 = (GaussianProcessModel(params, fix_kernel=True, fix_noise=True)
                  for _ in range(3))
    m0.fit(w)
    scorer = SplitScorer(w, m1, m2, m0.prefix, m0.suffix)
    assert scorer.prefix is not None
    for tau in (w.start_index + 2, w.end_index - 1):
        with pytest.raises(TooFewPoints):
            scorer.evaluate(tau)
    assert scorer.cache == {}


def test_table_scores_reach_caches_records_and_events_as_python_floats(monkeypatch):
    # The tables are float64 arrays. A numpy scalar passes isinstance(v, float)
    # but is another type to every reader (its repr is np.float64(...)), so the
    # type must be exact.
    scorers = []

    class RecordingScorer(SplitScorer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            scorers.append(self)

    monkeypatch.setattr(detector_module, "SplitScorer", RecordingScorer)
    config = DetectorConfig(nu1=1.05, nu2=1.05, k_max=3, t_ini=20, wait=10, model=ModelSpec(
        family="gp", lengthscale=5.0, noise_std=0.1, fix_kernel=True,
        fix_output_scale=True, fix_noise=True))
    events, records = run_stream(step_example(), config)
    assert scorers and all(scorer.prefix is not None for scorer in scorers)
    assert {type(v) for scorer in scorers for v in scorer.cache.values()} == {float}
    assert {type(r["score"]) for r in records if r["searched"]} == {float}
    assert events and {type(e.candidate_score) for e in events} == {float}


def test_scorer_memoizes_and_counts_unique_evaluations():
    w = step_window()
    scorer = SplitScorer(w, fixed_iid(), fixed_iid())
    a = scorer.evaluate(50)
    b = scorer.evaluate(50)
    assert a == b
    assert len(scorer.cache) == 1
    scorer.evaluate(30)
    assert len(scorer.cache) == 2


def test_cached_split_params_unchanged_after_learned_gp_search():
    # Evaluations warm-start from cached parameters by reference, so no fit
    # may write to them once they are cached.
    def learned():
        return GaussianProcessModel(
            ModelParams(mean=[0.0], noise_std=0.2, lengthscale=2.0, output_scale=0.5,
                        kernel=Kernel.RBF), max_fit_iters=3)

    w = step_window(n_left=20, n_right=20, noise=0.2, seed=3)
    scorer = SplitScorer(w, learned(), learned())
    inserted = {}

    def score(tau):
        value = scorer.evaluate(tau)
        inserted.setdefault(tau, tuple(p.copy() for p in scorer.fits[tau]))
        return value

    ternary_argmax(score, *effective_interval(w.end_index, w.start_index, None, 3), tol=2)
    assert len(inserted) == len(scorer.fits) == len(scorer.cache) >= 4
    for tau, (left_params, right_params) in scorer.fits.items():
        left, right = inserted[tau]
        assert params_equal(left_params, left)
        assert params_equal(right_params, right)


class WarmStartingScorer(SplitScorer):
    """Oracle: every evaluation fits from the nearest evaluated split's parameters."""

    def evaluate(self, tau):
        if tau not in self.cache:
            if self.fits:
                nearest = min(self.fits, key=lambda seen: abs(seen - tau))
                self.left_model.params, self.right_model.params = self.fits[nearest]
            left = self.window.slice(self.window.start_index, tau - 1)
            right = self.window.slice(tau, self.window.end_index)
            self.left_model.fit(left)
            self.right_model.fit(right)
            self.cache[tau] = float(self.left_model.avg_log_likelihood(left)
                                    + self.right_model.avg_log_likelihood(right))
            self.fits[tau] = (self.left_model.params, self.right_model.params)
        return self.cache[tau]


def off_grid_fixed_gp():
    return GaussianProcessModel(
        ModelParams(mean=[0.0], noise_std=0.2, lengthscale=2.0, output_scale=0.5,
                    kernel=Kernel.RBF), fix_noise=True, fix_kernel=True)


@pytest.mark.parametrize("make", [
    lambda: fixed_iid(noise=0.1),
    lambda: IidGaussianModel(ModelParams(mean=[0.0], noise_std=0.1), min_fit_points=3),
    off_grid_fixed_gp,
])
def test_fits_that_ignore_their_start_are_not_warm_started(make):
    w = step_window(n_left=25, n_right=30, noise=0.2, seed=4)
    # Off the grid: the fixed GP fits each segment with a fresh factor.
    w = TimeSeriesWindow(np.cumsum(np.linspace(0.5, 1.5, len(w))), w.outputs)
    scorer, oracle = SplitScorer(w, make(), make()), WarmStartingScorer(w, make(), make())
    order = [27, 10, 40, 26, 27, 3, 52, 33, 10, 18]
    assert [scorer.evaluate(tau) for tau in order] == [oracle.evaluate(tau) for tau in order]
    assert scorer.fits == {} and len(oracle.fits) == len(scorer.cache) == 8
    assert params_equal(scorer.left_model.params, oracle.left_model.params)
    assert params_equal(scorer.right_model.params, oracle.right_model.params)


@pytest.mark.parametrize("make", [lambda: fixed_iid(noise=0.1), off_grid_fixed_gp])
def test_split_evaluation_does_not_score_its_fits_again(make, monkeypatch):
    # Each side's log-likelihood is what its fit returned: scoring a fitted
    # segment again would be a second pass over it (a second solve for a GP).
    w = step_window(n_left=25, n_right=30, noise=0.2, seed=4)
    w = TimeSeriesWindow(np.cumsum(np.linspace(0.5, 1.5, len(w))), w.outputs)
    taus = [27, 10, 40, 26, 3, 52, 33, 18]
    left_model, right_model, wants = make(), make(), []
    for tau in taus:  # the oracle fits, then scores each segment
        left, right = w.slice(w.start_index, tau - 1), w.slice(tau, w.end_index)
        left_model.fit(left)
        right_model.fit(right)
        wants.append(float(left_model.log_likelihood(left) / len(left)
                           + right_model.log_likelihood(right) / len(right)))

    def rescored(*args, **kwargs):
        raise AssertionError("a fitted segment was scored again")

    scorer = SplitScorer(w, make(), make())
    for model in (scorer.left_model, scorer.right_model):
        monkeypatch.setattr(model, "log_likelihood", rescored)
        monkeypatch.setattr(model, "avg_log_likelihood", rescored)
    assert [scorer.evaluate(tau) for tau in taus] == wants


# -- ternary_argmax over real windows ------------------------------------------

def test_step_data_candidate_near_true_change():
    w = step_window()
    candidate, scorer = search(w, candidate=1, tol=2)
    assert 49 <= candidate <= 51
    lo, hi = effective_interval(100, 0, 1, 3)
    assert len(scorer.cache) <= evaluation_count_bound(hi - lo + 1)


def test_search_equals_exhaustive_scan_when_scan_unimodal():
    # Seeded mean-shift windows; whenever the scanned metric is unimodal
    # (single peak by topographic prominence) the search must return its
    # argmax. Non-unimodal draws are skipped and must stay rare.
    from conftest import scan_is_unimodal, seeded_step_windows

    checked = non_unimodal = 0
    noise = 0.1
    for w in seeded_step_windows(100, seed=42, noise=noise):
        scorer = SplitScorer(w, fixed_iid(noise=noise), fixed_iid(noise=noise))
        lo, hi = effective_interval(w.end_index, 0, None, 3)
        dom = range(lo, hi + 1)
        scan = np.array([scorer.evaluate(tau) for tau in dom])
        checked += 1
        if not scan_is_unimodal(scan):
            non_unimodal += 1
            continue
        candidate, _ = search(w, candidate=None, tol=2, noise=noise)
        assert candidate == dom[int(scan.argmax())]
    assert non_unimodal / checked < 0.2


def test_search_respects_saved_candidate_lower_bound():
    w = step_window()
    candidate, _ = search(w, candidate=60, tol=2)
    assert candidate >= 60


def test_search_empty_domain_raises():
    w = step_window(n_left=4, n_right=4)
    with pytest.raises(EmptyDomain):
        search(w, candidate=7)


def test_candidates_monotone_as_stream_grows():
    # Replaying a growing window, the saved candidate never moves left once
    # the domain is anchored to it.
    full = step_window()
    saved = 0
    seen = []
    for t in range(30, 101, 5):
        w = full.slice(0, t)
        candidate, _ = search(w, candidate=saved, tol=2)
        seen.append(candidate)
        assert candidate >= saved
        saved = candidate
    assert seen == sorted(seen)


def test_step_scan_unimodal_near_change():
    # The exhaustive scan over the canonical step stream has exactly one
    # local maximum within +-2 of the true change.
    w = step_example()
    scorer = SplitScorer(w, fixed_iid(), fixed_iid())
    lo, hi = effective_interval(100, 0, None, 3)
    taus = list(range(lo, hi + 1))
    vals = np.array([scorer.evaluate(tau) for tau in taus])
    assert taus[int(vals.argmax())] in range(48, 53)
    local_max_in_window = [
        taus[i] for i in range(1, len(taus) - 1)
        if vals[i] > vals[i - 1] and vals[i] > vals[i + 1] and 48 <= taus[i] <= 52
    ]
    assert len(local_max_in_window) == 1
