import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import params_equal

from gocpd.datagen import step_example
from gocpd.detector import (Detector, DetectorConfig, ModelSpec,
                            grid_search_thresholds, run_stream, stream_batches)
from gocpd.errors import ConfigError, NonContiguousBatch, NonFiniteObservation
from gocpd.search import effective_interval
from gocpd.window import TimeSeriesWindow


def step_config(**overrides):
    """Config tuned for the canonical 101-point mean-step stream."""
    settings = dict(nu1=1.05, nu2=1.2, k_max=5, t_ini=30, wait=80, batch_size=1,
                    search_tol=2,
                    model=ModelSpec(family="iid", noise_std=0.1, fix_noise=True,
                                    min_fit_points=3))
    settings.update(overrides)
    return DetectorConfig(**settings)


def run_series(window, config):
    detector = Detector(config)
    for batch in stream_batches(window, config.batch_size):
        detector.step(batch)
    return detector


def stationary(n=500, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, scale, n)
    return TimeSeriesWindow(np.arange(n, dtype=float), y)


# -- config ---------------------------------------------------------------------

def test_config_defaults_follow_documented_values():
    cfg = DetectorConfig()
    assert (cfg.nu1, cfg.nu2) == (2.0, 2.0)
    assert cfg.k_max == 10
    assert cfg.t_ini == 30
    assert cfg.wait == 80
    assert cfg.batch_size == 1


def test_config_validation():
    with pytest.raises(ConfigError):
        DetectorConfig(nu1=0.0)
    with pytest.raises(ConfigError):
        DetectorConfig(k_max=0)
    with pytest.raises(ConfigError):
        DetectorConfig(t_ini=4, model=ModelSpec(min_fit_points=3))
    with pytest.raises(ConfigError):
        DetectorConfig(batch_size=0)
    doc = DetectorConfig().to_dict()
    doc["model"]["max_fit_iters"] = -3
    with pytest.raises(ConfigError, match="model.max_fit_iters"):
        DetectorConfig.from_dict(doc)


@pytest.mark.parametrize("channels", [1, 2, 10**30])
def test_config_naming_channels_is_an_unknown_field(channels):
    # The channel count comes from the data, so the config cannot state it.
    doc = DetectorConfig().to_dict()
    assert "channels" not in doc["model"]
    doc["model"]["channels"] = channels
    with pytest.raises(ConfigError, match=r"^config\.model has unknown field\(s\): channels \(known:"):
        DetectorConfig.from_dict(doc)


@pytest.mark.parametrize("field", ["k_max", "t_ini", "wait", "search_tol", "batch_size",
                                   "model.min_fit_points",
                                   "model.max_fit_iters"])
def test_config_integer_fields_reject_floats_and_bools(field):
    doc = DetectorConfig().to_dict()
    owner, name = (doc["model"], field[6:]) if field.startswith("model.") else (doc, field)
    default = owner[name]
    for value in (2.5, 30.0, True):
        owner[name] = value
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            DetectorConfig.from_dict(doc)
    owner[name] = np.int64(default)
    assert DetectorConfig.from_dict(doc).to_dict() == DetectorConfig().to_dict()


def test_config_from_dict_requires_fields():
    doc = DetectorConfig().to_dict()
    doc.pop("nu1")
    with pytest.raises(ConfigError, match="nu1"):
        DetectorConfig.from_dict(doc)


def test_config_from_dict_rejects_unknown_fields():
    doc = DetectorConfig().to_dict()
    doc["nu3"] = 1.0
    with pytest.raises(ConfigError, match="nu3"):
        DetectorConfig.from_dict(doc)
    doc = DetectorConfig().to_dict()
    doc["model"]["fix_mean"] = True
    with pytest.raises(ConfigError, match="fix_mean"):
        DetectorConfig.from_dict(doc)


def test_config_round_trips():
    cfg = step_config()
    clone = DetectorConfig.from_dict(cfg.to_dict())
    assert clone.to_dict() == cfg.to_dict()


def _set_field(doc, field, value):
    owner, name = (doc["model"], field[6:]) if field.startswith("model.") else (doc, field)
    owner[name] = value
    return doc


@pytest.mark.parametrize("field, value", [
    ("nu1", math.nan),                   # NaN fails every bound
    ("nu2", True),                       # a bool is not a number
    ("model.noise_std", "0.1"),          # a string where a number goes
    ("model.fix_noise", "false"),        # a string where a bool goes
    ("model.noise_std", -1),             # hyperparameter bounds, checked at from_dict
    ("model.lengthscale", math.nan),
    ("model.output_scale", 0.0),
    ("model.noise_std", 1e200),          # a square that overflows
    pytest.param("model.noise_std", 10**400, id="model.noise_std-10**400"),  # past any float
    ("model.output_scale", 1e200),
    ("model.lengthscale", 1e-200),       # a square that underflows to 0
])
def test_config_from_dict_names_the_bad_field(field, value):
    doc = _set_field(step_config().to_dict(), field, value)
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        DetectorConfig.from_dict(doc)


def test_config_accepts_infinite_thresholds_and_numpy_scalars():
    doc = _set_field(step_config().to_dict(), "nu1", math.inf)
    doc.update(nu2=np.float64(1.5), k_max=np.int32(4))
    doc["model"]["noise_std"] = np.float32(0.25)
    cfg = DetectorConfig.from_dict(doc)
    assert (cfg.nu1, cfg.nu2, cfg.k_max, cfg.model.noise_std) == (math.inf, 1.5, 4, 0.25)


_JSON_LIKE = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=5)
    | st.integers(-2**80, 2**80),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=6)
_FIELDS = [None] + list(DetectorConfig().to_dict()) + [
    f"model.{name}" for name in DetectorConfig().to_dict()["model"]]


@given(field=st.sampled_from(_FIELDS), value=_JSON_LIKE)
@settings(max_examples=300, deadline=None)
def test_config_from_dict_builds_or_raises_config_error(field, value):
    # field None stands for the whole document
    doc = value if field is None else _set_field(step_config().to_dict(), field, value)
    try:
        cfg = DetectorConfig.from_dict(doc)
    except ConfigError:
        return
    Detector(cfg)  # a built config's priors are valid
    doc = cfg.to_dict()
    assert not any(v != v for v in [*doc.values(), *doc["model"].values()])  # no NaN
    assert DetectorConfig.from_dict(doc) == cfg


# -- step stream ------------------------------------------------------------------

def test_step_stream_detects_one_change_near_fifty():
    det = run_series(step_example(), step_config())
    assert len(det.events) == 1
    event = det.events[0]
    assert 48 <= event.change_point <= 52
    assert event.declared_at - event.change_point >= 5  # at least k_max


def test_step_stream_matches_exhaustive_scan_oracle():
    # The declared location must agree with the argmax of a full scan of the
    # split metric over the same stream (the linear-time oracle).
    from conftest import fixed_iid
    from gocpd.search import SplitScorer, effective_interval

    window = step_example()
    det = run_series(window, step_config())
    scorer = SplitScorer(window, fixed_iid(0.1), fixed_iid(0.1))
    lo, hi = effective_interval(100, 0, None, 3)
    domain = range(lo, hi + 1)
    scan = [scorer.evaluate(tau) for tau in domain]
    oracle_location = domain[int(np.argmax(scan))]
    assert len(det.events) == 1
    assert abs(det.events[0].change_point - oracle_location) <= 2


def test_detector_search_equals_exhaustive_scan_when_scan_unimodal():
    # Acceptance criterion 2's windows, each fed as one batch: the candidate
    # the detector records is the scan's argmax on every unimodal window.
    from conftest import fixed_iid, scan_is_unimodal, seeded_step_windows
    from gocpd.search import SplitScorer, effective_interval

    cfg = DetectorConfig(t_ini=30, model=ModelSpec(
        family="iid", noise_std=0.1, fix_noise=True, min_fit_points=3))
    unimodal = mismatches = 0
    for w in seeded_step_windows(200, seed=42, noise=0.1):
        scorer = SplitScorer(w, fixed_iid(0.1), fixed_iid(0.1))
        lo, hi = effective_interval(w.end_index, 0, None, 3)
        domain = range(lo, hi + 1)
        scan = np.array([scorer.evaluate(tau) for tau in domain])
        if not scan_is_unimodal(scan):
            continue
        unimodal += 1
        det = Detector(cfg)
        det.step(w)
        mismatches += det.instrumentation[-1]["candidate"] != domain[int(scan.argmax())]
    assert mismatches == 0
    assert unimodal / 200 > 0.8


def test_search_runs_through_the_traced_entry_points(monkeypatch):
    # perfbench times the search by wrapping these two names; a detector
    # that bypassed them would leave its search spans empty.
    import gocpd.detector as detector_module
    from gocpd.search import SplitScorer

    calls = {"argmax": 0, "evaluate": 0}
    argmax, evaluate = detector_module.ternary_argmax, SplitScorer.evaluate

    def counting_argmax(*args, **kwargs):
        calls["argmax"] += 1
        return argmax(*args, **kwargs)

    def counting_evaluate(*args, **kwargs):
        calls["evaluate"] += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(detector_module, "ternary_argmax", counting_argmax)
    monkeypatch.setattr(SplitScorer, "evaluate", counting_evaluate)
    det = run_series(step_example(), step_config())
    searched = [r for r in det.instrumentation if r["searched"]]
    assert searched
    assert calls["argmax"] == len(searched)
    assert calls["evaluate"] >= sum(r["evals"] for r in searched)


def test_detected_changes_strictly_increasing_with_min_delay():
    rng = np.random.default_rng(1)
    y = np.concatenate([rng.normal(0, 0.1, 100), rng.normal(1, 0.1, 100),
                        rng.normal(-0.5, 0.1, 100)])
    w = TimeSeriesWindow(np.arange(300, dtype=float), y)
    det = run_series(w, step_config(wait=40))
    assert len(det.events) >= 2
    points = [e.change_point for e in det.events]
    assert points == sorted(points)
    assert len(set(points)) == len(points)
    for event in det.events:
        assert event.declared_at - event.change_point >= 5


def test_candidates_never_precede_last_detection():
    rng = np.random.default_rng(2)
    y = np.concatenate([rng.normal(0, 0.1, 100), rng.normal(1, 0.1, 100)])
    w = TimeSeriesWindow(np.arange(200, dtype=float), y)
    det = run_series(w, step_config(wait=20))
    assert det.events
    first = det.events[0]
    after = [r["candidate"] for r in det.instrumentation
             if r["searched"] and r["t"] > first.declared_at]
    assert all(c >= first.change_point for c in after)


def test_memory_dropped_after_detection():
    det = run_series(step_example(), step_config())
    assert det.events
    assert det.window.start_index == det.events[-1].change_point
    assert det.last_change == det.events[-1].change_point


def test_models_reset_to_priors_after_detection():
    config = step_config()
    det = Detector(config)
    for batch in stream_batches(step_example(), 1):
        event = det.step(batch)
        if event:
            assert params_equal(det.m0.params, det.m0.prior_params)
            assert params_equal(det.m1.params, det.m1.prior_params)
            assert params_equal(det.m2.params, det.m2.prior_params)
            assert det.candidate is None and det.k == 0 and det.anchor is None
            assert det.wait_remaining == config.wait
            break
    else:
        pytest.fail("no detection on the step stream")


def test_every_step_appends_one_record_with_the_same_keys():
    # Warm-up, searched, degraded, detection and quiet-period steps on the
    # step stream; the step at t=40 is degraded by a failing m0 fit.
    from gocpd.errors import NonPositiveDefinite

    def boom(*args, **kwargs):
        raise NonPositiveDefinite("forced failure")

    config = step_config()
    det = Detector(config)
    fit = det.m0.fit
    for batch in stream_batches(step_example(), 1):
        det.m0.fit = boom if batch.start_index == 40 else fit
        count = len(det.instrumentation)
        det.step(batch)
        assert len(det.instrumentation) == count + 1
    records = det.instrumentation
    assert len(det.events) == 1
    event = det.events[0]
    assert {frozenset(r) for r in records} == {frozenset((
        "kind", "t", "interval", "effective", "candidate", "score", "k", "searched",
        "domain_size", "evals", "criterion", "stable", "distance_left",
        "distance_right", "elapsed_s", "error"))}
    assert all(isinstance(r["elapsed_s"], float) for r in records)

    by_t = {r["t"]: r for r in records}
    assert not by_t[config.t_ini - 1]["searched"]  # warm-up
    assert by_t[40]["error"] is not None and not by_t[40]["searched"]
    assert by_t[39]["searched"] and by_t[41]["searched"]
    declared = by_t[event.declared_at]
    assert declared["searched"]
    assert declared["candidate"] == event.change_point
    assert declared["k"] == config.k_max + 1
    quiet = by_t[event.declared_at + 1]
    assert not quiet["searched"] and quiet["error"] is None
    assert quiet["candidate"] is None and quiet["k"] == 0


# -- robustness -------------------------------------------------------------------

def test_stationary_stream_produces_no_detections():
    clean = 0
    for seed in range(5):
        det = run_series(stationary(seed=seed), DetectorConfig())
        clean += not det.events
    assert clean == 5


def test_stationary_false_positive_rate_at_nu_three():
    # Monte-Carlo false-positive check: nu1 = nu2 = 3 on stationary N(0,1)
    clean = 0
    for seed in range(20):
        det = run_series(stationary(seed=100 + seed), DetectorConfig(nu1=3.0, nu2=3.0))
        clean += not det.events
    assert clean >= 19  # >= 95% of seeds


def test_single_outlier_does_not_trigger():
    y = stationary(300, seed=3).outputs[:, 0].copy()
    y[150] += 6.0
    w = TimeSeriesWindow(np.arange(300, dtype=float), y)
    det = run_series(w, DetectorConfig())
    assert det.events == []
    # the outlier transiently inflates only the right-segment distance
    hot = [r for r in det.instrumentation
           if r["searched"] and r["t"] >= 150 and r["distance_right"] is not None
           and r["distance_right"] > 2.0]
    assert all(not r["criterion"] for r in hot)


def test_non_contiguous_batch_rejected():
    det = Detector(step_config())
    det.step(TimeSeriesWindow(np.arange(5.0), np.zeros(5), start_index=0))
    with pytest.raises(NonContiguousBatch):
        det.step(TimeSeriesWindow(np.arange(2.0), np.zeros(2), start_index=7))


@pytest.mark.parametrize("inputs, outputs, shape", [
    (np.array([41.0]), np.zeros((1, 2)), "D=1, C=2"),
    (np.zeros((2, 3)), np.zeros(2), "D=3, C=1"),
])
def test_batch_of_another_shape_is_named_and_changes_nothing(inputs, outputs, shape):
    det = Detector(step_config())
    for batch in stream_batches(step_example().slice(0, 40), 1):
        det.step(batch)
    before = (det.window, det.candidate, det.k, len(det.instrumentation))
    with pytest.raises(ValueError, match=f"batch starting at t=41 has {shape}; "
                                         "the window has D=1, C=1"):
        det.step(TimeSeriesWindow(inputs, outputs, start_index=41))
    assert (det.window, det.candidate, det.k, len(det.instrumentation)) == before


def test_degraded_step_keeps_stream_alive(caplog):
    # a model failure inside the search must not kill the detector
    det = Detector(step_config())

    def boom(*args, **kwargs):
        from gocpd.errors import NonPositiveDefinite
        raise NonPositiveDefinite("forced failure")

    for batch in stream_batches(step_example().slice(0, 40), 1):
        det.step(batch)
    det.m0.fit = boom
    batch = TimeSeriesWindow(np.array([[41.0]]), np.array([0.0]), start_index=41)
    assert det.step(batch) is None
    assert det.instrumentation[-1]["error"] is not None


def test_non_finite_observation_raises_at_its_step():
    clean = run_series(step_example(), step_config())
    assert [(e.change_point, e.declared_at) for e in clean.events] == [(50, 71)]
    for bad in (np.nan, np.inf):
        y = step_example().outputs[:, 0].copy()
        y[40] = bad
        det = Detector(step_config())
        for batch in stream_batches(TimeSeriesWindow(np.arange(101.0), y), 1):
            if batch.start_index == 40:
                window, records = det.window, len(det.instrumentation)
                with pytest.raises(NonFiniteObservation, match="t=40"):
                    det.step(batch)
                assert det.window is window
                assert len(det.instrumentation) == records
                batch = step_example().slice(40, 40)  # resend it clean
            det.step(batch)
        assert [e.to_dict() for e in det.events] == [e.to_dict() for e in clean.events]


def test_non_finite_input_named_by_first_bad_timestamp():
    x = np.arange(10.0)
    x[7], x[8] = -np.inf, np.nan
    det = Detector(step_config())
    with pytest.raises(NonFiniteObservation, match="t=7"):
        det.step(TimeSeriesWindow(x, np.zeros(10)))
    assert det.window is None


def test_non_finite_batch_that_skips_ahead_raises_non_finite():
    # extend checks for NaN before contiguity: a later batch that both holds
    # a NaN and leaves a gap is named for the NaN, and changes no state.
    clean = run_series(step_example(), step_config())
    det = Detector(step_config())
    for batch in stream_batches(step_example().slice(0, 68), 1):
        det.step(batch)
    window, records, k = det.window, list(det.instrumentation), det.k
    assert k == 3
    y = step_example().outputs[70:73, 0].copy()
    y[1] = np.nan
    with pytest.raises(NonFiniteObservation, match="t=71"):
        det.step(TimeSeriesWindow(np.arange(70.0, 73.0), y, start_index=70))
    assert det.window is window and det.instrumentation == records and det.k == k
    for batch in stream_batches(step_example().slice(69, 100), 1):
        det.step(batch)
    assert [e.to_dict() for e in det.events] == [e.to_dict() for e in clean.events]


def test_fixed_gp_nan_raises_at_its_step():
    y = np.random.default_rng(8).normal(size=60)
    y[40] = np.nan
    det = Detector(DetectorConfig(model=ModelSpec(
        family="gp", fix_kernel=True, fix_output_scale=True, fix_noise=True)))
    for batch in stream_batches(TimeSeriesWindow(np.arange(60.0), y), 1):
        if batch.start_index == 40:
            assert det.m0.gram_factor.size == 40  # the fast path is in use
            with pytest.raises(ValueError):
                det.step(batch)
            break
        det.step(batch)


def test_fixed_gp_shared_factor_matches_dense_detector():
    # Every split and both distances are read from m0's sums, across a
    # detection reset, so only m0's own grid factor grows; the dense
    # detector has every factor switched off.
    rng = np.random.default_rng(3)
    y = np.concatenate([rng.normal(0, 0.1, 50), rng.normal(1, 0.1, 70),
                        rng.normal(0, 0.1, 80)])
    window = TimeSeriesWindow(np.arange(200.0), y)
    cfg = step_config(wait=10, model=ModelSpec(
        family="gp", noise_std=0.1, output_scale=0.1, fix_kernel=True,
        fix_output_scale=True, fix_noise=True))
    fast, dense = Detector(cfg), Detector(cfg)
    for model in (dense.m0, dense.m1, dense.m2):
        model.gram_factor = None
    factors = [model.gram_factor for model in (fast.m0, fast.m1, fast.m2)]
    assert len({id(factor) for factor in factors}) == 3  # each model owns one
    split_fits = []  # every split is scored from m0's sums, never by fitting
    fast.m1.fit = fast.m2.fit = split_fits.append
    for batch in stream_batches(window, 1):
        for det in (fast, dense):
            det.step(batch)
            # The window always starts at the last change, so the criterion
            # may read its left distance from m0's forward sums.
            assert det.window.start_index == det.last_change
    assert [e.change_point for e in fast.events] == [e.change_point for e in dense.events]
    assert len(fast.events) >= 2
    assert [model.gram_factor for model in (fast.m0, fast.m1, fast.m2)] == factors
    assert fast.m0.gram_factor.size > 0 and split_fits == []
    assert fast.m1.gram_factor.size == fast.m2.gram_factor.size == 0
    assert fast.m0.prefix is not None and fast.m0.suffix is not None
    assert len(fast.instrumentation) == len(dense.instrumentation)
    for got, want in zip(fast.instrumentation, dense.instrumentation):
        assert got.keys() == want.keys()
        for key in got.keys() - {"elapsed_s"}:
            if isinstance(want[key], float):
                assert got[key] == pytest.approx(want[key], rel=1e-9), key
            else:  # candidate, evals, k, criterion, stable, ...
                assert got[key] == want[key], key


@pytest.mark.parametrize("family", ["gp", "iid"])
def test_criterion_rejects_a_candidate_that_empties_a_segment(family):
    # A fixed GP reads both distances from m0's tables, an IID model from
    # slices; a candidate at t or before last_change is refused on both.
    y = np.random.default_rng(4).normal(0, 0.1, 120)
    window = TimeSeriesWindow(np.arange(120.0), y)
    det = Detector(step_config(model=ModelSpec(
        family=family, noise_std=0.1, output_scale=0.1, fix_kernel=True,
        fix_output_scale=True, fix_noise=True)))
    det.window, det.last_change = window, 0
    det.m0.fit(window)
    assert (det.m0.prefix is not None) == (family == "gp")
    for candidate in (119, -1, 200):
        with pytest.raises(IndexError, match=rf"candidate {candidate} outside \[0, 118\]"):
            det.criterion(candidate)
    for candidate in (0, 118):
        det.criterion(candidate)


def test_criterion_before_the_first_step_is_an_index_error():
    det = Detector(step_config())
    with pytest.raises(IndexError, match="candidate 5 before the first step"):
        det.criterion(5)


# -- thresholds and persistence -----------------------------------------------------

def test_infinite_thresholds_never_detect():
    det = run_series(step_example(), step_config(nu1=float("inf"), nu2=float("inf")))
    assert det.events == []


def test_huge_k_max_never_detects():
    det = run_series(step_example(), step_config(k_max=10**6))
    assert det.events == []


def test_raising_thresholds_never_increases_detections():
    rng = np.random.default_rng(5)
    y = np.concatenate([rng.normal(0, 0.1, 120), rng.normal(1, 0.1, 120),
                        rng.normal(0, 0.1, 120)])
    w = TimeSeriesWindow(np.arange(360, dtype=float), y)
    counts = []
    for nu in (1.02, 1.1, 1.3, 2.0, 5.0):
        det = run_series(w, step_config(nu1=nu, nu2=nu, wait=40))
        counts.append(len(det.events))
    assert counts == sorted(counts, reverse=True)


# -- run_stream ----------------------------------------------------------------------

def test_run_stream_replays_only_a_window():
    w = step_example()
    pairs = [(w.inputs[i], w.outputs[i]) for i in range(len(w))]
    with pytest.raises(TypeError, match=r"got list; feed a live source to Detector\.step"):
        run_stream(pairs, DetectorConfig())


def test_replay_is_deterministic():
    w = step_example()
    cfg = step_config()
    a = run_stream(w, cfg)
    b = run_stream(w, cfg)
    assert [e.to_dict() for e in a[0]] == [e.to_dict() for e in b[0]]
    strip = lambda rec: {k: v for k, v in rec.items() if k != "elapsed_s"}
    assert [strip(r) for r in a[1]] == [strip(r) for r in b[1]]


@given(seed=st.integers(0, 2**32 - 1), batch_size=st.integers(1, 5))
@settings(max_examples=15, deadline=None)
def test_replay_properties_on_random_mean_shift_streams(seed, batch_size):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(40, 90, size=3)
    levels = rng.uniform(-1.5, 1.5, size=3)
    y = np.concatenate([rng.normal(level, 0.1, n) for level, n in zip(levels, sizes)])
    w = TimeSeriesWindow(np.arange(len(y), dtype=float), y)
    cfg = step_config(batch_size=batch_size, wait=10)
    events, records = run_stream(w, cfg)
    again_events, again_records = run_stream(w, cfg)
    strip = lambda rec: {k: v for k, v in rec.items() if k != "elapsed_s"}
    assert [e.to_dict() for e in events] == [e.to_dict() for e in again_events]
    assert [strip(r) for r in records] == [strip(r) for r in again_records]

    declared = {e.declared_at for e in events}
    saved = None
    for rec in records:
        if rec["candidate"] is not None and saved is not None:
            assert rec["candidate"] >= saved
        if rec["searched"]:  # the detector searches effective_interval's domain
            lo, hi = effective_interval(rec["t"], rec["t"] - rec["interval"], saved, 3)
            assert rec["domain_size"] == hi - lo + 1
        saved = None if rec["t"] in declared else rec["candidate"]

    searched = [r for r in records if r["searched"]]
    assert searched
    for rec in searched:
        assert all(math.isfinite(rec[k]) for k in ("score", "distance_left", "distance_right"))


def test_batched_replay_still_detects():
    det = run_series(step_example(), step_config(batch_size=5, k_max=3))
    assert len(det.events) == 1
    assert 45 <= det.events[0].change_point <= 55


def test_two_channel_stream_detects_joint_mean_shift():
    rng = np.random.default_rng(6)
    y = np.column_stack([
        np.concatenate([rng.normal(0, 0.1, 100), rng.normal(1, 0.1, 100)]),
        np.concatenate([rng.normal(0, 0.1, 100), rng.normal(-1, 0.1, 100)]),
    ])
    w = TimeSeriesWindow(np.arange(200, dtype=float), y)
    # the flattened residual carries C blocks per timestamp, so null distance
    # levels sit higher than in the single-channel configuration
    cfg = step_config(nu1=1.05, nu2=1.5,
                      model=ModelSpec(family="iid", noise_std=0.1, fix_noise=True,
                                      min_fit_points=3))
    det = run_series(w, cfg)
    # The config names no channel count; these are the events it gave when
    # it had to state two channels.
    assert [(e.change_point, e.declared_at) for e in det.events] == [(100, 108)]
    assert det.m0.channel_count == 2


def test_channel_count_comes_from_the_first_batch():
    # One config serves streams of any channel count; within a stream, a
    # later batch of another count is still refused and changes nothing.
    one = step_example()
    two = TimeSeriesWindow(one.inputs, np.hstack([one.outputs, -one.outputs]))
    for series in (one, two):
        det = run_series(series, step_config())
        assert det.window.channel_count == series.channel_count
        assert [(e.change_point, e.declared_at) for e in det.events] == [(50, 71)]
    det = Detector(step_config())
    det.step(two.slice(0, 0))
    with pytest.raises(ValueError, match="C=2"):
        det.step(TimeSeriesWindow(np.array([1.0]), np.zeros((1, 3)), start_index=1))
    assert det.window.channel_count == 2 and len(det.instrumentation) == 1


# -- tuning ---------------------------------------------------------------------------

@pytest.mark.parametrize("grids, named", [
    (dict(nu_grid=()), "nu_grid is empty"),
    (dict(nu_grid=(1.05,), k_max_grid=[]), "k_max_grid is empty"),
])
def test_grid_search_names_an_empty_grid(grids, named):
    with pytest.raises(ValueError, match=named):
        grid_search_thresholds(step_example(), [50], step_config(), **grids)


@pytest.mark.parametrize("tolerance", [-1, math.nan])
def test_grid_search_rejects_a_bad_tolerance_before_any_replay(tolerance, monkeypatch):
    def no_replay(*args):
        raise AssertionError("replayed before checking tolerance")

    monkeypatch.setattr("gocpd.detector.run_stream", no_replay)
    with pytest.raises(ValueError, match="tolerance must be >= 0"):
        grid_search_thresholds(step_example(), [50], step_config(), nu_grid=(1.05,),
                               tolerance=tolerance)


@pytest.mark.parametrize("grids, named", [
    (dict(nu_grid=(1.05, -1.0)), "nu1 must be > 0"),
    (dict(nu_grid=(1.05, "2")), "nu_grid entry '2' is neither a number nor a"),
    (dict(nu_grid=(1.05, (1, 2, 3))), r"nu_grid entry \(1, 2, 3\) is neither"),
    (dict(nu_grid=(1.05, (1.1, True))), "nu2 must be a number"),
    (dict(nu_grid=(1.05,), k_max_grid=[5, 0]), "k_max must be >= 1"),
])
def test_grid_search_rejects_a_bad_grid_entry_before_any_replay(grids, named, monkeypatch):
    def no_replay(*args):
        raise AssertionError("replayed before checking the grid")

    monkeypatch.setattr("gocpd.detector.run_stream", no_replay)
    with pytest.raises(ValueError, match=named):
        grid_search_thresholds(step_example(), [50], step_config(), **grids)


def test_grid_search_ties_prefer_stricter_thresholds():
    # No grid point detects on the train split, so every F1 is 0.
    tuned = grid_search_thresholds(step_example(), [50], step_config(),
                                   nu_grid=(40.0, (50.0, 45.0), 50.0, (45.0, 50.0)),
                                   k_max_grid=[3, 5])
    assert (tuned.nu1, tuned.nu2, tuned.k_max) == (50.0, 50.0, 5)


def test_grid_search_prefers_detecting_config():
    rng = np.random.default_rng(7)
    y = np.concatenate([rng.normal(0, 0.1, 80), rng.normal(1, 0.1, 80),
                        rng.normal(0, 0.1, 140)])
    w = TimeSeriesWindow(np.arange(300, dtype=float), y)
    base = step_config(wait=40)
    tuned = grid_search_thresholds(w, [80, 160], base, nu_grid=(1.05, 50.0),
                                   train_frac=0.5, tolerance=25)
    assert tuned.nu1 == 1.05  # the detecting threshold wins on the train split
    events, _ = run_stream(w, tuned)
    assert len(events) >= 1
