"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a single ``ACCEPTANCE n <name>: PASS/FAIL`` line
(visible with ``pytest -s`` or on failure). Criterion 5 is split into its
three dataset clauses.

Run with: ``pytest tests/test_acceptance.py -v -s``
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from conftest import fixed_iid, scan_is_unimodal, seeded_step_windows
from gocpd.cli import main as cli_main
from gocpd.datagen import (sample_piecewise_gp, standard_script, standardize,
                           step_example)
from gocpd.detector import (Detector, DetectorConfig, ModelSpec,
                            grid_search_thresholds, run_stream, stream_batches)
from gocpd.fileio import write_json, write_series_csv
from gocpd.metrics import (evaluation_count_bound, match_detections, rates)
from gocpd.models import (GaussianProcessModel, IidGaussianModel, Kernel,
                          ModelParams)
from gocpd.search import SplitScorer, effective_interval, ternary_argmax
from gocpd.window import TimeSeriesWindow


def report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {num} {name}: {detail}"


def run_series(window, config):
    detector = Detector(config)
    for batch in stream_batches(window, config.batch_size):
        detector.step(batch)
    return detector


# -- 1. unimodality of the split metric on the canonical step stream ------------

def test_criterion_1_unimodality_reproduction():
    started = time.perf_counter()
    window = step_example()
    scorer = SplitScorer(window, fixed_iid(0.001), fixed_iid(0.001))
    lo, hi = effective_interval(window.end_index, 0, None, 3)
    domain = range(lo, hi + 1)
    scan = np.array([scorer.evaluate(tau) for tau in domain])
    elapsed = time.perf_counter() - started

    peak = domain[int(scan.argmax())]
    local_max_near_change = [
        domain[i] for i in range(1, len(domain) - 1)
        if scan[i] > scan[i - 1] and scan[i] > scan[i + 1] and 48 <= domain[i] <= 52
    ]
    ok = 48 <= peak <= 52 and len(local_max_near_change) == 1 and elapsed < 5.0
    report(1, "unimodality reproduction", ok,
           f"peak at tau={peak}, {len(local_max_near_change)} local max in [48,52], "
           f"{elapsed:.2f}s")


# -- 2. ternary search equals exhaustive scan on unimodal windows ----------------

def test_criterion_2_search_oracle_equivalence():
    non_unimodal = mismatches = unimodal = 0
    noise = 0.1
    for w in seeded_step_windows(200, seed=42, noise=noise):
        scorer = SplitScorer(w, fixed_iid(noise), fixed_iid(noise))
        lo, hi = effective_interval(w.end_index, 0, None, 3)
        domain = range(lo, hi + 1)
        scan = np.array([scorer.evaluate(tau) for tau in domain])
        if not scan_is_unimodal(scan):
            non_unimodal += 1
            continue
        unimodal += 1
        # a fresh scorer: the scan's cache would hide the search
        search = SplitScorer(w, fixed_iid(noise), fixed_iid(noise))
        candidate = ternary_argmax(search.evaluate, lo, hi, tol=2)
        if candidate != domain[int(scan.argmax())]:
            mismatches += 1
    rate = non_unimodal / 200
    ok = mismatches == 0 and rate < 0.2
    report(2, "search-oracle equivalence", ok,
           f"{mismatches} mismatches on {unimodal} unimodal windows, "
           f"non-unimodal rate {rate:.2f}")


# -- 3. candidate monotonicity ----------------------------------------------------

def step_config(**overrides):
    settings = dict(nu1=1.05, nu2=1.2, k_max=5, t_ini=30, wait=80, batch_size=1,
                    search_tol=2,
                    model=ModelSpec(family="iid", noise_std=0.1, fix_noise=True,
                                    min_fit_points=3))
    settings.update(overrides)
    return DetectorConfig(**settings)


def test_criterion_3_candidate_monotonicity():
    violations = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        change = int(rng.integers(80, 160))
        y = np.concatenate([rng.normal(0, 0.1, change),
                            rng.normal(1.0, 0.1, 240 - change)])
        w = TimeSeriesWindow(np.arange(240, dtype=float), y)
        det = run_series(w, step_config(wait=40))
        # candidates within one segment (between detections) never decrease
        resets = [e.declared_at for e in det.events]
        prev_by_segment = {}
        for record in det.instrumentation:
            if not record["searched"] or record["candidate"] is None:
                continue
            segment = sum(record["t"] > r for r in resets)
            prev = prev_by_segment.get(segment)
            if prev is not None and record["candidate"] < prev:
                violations += 1
            prev_by_segment[segment] = record["candidate"]
    report(3, "candidate monotonicity", violations == 0,
           f"{violations} violations over 20 streams")


# -- 4. logarithmic evaluation count ------------------------------------------------

def test_criterion_4_logarithmic_evaluation_count():
    window, _ = sample_piecewise_gp(standard_script("mean", seed=0))
    wstd, _ = standardize(window)
    det = run_series(wstd, DetectorConfig())  # strict defaults: interval grows
    searched = [r for r in det.instrumentation if r["searched"]]
    over_bound = [r for r in searched
                  if r["evals"] > evaluation_count_bound(r["domain_size"])]
    mean_evals = float(np.mean([r["evals"] for r in searched]))
    mean_interval = float(np.mean([r["interval"] for r in searched]))
    ok = not over_bound and mean_evals <= 15.0 and mean_interval >= 100.0
    report(4, "logarithmic evaluation count", ok,
           f"{len(over_bound)} bound violations, mean evals {mean_evals:.1f}, "
           f"mean interval {mean_interval:.0f}")


# -- 5. synthetic detection quality ---------------------------------------------------

SYNTH_BASE = DetectorConfig(
    nu1=1.005, nu2=1.06, k_max=12, t_ini=30, wait=50, batch_size=2, search_tol=5,
    model=ModelSpec(family="iid", noise_std=0.3, fix_noise=True, min_fit_points=5),
)
# Asymmetric pairs: the long pre-change segment's distance saturates near 1,
# so nu1 stays permissive and nu2 plus a long persistence run carry the
# detection; the symmetric strict pair lets tuning turn detection off when
# nothing on the train split matches.
SYNTH_NU_GRID = ((1.005, 1.04), (1.005, 1.06), (2.0, 2.0))
SYNTH_K_GRID = (12, 16, 20)


def _tuned_rates(vary, seeds=range(5), tolerance=25):
    tprs, ppvs = [], []
    for seed in seeds:
        window, truth = sample_piecewise_gp(standard_script(vary, seed=seed))
        wstd, _ = standardize(window)
        config = grid_search_thresholds(wstd, truth, SYNTH_BASE, SYNTH_NU_GRID,
                                        SYNTH_K_GRID, train_frac=0.3,
                                        tolerance=tolerance)
        events, _ = run_stream(wstd, config)
        detected = [e.change_point for e in events]
        tpr, ppv, _ = rates(match_detections(truth, detected, tolerance))
        tprs.append(tpr)
        ppvs.append(ppv)
    return float(np.mean(tprs)), float(np.mean(ppvs))


def test_criterion_5a_mean_change_quality():
    started = time.perf_counter()
    tpr, ppv = _tuned_rates("mean")
    elapsed = time.perf_counter() - started
    ok = tpr >= 0.8 and ppv >= 0.6
    report("5a", "mean-change quality", ok,
           f"TPR {tpr:.2f} (>=0.8), PPV {ppv:.2f} (>=0.6), {elapsed:.0f}s")


def test_criterion_5b_lengthscale_change_quality():
    # Expected to fail: with the specified split metric and two-segment
    # distance test, lengthscale changes whose smoother side follows the
    # change are not localizable. docs/decisions.md is the decisions ledger:
    # it holds the measured rates per model family, from tests/ledger_5b.py.
    # The criterion is asserted as stated.
    started = time.perf_counter()
    tpr, ppv = _tuned_rates("lengthscale")
    elapsed = time.perf_counter() - started
    ok = tpr >= 0.8 and ppv >= 0.6
    report("5b", "lengthscale-change quality", ok,
           f"TPR {tpr:.2f} (>=0.8), PPV {ppv:.2f} (>=0.6), {elapsed:.0f}s")


def test_criterion_5c_noise_change_precision():
    started = time.perf_counter()
    tpr, ppv = _tuned_rates("noise_std")
    elapsed = time.perf_counter() - started
    ok = ppv >= 0.6  # TPR explicitly waived for noise changes
    report("5c", "noise-change precision", ok,
           f"PPV {ppv:.2f} (>=0.6), TPR {tpr:.2f} (informational), {elapsed:.0f}s")


# -- 6. outlier robustness ---------------------------------------------------------

def test_criterion_6_outlier_robustness():
    clean = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        y = rng.normal(0.0, 1.0, 500)
        positions = rng.choice(np.arange(50, 450), size=5, replace=False)
        y[positions] += 6.0  # isolated 6-sigma spikes
        w = TimeSeriesWindow(np.arange(500, dtype=float), y)
        det = run_series(w, DetectorConfig())
        clean += not det.events
    report(6, "outlier robustness", clean >= 19, f"{clean}/20 seeds clean")


# -- 7. threshold monotonicity --------------------------------------------------------

def test_criterion_7_threshold_monotonicity():
    rng = np.random.default_rng(9)
    y = np.concatenate([rng.normal(0, 0.1, 120), rng.normal(1, 0.1, 120),
                        rng.normal(0, 0.1, 120)])
    w = TimeSeriesWindow(np.arange(360, dtype=float), y)

    def count(nu1, nu2, k_max=5):
        det = run_series(w, step_config(nu1=nu1, nu2=nu2, k_max=k_max, wait=40))
        return len(det.events)

    ladder = (1.02, 1.1, 1.3, 2.0, 5.0)
    counts_nu1 = [count(nu, 1.02) for nu in ladder]
    counts_nu2 = [count(1.02, nu) for nu in ladder]
    ok = (counts_nu1 == sorted(counts_nu1, reverse=True)
          and counts_nu2 == sorted(counts_nu2, reverse=True)
          and count(float("inf"), float("inf")) == 0
          and count(1.02, 1.02, k_max=10**6) == 0)
    report(7, "threshold monotonicity", ok,
           f"nu1 ladder {counts_nu1}, nu2 ladder {counts_nu2}")


# -- 8. numerical model checks ---------------------------------------------------------

def test_criterion_8_numerical_model_checks():
    rng = np.random.default_rng(21)
    checks = []

    # GP log-likelihood vs dense MVN oracle at n = 64, relative 1e-8
    n = 64
    x = np.sort(rng.uniform(0, 30, size=n))
    y = rng.normal(size=n)
    gp = GaussianProcessModel(ModelParams(mean=[0.2], noise_std=0.3,
                                          lengthscale=2.0, output_scale=0.9,
                                          kernel=Kernel.RBF))
    sq = (x[:, None] - x[None, :]) ** 2
    cov = 0.9**2 * np.exp(-0.5 * sq / 4.0) + 0.09 * np.eye(n)
    oracle = multivariate_normal(mean=np.full(n, 0.2), cov=cov).logpdf(y)
    got = gp.log_likelihood(TimeSeriesWindow(x, y))
    checks.append(abs(got - oracle) <= 1e-8 * abs(oracle))

    # posterior vs textbook conditional at 1e-8
    train = TimeSeriesWindow(x[:40], y[:40])
    q = x[40:50, None]
    post = gp.posterior(q, train=train)
    ktt = cov[:40, :40]
    ktq = 0.9**2 * np.exp(-0.5 * (x[:40, None] - x[None, 40:50]) ** 2 / 4.0)
    kqq = 0.9**2 * np.exp(-0.5 * (x[40:50, None] - x[None, 40:50]) ** 2 / 4.0)
    mean = 0.2 + ktq.T @ np.linalg.solve(ktt, y[:40] - 0.2)
    covq = kqq - ktq.T @ np.linalg.solve(ktt, ktq) + 0.09 * np.eye(10)
    checks.append(np.allclose(post.mean, mean, rtol=1e-8, atol=1e-12))
    checks.append(np.allclose(post.cov, covq, rtol=1e-8, atol=1e-10))

    # averaged log-likelihood scaling identity at 1e-12
    for m in (gp, fixed_iid(0.5)):
        w = TimeSeriesWindow(np.arange(24.0), rng.normal(size=24))
        lhs = m.avg_log_likelihood(w) * 24
        rhs = m.log_likelihood(w)
        checks.append(abs(lhs - rhs) <= 1e-12 * abs(rhs))

    # modified Mahalanobis tabulated identities, exact
    m = IidGaussianModel(ModelParams(mean=[0.0], noise_std=1.0), fix_noise=True)
    w2 = TimeSeriesWindow(np.arange(2.0), np.full(2, 4.0 / math.sqrt(2)))
    w4 = TimeSeriesWindow(np.arange(4.0), np.full(4, 4.5))
    w0 = TimeSeriesWindow(np.arange(7.0), np.zeros(7))
    checks.append(m.modified_mahalanobis(w2) == pytest.approx(4.0))
    checks.append(m.modified_mahalanobis(w4) == pytest.approx(3.0))
    checks.append(m.modified_mahalanobis(w0) == 0.0)

    report(8, "numerical model checks", all(checks),
           f"{sum(checks)}/{len(checks)} checks")


# -- 9. determinism of the detect command ------------------------------------------------

def test_criterion_9_detect_determinism(tmp_path):
    data = tmp_path / "step.csv"
    write_series_csv(data, step_example())
    config = tmp_path / "config.json"
    write_json(config, step_config().to_dict())
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli_main(["detect", "--data", str(data), "--config", str(config),
                       "--out", str(out), "--seed", "7"])
        assert rc == 0
        outs.append((out / "events.jsonl").read_bytes())
    report(9, "detect determinism", outs[0] == outs[1],
           f"{len(outs[0])} bytes, identical={outs[0] == outs[1]}")
