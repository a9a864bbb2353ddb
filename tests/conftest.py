"""Shared generators and oracle helpers for the test suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import gocpd
from gocpd.models import IidGaussianModel, ModelParams
from gocpd.window import TimeSeriesWindow

SRC = str(Path(gocpd.__file__).resolve().parents[1])


def run_python(code: str, tmp_path) -> dict:
    """Run ``code`` in a fresh interpreter with ``src`` importable; return
    the JSON object on the last line it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def fixed_iid(noise=0.001, min_fit=3, mean=0.0):
    """Learned-mean, fixed-variance Gaussian model family."""
    params = ModelParams(mean=[mean], noise_std=noise)
    return IidGaussianModel(params, min_fit_points=min_fit, fix_noise=True)


def params_equal(a, b):
    """Exact equality of two ModelParams, means included."""
    return (a.kernel == b.kernel and a.noise_std == b.noise_std
            and a.lengthscale == b.lengthscale and a.output_scale == b.output_scale
            and np.array_equal(a.mean, b.mean))


def mean_shift_window(n, change, delta, noise=0.1, seed=0, start=0):
    rng = np.random.default_rng(seed)
    y = np.concatenate([
        rng.normal(0.0, noise, change - start),
        rng.normal(delta, noise, n - (change - start)),
    ])
    return TimeSeriesWindow(np.arange(start, start + n, dtype=float), y, start_index=start)


def seeded_step_windows(count, seed=42, noise=0.1):
    """Mean-shift windows of 60-200 points, SNR >= 5, change at 25-75%."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(60, 201))
        change = int(n * rng.uniform(0.25, 0.75))
        delta = rng.uniform(0.5, 1.5)
        y = np.concatenate([rng.normal(0, noise, change),
                            rng.normal(delta, noise, n - change)])
        yield TimeSeriesWindow(np.arange(n, dtype=float), y)


def scan_is_unimodal(scan, rel_prominence=0.20):
    """Single-peak check by topographic prominence.

    A secondary local maximum disqualifies the scan when it rises more than
    ``rel_prominence`` of the scan's range above the saddle separating it
    from the global maximum; smaller wiggles are treated as noise.
    """
    scan = np.asarray(scan, dtype=float)
    spread = scan.max() - scan.min()
    if spread == 0:
        return True
    top = int(scan.argmax())
    for i in range(len(scan)):
        if i == top:
            continue
        left_ok = i == 0 or scan[i] > scan[i - 1]
        right_ok = i == len(scan) - 1 or scan[i] > scan[i + 1]
        if not (left_ok and right_ok):
            continue
        a, b = (i, top) if i < top else (top, i)
        saddle = scan[a:b + 1].min()
        if scan[i] - saddle > rel_prominence * spread:
            return False
    return True
