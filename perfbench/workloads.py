"""Workload definitions and the seeded input generator.

Each workload is a set of independent streams plus one detector config.
``generate`` draws the streams from the seed and writes what the program
under test receives: one series CSV per stream, the config JSON and, for
the scripted workload, the true change locations.

Run as a script to generate one workload's inputs::

    PYTHONPATH=src python3 perfbench/workloads.py --workload NAME --seed N --out DIR

The module level imports only the standard library, so the orchestrator
can read the definitions without loading numpy.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

# Acceptance-criterion-5 operating point for fixed-variance IID models,
# run at batch_size 1.
_IID_MEAN_CONFIG = {
    "nu1": 1.005, "nu2": 1.06, "k_max": 12, "t_ini": 30, "wait": 50,
    "search_tol": 5, "batch_size": 1,
    "model": {"family": "iid", "noise_std": 0.3, "fix_noise": True,
              "min_fit_points": 5},
}
# DetectorConfig() defaults, spelled out because the config file needs the
# required fields.
_DEFAULT_THRESHOLDS = {"nu1": 2.0, "nu2": 2.0, "k_max": 10, "t_ini": 30,
                       "wait": 80, "search_tol": 2, "batch_size": 1}
# A persistence requirement no stream meets, so that no seed declares a
# change: one reset would cut the interval and the cost of every later
# step. Every step still runs the search and the criterion.
_NEVER_DECLARE = {**_DEFAULT_THRESHOLDS, "k_max": 1_000_000_000}

WORKLOADS = {
    "iid_mean_changes": {
        "why": "frequent detections keep windows short, so per-step Python "
               "overhead in detector/search/window and the reset path dominate",
        "streams": 10,
        "points": 2_000,
        "config": _IID_MEAN_CONFIG,
    },
    "iid_stationary_long": {
        "why": "white noise, no change declared, so the interval grows to the "
               "stream length and O(interval) work per step shows",
        "streams": 1,
        "points": 6_000,
        "config": {**_NEVER_DECLARE, "model": {"family": "iid"}},
    },
    "gp_rbf_fixed": {
        "why": "GP-RBF with fixed hyperparameters: every step is dense "
               "Cholesky work on a window growing from 30 to 300 points",
        "streams": 3,
        "points": 300,
        "config": {**_NEVER_DECLARE,
                   "model": {"family": "gp", "kernel": "rbf", "fix_kernel": True,
                             "fix_output_scale": True, "fix_noise": True}},
    },
    "gp_rbf_learned": {
        "why": "GP-RBF with learned hyperparameters: the gradient-ascent fit "
               "loop and its repeated factorizations dominate",
        "streams": 4,
        "points": 80,
        "config": {**_DEFAULT_THRESHOLDS,
                   "model": {"family": "gp", "kernel": "rbf", "max_fit_iters": 10}},
    },
}


def _tiled_mean_regimes(seed: int, points: int):
    """``datagen``'s 1000-point mean script tiled to ``points``, standardized."""
    from gocpd.datagen import (DEFAULT_CHANGE_LOCATIONS, FACTOR_TABLES,
                               RegimeScript, sample_piecewise_gp, standardize)

    tiles = points // 1000
    script = RegimeScript(
        length=points,
        change_locations=[1000 * k + loc for k in range(tiles)
                          for loc in DEFAULT_CHANGE_LOCATIONS],
        vary="mean",
        factors=list(FACTOR_TABLES["mean"]) * tiles,
        seed=seed,
    )
    window, truth = sample_piecewise_gp(script)
    return standardize(window)[0], truth


def _white_noise(seed: int, points: int):
    import numpy as np
    from gocpd.window import TimeSeriesWindow

    y = np.random.default_rng(seed).standard_normal(points)
    return TimeSeriesWindow(np.arange(points, dtype=float), y), []


def _mean_script_prefix(seed: int, points: int):
    """Leading ``points`` of ``standard_script("mean")``, standardized."""
    from gocpd.datagen import sample_piecewise_gp, standard_script, standardize

    window, truth = sample_piecewise_gp(standard_script("mean", seed=seed))
    prefix = window.slice(0, points - 1)
    return standardize(prefix)[0], [c for c in truth if c < points]


def streams(name: str, seed: int) -> list:
    """The workload's ``(window, truth)`` streams for ``seed``.

    Multi-stream workloads draw stream ``i`` of seed ``s`` from seed
    ``1000 * s + i``.
    """
    spec = WORKLOADS[name]
    count, points = spec["streams"], spec["points"]
    draw = {"iid_mean_changes": _tiled_mean_regimes,
            "iid_stationary_long": _white_noise}.get(name, _mean_script_prefix)
    if count == 1:
        return [draw(seed, points)]
    return [draw(1000 * seed + i, points) for i in range(count)]


def generate(name: str, seed: int, out: Path) -> None:
    from gocpd.fileio import write_series_csv

    out.mkdir(parents=True, exist_ok=True)
    for i, (window, truth) in enumerate(streams(name, seed)):
        write_series_csv(out / f"series_{i}.csv", window)
        (out / f"truth_{i}.json").write_text(json.dumps({"locations": truth}) + "\n")
    (out / "config.json").write_text(json.dumps(WORKLOADS[name]["config"], indent=2) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
