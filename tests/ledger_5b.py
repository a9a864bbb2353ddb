"""Numbers behind ``docs/decisions.md``: criterion 5b per model family.

Runs acceptance criterion 5b's protocol (the five ``standard_script
("lengthscale")`` seeds, standardized; thresholds tuned by
``grid_search_thresholds`` on the leading 30% with the test's grid; scored
at tolerance 25) for three model families and prints one markdown row per
family. Not collected by pytest. Run from the repository root:

    PYTHONPATH=src python tests/ledger_5b.py
"""

import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_acceptance import SYNTH_BASE, SYNTH_K_GRID, SYNTH_NU_GRID  # noqa: E402

from gocpd.datagen import sample_piecewise_gp, standard_script, standardize  # noqa: E402
from gocpd.detector import ModelSpec, grid_search_thresholds, run_stream  # noqa: E402
from gocpd.metrics import match_detections, rates  # noqa: E402

FAMILIES = {
    "IID, fixed noise (the test's model)": SYNTH_BASE.model,
    "IID, learned noise": replace(SYNTH_BASE.model, fix_noise=False),
    "fixed GP-RBF, ℓ = 3, σ_n = 0.3": ModelSpec(
        family="gp", kernel="rbf", lengthscale=3.0, noise_std=0.3, fix_noise=True,
        fix_kernel=True, fix_output_scale=True, min_fit_points=5),
}


def ledger_row(name: str, model: ModelSpec, seeds=range(5), tolerance: int = 25) -> str:
    base = replace(SYNTH_BASE, model=model)
    tprs, ppvs, tuned = [], [], []
    started = time.perf_counter()
    for seed in seeds:
        window, truth = sample_piecewise_gp(standard_script("lengthscale", seed=seed))
        wstd, _ = standardize(window)
        config = grid_search_thresholds(wstd, truth, base, SYNTH_NU_GRID, SYNTH_K_GRID,
                                        train_frac=0.3, tolerance=tolerance)
        events, _ = run_stream(wstd, config)
        tpr, ppv, _ = rates(match_detections(truth, [e.change_point for e in events],
                                             tolerance))
        tprs.append(tpr)
        ppvs.append(ppv)
        tuned.append(f"({config.nu1:g}, {config.nu2:g}, {config.k_max})")
    wall = time.perf_counter() - started
    return (f"| {name} | {np.mean(tprs):.2f} | {np.mean(ppvs):.2f} | "
            f"{' '.join(tuned)} | {wall:.1f} s |")


if __name__ == "__main__":
    print("| model family | TPR | PPV | tuned (ν₁, ν₂, k_max), seeds 0–4 | wall |")
    print("| --- | --- | --- | --- | --- |")
    for name, model in FAMILIES.items():
        print(ledger_row(name, model), flush=True)
