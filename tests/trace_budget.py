"""Traced perfbench runs and the coverage budget they leave, for a
performance change. Not collected by pytest.

``perfbench/run.py --trace 1`` refuses a run whose child spans cover less
than 0.95 of ``Detector.step`` time, so a change that removes covered work
can fail the trace while every result stays correct. This script runs the
unchanged ``perfbench/run.py --trace 1`` on ``iid_mean_changes`` and
``gp_rbf_fixed`` for each seed, and with ``--against OTHER_ROOT`` on a
second checkout too, alternating which side runs first. Per run it prints
``correct``, ``trace.step_coverage``, ``search.evals`` and
``models.cholesky.calls``; ``--workloads gp_rbf_fixed`` runs one of the two
only. Per side and workload it prints the mean coverage over the seeds,
the lowest run, and that run's remaining budget
``1 - (1 - c_min) / 0.05``: the share of traced step time that a change
may still remove from the covered spans before the run falls below 0.95.
It exits 1 if any run reports correct=false. Run from anywhere:

    python tests/trace_budget.py --seeds 0-3 --against ../parent

Each run takes about ``--seconds`` plus its set-up, one at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("iid_mean_changes", "gp_rbf_fixed")
FLOOR = 0.95
SHOWN = ("trace.step_coverage", "search.evals", "models.cholesky.calls")


def seed_list(text: str) -> list[int]:
    """``"0-3"`` or ``"0,2,5"`` as a list of seeds."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def workload_list(text: str) -> list[str]:
    """``"gp_rbf_fixed"`` or ``"iid_mean_changes,gp_rbf_fixed"`` as a list of workloads."""
    names = text.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown workload(s): {', '.join(unknown)}")
    return names


def traced_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one traced perfbench run in the checkout ``root``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench failed in {root} on {workload} seed {seed}:\n{proc.stdout}")
    return json.loads(lines[-1])


def budget(coverage: float) -> float:
    """Share of traced step time a change may remove before ``coverage`` reaches the floor."""
    return 1.0 - (1.0 - coverage) / (1.0 - FLOOR)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=[0, 1, 2, 3],
                        help='e.g. "0-3" or "0,2"')
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="replay length of each run (default: 40)")
    parser.add_argument("--workloads", type=workload_list, default=list(WORKLOADS),
                        help="comma-separated, from " + ", ".join(WORKLOADS) + " (default: both)")
    parser.add_argument("--against", type=Path, metavar="OTHER_ROOT",
                        help="root of a second checkout to run beside this one")
    args = parser.parse_args()
    sides = {"this": ROOT}
    if args.against is not None:
        sides["other"] = args.against.resolve()
        if not (sides["other"] / "perfbench" / "run.py").is_file():
            sys.exit(f"{sides['other']}: no perfbench/run.py")
    for side, root in sides.items():
        print(f"side {side}: {root}")

    coverages = {(side, w): [] for side in sides for w in args.workloads}
    all_correct, turn = True, 0
    for workload in args.workloads:
        for seed in args.seeds:
            order = list(sides) if turn % 2 == 0 else list(sides)[::-1]
            turn += 1
            for side in order:
                result = traced_run(sides[side], workload, seed, args.seconds)
                metrics = {name: result["metrics"][name]["value"] for name in SHOWN}
                coverages[side, workload].append(metrics["trace.step_coverage"])
                all_correct &= result["correct"]
                print(f"{side} {workload} seed={seed} correct={str(result['correct']).lower()} "
                      f"failed={result['failed']}/{result['attempted']} "
                      + " ".join(f"{name}={value:.6g}" for name, value in metrics.items()),
                      flush=True)

    for (side, workload), values in coverages.items():
        lowest = min(values)
        print(f"{side} {workload} coverage mean={statistics.mean(values):.4f} "
              f"lowest={lowest:.4f} budget={budget(lowest):.3f} "
              f"(over seeds {','.join(map(str, args.seeds))})")
    if not all_correct:
        print("at least one run reported correct=false")
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
