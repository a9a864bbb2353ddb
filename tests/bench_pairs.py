"""Untraced perfbench pairs between a change and its parent, for a
performance claim. Not collected by pytest.

For each workload and seed this runs the unchanged ``perfbench/run.py
--trace 0`` once in this checkout (the change) and once in ``--against
OTHER_ROOT`` (the parent), alternating which side runs first. Metric names
and directions are read from ``BENCHMARK.json``'s ``end_to_end`` list, and
the workloads default to its ``workloads``. Per workload and metric it
prints both medians, their ratio, the number of pairs where the change is
better (ties count for neither side) and the parent's interquartile range;
``--out FILE`` writes the same figures, with every run, as JSON for a
``BENCH_<pr>.json``. It exits 1 if any run reports correct=false. Run from
anywhere:

    python tests/bench_pairs.py --against ../parent --seeds 700-709 --out pairs.json

Each run takes about ``--seconds`` plus its set-up, one at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from trace_budget import seed_list

ROOT = Path(__file__).resolve().parents[1]


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, spreads and the pairs won by ``change``, for one metric over
    paired runs; ``better`` is ``"higher"`` or ``"lower"``."""
    sides = {}
    for side, runs in (("parent", parent), ("change", change)):
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        sides[side] = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": runs}
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {**sides, "change_better_pairs": wins, "better": better,
            "median_change_over_parent": sides["change"]["median"] / sides["parent"]["median"]}


def untraced_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one untraced perfbench run in the checkout ``root``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench failed in {root} on {workload} seed {seed}:\n{proc.stdout}")
    return json.loads(lines[-1])


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, required=True, metavar="OTHER_ROOT",
                        help="root of the parent checkout")
    parser.add_argument("--seeds", type=seed_list, required=True, help='e.g. "700-709"')
    parser.add_argument("--workloads", type=lambda text: text.split(","),
                        default=[w["name"] for w in spec["workloads"]],
                        help="comma-separated (default: the workloads of BENCHMARK.json)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="replay length of each run (default: BENCHMARK.json's)")
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()
    sides = {"change": ROOT, "parent": args.against.resolve()}
    if not (sides["parent"] / "perfbench" / "run.py").is_file():
        sys.exit(f"{sides['parent']}: no perfbench/run.py")
    for side, root in sides.items():
        print(f"side {side}: {root}")

    metrics = spec["end_to_end"]
    doc = {"command": f"python3 perfbench/run.py --workload W --seed N "
                      f"--seconds {args.seconds:g} --trace 0", "workloads": {}}
    all_correct, turn = True, 0
    for workload in args.workloads:
        runs = {side: [] for side in sides}
        first = []
        for seed in args.seeds:
            order = list(sides) if turn % 2 == 0 else list(sides)[::-1]
            turn += 1
            first.append(order[0])
            for side in order:
                result = untraced_run(sides[side], workload, seed, args.seconds)
                runs[side].append(result)
                all_correct &= result["correct"]
                print(f"{side} {workload} seed={seed} correct={str(result['correct']).lower()} "
                      f"failed={result['failed']}/{result['attempted']} "
                      + " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                                 for m in metrics), flush=True)
        entry = {"seeds": args.seeds, "first": first,
                 "all_correct": all(r["correct"] for rs in runs.values() for r in rs),
                 "failed": sum(r["failed"] for rs in runs.values() for r in rs), "metrics": {}}
        for m in metrics:
            values = {side: [r["metrics"][m["name"]]["value"] for r in rs]
                      for side, rs in runs.items()}
            row = summarize(values["parent"], values["change"], m["better"])
            entry["metrics"][m["name"]] = row
            print(f"{workload} {m['name']}: parent {row['parent']['median']:.6g} -> change "
                  f"{row['change']['median']:.6g} (x{row['median_change_over_parent']:.4f}; "
                  f"change better in {row['change_better_pairs']}/{len(args.seeds)} pairs; "
                  f"parent IQR {row['parent']['iqr']:.6g})", flush=True)
        doc["workloads"][workload] = entry

    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if not all_correct:
        print("at least one run reported correct=false")
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
