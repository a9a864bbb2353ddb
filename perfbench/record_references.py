"""Record the reference events that ``run.py`` checks every run against.

For each workload and seed this generates the inputs, replays one pass and
stores every stream's ``(change_point, declared_at)`` events and search
fingerprint (see ``replay.fingerprint``), plus TPR and PPV where the
workload has true change locations. Run from the root of a
checkout, on the commit whose behaviour is the reference::

    python3 perfbench/record_references.py --seeds 0-15 [--workloads a,b] [--jobs 2]

Existing entries for other seeds and workloads are kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from run import HERE, WORKLOADS, child_env, prepare, replay

REFERENCES = HERE / "references.json"


def seed_range(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record(root: Path, workload: str, seed: int) -> dict:
    env = child_env(root)
    deadline = time.monotonic() + 600
    work = prepare(root, workload, seed, env, deadline, f"ref{seed}")
    try:
        result = replay(root, work, env, deadline, seconds=0, trace=0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    untraced = result[0]["untraced"]
    entry = {"events": untraced["events"][0], "fingerprints": untraced["fingerprints"][0]}
    entry.update({k: v for k, v in result[0]["quality"].items() if k in ("tpr", "ppv")})
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-15 or 0,3,7")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    root = Path.cwd()
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    jobs = [(w, s) for w in args.workloads.split(",") for s in seed_range(args.seeds)]
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        entries = pool.map(lambda job: record(root, *job), jobs)
        for (workload, seed), entry in zip(jobs, entries):
            refs.setdefault(workload, {})[str(seed)] = entry
            print(workload, seed, entry, flush=True)
    # One line per seed keeps the file reviewable.
    blocks = []
    for workload in sorted(refs):
        seeds = sorted(refs[workload].items(), key=lambda kv: int(kv[0]))
        lines = ",\n".join(f'  "{seed}": {json.dumps(entry)}' for seed, entry in seeds)
        blocks.append(f' "{workload}": {{\n{lines}\n }}')
    REFERENCES.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
