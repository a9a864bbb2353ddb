"""Outside-in replay benchmark for gocpd.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's streams from the seed, times the set-up in
several fresh processes, replays the streams through ``Detector.step`` for
about ``S`` seconds in one process per core (at most two; one when
traced), checks the events against the recorded references, and prints
one line per metric followed by a JSON result line.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics. See ``perfbench/README.md``.

This orchestrator uses only the standard library; numpy and gocpd are
loaded in the child processes, which alone get the benchmark's environment
(``PYTHONPATH=src`` and one BLAS thread).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Relative tolerance on the sampled criterion distances of a fingerprint:
# loose enough for a reordering of floating-point work, tight enough for a
# changed likelihood.
FINGERPRINT_RTOL = 1e-6
SETUP_ROUNDS = 3  # rounds of concurrent set-up probes, one per replica
DEADLINE_S = 170.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_children(script: str, arg_lists: list, env: dict, deadline: float) -> list:
    """Run one interpreter per argument list concurrently; return each last stdout line.

    Every child is waited for; if one fails or time runs out, all are killed
    and the benchmark exits without a result.
    """
    procs = [subprocess.Popen([sys.executable, str(HERE / script), *map(str, args)],
                              env=env, stdout=subprocess.PIPE, text=True)
             for args in arg_lists]
    outputs, failure = [], None
    try:
        for proc in procs:
            stdout, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                failure = failure or f"{script} exited with code {proc.returncode}"
            lines = stdout.strip().splitlines()
            outputs.append(lines[-1] if lines else "")
    except subprocess.TimeoutExpired:
        failure = f"{script} did not finish in time"
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if failure:
        sys.exit(f"perfbench: {failure}")
    return outputs


def prepare(root: Path, workload: str, seed: int, env: dict, deadline: float,
            tag: str) -> Path:
    work = root / ".perfbench_work" / f"{workload}-{seed}-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run_children("workloads.py", [["--workload", workload, "--seed", seed, "--out", work]],
                 env, deadline)
    return work


def replay(root: Path, work: Path, env: dict, deadline: float, seconds: float,
           trace: int, replicas: int = 1) -> list:
    """Replay in ``replicas`` concurrent processes; return their results."""
    arg_lists = [["--work", work, "--src", root / "src", "--out", work / f"replica{i}",
                  "--seconds", seconds, "--trace", trace] for i in range(replicas)]
    return [json.loads(line) for line in run_children("replay.py", arg_lists, env, deadline)]


def same_fingerprint(got: dict, want: dict) -> bool:
    """Equal search counts and candidates, and distances within ``FINGERPRINT_RTOL``."""
    return (got["searched"] == want["searched"]
            and got["candidates_sha256"] == want["candidates_sha256"]
            and len(got["distances"]) == len(want["distances"])
            and all(math.isclose(a, b, rel_tol=FINGERPRINT_RTOL, abs_tol=1e-12)
                    for pair_got, pair_want in zip(got["distances"], want["distances"])
                    for a, b in zip(pair_got, pair_want)))


def check_outputs(workload: str, seed: int, results: list) -> tuple[list, set, bool]:
    """Return (problems, flagged stream indices, whether a reference exists).

    Every pass of every replica, traced or not, must give the events and
    the search fingerprints of the first pass, and those must match the
    recorded reference for the seed. The fingerprints make the check bite
    on workloads that declare no change.
    """
    first = results[0]["untraced"]
    first_events, first_prints = first["events"][0], first["fingerprints"][0]
    problems, flagged = [], set()

    def compare(i, events, prints, want_events, want_prints, what):
        if events != want_events:
            flagged.add(i)
            problems.append(f"stream {i}: {what}: events {events} differ from {want_events}")
        if not same_fingerprint(prints, want_prints):
            flagged.add(i)
            problems.append(f"stream {i}: {what}: search fingerprint {prints} "
                            f"differs from {want_prints}")

    for number, result in enumerate(results):
        for label in ("untraced", "traced"):
            run = result.get(label, {})
            for pass_no, (events, prints) in enumerate(zip(run.get("events", []),
                                                           run.get("fingerprints", []))):
                for i in range(len(first_events)):
                    compare(i, events[i], prints[i], first_events[i], first_prints[i],
                            f"replica {number} {label} pass {pass_no} vs the first pass")
    refs = json.loads((HERE / "references.json").read_text()).get(workload, {})
    ref = refs.get(str(seed))
    if ref is not None:
        for i in range(len(first_events)):
            compare(i, first_events[i], first_prints[i], ref["events"][i],
                    ref["fingerprints"][i], "run vs the reference")
    return problems, flagged, ref is not None


def count_steps(results: list, flagged: set) -> tuple[int, int]:
    """Attempted and failed steps; every step of a flagged stream failed."""
    attempted = failed = 0
    for run in (r[key] for r in results for key in ("untraced", "traced") if key in r):
        attempted += run["steps"]
        for i, (steps, bad) in enumerate(zip(run["steps_per_stream"], run["failed_per_stream"])):
            failed += steps * run["passes"] if i in flagged else bad
    return attempted, failed


def end_to_end(results: list, setup_samples: list, key: str = "pass_metrics") -> dict:
    """Medians over every pass of every replica, and over the set-up samples."""
    passes = [m for r in results for m in r["untraced"][key]]
    values = {name: statistics.median(m[name] for m in passes) for name in passes[0]}
    values["setup_s"] = statistics.median(setup_samples)
    values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in results)
    return values


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "gocpd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gocpd sources under {root / 'src'}; "
                 f"run from the root of a checkout")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    load = os.getloadavg()
    # Untraced runs replay one independent copy per core (at most two) to
    # average out per-core interference; the traced run uses one.
    replicas = 1 if args.trace else min(2, len(os.sched_getaffinity(0)))
    env = child_env(root)

    work = prepare(root, args.workload, args.seed, env, deadline, f"t{args.trace}")
    try:
        probe = ["--work", work, "--src", root / "src", "--setup-only"]
        setups = [json.loads(line) for _ in range(SETUP_ROUNDS)
                  for line in run_children("replay.py", [probe] * replicas, env, deadline)]
        results = replay(root, work, env, deadline, args.seconds, args.trace, replicas)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    setups += results
    raw_setup = [r["setup_s"] for r in setups]
    setup_samples = [r["setup_s"] * r["setup_factor"] for r in setups]
    problems, flagged, referenced = check_outputs(args.workload, args.seed, results)
    attempted, failed = count_steps(results, flagged)
    values = results[0]["layers"] if args.trace else end_to_end(results, setup_samples)
    coverage = values.get("trace.step_coverage") if args.trace else None
    if args.trace and (coverage is None or coverage < 0.95):
        problems.append(f"child spans cover {coverage} of Detector.step time, "
                        f"below the required 0.95")
    run = results[0]["untraced"]

    env_doc = {"nproc": os.cpu_count(), "loadavg_start": load, **results[0]["env"]}
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} replicas={replicas}")
    print("env " + json.dumps(env_doc, sort_keys=True))
    print(f"replay: passes per replica {[r['untraced']['passes'] for r in results]}, "
          f"{run['searched_per_pass']} searched steps per pass "
          f"(tail at p{run['tail_percentile']:g}), {run['late_per_pass']} of them in "
          f"the last tenth; metrics are medians over passes")
    print("setup_s samples " + " ".join(f"{s:.4f}" for s in setup_samples)
          + " (raw " + " ".join(f"{s:.4f}" for s in raw_setup) + ")")
    if not args.trace:
        factors = [f for r in results for f in r["untraced"]["factors"]]
        raw = end_to_end(results, raw_setup, key="raw_pass_metrics")
        print(f"speed factors (nominal/measured) {min(factors):.3f}..{max(factors):.3f}; "
              "raw: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    if results[0]["quality"]:
        q = results[0]["quality"]
        print(f"quality: TPR {q['tpr']:.3f} PPV {q['ppv']:.3f} "
              f"({q['detected']} detected, {q['truth']} true changes, tolerance 25)")
    checked = ("against the recorded reference and across passes" if referenced
               else "across passes only (no reference recorded for this seed)")
    print(f"correctness: events and search fingerprints checked {checked}: "
          + ("; ".join(problems) if problems else "match"))
    print(f"failed_step_share {failed / attempted:.6g} ({failed}/{attempted} steps)")
    if args.trace:
        shown = {m["name"] for m in wanted}
        extra = {k: v for k, v in values.items() if k not in shown}
        print("not in BENCHMARK.json: " + json.dumps(extra, sort_keys=True))
        shown_coverage = "none" if coverage is None else f"{100 * coverage:.1f}%"
        print(f"trace: overhead x{values['trace.overhead']:.3f} (traced over untraced "
              f"replay), child spans cover {shown_coverage} of Detector.step "
              f"({'ok' if coverage is not None and coverage >= 0.95 else 'BELOW 95%'})")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
