"""Detection quality of one or two ``src`` trees, for a change that moves
events. Not collected by pytest.

Per side it reports, at tolerance 25:

* on the ``iid_mean_changes`` perfbench streams of ``--seeds`` (default
  0-5), and on the 20k-point tiled mean stream
  (``perfbench/workloads._tiled_mean_regimes``) of ``--long-seeds``
  (default 0-31), both replayed with ``iid_mean_changes``' config: mean TPR
  and PPV over streams; median and p90 delay, a matched change's
  ``declared_at`` minus the true change; the stalled streams, whose last
  detection comes more than 2000 points before their last true change (a
  stream without detections counts from its start); and the mean number of
  split evaluations per searched step;
* the TPR and PPV of acceptance criteria 5a, 5b and 5c, from
  ``test_acceptance._tuned_rates``.

Run from the repository root:

    PYTHONPATH=src python tests/quality.py --out quality.json

With ``--against path/to/other/src`` it also runs itself in a child process
with that ``src`` alone on ``PYTHONPATH``, beside this one, checks that the
child imported ``gocpd`` from there, prints both sides, and exits 1 unless
their figures are identical. ``--out`` writes every side's report as JSON.
Each side takes about 3.5 minutes on one core of a 2-core VM; the two sides
of ``--against`` run at once.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from record_digest import ORIGIN, beside_child, seed_list  # also puts perfbench on sys.path
from test_acceptance import _tuned_rates
from workloads import WORKLOADS, _tiled_mean_regimes, streams

import gocpd
from gocpd.detector import DetectorConfig, run_stream
from gocpd.metrics import match_detections, rates

TOLERANCE = 25
STALL_GAP = 2000
LONG_POINTS = 20_000
PROTOCOLS = {"5a": "mean", "5b": "lengthscale", "5c": "noise_std"}


def stream_quality(label: str, window, truth: list[int], config: DetectorConfig) -> dict:
    """Replay one stream and score its detections against ``truth``."""
    events, records = run_stream(window, config)
    declared = {e.change_point: e.declared_at for e in events}
    report = match_detections(truth, list(declared), TOLERANCE)
    tpr, ppv, _ = rates(report)
    last = max(declared, default=window.start_index)
    evals = [r["evals"] for r in records if r["searched"]]
    return {"stream": label, "tpr": tpr, "ppv": ppv,
            "delays": [declared[d] - c for c, d in report.pairs],
            "last_detection": last, "stalled": bool(truth) and truth[-1] - last > STALL_GAP,
            "evals": sum(evals), "searches": len(evals)}


def summary(rows: list[dict]) -> dict:
    """Means over streams, delay quantiles over every matched change, and
    the stalled streams."""
    delays = [d for row in rows for d in row["delays"]]
    return {
        "streams": len(rows),
        "tpr": float(np.mean([row["tpr"] for row in rows])),
        "ppv": float(np.mean([row["ppv"] for row in rows])),
        "delay_median": float(np.median(delays)) if delays else None,
        "delay_p90": float(np.percentile(delays, 90)) if delays else None,
        "evals_per_search": sum(row["evals"] for row in rows)
        / max(1, sum(row["searches"] for row in rows)),
        "stalled": [{key: row[key] for key in ("stream", "tpr", "last_detection")}
                    for row in rows if row["stalled"]],
    }


def quality_report(args) -> dict:
    """Every figure of one side, with the seconds each part took."""
    config = DetectorConfig.from_dict(WORKLOADS["iid_mean_changes"]["config"])
    report, seconds = {}, {}
    started = time.perf_counter()
    report["iid_mean_changes"] = summary([
        stream_quality(f"seed {seed} stream {i}", window, truth, config)
        for seed in args.seeds for i, (window, truth) in enumerate(streams(
            "iid_mean_changes", seed))])
    seconds["iid_mean_changes"] = time.perf_counter() - started
    started = time.perf_counter()
    report["tiled_20k"] = summary([
        stream_quality(f"seed {seed}", *_tiled_mean_regimes(seed, LONG_POINTS), config)
        for seed in args.long_seeds])
    seconds["tiled_20k"] = time.perf_counter() - started
    started = time.perf_counter()
    report["acceptance"] = {}
    for name, vary in PROTOCOLS.items():
        tpr, ppv = _tuned_rates(vary)
        report["acceptance"][name] = {"tpr": tpr, "ppv": ppv}
    seconds["acceptance"] = time.perf_counter() - started
    return {"figures": report, "seconds": seconds}


def print_side(side: str, result: dict) -> None:
    figures = result["figures"]
    for part in ("iid_mean_changes", "tiled_20k"):
        s = figures[part]
        stalls = "; ".join(f"{row['stream']} (TPR {row['tpr']:.2f}, last detection "
                           f"{row['last_detection']})" for row in s["stalled"])
        print(f"{side} {part} ({s['streams']} streams): "
              f"TPR {s['tpr']:.3f} PPV {s['ppv']:.3f} delay median {s['delay_median']} "
              f"p90 {s['delay_p90']} evals/search {s['evals_per_search']:.2f} "
              f"stalled {len(s['stalled'])}" + (f": {stalls}" if stalls else ""))
    print(f"{side} acceptance " + "; ".join(
        f"{name} TPR {r['tpr']:.3f} PPV {r['ppv']:.3f}"
        for name, r in figures["acceptance"].items()))
    print(f"{side} seconds " + " ".join(f"{part}={s:.0f}"
                                        for part, s in result["seconds"].items()), flush=True)


def run_against(args, other_src: Path) -> dict:
    """This side's report and the child's on ``other_src``, computed side by side."""
    argv = [__file__, "--json", "--seeds", ",".join(map(str, args.seeds)),
            "--long-seeds", ",".join(map(str, args.long_seeds))]
    ours, theirs = beside_child(argv, other_src, lambda: quality_report(args))
    return {"this": ours, "other": json.loads(theirs)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=list(range(6)),
                        help='iid_mean_changes seeds, e.g. "0-5" or "0,2" (default: 0-5)')
    parser.add_argument("--long-seeds", type=seed_list, default=list(range(32)),
                        help="seeds of the 20k-point stream (default: 0-31)")
    parser.add_argument("--against", type=Path, metavar="OTHER_SRC",
                        help="compare with a run on another checkout's src directory")
    parser.add_argument("--out", type=Path, help="JSON file for every side's report")
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    here = Path(gocpd.__file__).parent.parent
    print(f"{ORIGIN}{Path(gocpd.__file__).parent}", file=sys.stderr, flush=True)
    if args.json:
        print(json.dumps(quality_report(args)))
        return
    if args.against is None:
        sides = {"this": quality_report(args)}
    else:
        sides = run_against(args, args.against.resolve())
    srcs = {"this": here, "other": args.against}
    for side, result in sides.items():
        print(f"side {side}: {srcs[side]}")
        print_side(side, result)
    identical = len({json.dumps(r["figures"], sort_keys=True) for r in sides.values()}) == 1
    if args.against is not None:
        print(f"figures identical on both sides: {'yes' if identical else 'no'}")
    if args.out:
        args.out.write_text(json.dumps({
            "tolerance": TOLERANCE, "stall_gap": STALL_GAP,
            "seeds": args.seeds, "long_seeds": args.long_seeds,
            "sides": sides,
            "identical": identical}, indent=2) + "\n")
    sys.exit(0 if identical else 1)


if __name__ == "__main__":
    main()
