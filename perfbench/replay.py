"""Replay child process: set up, replay the streams, write the artifacts.

Reads what ``workloads.py`` generated in ``--work``, times the set-up the
way a user pays it (import ``gocpd``, read the series CSVs, parse the
config, build the detectors), then replays every stream through
``Detector.step`` one batch at a time in a closed loop, timing each call
from the client side. A *pass* replays every stream of the workload once,
each with a fresh detector; passes repeat until ``--seconds`` is used up.
Step times are kept raw and at nominal machine speed (``calibrate.py``).
The last pass's events and iteration records are written with
``gocpd.fileio.write_jsonl``, as ``gocpd detect`` does.

With ``--trace 1`` half the budget replays untraced and half traced, so the
tracing overhead and traced-vs-untraced events can be compared. With
``--setup-only`` the process times its set-up and exits.

Prints one JSON object on stdout. Run through ``run.py``, which sets the
environment (``PYTHONPATH``, one BLAS thread).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

PERCENTILE_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
CALIBRATE_EVERY_S = 0.5
MIN_BEYOND_TAIL = 10
FINGERPRINT_SAMPLES = 6


def set_up(work: Path, src: Path, on_import=None):
    """Import gocpd, read the inputs, parse the config, build the detectors."""
    started = time.perf_counter()
    import gocpd
    from gocpd import Detector, DetectorConfig
    from gocpd import fileio

    if not Path(gocpd.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"gocpd imported from {gocpd.__file__}, not from {src}")
    if on_import is not None:
        on_import()
    count = len(list(work.glob("series_*.csv")))
    series = [fileio.read_series_csv(work / f"series_{i}.csv") for i in range(count)]
    config = DetectorConfig.from_dict(fileio.read_json(work / "config.json"))
    detectors = [Detector(config) for _ in series]
    return time.perf_counter() - started, series, config, detectors


def fingerprint(records: list) -> dict:
    """What the search did over a stream, compact enough to store per seed.

    The number of searched steps, a digest of their candidate sequence, and
    the criterion distances ``[left, right]`` at ``FINGERPRINT_SAMPLES``
    evenly spaced searched steps (the last included), to 9 significant
    digits. ``run.py`` compares the distances with a relative tolerance.
    """
    searched = [r for r in records if r["searched"]]
    candidates = ",".join(str(r["candidate"]) for r in searched)
    picks = sorted({round(j * (len(searched) - 1) / (FINGERPRINT_SAMPLES - 1))
                    for j in range(FINGERPRINT_SAMPLES)}) if searched else []
    return {
        "searched": len(searched),
        "candidates_sha256": hashlib.sha256(candidates.encode()).hexdigest()[:16],
        "distances": [[float(f"{searched[k][side]:.9g}")
                       for side in ("distance_left", "distance_right")] for k in picks],
    }


def replay_stream(detector, batches, start: int, points: int) -> dict:
    """Time every ``detector.step`` call; classify steps from the records.

    The calibration kernel runs before the first step and then between
    steps about every ``CALIBRATE_EVERY_S``; each segment's times are also
    given at nominal machine speed, using the kernel times at its two ends.
    """
    from calibrate import kernel_seconds, speed_factor

    latencies, factors = [], []
    wall = wall_nominal = 0.0
    raised = 0
    clock = time.perf_counter
    kernel = kernel_seconds()
    segment_from, segment_began = 0, clock()
    for i, batch in enumerate(batches):
        t0 = clock()
        try:
            detector.step(batch)
        except Exception:  # a raising step is a failed step; the replay goes on
            traceback.print_exc()
            raised += 1
        t1 = clock()
        latencies.append(t1 - t0)
        if t1 - segment_began >= CALIBRATE_EVERY_S or i == len(batches) - 1:
            segment = t1 - segment_began
            next_kernel = kernel_seconds()
            factor = speed_factor(kernel, next_kernel)
            factors += [factor] * (i + 1 - segment_from)
            wall += segment
            wall_nominal += segment * factor
            kernel, segment_from, segment_began = next_kernel, i + 1, clock()

    records = {r["t"]: r for r in detector.instrumentation}
    late_from = start + points - points // 10
    out = {"searched": [], "late": [], "searched_nominal": [], "late_nominal": []}
    degraded = 0
    for batch, latency, factor in zip(batches, latencies, factors):
        record = records.get(batch.end_index)
        if record is None:
            continue
        degraded += record["error"] is not None
        if record["searched"]:
            out["searched"].append(latency)
            out["searched_nominal"].append(latency * factor)
            if batch.start_index >= late_from:
                out["late"].append(latency)
                out["late_nominal"].append(latency * factor)
    out.update({
        "wall_s": wall,
        "wall_nominal_s": wall_nominal,
        "factors": sorted(set(factors)),
        "steps": len(batches),
        "points": points,
        "degraded": degraded,
        "raised": raised,
        "events": [[e.change_point, e.declared_at] for e in detector.events],
        "fingerprint": fingerprint(detector.instrumentation),
    })
    return out


def run_passes(budget: float, one_pass) -> list:
    """Run passes until one more would end further from ``budget`` than now."""
    passes = []
    began = time.perf_counter()
    while True:
        passes.append(condense(one_pass()))
        elapsed = time.perf_counter() - began
        if elapsed + 0.5 * elapsed / len(passes) >= budget:
            return passes


def pass_metrics(streams: list, tail_pct: float, nominal: bool = True) -> dict:
    """End-to-end metrics of one pass, at nominal machine speed or raw."""
    import numpy as np

    suffix = "_nominal" if nominal else ""
    searched = np.array([x for s in streams for x in s["searched" + suffix]]) * 1e3
    late = np.array([x for s in streams for x in s["late" + suffix]]) * 1e3
    seconds = sum(s["wall_nominal_s" if nominal else "wall_s"] for s in streams)
    return {
        "points_per_s": sum(s["points"] for s in streams) / seconds,
        "step_p50_ms": float(np.median(searched)),
        "step_tail_ms": float(np.percentile(searched, tail_pct)),
        "step_late_p50_ms": float(np.median(late)),
    }


def condense(streams: list) -> dict:
    """Reduce one pass to its metrics and drop the per-step latencies, so
    that memory (``peak_rss_mb``) does not grow with the number of passes."""
    searched = sum(len(s["searched"]) for s in streams)
    # Highest ladder percentile with at least ten searched steps of the pass
    # beyond it; every pass replays the same steps.
    tail_pct = next((p for p in PERCENTILE_LADDER
                     if searched * (100.0 - p) / 100.0 >= MIN_BEYOND_TAIL), 50.0)
    out = {
        "searched": searched,
        "late": sum(len(s["late"]) for s in streams),
        "tail_percentile": tail_pct,
        "metrics": pass_metrics(streams, tail_pct),
        "raw_metrics": pass_metrics(streams, tail_pct, nominal=False),
    }
    for stream in streams:
        for key in ("searched", "late", "searched_nominal", "late_nominal"):
            del stream[key]
    out["streams"] = streams
    return out


def summarize(passes: list) -> dict:
    first = passes[0]
    streams = [s for p in passes for s in p["streams"]]
    return {
        "passes": len(passes),
        "steps": sum(s["steps"] for s in streams),
        "degraded": sum(s["degraded"] for s in streams),
        "replay_nominal_s_per_pass": sum(s["wall_nominal_s"] for s in streams) / len(passes),
        "searched_per_pass": first["searched"],
        "late_per_pass": first["late"],
        "tail_percentile": first["tail_percentile"],
        "pass_metrics": [p["metrics"] for p in passes],
        "raw_pass_metrics": [p["raw_metrics"] for p in passes],
        "factors": [f for s in streams for f in s["factors"]],
        "events": [[s["events"] for s in p["streams"]] for p in passes],
        "fingerprints": [[s["fingerprint"] for s in p["streams"]] for p in passes],
        "steps_per_stream": [s["steps"] for s in first["streams"]],
        "failed_per_stream": [sum(p["streams"][i]["degraded"] + p["streams"][i]["raised"]
                                  for p in passes)
                              for i in range(len(first["streams"]))],
    }


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except Exception as exc:  # the config layout differs between releases
            return f"unknown ({type(exc).__name__})"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def write_artifacts(work: Path, detectors: list) -> None:
    from gocpd import fileio

    events, records = [], []
    for i, det in enumerate(detectors):
        meta = {"kind": "meta", "stream": i, "config": det.config.to_dict()}
        events += [meta] + [e.to_dict() for e in det.events]
        records += [meta] + det.instrumentation
    fileio.write_jsonl(work / "events.jsonl", events)
    fileio.write_jsonl(work / "instrumentation.jsonl", records)


def quality(work: Path, detectors: list) -> dict:
    """TPR/PPV of the last pass against the truth files (tolerance 25)."""
    from gocpd.metrics import match_detections

    tp = fp = fn = 0
    for i, det in enumerate(detectors):
        truth = json.loads((work / f"truth_{i}.json").read_text())["locations"]
        report = match_detections(truth, [e.change_point for e in det.events], 25)
        tp, fp, fn = (tp + report.true_positives, fp + report.false_positives,
                      fn + report.false_negatives)
    if tp + fn == 0:
        return {}
    return {"tpr": tp / (tp + fn), "ppv": tp / (tp + fp) if tp + fp else 0.0,
            "truth": tp + fn, "detected": tp + fp}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--out", type=Path, help="artifact directory (replay runs)")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = None
    on_import = None
    if args.trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        on_import = tracer.install_fileio
    # The first pass uses the detectors built during set-up.
    setup_s, series, config, pending = set_up(args.work, args.src, on_import)
    from calibrate import kernel_seconds, speed_factor

    setup_factor = speed_factor(kernel_seconds(), kernel_seconds())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_factor": setup_factor}))
        return

    from gocpd import Detector, stream_batches

    args.out.mkdir(parents=True, exist_ok=True)
    cut = [(list(stream_batches(w, config.batch_size)), w.start_index, len(w))
           for w in series]
    final = None

    def one_pass(instrument=None):
        nonlocal pending, final
        final = None  # release the previous pass's records before building anew
        dets = pending or [Detector(config) for _ in cut]
        pending = None
        if instrument is not None:
            for det in dets:
                instrument(det)
        result = [replay_stream(det, batches, start, n)
                  for det, (batches, start, n) in zip(dets, cut)]
        final = dets
        return result

    budget = args.seconds / 2 if tracer else args.seconds
    out = {"setup_s": setup_s, "setup_factor": setup_factor, "env": environment(),
           "untraced": summarize(run_passes(budget, one_pass))}
    if tracer:
        setup_spans = tracer.summary()
        tracer.reset()
        tracer.install_layers()
        traced = summarize(run_passes(budget, lambda: one_pass(tracer.install_detector)))
        replay_spans = tracer.summary()
        tracer.reset()
        write_artifacts(args.out, final)
        out["traced"] = traced
        out["layers"] = layer_metrics(setup_spans, replay_spans, tracer.summary(),
                                      traced, out["untraced"])
    else:
        write_artifacts(args.out, final)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["quality"] = quality(args.work, final)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
