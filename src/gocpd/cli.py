"""Command-line front end.

Subcommands:

* ``generate`` -- render a regime script to a series CSV plus ground-truth
  locations JSON.
* ``detect`` -- replay a series CSV through the online detector in
  simulated-online mode; writes detection events and per-iteration
  instrumentation as JSONL plus a plot-ready CSV of candidate positions
  and criterion distances.
* ``score`` -- match detections against truth and print TPR/PPV/FDR.
* ``bench`` -- repeat a detection run and summarize timing and search
  effort; ``read_s`` is the time to load the series CSV and the config.

The log level comes from the ``GOCPD_LOG`` environment variable.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import datagen
from .detector import Detector, DetectorConfig, grid_search_thresholds, run_stream
from .errors import ConfigError, GocpdError, check_keys, is_int
from .fileio import (numbered_jsonl, read_json, read_series_csv, write_json,
                     write_jsonl, write_series_csv)
from .metrics import (aggregate_instrumentation, match_detections, rates,
                      summary_markdown)


def _load_script(args) -> datagen.RegimeScript:
    if args.preset:
        return datagen.standard_script(args.preset, seed=args.seed)
    doc = read_json(args.script)
    required = ("length", "change_locations", "vary", "factors")
    check_keys(doc, f"{args.script}: script", required + ("seed", "base"), required)
    return datagen.RegimeScript(**{name: doc[name] for name in required},
                                seed=doc.get("seed", args.seed),
                                base_params=datagen.base_params(doc.get("base", {})))


def cmd_generate(args) -> int:
    script = _load_script(args)
    window, truth = datagen.sample_piecewise_gp(script)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_series_csv(out / "series.csv", window)
    write_json(out / "truth.json", {
        "locations": truth,
        "seed": script.seed,
        "vary": script.vary,
        "length": script.length,
    })
    print(f"wrote {len(window)} points, {len(truth)} change locations -> {out}")
    return 0


def _read_truth(path) -> list[int]:
    """The ``locations`` of a truth JSON file, which must be a list of integers."""
    doc = read_json(path)
    locations = doc.get("locations") if isinstance(doc, dict) else None
    if not (isinstance(locations, list) and all(map(is_int, locations))):
        raise ConfigError(f"{path}: truth must be an object whose locations is a list of integers")
    return locations


def _perturbed_model(config: DetectorConfig, seed: int) -> DetectorConfig:
    """Randomize the model initialization for one repetition run: scale
    ``lengthscale``, ``output_scale`` and ``noise_std`` by ``exp(0.05 z)``."""
    rng = np.random.default_rng(seed)
    doc = config.to_dict()
    model = doc["model"]
    for name in ("lengthscale", "output_scale", "noise_std"):
        model[name] = float(model[name] * np.exp(0.05 * rng.standard_normal()))
    return DetectorConfig.from_dict(doc)


def _detect_once(series, config: DetectorConfig, out: Path, seed: int, data_path) -> int:
    events, records = run_stream(series, config)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"kind": "meta", "seed": seed, "config": config.to_dict(),
            "data": str(data_path), "points": len(series)}
    write_jsonl(out / "events.jsonl", [meta] + [e.to_dict() for e in events])
    write_jsonl(out / "instrumentation.jsonl", [meta] + records)
    write_json(out / "meta.json", meta)
    _write_plot_csv(out / "plot.csv", records)
    print(f"{len(events)} detections -> {out}")
    for event in events:
        print(f"  change at t={event.change_point} declared at t={event.declared_at}")
    return len(events)


def cmd_detect(args) -> int:
    config = DetectorConfig.from_dict(read_json(args.config))
    if args.reps > 1 and config.model.family == "iid" and not config.model.fix_noise:
        raise ConfigError(f"--reps {args.reps}: an IID model with learned noise reads none of "
                          "the values --reps varies, so its runs cannot differ; set "
                          "model.fix_noise or use --reps 1")
    series = read_series_csv(args.data)
    if args.standardize:
        series, _ = datagen.standardize(series)

    if args.tune:
        if not args.truth:
            raise ConfigError("--tune requires --truth with labeled change locations")
        truth = _read_truth(args.truth)
        nu_grid = (1.02, 1.05, 1.1, 1.2, 1.4, 1.7, 2.0)
        config = grid_search_thresholds(series, truth, config, nu_grid,
                                        train_frac=args.train_frac,
                                        tolerance=args.tolerance)
        print(f"tuned thresholds: nu1={config.nu1} nu2={config.nu2} k_max={config.k_max}")

    out = Path(args.out)
    if args.reps == 1:
        _detect_once(series, config, out, args.seed, args.data)
        return 0
    # repetition runs randomize the model initialization, one directory each
    for rep in range(args.reps):
        seed = args.seed + rep
        _detect_once(series, _perturbed_model(config, seed),
                     out / f"run{rep:02d}", seed, args.data)
    return 0


def _write_plot_csv(path, instrumentation: list[dict]) -> None:
    import csv

    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "candidate", "distance_left", "distance_right",
                         "k", "criterion"])
        for record in instrumentation:
            if not record.get("searched"):
                continue
            writer.writerow([
                record["t"], record["candidate"],
                record["distance_left"], record["distance_right"],
                record["k"], int(bool(record["criterion"])),
            ])


def _events_from(path: Path) -> list[int]:
    """The change points of the detection records of an events JSONL file."""
    detected = []
    for lineno, record in numbered_jsonl(path):
        if not isinstance(record, dict):
            raise ConfigError(f"{path}: line {lineno}: a record must be a JSON object")
        if record.get("kind") == "detection":
            change_point = record.get("change_point")
            if not is_int(change_point):
                raise ConfigError(f"{path}: line {lineno}: a detection record needs an "
                                  f"integer change_point, got {change_point!r}")
            detected.append(change_point)
    return detected


def cmd_score(args) -> int:
    truth = _read_truth(args.truth)
    events_path = Path(args.events)
    if events_path.is_dir():
        run_files = sorted(events_path.glob("*/events.jsonl"))
        if not run_files:
            raise ConfigError(f"{events_path}: no */events.jsonl runs found")
    else:
        run_files = [events_path]

    rows = []
    for run_file in run_files:
        detected = _events_from(run_file)
        report = match_detections(truth, detected, args.tolerance)
        tpr, ppv, fdr = rates(report)
        rows.append({
            "run": run_file.parent.name or run_file.name,
            "TP": report.true_positives, "FP": report.false_positives,
            "FN": report.false_negatives,
            "TPR": tpr, "PPV": ppv, "FDR": fdr,
            "note": "no detections (PPV vacuous)" if not detected else "",
        })
    if len(rows) > 1:
        rows.append({
            "run": "mean", "TP": "", "FP": "", "FN": "",
            "TPR": float(np.mean([r["TPR"] for r in rows])),
            "PPV": float(np.mean([r["PPV"] for r in rows])),
            "FDR": float(np.mean([r["FDR"] for r in rows])),
            "note": "",
        })
    table = summary_markdown(rows, ["run", "TP", "FP", "FN", "TPR", "PPV", "FDR", "note"])
    print(table)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "summary.json", {"tolerance": args.tolerance, "runs": rows})
        (out / "summary.md").write_text(table + "\n")
    return 0


def cmd_bench(args) -> int:
    started = time.perf_counter()
    config = DetectorConfig.from_dict(read_json(args.config))
    series = read_series_csv(args.data)
    read_s = time.perf_counter() - started
    Detector(config)  # a learned GP imports scipy when first built; keep that out of wall_s
    runs = []
    for _ in range(args.reps):
        started = time.perf_counter()
        events, instrumentation = run_stream(series, config)
        elapsed = time.perf_counter() - started
        summary = aggregate_instrumentation(instrumentation)
        summary["wall_s"] = elapsed
        summary["wall_s_per_point"] = elapsed / len(series)
        summary["detections"] = len(events)
        runs.append(summary)
    result = {
        "points": len(series),
        "reps": args.reps,
        "read_s": read_s,
        "wall_s_per_point": float(np.mean([r["wall_s_per_point"] for r in runs])),
        "runs": runs,
    }
    print(f"{len(series)} points, {args.reps} rep(s): read {read_s*1e3:.1f} ms, "
          f"{result['wall_s_per_point']*1e3:.2f} ms/point; "
          f"interval {runs[0]['interval']['mean']:.0f}+-{runs[0]['interval']['std']:.0f}, "
          f"effective {runs[0]['effective']['mean']:.0f}+-{runs[0]['effective']['std']:.0f}, "
          f"evaluations {runs[0]['evaluations']['mean']:.1f}+-{runs[0]['evaluations']['std']:.1f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "bench.json", result)
    return 0


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gocpd",
        description="Greedy online change point detection over CSV streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="render a regime script to CSV + truth JSON")
    group = p_gen.add_mutually_exclusive_group(required=True)
    group.add_argument("--script", help="regime script JSON path")
    group.add_argument("--preset", choices=tuple(datagen.FACTOR_TABLES),
                       help="bundled 1000-point script varying one hyperparameter")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=cmd_generate)

    p_det = sub.add_parser("detect", help="run the detector over a series CSV")
    p_det.add_argument("--data", required=True, help="series CSV path")
    p_det.add_argument("--config", required=True, help="detector config JSON path")
    p_det.add_argument("--out", required=True, help="output directory")
    p_det.add_argument("--seed", type=int, default=0, help="recorded in artifacts")
    p_det.add_argument("--reps", type=_positive_int, default=1,
                       help="repetition runs with randomized model initialization")
    p_det.add_argument("--standardize", action="store_true",
                       help="standardize each channel before detection")
    p_det.add_argument("--tune", action="store_true",
                       help="grid-search nu1/nu2 on the train split before detecting")
    p_det.add_argument("--truth", help="truth JSON (required with --tune)")
    p_det.add_argument("--train-frac", type=float, default=0.3)
    p_det.add_argument("--tolerance", type=int, default=25)
    p_det.set_defaults(func=cmd_detect)

    p_score = sub.add_parser("score", help="score events against truth locations")
    p_score.add_argument("--events", required=True,
                         help="events JSONL, or a directory of run subdirectories")
    p_score.add_argument("--truth", required=True, help="truth JSON path")
    p_score.add_argument("--tolerance", type=int, default=25)
    p_score.add_argument("--out", help="directory for summary.json / summary.md")
    p_score.set_defaults(func=cmd_score)

    p_bench = sub.add_parser("bench", help="measure detection wall time per point")
    p_bench.add_argument("--data", required=True)
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--reps", type=_positive_int, default=1)
    p_bench.add_argument("--out")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("GOCPD_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GocpdError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
