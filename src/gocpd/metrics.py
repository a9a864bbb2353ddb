"""Scoring detections against ground truth, and instrumentation summaries.

Matching is greedy nearest-first within a tolerance: each true change pairs
with at most one detection and vice versa. The tolerance default of 25
timestamps is half the minimum segment gap of the bundled synthetic
scripts, which makes every pairing unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyLog


@dataclass
class MatchReport:
    """Outcome of matching detected change points to true locations."""

    true_positives: int
    false_positives: int
    false_negatives: int
    pairs: list[tuple[int, int]]  # (true location, detected location)


def check_tolerance(tolerance) -> None:
    """Raise ValueError unless ``tolerance`` is >= 0; NaN is not."""
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")


def match_detections(truth: list[int], detected: list[int], tolerance: int = 25) -> MatchReport:
    """Greedy nearest matching of detections to true change locations.

    A detection matches a true change when they are within ``tolerance``
    and neither side is already matched; among equally distant options the
    earlier true change wins. Duplicate truth locations count once;
    duplicate detections each count.
    """
    check_tolerance(tolerance)
    truth = sorted(set(truth))
    detected = sorted(detected)
    pairs_by_distance = sorted(
        (abs(d - c), c, d)
        for c in truth
        for d in detected
        if abs(d - c) <= tolerance
    )
    matched_truth: set[int] = set()
    matched_detected: set[int] = set()
    pairs = []
    for _, c, d in pairs_by_distance:
        if c in matched_truth or d in matched_detected:
            continue
        matched_truth.add(c)
        matched_detected.add(d)
        pairs.append((c, d))
    pairs.sort()
    return MatchReport(
        true_positives=len(pairs),
        false_positives=len(detected) - len(pairs),
        false_negatives=len(truth) - len(pairs),
        pairs=pairs,
    )


def rates(report: MatchReport) -> tuple[float, float, float]:
    """(TPR, PPV, FDR) with vacuous cases scored as perfect.

    TPR with no true changes and PPV with no detections are both defined
    as 1.0; FDR is exactly ``1 - PPV``.
    """
    tp, fp, fn = report.true_positives, report.false_positives, report.false_negatives
    tpr = 1.0 if (tp + fn) == 0 else tp / (tp + fn)
    ppv = 1.0 if (tp + fp) == 0 else tp / (tp + fp)
    return tpr, ppv, 1.0 - ppv


def aggregate_instrumentation(records: list[dict]) -> dict:
    """Per-run summary of search effort.

    Uses the iterations that actually ran a search. Reports mean and
    standard deviation of the raw interval since the last change, the
    effective interval behind the saved candidate, and the number of
    metric evaluations, plus the total wall time over all records. The
    records do not give the stream's length, so no per-point time is
    derived here; ``gocpd bench`` divides by the series length.
    """
    searched = [r for r in records if r.get("searched")]
    if not searched:
        raise EmptyLog("no search iterations in instrumentation log")

    def stats(name: str) -> dict:
        values = np.array([float(r[name]) for r in searched])
        return {"mean": float(values.mean()), "std": float(values.std())}

    elapsed = sum(r["elapsed_s"] or 0.0 for r in records)
    return {
        "iterations": len(searched),
        "interval": stats("interval"),
        "effective": stats("effective"),
        "evaluations": stats("evals"),
        "domain": stats("domain_size"),
        "total_elapsed_s": float(elapsed),
    }


def evaluation_count_bound(domain_size: int) -> int:
    """Cap on metric evaluations for one search over ``domain_size`` points."""
    if domain_size <= 1:
        return 3
    return 3 * (math.ceil(math.log(domain_size, 1.5)) + 1)


def summary_markdown(rows: list[dict], columns: list[str]) -> str:
    """Render score rows as a small Markdown table of ``columns``."""
    lines = ["| " + " | ".join(columns) + " |",
             "| " + " | ".join("---" for _ in columns) + " |"]
    for row in rows:
        cells = []
        for name in columns:
            value = row.get(name, "")
            cells.append(f"{value:.3f}" if isinstance(value, float) else str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
