import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gocpd.datagen import step_example
from gocpd.detector import DetectorConfig, run_stream
from gocpd.errors import EmptyLog
from gocpd.metrics import (MatchReport, aggregate_instrumentation,
                           evaluation_count_bound, match_detections, rates,
                           summary_markdown)


def test_match_within_tolerance():
    r = match_detections([50], [51], tolerance=5)
    assert (r.true_positives, r.false_positives, r.false_negatives) == (1, 0, 0)
    assert r.pairs == [(50, 51)]


def test_missed_change_is_false_negative():
    r = match_detections([50], [], tolerance=5)
    assert (r.true_positives, r.false_positives, r.false_negatives) == (0, 0, 1)


def test_hand_enumerated_matching():
    r = match_detections([50, 100], [52, 53, 150], tolerance=5)
    assert (r.true_positives, r.false_positives, r.false_negatives) == (1, 2, 1)
    assert r.pairs == [(50, 52)]


def test_tie_breaks_toward_earlier_true_change():
    r = match_detections([50, 60], [55], tolerance=5)
    assert r.pairs == [(50, 55)]


def test_each_side_matched_at_most_once():
    r = match_detections([50], [49, 51], tolerance=5)
    assert r.true_positives == 1
    assert r.false_positives == 1


def test_matching_shift_invariant():
    a = match_detections([50, 100], [52, 97], tolerance=5)
    b = match_detections([1050, 1100], [1052, 1097], tolerance=5)
    assert a.true_positives == b.true_positives
    assert [(c + 1000, d + 1000) for c, d in a.pairs] == b.pairs


def test_rates_basic():
    tpr, ppv, fdr = rates(MatchReport(6, 0, 1, []))
    assert tpr == pytest.approx(6 / 7)
    assert ppv == 1.0
    assert fdr == 0.0


def test_rates_table_style():
    tpr, ppv, fdr = rates(MatchReport(7, 2, 0, []))
    assert tpr == 1.0
    assert ppv == pytest.approx(7 / 9, abs=0.005)
    assert fdr == pytest.approx(1 - 7 / 9)


def test_rates_vacuous_case():
    assert rates(MatchReport(0, 0, 0, [])) == (1.0, 1.0, 0.0)


@given(st.lists(st.integers(0, 1000), max_size=8),
       st.lists(st.integers(0, 1000), max_size=8))
@settings(max_examples=200, deadline=None)
def test_match_counts_are_consistent(truth, detected):
    r = match_detections(truth, detected, tolerance=10)
    assert r.true_positives + r.false_negatives == len(set(truth))
    assert r.true_positives + r.false_positives == len(detected)
    tpr, ppv, fdr = rates(r)
    assert 0.0 <= tpr <= 1.0
    assert 0.0 <= ppv <= 1.0
    assert fdr == pytest.approx(1.0 - ppv)


def test_unmatched_detection_decreases_ppv_keeps_tpr():
    base = match_detections([100, 200], [101, 199], tolerance=5)
    more = match_detections([100, 200], [101, 199, 500], tolerance=5)
    assert rates(more)[0] == rates(base)[0]
    assert rates(more)[1] < rates(base)[1]


def test_duplicate_truth_locations_collapse():
    r = match_detections([50, 50], [50], tolerance=3)
    assert r.true_positives + r.false_negatives == 1


# -- instrumentation aggregation ------------------------------------------------

def record(t, interval, effective, evals, domain, elapsed=0.01, searched=True):
    return {"t": t, "interval": interval, "effective": effective,
            "evals": evals, "domain_size": domain, "elapsed_s": elapsed,
            "searched": searched}


def test_aggregate_constant_entries_have_zero_std():
    log = [record(t, 50, 10, 5, 40) for t in range(10, 20)]
    summary = aggregate_instrumentation(log)
    assert summary["interval"]["mean"] == 50
    assert summary["interval"]["std"] == 0.0
    assert summary["evaluations"]["std"] == 0.0
    assert summary["iterations"] == 10


def test_aggregate_skips_non_search_records():
    log = [record(1, 0, 0, 0, 0, searched=False),
           record(2, 30, 5, 4, 20)]
    summary = aggregate_instrumentation(log)
    assert summary["iterations"] == 1


def test_aggregate_empty_log_raises():
    with pytest.raises(EmptyLog):
        aggregate_instrumentation([])
    with pytest.raises(EmptyLog):
        aggregate_instrumentation([record(1, 0, 0, 0, 0, searched=False)])


def test_aggregate_derives_no_per_point_time_from_batch_ends():
    # At batch_size 10 the 101-point step example has records at
    # t = 9, 19, ..., 99, 100: their span is 92 timestamps, not 101 points.
    config = DetectorConfig(batch_size=10, t_ini=10, wait=10)
    _, records = run_stream(step_example(), config)
    assert [r["t"] for r in records][:2] == [9, 19] and records[-1]["t"] == 100
    summary = aggregate_instrumentation(records)
    assert set(summary) == {"iterations", "interval", "effective", "evaluations",
                            "domain", "total_elapsed_s"}
    assert summary["total_elapsed_s"] == pytest.approx(sum(r["elapsed_s"] for r in records))


def test_aggregate_eval_bound_relationship():
    # mean evals should respect the logarithmic bound on mean domain size
    log = [record(t, 200 + t, 40, 6, 35) for t in range(50)]
    summary = aggregate_instrumentation(log)
    bound = 3 * (math.ceil(math.log(summary["domain"]["mean"], 1.5)) + 1)
    assert summary["evaluations"]["mean"] <= bound


def test_evaluation_count_bound_values():
    assert evaluation_count_bound(1) == 3
    assert evaluation_count_bound(2) == 3 * (math.ceil(math.log(2, 1.5)) + 1)
    assert evaluation_count_bound(100) == 3 * (math.ceil(math.log(100, 1.5)) + 1)


def test_summary_markdown_layout():
    rows = [{"run": "a", "TPR": 0.5, "PPV": 1.0}]
    table = summary_markdown(rows, ["run", "TPR", "PPV"])
    lines = table.splitlines()
    assert lines[0] == "| run | TPR | PPV |"
    assert lines[1] == "| --- | --- | --- |"
    assert lines[2] == "| a | 0.500 | 1.000 |"
