import pytest

from bench_pairs import summarize


def test_summary_counts_pairs_in_the_metric_direction():
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [8.0, 12.0, 10.0, 14.0, 7.0]
    lower = summarize(parent, change, "lower")
    # Inclusive quartiles of 9..13 are 10 and 12; of 7, 8, 10, 12, 14 they are 8 and 12.
    assert lower["parent"] == {"median": 11.0, "q1": 10.0, "q3": 12.0, "iqr": 2.0,
                               "runs": parent}
    assert lower["change"] == {"median": 10.0, "q1": 8.0, "q3": 12.0, "iqr": 4.0,
                               "runs": change}
    # 8 < 10, 10 < 11 and 7 < 9 win; the tie at 12 counts for neither side.
    assert lower["change_better_pairs"] == 3 and lower["better"] == "lower"
    assert lower["median_change_over_parent"] == pytest.approx(10.0 / 11.0, rel=1e-15)
    higher = summarize(parent, change, "higher")
    assert higher["change_better_pairs"] == 1  # 14 > 13 alone
    assert higher["parent"] == lower["parent"] and higher["better"] == "higher"
