"""Seed 0 of perfbench workloads against the recorded references.

Both gated workloads replay in full, and ``gp_rbf_learned`` replays its
first stream. The streams come from ``perfbench/workloads.py`` and are
replayed through ``run_stream``. The events must equal the recorded ones exactly, and the
search fingerprint must match by ``perfbench/run.py``'s own comparison, so a
change that moves a single candidate fails here as well as in perfbench.
This file only reads ``perfbench/``.
"""

import json
import sys
from pathlib import Path

import pytest

from gocpd.detector import DetectorConfig, run_stream

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from replay import fingerprint  # noqa: E402
from run import same_fingerprint  # noqa: E402
from workloads import WORKLOADS, streams  # noqa: E402


# Per stream of seed 0, the split evaluations the search made, summed over
# its records. The references pin candidates and distances but not this
# effort, so a search that finds the same candidates with more evaluations
# fails here.
EVALS = {
    "iid_mean_changes": [13162, 13289, 13508, 12595, 13059, 13440, 12714, 14961, 14461, 12066],
    "gp_rbf_fixed": [2157, 2158, 2144],
}


def assert_replays(workload: str, count: int | None = None) -> list:
    """Replay the first ``count`` streams of seed 0 (all when None) and
    return their records."""
    reference = json.loads((PERFBENCH / "references.json").read_text())[workload]["0"]
    config = DetectorConfig.from_dict(WORKLOADS[workload]["config"])
    replayed = [run_stream(window, config) for window, _ in streams(workload, 0)[:count]]
    assert len(replayed) == len(reference["events"][:count])
    for i, (events, records) in enumerate(replayed):
        assert [[e.change_point, e.declared_at] for e in events] == reference["events"][i]
        got = fingerprint(records)
        assert same_fingerprint(got, reference["fingerprints"][i]), (i, got)
    return [records for _, records in replayed]


@pytest.mark.parametrize("workload", ["iid_mean_changes", "gp_rbf_fixed"])
def test_seed_zero_replays_to_the_recorded_reference(workload):
    replayed = assert_replays(workload)
    assert [sum(r["evals"] for r in records) for records in replayed] == EVALS[workload]


def test_learned_gp_stream_zero_replays_to_the_recorded_reference():
    # The learned-hyperparameter path fits every split with a dense factor;
    # its first stream alone takes a few seconds.
    assert_replays("gp_rbf_learned", count=1)
