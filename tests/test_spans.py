"""perfbench's tracer still finds every layer it wraps.

``perfbench/spans.py`` replaces entry points by name: ``Detector.step`` and
``criterion``, ``gocpd.detector.ternary_argmax``, ``SplitScorer.evaluate``,
``TimeSeriesWindow.extend``, ``models.cholesky`` and the ``fit`` of each
model instance. A rename or a call that bypasses one of them leaves its
span empty and the traced coverage short. The check runs in a fresh
interpreter, since installing the tracer rebinds names for the whole
process. This file only reads ``perfbench/``.
"""

from pathlib import Path

from conftest import run_python

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")

ALWAYS = ("detector.step", "detector.criterion", "search.ternary_argmax",
          "search.evaluate", "window.extend", "models.m0.fit")


def test_tracer_records_every_layer_on_iid_and_fixed_gp(tmp_path):
    out = run_python(f"""
import json, sys
sys.path.insert(0, {PERFBENCH!r})
from spans import Tracer
from workloads import WORKLOADS
from gocpd.datagen import step_example
from gocpd.detector import Detector, DetectorConfig, stream_batches

tracer = Tracer()
tracer.install_layers()
out = {{}}
for workload in ("iid_mean_changes", "gp_rbf_fixed"):
    tracer.reset()
    detector = Detector(DetectorConfig.from_dict(WORKLOADS[workload]["config"]))
    tracer.install_detector(detector)
    for batch in stream_batches(step_example(), 1):
        detector.step(batch)
    records = detector.instrumentation
    out[workload] = {{
        "calls": {{name: span["calls"] for name, span in tracer.summary()["spans"].items()}},
        "searched": sum(r["searched"] for r in records),
        "evals": sum(r["evals"] for r in records),
        "tables": detector.m0.prefix is not None and detector.m0.prefix.scores is not None}}
print(json.dumps(out))
""", tmp_path)
    for workload, extra in (("iid_mean_changes", "models.split.fit"),
                            ("gp_rbf_fixed", "models.cholesky")):
        calls = out[workload]["calls"]
        assert calls["detector.step"] == 101, workload
        for name in ALWAYS + (extra,):
            assert calls.get(name, 0) > 0, (workload, name)
    # The fixed GP reads every split from m0's score tables. The tables are
    # built inside m0.fit and read inside evaluate, so neither span empties.
    gp = out["gp_rbf_fixed"]
    assert gp["tables"]
    assert gp["calls"]["search.evaluate"] >= gp["evals"] > 0
    assert gp["calls"]["models.m0.fit"] >= gp["searched"] > 0
