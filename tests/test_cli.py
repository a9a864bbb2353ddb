import json

import numpy as np
import pytest

from gocpd.cli import main
from gocpd.datagen import step_example
from gocpd.detector import DetectorConfig, ModelSpec
from gocpd.fileio import (read_jsonl, read_series_csv, write_json,
                          write_series_csv)
from gocpd.window import TimeSeriesWindow


def step_config_doc():
    return DetectorConfig(
        nu1=1.05, nu2=1.2, k_max=5, t_ini=30, wait=80, batch_size=1,
        model=ModelSpec(family="iid", noise_std=0.1, fix_noise=True,
                        min_fit_points=3),
    ).to_dict()


@pytest.fixture
def step_csv(tmp_path):
    path = tmp_path / "step.csv"
    write_series_csv(path, step_example())
    return path


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    write_json(path, step_config_doc())
    return path


# -- fileio round trips ----------------------------------------------------------

def test_series_csv_round_trip(tmp_path):
    w = step_example()
    path = tmp_path / "series.csv"
    write_series_csv(path, w)
    back = read_series_csv(path)
    assert np.array_equal(back.outputs, w.outputs)
    assert np.array_equal(back.inputs, w.inputs)
    assert back.start_index == w.start_index
    header = path.read_text().splitlines()[0]
    assert header == "t,x0,y0"


def test_series_csv_reports_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x0,y0\n0,0.0,1.0\n1,oops,2.0\n")
    with pytest.raises(ValueError, match="row 3"):
        read_series_csv(path)


def test_series_csv_rejects_gaps(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("t,x0,y0\n0,0.0,1.0\n2,2.0,2.0\n")
    with pytest.raises(ValueError, match="contiguous"):
        read_series_csv(path)


# -- generate ----------------------------------------------------------------------

def test_generate_preset_writes_series_and_truth(tmp_path, capsys):
    out = tmp_path / "gen"
    rc = main(["generate", "--preset", "mean", "--seed", "3", "--out", str(out)])
    assert rc == 0
    series = read_series_csv(out / "series.csv")
    assert len(series) == 1000
    truth = json.loads((out / "truth.json").read_text())
    assert truth["locations"] == [60, 150, 240, 450, 650, 800, 890]
    assert truth["seed"] == 3


def test_generate_same_seed_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--preset", "mean", "--seed", "5", "--out", str(out_a)]) == 0
    assert main(["generate", "--preset", "mean", "--seed", "5", "--out", str(out_b)]) == 0
    assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()


def test_generate_custom_script(tmp_path):
    script = {"length": 150, "change_locations": [0, 70], "vary": "mean",
              "factors": [0.0, 3.0], "seed": 1}
    spath = tmp_path / "script.json"
    write_json(spath, script)
    out = tmp_path / "gen"
    assert main(["generate", "--script", str(spath), "--out", str(out)]) == 0
    truth = json.loads((out / "truth.json").read_text())
    assert truth["locations"] == [70]


def test_generate_empty_script_errors(tmp_path, capsys):
    spath = tmp_path / "empty.json"
    spath.write_text("")
    rc = main(["generate", "--script", str(spath), "--out", str(tmp_path / "x")])
    assert rc != 0
    assert "error:" in capsys.readouterr().err


def test_generate_script_must_be_an_object(tmp_path, capsys):
    spath = tmp_path / "list.json"
    write_json(spath, [{"preset": "mean"}])
    rc = main(["generate", "--script", str(spath), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert f"error: {spath}: script must be a JSON object" in capsys.readouterr().err


def test_generate_script_missing_fields(tmp_path, capsys):
    spath = tmp_path / "partial.json"
    write_json(spath, {"length": 100})
    rc = main(["generate", "--script", str(spath), "--out", str(tmp_path / "x")])
    assert rc != 0
    err = capsys.readouterr().err
    assert "change_locations" in err


@pytest.mark.parametrize("field, value", [
    ("length", "1000"), ("length", 1000.5),
    ("change_locations", [0, "500"]), ("factors", [0, "x"]),
])
def test_generate_script_bad_field_is_named(tmp_path, capsys, field, value):
    script = {"length": 1000, "change_locations": [0, 500], "vary": "mean",
              "factors": [0, 1], field: value}
    spath = tmp_path / "script.json"
    write_json(spath, script)
    rc = main(["generate", "--script", str(spath), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert f"error: {field} must be" in capsys.readouterr().err


@pytest.mark.parametrize("base, named", [
    ([0.1], "base must be"),
    ({"nosie_std": 0.1}, "error: base has unknown field(s): nosie_std (known: lengthscale,"),
    ({"noise_std": "0.1"}, "base.noise_std must be"), ({"mean": "1"}, "base.mean must be"),
    ({"mean": float("nan")}, "base.mean must be"), ({"lengthscale": True}, "base.lengthscale"),
    ({"kernel": 5}, "error: base.kernel must be one of rbf, dirac, got 5"),
    ({"kernel": "matern"}, "error: base.kernel must be"),
    ({"noise_std": -1}, "error: base.noise_std must be > 0"),
    ({"lengthscale": 0}, "error: base.lengthscale must be > 0"),
])
def test_generate_script_bad_base_is_named(tmp_path, capsys, base, named):
    script = {"length": 1000, "change_locations": [0, 500], "vary": "mean",
              "factors": [0, 1], "base": base}
    spath = tmp_path / "script.json"
    spath.write_text(json.dumps(script))
    rc = main(["generate", "--script", str(spath), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("script, named", [
    ({"length": 200, "change_locations": [0, 100], "vary": "mean", "factors": [0, 1],
      "nosie_std": 3}, "unknown field(s): nosie_std"),
    ({"preset": "mean", "sede": 4}, "unknown field(s): preset, sede"),
    ({"preset": "mean", "length": 200, "base": {}}, "unknown field(s): preset (known:"),
])
def test_generate_script_unknown_key_is_named(tmp_path, capsys, script, named):
    spath = tmp_path / "script.json"
    spath.write_text(json.dumps(script))
    rc = main(["generate", "--script", str(spath), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("vary, factor", [("noise_std", 1e308), ("lengthscale", 1e-300)])
def test_generate_script_factor_that_breaks_a_bound_is_named(tmp_path, capsys, vary, factor):
    script = {"length": 200, "change_locations": [0, 100], "vary": vary, "factors": [1, factor]}
    spath = tmp_path / "script.json"
    write_json(spath, script)
    rc = main(["generate", "--script", str(spath), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: factors[1]: {vary} must be > 0, with a")
    assert not (tmp_path / "x").exists()


def test_generate_script_holding_a_preset_names_it(tmp_path, capsys):
    # A bundled series is asked for with --preset NAME --seed N alone.
    spath = tmp_path / "script.json"
    spath.write_text(json.dumps({"preset": "mean", "seed": 4}))
    assert main(["generate", "--script", str(spath), "--out", str(tmp_path / "x")]) == 2
    assert (f"error: {spath}: script has unknown field(s): preset (known: length, "
            "change_locations, vary, factors, seed, base)") in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_generate_script_base_overrides_the_defaults(tmp_path):
    script = {"length": 200, "change_locations": [0, 100], "vary": "mean",
              "factors": [0, 1], "base": {"mean": 2, "noise_std": 0.5, "kernel": "dirac"}}
    spath = tmp_path / "script.json"
    spath.write_text(json.dumps(script))
    assert main(["generate", "--script", str(spath), "--out", str(tmp_path / "x")]) == 0
    y = read_series_csv(tmp_path / "x" / "series.csv").outputs[:, 0]
    # The Dirac kernel's unit variance plus noise 0.5: the second segment has
    # mean 2 and sd sqrt(1.25), about 1.12.
    assert abs(y[100:].mean() - 2.0) < 0.3 and 0.9 < y[100:].std() < 1.35


# -- detect ------------------------------------------------------------------------

def test_detect_step_stream_emits_event_near_fifty(tmp_path, step_csv, config_path, capsys):
    out = tmp_path / "run"
    rc = main(["detect", "--data", str(step_csv), "--config", str(config_path),
               "--out", str(out)])
    assert rc == 0
    events = [r for r in read_jsonl(out / "events.jsonl") if r["kind"] == "detection"]
    assert len(events) == 1
    assert 48 <= events[0]["change_point"] <= 52
    assert (out / "instrumentation.jsonl").exists()
    assert (out / "plot.csv").read_text().splitlines()[0] == \
        "t,candidate,distance_left,distance_right,k,criterion"


def test_detect_missing_config_field_names_it(tmp_path, step_csv, capsys):
    doc = step_config_doc()
    doc.pop("k_max")
    cpath = tmp_path / "broken.json"
    write_json(cpath, doc)
    out = tmp_path / "run"
    rc = main(["detect", "--data", str(step_csv), "--config", str(cpath),
               "--out", str(out)])
    assert rc == 2
    assert "k_max" in capsys.readouterr().err
    assert not out.exists()  # no partial outputs on schema errors


def test_detect_rejects_a_model_mean(tmp_path, step_csv, capsys):
    # Every fit sets its segment means itself, so no prior mean is read.
    doc = step_config_doc()
    doc["model"]["mean"] = [5.0]
    cpath = tmp_path / "mean.json"
    write_json(cpath, doc)
    rc = main(["detect", "--data", str(step_csv), "--config", str(cpath),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "error: config.model has unknown field(s): mean" in capsys.readouterr().err


@pytest.mark.parametrize("command, spoiled", [
    ("detect", "config"), ("detect", "data"), ("score", "events"), ("bench", "config"),
])
def test_input_that_is_not_utf8_is_named(tmp_path, step_csv, config_path, capsys,
                                         command, spoiled):
    run = _write_run(tmp_path, "runs/r0", [51])
    tpath = tmp_path / "truth.json"
    write_json(tpath, {"locations": [50]})
    paths = {"config": config_path, "data": step_csv, "events": run / "events.jsonl"}
    bad, line = paths[spoiled], 2 if spoiled == "data" else 1
    if command == "bench":
        bad.write_bytes(bad.read_text().encode("utf-16"))
    else:  # a 0xff byte in the first line, or in the first data row
        lines = bad.read_bytes().split(b"\n")
        lines[line - 1] += b"\xff"
        bad.write_bytes(b"\n".join(lines))
    argv = {"detect": ["detect", "--data", str(step_csv), "--config", str(config_path),
                       "--out", str(tmp_path / "run")],
            "score": ["score", "--events", str(bad), "--truth", str(tpath)],
            "bench": ["bench", "--data", str(step_csv), "--config", str(config_path)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: line {line}: byte 0x" in err and "is not UTF-8" in err


def test_detect_fractional_batch_size_is_a_config_error(tmp_path, step_csv, capsys):
    doc = step_config_doc()
    doc["batch_size"] = 2.5
    cpath = tmp_path / "fractional.json"
    write_json(cpath, doc)
    rc = main(["detect", "--data", str(step_csv), "--config", str(cpath),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "error: batch_size must be an integer" in capsys.readouterr().err


def test_detect_takes_the_channel_count_from_the_data(tmp_path):
    # The config names no channel count; a 2-channel file runs as it is.
    doc = step_config_doc()
    doc["nu2"] = 1.5
    config_path = tmp_path / "config.json"
    write_json(config_path, doc)
    rng = np.random.default_rng(6)
    y = np.column_stack([
        np.concatenate([rng.normal(0, 0.1, 100), rng.normal(1, 0.1, 100)]),
        np.concatenate([rng.normal(0, 0.1, 100), rng.normal(-1, 0.1, 100)]),
    ])
    dpath = tmp_path / "two.csv"
    write_series_csv(dpath, TimeSeriesWindow(np.arange(200.0), y))
    out = tmp_path / "run"
    rc = main(["detect", "--data", str(dpath), "--config", str(config_path), "--out", str(out)])
    assert rc == 0
    events = [r for r in read_jsonl(out / "events.jsonl") if r["kind"] == "detection"]
    assert [(e["change_point"], e["declared_at"]) for e in events] == [(100, 108)]


@pytest.mark.parametrize("model, field", [
    ({"family": "iid", "noise_std": 1e200, "fix_noise": True}, "noise_std"),
    ({"family": "iid", "noise_std": 10**400, "fix_noise": True}, "noise_std"),
    ({"family": "gp", "output_scale": 1e200, "fix_kernel": True, "fix_noise": True},
     "output_scale"),
    ({"family": "gp", "lengthscale": 1e-200, "fix_kernel": True, "fix_noise": True},
     "lengthscale"),
])
def test_detect_hyperparameter_whose_square_leaves_the_floats_is_named(
        tmp_path, step_csv, capsys, model, field):
    doc = step_config_doc()
    doc["model"] = model
    cpath = tmp_path / "square.json"
    write_json(cpath, doc)
    rc = main(["detect", "--data", str(step_csv), "--config", str(cpath),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: model.{field} must be > 0, with a finite, nonzero square")
    assert not (tmp_path / "run").exists()


def test_detect_standardize_overflowing_channel_is_named(tmp_path, config_path, capsys):
    # Every value is finite, but the channel's mean and spread overflow.
    y = np.column_stack([np.arange(120.0), np.full(120, 1e308)])
    dpath = tmp_path / "huge.csv"
    write_series_csv(dpath, TimeSeriesWindow(np.arange(120.0), y))
    rc = main(["detect", "--data", str(dpath), "--config", str(config_path),
               "--out", str(tmp_path / "run"), "--standardize"])
    assert rc == 2
    assert capsys.readouterr().err == "error: channel 1: its mean or spread overflows a float\n"


def nan_at_forty_csv(tmp_path):
    dpath = tmp_path / "nan.csv"
    write_series_csv(dpath, step_example())
    lines = dpath.read_text().splitlines()
    lines[41] = "40,40.0,nan"
    dpath.write_text("\n".join(lines) + "\n")
    return dpath


def test_detect_non_finite_row_names_its_timestamp(tmp_path, config_path, capsys):
    rc = main(["detect", "--data", str(nan_at_forty_csv(tmp_path)),
               "--config", str(config_path), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "t=40" in capsys.readouterr().err


def test_detect_standardize_non_finite_row_names_its_timestamp(tmp_path, config_path,
                                                               capsys):
    # The NaN must be named before standardizing spreads it over the channel.
    rc = main(["detect", "--data", str(nan_at_forty_csv(tmp_path)),
               "--config", str(config_path), "--out", str(tmp_path / "run"),
               "--standardize"])
    assert rc == 2
    assert "t=40" in capsys.readouterr().err


def test_detect_rerun_byte_identical_events(tmp_path, step_csv, config_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        rc = main(["detect", "--data", str(step_csv), "--config", str(config_path),
                   "--out", str(out), "--seed", "11"])
        assert rc == 0
    assert (out_a / "events.jsonl").read_bytes() == (out_b / "events.jsonl").read_bytes()


def test_detect_stationary_stream_no_events(tmp_path):
    rng = np.random.default_rng(0)
    w = TimeSeriesWindow(np.arange(300.0), rng.normal(size=300))
    dpath = tmp_path / "flat.csv"
    write_series_csv(dpath, w)
    cpath = tmp_path / "config.json"
    write_json(cpath, DetectorConfig().to_dict())
    out = tmp_path / "run"
    assert main(["detect", "--data", str(dpath), "--config", str(cpath),
                 "--out", str(out)]) == 0
    events = [r for r in read_jsonl(out / "events.jsonl") if r["kind"] == "detection"]
    assert events == []


def test_detect_tune_requires_truth(tmp_path, step_csv, config_path, capsys):
    rc = main(["detect", "--data", str(step_csv), "--config", str(config_path),
               "--out", str(tmp_path / "run"), "--tune"])
    assert rc == 2
    assert "--truth" in capsys.readouterr().err


@pytest.mark.parametrize("train_frac", ["2", "0"])
def test_detect_tune_rejects_train_frac_outside_unit_interval(tmp_path, step_csv,
                                                              config_path, capsys,
                                                              train_frac):
    tpath = tmp_path / "truth.json"
    write_json(tpath, {"locations": [50]})
    rc = main(["detect", "--data", str(step_csv), "--config", str(config_path),
               "--out", str(tmp_path / "run"), "--tune", "--truth", str(tpath),
               "--train-frac", train_frac])
    assert rc == 2
    assert "error: train_frac must be in (0, 1]" in capsys.readouterr().err


def test_detect_tune_runs_grid(tmp_path, step_csv, config_path, capsys):
    tpath = tmp_path / "truth.json"
    write_json(tpath, {"locations": [50]})
    out = tmp_path / "run"
    rc = main(["detect", "--data", str(step_csv), "--config", str(config_path),
               "--out", str(out), "--tune", "--truth", str(tpath),
               "--train-frac", "0.8"])
    assert rc == 0
    assert "tuned thresholds" in capsys.readouterr().out


@pytest.mark.parametrize("truth", [{}, {"locations": "abc"}, [1, 2], {"locations": [50.0]}])
@pytest.mark.parametrize("command", ["score", "tune"])
def test_bad_truth_file_is_named(tmp_path, step_csv, config_path, capsys, truth, command):
    tpath = tmp_path / "truth.json"
    write_json(tpath, truth)
    if command == "score":
        run = _write_run(tmp_path, "runs/r0", [51])
        argv = ["score", "--events", str(run / "events.jsonl"), "--truth", str(tpath)]
    else:
        argv = ["detect", "--data", str(step_csv), "--config", str(config_path),
                "--out", str(tmp_path / "run"), "--tune", "--truth", str(tpath)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {tpath}: truth must be an object whose locations is a list of integers" in err


@pytest.mark.parametrize("record, named", [
    ({"kind": "detection"}, "got None"),
    ({"kind": "detection", "change_point": "51"}, "got '51'"),
    ([1, 2], "a record must be a JSON object"),
])
def test_score_bad_detection_record_names_its_line(tmp_path, capsys, record, named):
    run = _write_run(tmp_path, "runs/r0", [51])
    events = run / "events.jsonl"
    events.write_text(events.read_text() + "\n" + json.dumps(record) + "\n")
    tpath = tmp_path / "truth.json"
    write_json(tpath, {"locations": [50]})
    assert main(["score", "--events", str(events), "--truth", str(tpath)]) == 2
    err = capsys.readouterr().err
    assert f"error: {events}: line 4: " in err and named in err  # line 3 is blank


# -- score ---------------------------------------------------------------------------

def _write_run(tmp_path, name, change_points, seed=0):
    run_dir = tmp_path / name
    run_dir.mkdir(parents=True)
    records = [{"kind": "meta", "seed": seed}]
    records += [{"kind": "detection", "change_point": c, "declared_at": c + 10,
                 "candidate_score": 0.0, "distance_left": 1.0, "distance_right": 1.0}
                for c in change_points]
    from gocpd.fileio import write_jsonl
    write_jsonl(run_dir / "events.jsonl", records)
    return run_dir


def test_score_single_run(tmp_path, capsys):
    run = _write_run(tmp_path, "runs/r0", [51])
    tpath = tmp_path / "truth.json"
    write_json(tpath, {"locations": [50]})
    rc = main(["score", "--events", str(run / "events.jsonl"), "--truth", str(tpath),
               "--tolerance", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "TPR" in out and "1.000" in out


def test_score_directory_averages_runs(tmp_path, capsys):
    _write_run(tmp_path, "runs/r0", [51])
    _write_run(tmp_path, "runs/r1", [400])
    tpath = tmp_path / "truth.json"
    write_json(tpath, {"locations": [50]})
    out_dir = tmp_path / "scores"
    rc = main(["score", "--events", str(tmp_path / "runs"), "--truth", str(tpath),
               "--tolerance", "5", "--out", str(out_dir)])
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    runs = {r["run"]: r for r in summary["runs"]}
    assert runs["r0"]["TPR"] == 1.0
    assert runs["r1"]["TPR"] == 0.0
    assert runs["mean"]["TPR"] == pytest.approx(0.5)
    assert (out_dir / "summary.md").exists()


def test_score_directory_without_runs_is_named(tmp_path, capsys):
    empty = tmp_path / "runs"
    empty.mkdir()
    tpath = tmp_path / "truth.json"
    write_json(tpath, {"locations": [50]})
    assert main(["score", "--events", str(empty), "--truth", str(tpath)]) == 2
    assert f"error: {empty}: no */events.jsonl runs found" in capsys.readouterr().err


def test_score_rejects_negative_tolerance(tmp_path, capsys):
    run = _write_run(tmp_path, "runs/r0", [51])
    tpath = tmp_path / "truth.json"
    write_json(tpath, {"locations": [50]})
    rc = main(["score", "--events", str(run / "events.jsonl"), "--truth", str(tpath),
               "--tolerance", "-5"])
    assert rc == 2
    assert "error: tolerance must be >= 0" in capsys.readouterr().err


def test_score_empty_detections_vacuous_precision(tmp_path, capsys):
    run = _write_run(tmp_path, "runs/r0", [])
    tpath = tmp_path / "truth.json"
    write_json(tpath, {"locations": [50]})
    rc = main(["score", "--events", str(run / "events.jsonl"), "--truth", str(tpath)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0.000 | 1.000" in out  # TPR 0, PPV vacuous 1.0
    assert "PPV vacuous" in out


# -- bench ----------------------------------------------------------------------------

def test_detect_standardize_flag(tmp_path, config_path):
    rng = np.random.default_rng(0)
    y = np.concatenate([rng.normal(100, 5, 60), rng.normal(150, 5, 60)])
    w = TimeSeriesWindow(np.arange(120.0), y)
    dpath = tmp_path / "raw.csv"
    write_series_csv(dpath, w)
    doc = step_config_doc()
    doc.update(nu1=1.005, nu2=1.2, k_max=8)
    doc["model"]["noise_std"] = 0.3
    cpath = tmp_path / "cfg.json"
    write_json(cpath, doc)
    out = tmp_path / "run"
    rc = main(["detect", "--data", str(dpath), "--config", str(cpath),
               "--out", str(out), "--standardize"])
    assert rc == 0
    events = [r for r in read_jsonl(out / "events.jsonl") if r["kind"] == "detection"]
    assert len(events) == 1
    assert 55 <= events[0]["change_point"] <= 65


def test_detect_reps_write_separate_run_dirs(tmp_path, step_csv, config_path):
    out = tmp_path / "reps"
    rc = main(["detect", "--data", str(step_csv), "--config", str(config_path),
               "--out", str(out), "--seed", "3", "--reps", "3"])
    assert rc == 0
    run_dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert run_dirs == ["run00", "run01", "run02"]
    seeds = [json.loads((out / d / "meta.json").read_text())["seed"] for d in run_dirs]
    assert seeds == [3, 4, 5]
    # scoring the directory averages across the runs
    tpath = tmp_path / "truth.json"
    write_json(tpath, {"locations": [50]})
    assert main(["score", "--events", str(out), "--truth", str(tpath)]) == 0


def test_detect_reps_on_a_model_they_cannot_vary_is_rejected(tmp_path, step_csv, capsys):
    config = step_config_doc()
    config["model"]["fix_noise"] = False
    path = tmp_path / "learned_noise.json"
    write_json(path, config)
    out = tmp_path / "reps"
    rc = main(["detect", "--data", str(step_csv), "--config", str(path),
               "--out", str(out), "--reps", "3"])
    assert rc == 2
    assert "runs cannot differ" in capsys.readouterr().err
    assert not out.exists()
    # One run of the same model is still fine.
    assert main(["detect", "--data", str(step_csv), "--config", str(path),
                 "--out", str(out)]) == 0


def test_bench_reports_timing(tmp_path, step_csv, config_path, capsys):
    out = tmp_path / "bench"
    rc = main(["bench", "--data", str(step_csv), "--config", str(config_path),
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "ms/point" in text and " read " in text
    result = json.loads((out / "bench.json").read_text())
    assert result["points"] == 101
    assert result["read_s"] > 0
    assert result["runs"][0]["detections"] == 1


@pytest.mark.parametrize("command", ["detect", "bench"])
def test_reps_below_one_is_a_usage_error(tmp_path, step_csv, config_path, capsys, command):
    argv = [command, "--data", str(step_csv), "--config", str(config_path),
            "--out", str(tmp_path / "run"), "--reps", "0"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "error: argument --reps: must be >= 1" in capsys.readouterr().err


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
