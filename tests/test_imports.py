"""Import boundary: scipy is loaded by GP models only.

Each check runs in a fresh interpreter, since the test process has long
since imported scipy.
"""

from conftest import run_python


SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_iid_detection_never_loads_scipy(tmp_path):
    out = run_python(f"""
import json, sys
import gocpd, gocpd.cli
from gocpd import DetectorConfig, ModelSpec, run_stream, step_example
from gocpd.fileio import read_series_csv, write_series_csv
write_series_csv("step.csv", step_example())
config = DetectorConfig(nu1=1.05, nu2=1.2, k_max=5, t_ini=30, wait=80,
                        model=ModelSpec(family="iid", noise_std=0.1, fix_noise=True))
events, _ = run_stream(read_series_csv("step.csv"), config)
print(json.dumps({{"events": len(events), "scipy": {SCIPY_LOADED}}}))
""", tmp_path)
    assert out == {"events": 1, "scipy": []}


def test_building_a_gp_detector_loads_scipy_linalg(tmp_path):
    out = run_python(f"""
import json, sys
from gocpd import Detector, DetectorConfig, ModelSpec
before = {SCIPY_LOADED}
Detector(DetectorConfig(nu1=1.05, nu2=1.2, k_max=5, t_ini=30, wait=80,
                        model=ModelSpec(family="gp", fix_kernel=True, fix_noise=True)))
print(json.dumps({{"before": before, "after": "scipy.linalg" in sys.modules}}))
""", tmp_path)
    assert out == {"before": [], "after": True}


def test_gp_code_calls_the_module_level_factorizations(tmp_path):
    # Wrappers installed on gocpd.models (as a tracer does) see every call,
    # and building a model rebinds neither name.
    out = run_python("""
import json
import numpy as np
from gocpd import (DetectorConfig, GaussianProcessModel, Kernel, ModelParams, ModelSpec,
                   TimeSeriesWindow, run_stream, step_example)
from gocpd import models
names = (models.cholesky, models.chol_with_jitter)
counts = {"cholesky": 0, "chol_with_jitter": 0}

def counting(name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper

wrappers = (counting("cholesky", models.cholesky),
            counting("chol_with_jitter", models.chol_with_jitter))
models.cholesky, models.chol_with_jitter = wrappers
config = DetectorConfig(nu1=1.05, nu2=1.2, k_max=5, t_ini=30, wait=80, model=ModelSpec(
    family="gp", noise_std=0.1, fix_kernel=True, fix_output_scale=True, fix_noise=True))
run_stream(step_example(), config)
grid = dict(counts)
model = GaussianProcessModel(ModelParams(mean=[0.0], noise_std=0.5, kernel=Kernel.RBF),
                             max_fit_iters=1)
model.fit(TimeSeriesWindow(np.arange(20.0), np.sin(np.arange(20.0))))
print(json.dumps({"grid": grid, "all": counts,
                  "kept": (models.cholesky, models.chol_with_jitter) == wrappers,
                  "module": [f.__module__ for f in names]}))
""", tmp_path)
    assert out["module"] == ["gocpd.models", "gocpd.models"]
    assert out["kept"]
    assert out["grid"]["cholesky"] > 0  # m0's grid factor grows
    assert out["all"]["chol_with_jitter"] > 0
    assert out["all"]["cholesky"] > out["grid"]["cholesky"]
