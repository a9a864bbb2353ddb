"""Runtime span tracing of gocpd's layers, installed from outside the package.

The ``Tracer.install_*`` methods replace the layers' entry points with
wrappers that record one span per call (name, start, end, parent span) into
flat arrays; ``Tracer.summary`` aggregates them at the end. A span's self time is its
duration minus the durations of its direct child spans. Counters that need
the call's arguments or result (cache hits, bytes copied, Cholesky sizes,
jitter retries) are kept next to the spans.

Names follow ``<module>.<entry>``; the models of a detector are split into
``models.m0.*`` (the single-model hypothesis) and ``models.split.*`` (the
two segment models) by wrapping each instance.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

FILEIO_ENTRIES = ("read_series_csv", "write_series_csv", "read_json",
                  "write_json", "read_jsonl", "write_jsonl")
MODEL_ENTRIES = {"fit": "fit", "log_likelihood": "log_likelihood",
                 "modified_mahalanobis": "mahalanobis"}
FIT_SPANS = ("models.m0.fit", "models.split.fit")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.fit_depth = 0

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span; ``before``/``after`` see the call."""
        nid = self._id(name)
        name_id, parent, start, end, stack = (self.name_id, self.parent,
                                              self.start, self.end, self.stack)

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def reset(self) -> None:
        """Drop recorded spans and counters, keeping installed wrappers."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.counts.clear()

    # -- installation ----------------------------------------------------------

    def install_fileio(self) -> None:
        import gocpd.fileio as fileio

        def count_bytes(args, kwargs, result):
            self.counts["fileio.bytes_written"] += os.path.getsize(args[0])

        for entry in FILEIO_ENTRIES:
            after = count_bytes if entry.startswith("write") else None
            setattr(fileio, entry, self.wrap(f"fileio.{entry}",
                                             getattr(fileio, entry), after=after))

    def install_layers(self) -> None:
        """Wrap the class- and module-level entry points of every layer."""
        import gocpd.detector as detector
        import gocpd.models as models
        import gocpd.search as search
        import gocpd.window as window

        cls = detector.Detector
        cls.step = self.wrap("detector.step", cls.step)
        cls.criterion = self.wrap("detector.criterion", cls.criterion)
        detector.ternary_argmax = self.wrap("search.ternary_argmax",
                                            detector.ternary_argmax)

        def count_hit(args, kwargs):
            scorer, tau = args[0], (args[1] if len(args) > 1 else kwargs["tau"])
            self.counts["search.evaluate.calls"] += 1
            self.counts["search.evaluate.hits"] += tau in scorer.cache

        search.SplitScorer.evaluate = self.wrap("search.evaluate",
                                                search.SplitScorer.evaluate,
                                                before=count_hit)

        def copied(args, kwargs, result):
            source = args[0]
            if not np.may_share_memory(result.outputs, source.outputs):
                self.counts["window.bytes_copied"] += (result.inputs.nbytes
                                                       + result.outputs.nbytes)

        win = window.TimeSeriesWindow
        win.extend = self.wrap("window.extend", win.extend, after=copied)
        win.slice = self.wrap("window.slice", win.slice, after=copied)

        models.chol_with_jitter = self.wrap("models.chol_with_jitter",
                                            models.chol_with_jitter)
        raw_cholesky = models.cholesky

        def cholesky(mat, *args, **kwargs):
            n = len(mat)
            self.counts["models.cholesky.flops"] += n ** 3 / 3.0
            if self.fit_depth:
                self.counts["models.cholesky.in_fit"] += 1
            try:
                return raw_cholesky(mat, *args, **kwargs)
            except np.linalg.LinAlgError:
                self.counts["models.cholesky.jitter_retries"] += 1
                raise

        models.cholesky = self.wrap("models.cholesky", cholesky)

    def install_detector(self, det) -> None:
        """Wrap the model instances of one detector, splitting m0 from m1/m2."""
        for attr, group in (("m0", "m0"), ("m1", "split"), ("m2", "split")):
            model = getattr(det, attr)
            for entry, label in MODEL_ENTRIES.items():
                name = f"models.{group}.{label}"
                if entry == "fit":
                    setattr(model, entry, self._fit_wrapper(name, getattr(model, entry)))
                else:
                    setattr(model, entry, self.wrap(name, getattr(model, entry)))

    def _fit_wrapper(self, name, fn):
        # Marks Cholesky calls made while a fit is running (models.cholesky.per_fit).
        def fit(*args, **kwargs):
            self.fit_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.fit_depth -= 1

        return self.wrap(name, fit)

    # -- aggregation -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name calls, inclusive and self seconds, plus the counters.

        Also reports ``coverage``: the share of ``detector.step`` time that
        its direct child spans account for.
        """
        n = len(self.start)
        names = np.frombuffer(self.name_id, dtype=np.int32) if n else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if n else np.zeros(0, np.int32)
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start)) if n else np.zeros(0)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        spans = {name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
                 for i, name in enumerate(self.names)}
        step = names == self._ids.get("detector.step", -1)
        step_s = float(dur[step].sum())
        coverage = float(child[step].sum()) / step_s if step_s > 0 else None
        return {"spans": spans, "counts": dict(self.counts), "coverage": coverage}


def layer_metrics(setup: dict, replay: dict, artifacts: dict, traced: dict,
                  untraced: dict) -> dict:
    """Per-layer metrics: replay layers per traced pass, file I/O per run."""
    passes = traced["passes"]
    spans, counts = replay["spans"], replay["counts"]

    def stat(name, key):
        return spans.get(name, {}).get(key, 0) / passes

    out = {}
    for name in ("window.extend", "window.slice", "detector.step", "detector.criterion",
                 "search.ternary_argmax", "models.m0.fit", "models.split.fit",
                 "models.split.log_likelihood", "models.m0.mahalanobis",
                 "models.cholesky"):
        out[f"{name}.calls"] = stat(name, "calls")
        out[f"{name}.self_s"] = stat(name, "self_s")
    out["window.bytes_copied"] = counts.get("window.bytes_copied", 0) / passes

    evaluations = counts.get("search.evaluate.calls", 0)
    hits = counts.get("search.evaluate.hits", 0)
    searches = spans.get("search.ternary_argmax", {}).get("calls", 0)
    out["search.evals"] = (evaluations - hits) / passes
    out["search.evals_per_search"] = (evaluations - hits) / searches if searches else 0.0
    out["search.evaluate.hit_ratio"] = hits / evaluations if evaluations else 0.0

    fits = sum(spans.get(name, {}).get("calls", 0) for name in FIT_SPANS)
    out["models.cholesky.flops"] = counts.get("models.cholesky.flops", 0) / passes
    out["models.cholesky.per_fit"] = counts.get("models.cholesky.in_fit", 0) / fits if fits else 0.0
    out["models.cholesky.jitter_retries"] = counts.get("models.cholesky.jitter_retries", 0) / passes

    out["detector.searched_steps"] = traced["searched_per_pass"]
    out["detector.degraded_steps"] = traced["degraded"] / passes

    out["fileio.read_series_csv.s"] = setup["spans"].get("fileio.read_series_csv", {}).get("s", 0.0)
    out["fileio.write_jsonl.s"] = artifacts["spans"].get("fileio.write_jsonl", {}).get("s", 0.0)
    out["fileio.bytes_written"] = artifacts["counts"].get("fileio.bytes_written", 0)

    # At nominal machine speed, so a change of machine speed between the
    # untraced and the traced half does not show as overhead.
    out["trace.overhead"] = (traced["replay_nominal_s_per_pass"]
                             / untraced["replay_nominal_s_per_pass"])
    out["trace.step_coverage"] = replay["coverage"]
    return out
