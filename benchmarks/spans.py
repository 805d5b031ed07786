"""Span tracing of strisk's public functions, installed from outside.

``Tracer.install`` replaces each function named in ``LAYERS`` with a
wrapper, in every ``strisk`` module that holds a reference to it, so
calls made through ``from x import y`` bindings are traced too. A span
records the layer name, its start and end, and its parent span. Spans
stay in memory until ``write`` saves them; ``metrics`` turns them into
per-layer self times (a span's duration minus its child spans) and
counts.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# (layer, module, attribute): the public functions each layer owns.
LAYERS = (
    ("synth.generate", "strisk.synth", "generate_corpus"),
    ("synth.write", "strisk.synth", "write_corpus"),
    ("records.load", "strisk.records", "load_organizations"),
    ("records.load", "strisk.records", "load_observations"),
    ("records.load", "strisk.records", "load_tweets"),
    ("records.load", "strisk.records", "load_incidents"),
    ("names.match", "strisk.names", "match_names"),
    ("features.featurize", "strisk.features", "featurize_corpus"),
    ("features.csv_write", "strisk.features", "write_features_csv"),
    ("features.csv_read", "strisk.features", "read_features_csv"),
    ("models.encode", "strisk.models.encode", "encode_profiles"),
    ("noise.oos", "strisk.noise", "out_of_sample_probabilities"),
    ("trees.fit", "strisk.models.trees", "RegressionTree.fit"),
    ("trees.apply", "strisk.models.trees", "RegressionTree.apply"),
    ("models.train", "strisk.models.api", "train"),
    ("models.train", "strisk.models.api", "train_matrix"),
    ("models.stack", "strisk.models.stacking", "train_stacked"),
    ("models.load", "strisk.models.api", "load_model"),
    ("models.load", "strisk.models.stacking", "load_stacked"),
    ("models.save", "strisk.models.api", "save_model"),
    ("models.save", "strisk.models.stacking", "save_stacked"),
    ("models.predict", "strisk.models.api", "predict_proba_many"),
    ("models.predict", "strisk.models.stacking", "predict_stacked_many"),
    ("models.importance", "strisk.models.importance", "permutation_importance"),
    ("evaluation.roc_auc", "strisk.evaluation", "roc_auc"),
    ("pipeline", "strisk.pipeline", "run_pipeline"),
)
# Layers whose call count is a metric of its own.
COUNTED = ("models.encode", "trees.fit", "trees.apply", "evaluation.roc_auc")


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names: list[str] = []
    for layer in dict.fromkeys(layer for layer, _, _ in LAYERS):
        names.append("pipeline.self_s" if layer == "pipeline" else f"{layer}_s")
        if layer in COUNTED:
            names.append(f"{layer}_calls")
        if layer == "records.load":
            names.append("records.rows")
        if layer == "trees.fit":
            names.append("trees.nodes")
    return names + ["cpu_s"]


def metric_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


class Tracer:
    def __init__(self) -> None:
        # (layer, start, end, span id, parent span id or -1), in closing order.
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._open[-1] if tracer._open else -1
            tracer._open.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans.append((layer, start, time.perf_counter(), span_id, parent))
                tracer._open.pop()
            tracer._count(layer, args, result)
            return result

        return traced

    def _count(self, layer: str, args: tuple, result) -> None:
        if layer == "records.load":
            self.counts["records.rows"] = self.counts.get("records.rows", 0) + len(result)
        elif layer == "trees.fit":
            self.counts["trees.nodes"] = self.counts.get("trees.nodes", 0) + len(args[0].feature)
        if layer in COUNTED:
            key = f"{layer}_calls"
            self.counts[key] = self.counts.get(key, 0) + 1

    def install(self) -> None:
        """Wrap every function in ``LAYERS`` wherever strisk refers to it."""
        for layer, module_name, attribute in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(module, owner_name)
                self._replace(owner, method, self._wrap(layer, getattr(owner, method)))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(layer, original)
            for holder in list(sys.modules.values()):
                if getattr(holder, "__name__", "").startswith("strisk"):
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._replace(holder, key, wrapper)

    def _replace(self, holder, key: str, value) -> None:
        self._restore.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer: span durations minus their children's."""
        child_time: dict[int, float] = {}
        for _, start, end, _, parent in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: dict[str, float] = {}
        for layer, start, end, span_id, _ in self.spans:
            own = (end - start) - child_time.get(span_id, 0.0)
            totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def metrics(self, cpu_s: float) -> dict[str, float]:
        times = self.self_times()
        values: dict[str, float] = {}
        for name in metric_names():
            if name == "cpu_s":
                values[name] = cpu_s
            elif name == "pipeline.self_s":
                values[name] = times.get("pipeline", 0.0)
            elif name.endswith("_s"):
                values[name] = times.get(name[:-2], 0.0)
            else:
                values[name] = float(self.counts.get(name, 0))
        return values

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for layer, start, end, span_id, parent in self.spans:
                record = {"name": layer, "start": start, "end": end, "id": span_id, "parent": parent}
                handle.write(json.dumps(record) + "\n")
