"""In-memory spans around the calls into each patchx module, installed from outside.

Each public entry point is replaced, at the name its caller looks up, by a
wrapper that records (name, start, end, parent, meta). Nothing in src/patchx is
edited. Spans stay in memory; layer_metrics() turns them into the per-layer
metrics after the run. Wrappers exist only while a traced operation runs, so
untraced operations execute the unmodified functions.
"""

from __future__ import annotations

import contextlib
import os
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

import patchx.bundle
import patchx.cli
import patchx.explain
import patchx.neuralnet
import patchx.pipeline
from patchx.bundle import PatchXBundle
from patchx.neuralnet import Adam, Conv1d, Dense
from patchx.patching import enumerate_patches

NAME, START, END, PARENT, META = range(5)

# Direct children of `patchx run` that write its outputs.
PERSIST = {"cli.save_bundle", "cli.write_json", "cli.save_vectors", "cli.write_manifest",
           "cli.write_resolved_config"}
# Children of run_pipeline that make up its patching stage (normalisation included,
# as in the program's own timing.json).
PATCHING_STAGE = {"data.normalization_stats", "data.znormalize", "patching.build_patch_arrays"}


class Tracer:
    """Span recorder. Spans of one operation form one group; the spans of a
    workload's pass over the layers its operations do not use form fallback
    groups."""

    def __init__(self, conv_labels: dict[int, str]):
        self.conv_labels = conv_labels  # conv out-channel count -> "conv0" / "conv1"
        self.groups: list[list[list]] = []
        self.fallback: list[list[list]] = []
        self.spans: list[list] | None = None
        self.stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    @contextlib.contextmanager
    def group(self, fallback: bool = False):
        """Install the wrappers and collect the spans of one operation."""
        self.spans, self.stack = [], []
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            (self.fallback if fallback else self.groups).append(self.spans)
            self.spans = None

    def open(self, name: str, meta: dict | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, meta])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. the root of an operation."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def _in_training_step(self) -> bool:
        names = [self.spans[i][NAME] for i in self.stack]
        return "neuralnet.train" in names and "neuralnet.accuracy" not in names

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, owner, attr: str, name, meta=None, after=None) -> None:
        """Replace owner.attr. `name` is a string or a function of the call's
        arguments; `meta(args)` and `after(result, args)` fill the span's meta."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(*args) if callable(name) else name
            index = tracer.open(label, meta(*args) if meta else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                span_meta = tracer.spans[index][META] or {}
                span_meta.update(after(result, *args, **kwargs))
                tracer.spans[index][META] = span_meta
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _conv_name(self, conv, suffix: str) -> str:
        return f"neuralnet.{self.conv_labels.get(conv.b.shape[0], 'convN')}.{suffix}"

    def _install(self) -> None:
        w = self._wrap

        def conv_fwd_name(conv, x):
            return self._conv_name(conv, "fwd" if self._in_training_step() else "eval_fwd")

        def conv_flop(conv, x):
            out_ch, in_ch, kernel = conv.w.shape
            return {"batch": x.shape[0], "flop": 2 * x.shape[0] * x.shape[2] * out_ch * in_ch * kernel}

        def conv_bwd_flop(conv, dout, cols, in_shape):
            out_ch, in_ch, kernel = conv.w.shape
            return {"flop": 4 * in_shape[0] * in_shape[2] * out_ch * in_ch * kernel}

        w(Conv1d, "forward", conv_fwd_name, meta=conv_flop)
        w(Conv1d, "backward", lambda conv, *a: self._conv_name(conv, "bwd"), meta=conv_bwd_flop)
        w(Dense, "forward", "neuralnet.dense.fwd",
          meta=lambda dense, x: {"flop": 2 * x.shape[0] * dense.w.size})
        w(Dense, "backward", "neuralnet.dense.bwd",
          meta=lambda dense, dout, x: {"flop": 4 * x.shape[0] * dense.w.size})
        w(Adam, "step", "neuralnet.adam.step")
        w(patchx.neuralnet, "train", "neuralnet.train")
        w(patchx.neuralnet, "accuracy", "neuralnet.accuracy")

        patch_meta = lambda result, *a, **k: {"rows": len(result[0]), "bytes": result[0].nbytes}
        for module in (patchx.pipeline, patchx.bundle):
            w(module, "znormalize", "data.znormalize")
            w(module, "build_patch_arrays", "patching.build_patch_arrays", after=patch_meta)
        w(patchx.pipeline, "normalization_stats", "data.normalization_stats")
        w(patchx.pipeline, "build_network", "neuralnet.build_network")
        w(patchx.pipeline, "fit", lambda spec, *a, **k: f"shallow.fit.{spec.kind}", after=_fit_meta)
        w(patchx.pipeline, "evaluate", "shallow.evaluate")
        w(patchx.pipeline, "refit_shallow", "pipeline.refit_shallow")
        w(patchx.bundle, "extract_all", "metadata.extract_all",
          after=lambda result, *a, **k: {"count": len(result)})
        w(patchx.bundle, "predict_all", "shallow.predict_all")
        w(patchx.bundle, "load_bundle", "bundle.load_bundle",
          meta=lambda path: {"bytes": os.path.getsize(path)})
        w(PatchXBundle, "patch_predictions", "bundle.patch_predictions")
        w(PatchXBundle, "vectors", "bundle.vectors")
        w(PatchXBundle, "predict_dataset", "bundle.predict_dataset")
        w(PatchXBundle, "sample_patch_predictions", "explain.sample_patch_predictions")
        w(patchx.explain, "explain_sample", "explain.explain_sample")
        w(patchx.explain, "confidence_histogram", "explain.confidence_histogram")
        w(patchx.explain, "mislabel_report", "explain.mislabel_report",
          after=lambda result, *a, **k: {"count": len(result)})
        w(patchx.cli, "load_run_datasets", "cli.load_run_datasets")
        w(patchx.cli, "run_pipeline", "pipeline.run_pipeline")
        w(patchx.cli, "save_bundle", "cli.save_bundle",
          after=lambda result, bundle, path: {"bytes": os.path.getsize(path)})
        for attr in ("write_json", "save_vectors", "write_manifest", "write_resolved_config"):
            w(patchx.cli, attr, f"cli.{attr}")


def _fit_meta(model, *args, **kwargs) -> dict:
    trees = getattr(model, "trees", None)
    return {"nodes": sum(len(t.feature) for t in trees)} if trees else {}


# -- per-layer metrics ----------------------------------------------------------


def window_fraction(configs: list, length: int) -> float:
    """Share of a patch frame that carries window content (computed from configs)."""
    widths = [end - start for c in configs for _, start, end in enumerate_patches(length, c)]
    return sum(widths) / (len(widths) * length)


def _group_metrics(spans: list, root: str) -> dict[str, float]:
    """Per-operation totals and counts for one traced group."""
    by_name: dict[str, list[int]] = defaultdict(list)
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)
        children[s[PARENT]].append(i)
    layers = [n for n in by_name if n.startswith(("neuralnet.conv", "neuralnet.dense"))]

    def dur(i: int) -> float:
        return spans[i][END] - spans[i][START]

    def total(*names: str) -> float:
        return sum(dur(i) for n in names for i in by_name[n])

    def meta(name: str, key: str) -> list:
        return [(spans[i][META] or {}).get(key, 0) for i in by_name[name]]

    def stage(names) -> float:
        """Time of run_pipeline's direct children with these names."""
        return sum(dur(c) for p in by_name["pipeline.run_pipeline"] for c in children[p]
                   if spans[c][NAME] in names)

    train = by_name["neuralnet.train"]
    val_eval = [c for t in train for c in children[t] if spans[c][NAME] == "neuralnet.accuracy"]
    train_s, val_s = total("neuralnet.train"), sum(map(dur, val_eval))
    step_patches = sum(meta("neuralnet.conv0.fwd", "batch"))
    gflop = sum(sum(meta(n, "flop")) for n in layers) / 1e9
    layer_s = total(*layers)
    forest_nodes = meta("shallow.fit.forest", "nodes")
    m = {
        "pipeline.patching_s": stage(PATCHING_STAGE),
        "pipeline.network_train_s": stage({"neuralnet.train"}),
        "pipeline.train_vectors_s": stage({"bundle.vectors"}),
        "pipeline.shallow_fit_s": stage({"shallow.fit.svm", "shallow.fit.forest", "shallow.fit.trivial"}),
        "pipeline.test_inference_s": stage({"bundle.predict_dataset"}),
        "cli.load_data_s": total("cli.load_run_datasets"),
        "cli.persist_s": total(*PERSIST),
        "neuralnet.train_self_s": sum(dur(t) - sum(map(dur, children[t])) for t in train),
        "neuralnet.val_eval_s": val_s,
        "neuralnet.epoch_s": train_s / len(val_eval) if val_eval else 0.0,
        "neuralnet.train_patches_per_s": step_patches / (train_s - val_s) if step_patches else 0.0,
        "neuralnet.gflop": gflop,
        "neuralnet.gflop_per_s": gflop / layer_s if layer_s else 0.0,
        "patching.build_patch_arrays_s": total("patching.build_patch_arrays"),
        "patching.patches": sum(meta("patching.build_patch_arrays", "rows")),
        "patching.tensor_mb": max(meta("patching.build_patch_arrays", "bytes"), default=0) / 1e6,
        "data.znormalize_s": total("data.znormalize"),
        "metadata.extract_all_s": total("metadata.extract_all"),
        "metadata.vectors": sum(meta("metadata.extract_all", "count")),
        "bundle.patch_predictions_s": total("bundle.patch_predictions"),
        "bundle.vectors_s": total("bundle.vectors"),
        "bundle.bytes": max(meta("cli.save_bundle", "bytes") + meta("bundle.load_bundle", "bytes"),
                            default=0),
        "explain.histogram_s": total("explain.confidence_histogram"),
        "explain.mislabel_report_s": total("explain.mislabel_report"),
        "explain.mislabels": sum(meta("explain.mislabel_report", "count")),
        "shallow.forest_nodes": sum(forest_nodes) / len(forest_nodes) if forest_nodes else 0,
        "shallow.predict_all_s": total("shallow.predict_all"),
    }
    roots = [i for i in by_name[root] if spans[i][PARENT] == -1]
    if roots:
        op_s = sum(map(dur, roots))
        covered = sum(dur(c) for i in roots for c in children[i])
        m["trace.coverage"] = covered / op_s
        m["trace.unattributed_s"] = op_s - covered
    return m


# (metric, span, batch size the calls must have or None): medians per call, in
# the unit the metric's suffix names
PER_CALL = [
    ("neuralnet.conv0.fwd_ms", "neuralnet.conv0.fwd", None),
    ("neuralnet.conv0.bwd_ms", "neuralnet.conv0.bwd", None),
    ("neuralnet.conv1.fwd_ms", "neuralnet.conv1.fwd", None),
    ("neuralnet.conv1.bwd_ms", "neuralnet.conv1.bwd", None),
    ("neuralnet.conv0.eval_fwd_ms", "neuralnet.conv0.eval_fwd", patchx.neuralnet.EVAL_BATCH),
    ("neuralnet.conv1.eval_fwd_ms", "neuralnet.conv1.eval_fwd", patchx.neuralnet.EVAL_BATCH),
    ("neuralnet.dense.fwd_ms", "neuralnet.dense.fwd", None),
    ("neuralnet.dense.bwd_ms", "neuralnet.dense.bwd", None),
    ("neuralnet.adam.step_ms", "neuralnet.adam.step", None),
    ("bundle.load_ms", "bundle.load_bundle", None),
    ("bundle.save_ms", "cli.save_bundle", None),
    ("explain.sample_patch_predictions_ms", "explain.sample_patch_predictions", None),
    ("explain.explain_sample_ms", "explain.explain_sample", None),
    ("shallow.svm_fit_s", "shallow.fit.svm", None),
    ("shallow.forest_fit_s", "shallow.fit.forest", None),
    ("shallow.trivial_fit_s", "shallow.fit.trivial", None),
]

# Per-operation metrics: unit, and whether the value is a count computed from
# shapes or sizes rather than a time.
PER_OP = {
    "pipeline.patching_s": "s", "pipeline.network_train_s": "s", "pipeline.train_vectors_s": "s",
    "pipeline.shallow_fit_s": "s", "pipeline.test_inference_s": "s",
    "cli.load_data_s": "s", "cli.persist_s": "s",
    "neuralnet.train_self_s": "s", "neuralnet.val_eval_s": "s", "neuralnet.epoch_s": "s",
    "neuralnet.train_patches_per_s": "patches/s", "neuralnet.gflop": "GFLOP",
    "neuralnet.gflop_per_s": "GFLOP/s",
    "patching.build_patch_arrays_s": "s", "patching.patches": "count", "patching.tensor_mb": "MB",
    "data.znormalize_s": "s", "metadata.extract_all_s": "s", "metadata.vectors": "count",
    "bundle.patch_predictions_s": "s", "bundle.vectors_s": "s", "bundle.bytes": "bytes",
    "explain.histogram_s": "s", "explain.mislabel_report_s": "s", "explain.mislabels": "count",
    "shallow.forest_nodes": "count", "shallow.predict_all_s": "s",
    "trace.coverage": "fraction", "trace.unattributed_s": "s",
}
COMPUTED = {"neuralnet.gflop", "patching.tensor_mb", "patching.window_fraction",
            "shallow.forest_nodes", "bundle.bytes", "explain.mislabels"}


def layer_metrics(tracer: Tracer, root: str, window: float) -> dict[str, dict]:
    """Median over traced operations of each per-operation metric (over those in
    which the layer did any work), and the median per call of each PER_CALL
    metric. A layer that no operation of the workload uses is measured in the
    fallback groups instead."""
    out: dict[str, dict] = {}
    primary = [_group_metrics(spans, root) for spans in tracer.groups]
    extra = [_group_metrics(spans, root) for spans in tracer.fallback]
    for name, unit in PER_OP.items():
        values = ([g[name] for g in primary if g.get(name)]
                  or [g[name] for g in extra if g.get(name)])
        out[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
    for name, span_name, batch in PER_CALL:
        unit = "ms" if name.endswith("_ms") else "s"

        def calls(groups):
            return [(s[END] - s[START]) * (1e3 if unit == "ms" else 1.0)
                    for spans in groups for s in spans
                    if s[NAME] == span_name and (batch is None or (s[META] or {}).get("batch") == batch)]

        values = calls(tracer.groups) or calls(tracer.fallback)
        out[name] = {"value": float(np.median(values)) if values else 0.0, "unit": unit}
    out["patching.window_fraction"] = {
        "value": window if out["patching.patches"]["value"] else 0.0, "unit": "fraction"}
    return dict(sorted(out.items()))
