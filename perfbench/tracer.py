"""Outside-in tracer: spans around streamseg's public functions.

The tracer never edits the program. While active it replaces each traced
function at every module attribute that binds it (``harness.forward`` as
well as ``model.forward``, ``local_labels.knn_batch`` as well as
``spatial.knn_batch``), records one span per call and restores the original
bindings on exit. Spans live in memory until the run ends.

A span is ``[name, start, end, parent, frame]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``frame`` the frame or step that was
current when the span opened. Self time is a span's duration minus the
durations of its direct children.

Autodiff forward ops are not spans: their cost stays in the self time of the
caller (the forward pass, the loss, the temporal term), which is what the
layer metrics describe. ``autodiff.matmul`` is counted instead, for its
floating-point work.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

from streamseg import (autodiff, harness, local_labels, model, prototypes,
                       spatial, stream, temporal)
from streamseg.core import IGNORE

TRACED_MODULES = (spatial, local_labels, prototypes, temporal, model, harness, stream)

#: Function -> layer metric that its self time is charged to. Traced
#: functions missing here are glue: their self time is part of
#: ``harness.other_ms``.
LAYER_OF = {
    "spatial.build_index": "spatial.index_ms",
    "spatial.knn_batch": "spatial.knn_ms",
    "spatial.knn": "spatial.knn_ms",
    "spatial.local_geometric_features": "spatial.features_ms",
    "spatial.match_correspondences": "spatial.match_ms",
    "spatial.relative_transform": "spatial.match_ms",
    "model.forward": "model.forward_ms",
    "model.forward_graph": "model.forward_ms",
    "model.total_loss_and_grad": "model.loss_ms",
    "model.dice_term": "model.loss_ms",
    "model.smooth_targets": "model.loss_ms",
    "model.heads_graph": "model.loss_ms",
    "autodiff.backward": "autodiff.backward_ms",
    "model.adam_step": "model.adam_ms",
    "local_labels.run_lgl": "local_labels.ms",
    "local_labels.aggregate_predictions": "local_labels.ms",
    "local_labels.local_pseudo_labels": "local_labels.ms",
    "local_labels.prediction_certainty": "local_labels.ms",
    "local_labels.geometric_purity": "local_labels.ms",
    "local_labels.confidence_scores": "local_labels.ms",
    "local_labels.select_per_class": "local_labels.select_ms",
    "prototypes.build_prototypes": "prototypes.ms",
    "prototypes.ema_update": "prototypes.ms",
    "prototypes.global_pseudo_labels": "prototypes.ms",
    "prototypes.fuse_local_global": "prototypes.ms",
    "temporal.temporal_term": "temporal.ms",
    "temporal.temporal_loss": "temporal.ms",
    "harness.confusion_matrix": "harness.metrics_ms",
    "harness.iou_from_confusion": "harness.metrics_ms",
    "harness.evaluate_iou": "harness.metrics_ms",
}

TIME_LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


# -- observers: counts taken at the same boundary as the span ---------------

def _on_knn(tr, args, kwargs, out):
    idx = out[0]
    tr.count("spatial.knn_calls", 1)
    tr.count("spatial.knn_rows", idx.shape[0] * idx.shape[1])


def _on_forward_graph(tr, args, kwargs, out):
    tr.count("model.forward_calls", 1)
    tr.count("model.forward_rows", out[0].value.shape[0])


def _on_adam(tr, args, kwargs, out):
    tr.count("model.adam_steps", 1)


def _on_lgl(tr, args, kwargs, out):
    selected = out[2].values
    tr.count("local_labels.points", len(selected))
    tr.count("local_labels.selected", int(selected.sum()))


def _on_fuse(tr, args, kwargs, out):
    tr.count("prototypes.fused_points", len(out.values))
    tr.count("prototypes.supervised", int((out.values != IGNORE).sum()))


def _on_match(tr, args, kwargs, out):
    tr.count("temporal.pairs", len(out))


OBSERVERS = {
    "spatial.knn_batch": _on_knn,
    "model.forward_graph": _on_forward_graph,
    "model.adam_step": _on_adam,
    "local_labels.run_lgl": _on_lgl,
    "prototypes.fuse_local_global": _on_fuse,
    "spatial.match_correspondences": _on_match,
}


class Tracer:
    """Collects spans and per-frame counts while installed as a context."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))  # frame -> name -> value
        self.frame = -1
        self.matmuls = 0
        self._stack = []
        self._patches = []

    def count(self, name, value):
        self.counts[self.frame][name] += value

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        observe = OBSERVERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.frame]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, out)
            return out

        return traced

    def _matmul_counter(self, fn):
        @functools.wraps(fn)
        def counted(a, b):
            out = fn(a, b)
            self.matmuls += 1
            # (m x k) @ (k x n) costs 2mkn floating-point operations
            m, k = out.parents[0].value.shape
            self.count("autodiff.matmul_mflop", 2.0 * m * k * out.value.shape[1] / 1e6)
            return out

        return counted

    # -- installation -------------------------------------------------------

    def __enter__(self):
        replacements = {}
        for module in TRACED_MODULES:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, fn in _public_functions(module):
                replacements[id(fn)] = (fn, self._span_wrapper(f"{short}.{name}", fn))
        replacements[id(autodiff.backward)] = (
            autodiff.backward, self._span_wrapper("autodiff.backward", autodiff.backward))
        replacements[id(autodiff.matmul)] = (
            autodiff.matmul, self._matmul_counter(autodiff.matmul))

        # rebind at every name that refers to a traced function, in every
        # loaded streamseg module (modules import functions by name)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "streamseg" or mod_name.startswith("streamseg.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    # -- analysis -------------------------------------------------------------

    def self_times(self):
        """Per-frame self time (s) of every layer metric."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, frame in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_frame = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, frame) in enumerate(self.spans):
            layer = LAYER_OF.get(name)
            if layer is not None:
                per_frame[frame][layer] += end - start - child[i]
        return per_frame

    def dump(self, path, header):
        """Write the spans as JSON lines, one header line first."""
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for name, start, end, parent, frame in self.spans:
                f.write(json.dumps([name, round(start, 7), round(end, 7), parent, frame]) + "\n")


def wrapper_cost_s(calls=20000):
    """Seconds a span wrapper adds to one call, timed on a no-op function."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._span_wrapper("noop", noop)
    costs = []
    for fn in (noop, wrapped):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        costs.append(time.perf_counter() - start)
    return max(costs[1] - costs[0], 0.0) / calls
