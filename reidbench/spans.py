"""Spans and counts around the calls into each reidkit module.

The traced run calls ``reidkit.cli.run_cli`` in-process with the public
functions of every module wrapped, so each call leaves a span (name, start,
end, parent) and the counts taken at the same boundary. A layer's time is
the self time of its spans: duration minus the time covered by child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

# Per-layer metrics in the order they are reported, with their units.
PER_LAYER = [
    ("cli.startup_s", "s"), ("cli.dist_s", "s"), ("cli.eval_s", "s"), ("cli.mask_s", "s"),
    ("cli.embed_s", "s"), ("cli.camera_s", "s"), ("cli.tsne_s", "s"), ("cli.mine_s", "s"),
    ("cli.ema_s", "s"),
    ("gallery.load_index_s", "s"), ("gallery.load_embeddings_s", "s"), ("gallery.bytes_read", "B"),
    ("gallery.save_embeddings_s", "s"), ("gallery.bytes_written", "B"),
    ("imaging.decode_s", "s"), ("imaging.mask_s", "s"), ("imaging.images", "count"),
    ("featurize.featurize_s", "s"),
    ("distance.global_s", "s"), ("distance.global_flops", "flop"),
    ("distance.local_dp_s", "s"), ("distance.local_dp_pairs", "count"),
    ("distance.local_dp_us_per_pair", "us"), ("distance.local_one_to_one_s", "s"),
    ("distance.combine_s", "s"), ("distance.encode_s", "s"), ("distance.rdmx_bytes", "B"),
    ("metrics.evaluate_s", "s"), ("metrics.valid_queries", "count"),
    ("metrics.excluded_queries", "count"),
    ("camera.offsets_s", "s"), ("camera.normalize_s", "s"), ("camera.cells", "count"),
    ("tsne.affinities_s", "s"), ("tsne.descent_s", "s"), ("tsne.iterations", "count"),
    ("mining.batch_s", "s"), ("ensemble.update_s", "s"), ("ensemble.save_s", "s"),
    ("trace.overhead_pct", "%"),
]


def _mode(mode):
    return str(getattr(mode, "value", mode))


# (module, function, metric its self time goes to, counter). A counter maps
# the call's result and arguments to the counts it adds. A module appears
# more than once where it calls another layer through a name it imported
# (ensemble saves tensors through gallery's container writer).
_read = lambda result, path, *_: {"gallery.bytes_read": os.path.getsize(path)}  # noqa: E731
_written = lambda result, obj, path, *_: {"gallery.bytes_written": os.path.getsize(path)}  # noqa: E731
TARGETS = [
    ("gallery", "load_index", "gallery.load_index_s", _read),
    ("gallery", "load_embeddings", "gallery.load_embeddings_s", _read),
    ("gallery", "save_embeddings", "gallery.save_embeddings_s", _written),
    ("ensemble", "load_embeddings", "gallery.load_embeddings_s", _read),
    ("ensemble", "save_embeddings", "gallery.save_embeddings_s", _written),
    ("imaging", "decode_image", "imaging.decode_s", lambda *_: {"imaging.images": 1}),
    ("imaging", "mask_from_image", "imaging.mask_s", None),
    ("imaging", "resize_mask_nearest", "imaging.mask_s", None),
    ("imaging", "apply_mask", "imaging.mask_s", None),
    ("imaging", "encode_image", "imaging.mask_s", None),
    ("featurize", "featurize_images", "featurize.featurize_s", None),
    ("distance", "distance_matrix", "distance.global_s",
     lambda result, q, g, *_: {"distance.global_flops": 2 * q.shape[0] * g.shape[0] * q.shape[1]}),
    ("distance", "local_distance_matrix",
     lambda q, g, mode: "distance.local_dp_s" if _mode(mode) == "dp_aligned" else "distance.local_one_to_one_s",
     lambda result, q, g, mode: {"distance.local_dp_pairs": q.n * g.n} if _mode(mode) == "dp_aligned" else {}),
    ("distance", "combine_distances", "distance.combine_s", None),
    ("distance", "encode_distance_matrix", "distance.encode_s",
     lambda result, *_: {"distance.rdmx_bytes": len(result)}),
    ("metrics", "evaluate", "metrics.evaluate_s",
     lambda report, queries, *_: {"metrics.valid_queries": report.num_valid_queries,
                                  "metrics.excluded_queries": len(queries) - report.num_valid_queries}),
    ("camera", "camera_offsets", "camera.offsets_s",
     lambda result, emb, camids, pids=None: {} if pids is None else
     {"camera.cells": len(set(zip(np.asarray(camids).tolist(), np.asarray(pids).tolist())))}),
    ("camera", "camera_normalize", "camera.normalize_s", None),
    ("tsne", "perplexity_affinities", "tsne.affinities_s", None),
    ("tsne", "run_tsne", "tsne.descent_s", lambda result, *_: {"tsne.iterations": len(result[1])}),
    ("mining", "pk_sample", "mining.batch_s", None),
    ("mining", "batch_hard", "mining.batch_s", None),
    ("mining", "triplet_loss_grad", "mining.batch_s", None),
    ("ensemble", "ema_update", "ensemble.update_s", None),
    ("ensemble", "save_ema_state", "ensemble.save_s", None),
]


class Tracer:
    """Spans kept in memory; one trace id per workload chain."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.counts = defaultdict(int)
        self.trace_id = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, metric):
        rec = {"id": len(self.spans), "trace": self.trace_id, "name": name, "metric": metric,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter() - self.t0, "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter() - self.t0
            self._stack.pop()

    def _wrap(self, name, fn, metric, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, metric(*args, **kwargs) if callable(metric) else metric):
                result = fn(*args, **kwargs)
            if count is not None:
                for key, n in count(result, *args, **kwargs).items():
                    self.counts[key] += n
            return result
        return wrapper

    @contextlib.contextmanager
    def patched(self, reidkit_modules: dict):
        """Wrap every TARGETS function of the given {name: module} while
        the block runs; the originals are restored on exit."""
        saved = []
        try:
            for mod_name, fn_name, metric, count in TARGETS:
                mod = reidkit_modules[mod_name]
                original = getattr(mod, fn_name)
                saved.append((mod, fn_name, original))
                layer = metric.split(".")[0] if isinstance(metric, str) else mod_name
                setattr(mod, fn_name, self._wrap(f"{layer}.{fn_name}", original, metric, count))
            yield self
        finally:
            for mod, fn_name, original in reversed(saved):
                setattr(mod, fn_name, original)

    def self_times(self) -> dict:
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            out[s["metric"]] += s["end"] - s["start"] - child[s["id"]]
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def layer_metrics(tracer: Tracer, startup_s: float, overhead_pct: float) -> dict:
    values = defaultdict(float, tracer.self_times())
    values.update(tracer.counts)
    values["cli.startup_s"] = startup_s
    values["trace.overhead_pct"] = overhead_pct
    pairs = values["distance.local_dp_pairs"]
    values["distance.local_dp_us_per_pair"] = 1e6 * values["distance.local_dp_s"] / pairs if pairs else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
