"""Spans around the library's public functions, recorded from outside it.

A :class:`Tracer` replaces each traced function where its caller looks it up
(a module global such as ``training.pad_batch``, or a method such as
``Adam.step``) with a wrapper that records one span per call: name, start,
end and parent. Spans stay in memory; the caller writes them out once, when
the run ends. ``installed()`` puts every original back on exit.

Each span belongs to the layer named before the dot, which is the library
module the function comes from.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("dataio", "autodiff", "recurrent", "models", "vlad", "training", "metrics")

MB = float(1 << 20)

# name -> unit of every per-layer metric, in report order
PER_LAYER_UNITS = {}
for _layer in LAYERS:
    PER_LAYER_UNITS[f"{_layer}.busy_s"] = "s"
    PER_LAYER_UNITS[f"{_layer}.self_s"] = "s"
    PER_LAYER_UNITS[f"{_layer}.calls"] = "count"
PER_LAYER_UNITS.update(
    {
        "autodiff.tape_nodes_per_step": "count",
        "autodiff.tape_mb_per_step": "MB",
        "autodiff.backward_ms_p50": "ms",
        "autodiff.backward_ms_p90": "ms",
        "autodiff.conv1d_same_s": "s",
        "autodiff.conv_im2col_mb_max": "MB",
        "autodiff.batchnorm_time_s": "s",
        "recurrent.run_bidirectional_s": "s",
        "recurrent.attention_pool_s": "s",
        "models.forward_train_ms_p50": "ms",
        "models.forward_train_ms_p90": "ms",
        "models.forward_eval_ms_p50": "ms",
        "models.checkpoint_save_s": "s",
        "models.checkpoint_load_s": "s",
        "models.checkpoint_mb": "MB",
        "training.step_ms_p50": "ms",
        "training.step_ms_p90": "ms",
        "training.steps": "count",
        "training.optimizer_step_ms_p50": "ms",
        "dataio.valid_frame_ratio": "ratio",
        "dataio.pad_batch_ms_p50": "ms",
        "dataio.pad_batch_ms_p90": "ms",
        "dataio.padded_batch_mb": "MB",
        "dataio.generate_s": "s",
        "dataio.load_s": "s",
        "dataio.load_count": "count",
        "vlad.kmeans_fit_s": "s",
        "vlad.kmeans_iterations": "count",
        "vlad.encode_count": "count",
        "vlad.encode_ms_p50": "ms",
        "metrics.topk_s": "s",
        "metrics.gap_at_k_s": "s",
        "metrics.prediction_file_write_s": "s",
        "metrics.prediction_file_read_s": "s",
        "trace_overhead_ratio": "ratio",
    }
)

# Counts that must repeat exactly across runs on one seed.
EXACT_COUNTS = (
    "autodiff.tape_nodes_per_step",
    "dataio.load_count",
    "dataio.valid_frame_ratio",
    "vlad.encode_count",
    "vlad.kmeans_iterations",
    "training.steps",
)

NAME, START, END, PARENT, EXTRA = range(5)


# -- hooks: read-only measurements taken at a wrapped call ------------------


def _tape_size(args, kwargs):
    """(nodes, bytes) on the loss's tape as backward is entered."""
    loss = args[0]
    graph = getattr(loss, "_graph", None)
    nodes = getattr(graph, "nodes", [])[: getattr(loss, "_index", -1) + 1]
    return len(nodes), sum(node.data.nbytes for node in nodes)


def _im2col_bytes(args, kwargs):
    """Bytes of the b*t x c_in*w float64 im2col matrix a conv keeps for backward."""
    b, c_in, t = args[0].shape
    w = args[1].shape[2]
    return b * t * c_in * w * 8


def _padding(result, args, kwargs):
    """(valid frames, padded frames, padded float64 bytes) of one batch."""
    visual, audio, mask = result[0], result[1], result[2]
    b, _, t = visual.shape
    return int(mask.valid_lengths.sum()), b * t, visual.data.nbytes + audio.data.nbytes


def _kmeans_iterations(result, args, kwargs):
    return len(result.inertia_history or ())


def _checkpoint_size(result, args, kwargs):
    return args[0], os.path.getsize(args[0])


def _forward_name(args, kwargs):
    train = kwargs.get("train", args[4] if len(args) > 4 else False)
    return "models.forward_train" if train else "models.forward_eval"


def _targets():
    """(owner, attribute, span name or name function, before hook, after hook)."""
    from videoseq import autodiff, dataio, models, training

    targets = [
        (training, "train", "training.train", None, None),
        (training, "predict", "training.predict", None, None),
        (training, "evaluate", "training.evaluate", None, None),
        (training, "ensemble_average", "training.ensemble_average", None, None),
        (training.Adam, "step", "training.optimizer_step", None, None),
        (dataio, "generate_synthetic", "dataio.generate_synthetic", None, None),
        (training, "load_records", "dataio.load_records", None, None),
        (training, "pad_batch", "dataio.pad_batch", None, _padding),
        (training, "kmeans_fit", "vlad.kmeans_fit", None, _kmeans_iterations),
        (models, "vlad_encode", "vlad.vlad_encode", None, None),
        (models, "run_bidirectional", "recurrent.run_bidirectional", None, None),
        (models, "attention_pool", "recurrent.attention_pool", None, None),
        (autodiff, "conv1d_same", "autodiff.conv1d_same", _im2col_bytes, None),
        (autodiff, "batchnorm_time", "autodiff.batchnorm_time", None, None),
        (autodiff, "backward", "autodiff.backward", _tape_size, None),
        (training, "save_checkpoint", "models.save_checkpoint", None, _checkpoint_size),
        (training, "load_checkpoint", "models.load_checkpoint", None, None),
        # the trainer's VLAD path runs the head on cached encodings: a train-mode forward
        (training, "mlp_classify", "models.forward_train", None, None),
        (training, "gap_at_k", "metrics.gap_at_k", None, None),
        (training, "topk_predictions", "metrics.topk_predictions", None, None),
        (training, "write_prediction_file", "metrics.write_prediction_file", None, None),
        (training, "read_prediction_file", "metrics.read_prediction_file", None, None),
    ]
    for cls in model_classes():
        targets.append((cls, "forward", _forward_name, None, None))
    return targets


def model_classes():
    from videoseq import models

    return (
        models.VideoLevelModel,
        models.VladMlpModel,
        models.TwoStreamModel,
        models.FastForwardModel,
        models.StackedModel,
        models.TemporalResnetModel,
    )


def snapshot():
    """The objects the tracer replaces, keyed by (owner, attribute)."""
    return {
        (owner, attr): owner.__dict__[attr]
        for owner, attr, *_ in _targets()
        if attr in owner.__dict__
    }


class Tracer:
    """Records spans while ``installed()``; one tracer per traced pipeline."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, extra], in start order
        self._stack = []

    def _wrap(self, fn, name, before, after):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            extra = before(args, kwargs) if before else None
            span = [name(args, kwargs) if callable(name) else name, clock(), 0.0,
                    stack[-1] if stack else -1, extra]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after:
                span[EXTRA] = after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, before, after in _targets():
                if attr not in owner.__dict__:
                    continue  # nothing to trace where the library no longer binds it
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, before, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def to_json(self):
        return [
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT]}
            for s in self.spans
        ]

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded so far."""
        return span_metrics(self.spans)


def _quantile(values, q: float) -> float:
    """Linear-interpolated quantile; 0.0 for a layer that made no call."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def span_metrics(spans) -> dict:
    """Every per-layer metric except ``dataio.generate_s`` and the overhead ratio.

    busy = the time a layer's spans cover (nested spans of one layer count
    once); self = a span's duration minus its child spans' durations, summed
    over the layer's spans.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    busy = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    extras = defaultdict(list)
    step_ms = []
    forward_start = None
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        layer = name.split(".", 1)[0]
        calls[layer] += 1
        self_s[layer] += dur - child_time[i]
        parent = s[PARENT]
        while parent >= 0 and not spans[parent][NAME].startswith(layer + "."):
            parent = spans[parent][PARENT]
        if parent < 0:
            busy[layer] += dur
        durations[name].append(dur)
        if s[EXTRA] is not None:
            extras[name].append(s[EXTRA])
        if name == "models.forward_train":
            forward_start = s[START]
        elif name == "training.optimizer_step" and forward_start is not None:
            step_ms.append((s[END] - forward_start) * 1e3)
            forward_start = None

    def total(name):
        return float(sum(durations[name]))

    def ms(name, q):
        return _quantile([d * 1e3 for d in durations[name]], q)

    tape = extras["autodiff.backward"]
    steps = len(durations["training.optimizer_step"])
    pads = extras["dataio.pad_batch"]
    padded_frames = sum(p[1] for p in pads)
    checkpoints = dict(extras["models.save_checkpoint"])  # final size per path

    out = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = busy[layer]
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    out.update(
        {
            "autodiff.tape_nodes_per_step": sum(t[0] for t in tape) / len(tape) if tape else 0.0,
            "autodiff.tape_mb_per_step": sum(t[1] for t in tape) / len(tape) / MB if tape else 0.0,
            "autodiff.backward_ms_p50": ms("autodiff.backward", 0.5),
            "autodiff.backward_ms_p90": ms("autodiff.backward", 0.9),
            "autodiff.conv1d_same_s": total("autodiff.conv1d_same"),
            "autodiff.conv_im2col_mb_max": max(extras["autodiff.conv1d_same"], default=0) / MB,
            "autodiff.batchnorm_time_s": total("autodiff.batchnorm_time"),
            "recurrent.run_bidirectional_s": total("recurrent.run_bidirectional"),
            "recurrent.attention_pool_s": total("recurrent.attention_pool"),
            "models.forward_train_ms_p50": ms("models.forward_train", 0.5),
            "models.forward_train_ms_p90": ms("models.forward_train", 0.9),
            "models.forward_eval_ms_p50": ms("models.forward_eval", 0.5),
            "models.checkpoint_save_s": total("models.save_checkpoint"),
            "models.checkpoint_load_s": total("models.load_checkpoint"),
            "models.checkpoint_mb": sum(checkpoints.values()) / MB,
            "training.step_ms_p50": _quantile(step_ms, 0.5),
            "training.step_ms_p90": _quantile(step_ms, 0.9),
            "training.steps": steps,
            "training.optimizer_step_ms_p50": ms("training.optimizer_step", 0.5),
            "dataio.valid_frame_ratio": (
                sum(p[0] for p in pads) / padded_frames if padded_frames else 0.0
            ),
            "dataio.pad_batch_ms_p50": ms("dataio.pad_batch", 0.5),
            "dataio.pad_batch_ms_p90": ms("dataio.pad_batch", 0.9),
            "dataio.padded_batch_mb": sum(p[2] for p in pads) / len(pads) / MB if pads else 0.0,
            "dataio.load_s": total("dataio.load_records"),
            "dataio.load_count": len(durations["dataio.load_records"]),
            "vlad.kmeans_fit_s": total("vlad.kmeans_fit"),
            "vlad.kmeans_iterations": sum(extras["vlad.kmeans_fit"]),
            "vlad.encode_count": len(durations["vlad.vlad_encode"]),
            "vlad.encode_ms_p50": ms("vlad.vlad_encode", 0.5),
            "metrics.topk_s": total("metrics.topk_predictions"),
            "metrics.gap_at_k_s": total("metrics.gap_at_k"),
            "metrics.prediction_file_write_s": total("metrics.write_prediction_file"),
            "metrics.prediction_file_read_s": total("metrics.read_prediction_file"),
        }
    )
    return out
