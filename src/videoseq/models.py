"""The classifier architectures, assembled from the autodiff primitives.

Every kind is ``VideoLevelModel`` with its own temporal pooling: the model
checks its inputs, pools the masked frame features into one vector per
video, and scores it with the same MLP head. ``forward`` is defined once,
on ``VideoLevelModel``, and returns the [batch x vocab] probability tensor.
A kind supplies a table and ``_pool``. ``_table`` lazily yields one
(name, shape, init) entry per tensor from spec arithmetic alone, in
checkpoint order: pooling parameters, ``head.*``, then non-trainable state.
``_pool`` pools, reading its tensors by name:

- ``video_level``: masked mean over frames
- ``vlad_mlp``: VLAD encoding against a fitted codebook
- ``two_stream_lstm`` / ``two_stream_gru``: one bidirectional encoder with
  attention pooling per modality, fused by concatenation
- ``ff_lstm`` / ``ff_gru``: deep bidirectional stacks where each layer's
  output is embedded together with the previous embedding through a
  per-step fully-connected fast-forward connection, then attention
- ``temporal_resnet``: residual temporal convolution blocks feeding a
  bidirectional LSTM with attention
- ``stacked_lstm``: ``ff_lstm`` with the fast-forward FC off, so each layer
  feeds its bidirectional states straight to the next

The recurrent kinds share one "bidirectional layers (optionally
fast-forwarded) -> attention" helper, which hands ``tensors`` itself to
``recurrent``'s runners: they read each cell and attention pool by its
prefix in the table. ``temporal_resnet`` hands it to ``batchnorm_time`` the
same way, which reads each batch norm by prefix and, in train mode, writes
its running statistics back into the table. Every model ends in a
per-class sigmoid and masks its raw inputs before anything reads them, with
the one join-and-mask node ``autodiff.concat(streams, mask)`` (``video_level``
inside each stream's masked mean), so values stored at padded frame positions
can never influence the output. ``build_model``
draws the table in order from the spec-seeded generator;
``load_checkpoint`` (end of this module) walks it beside the file's tensors
and adopts them, drawing nothing. Checkpoint framing (magic, version,
strings, bounded reads, atomic writes) lives in ``container``. ``SPEC_FIELDS``
declares each spec field after ``kind`` once, and spec validation, the
checkpoint's spec record and the CLI's ``model.*`` keys all walk it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import container
from .autodiff import Tensor, TimeMask
from .errors import ConfigurationError, FormatError, check_int, check_shape
from .recurrent import (ONES, ZEROS, Init, attention_pool, attention_table, cell_table, draw_table,
                        run_bidirectional)
from .vlad import Codebook, vlad_encode

# the deep bidirectional stacks: the default clip rule reads this
DEEP_STACK_KINDS = ("ff_lstm", "ff_gru", "stacked_lstm")


# field -> (struct format in the spec record, which bounds it from above; least legal value)
SPEC_FIELDS = dict(vocab_size=("<I", 1), visual_dim=("<I", 0), audio_dim=("<I", 0),
                   hidden_size=("<I", 1), depth=("<I", 1), trb_count=("<I", 1),
                   trb_filters=("<I", 1), fc_sizes=("<2I", 1), vlad_clusters=("<I", 1),
                   seed=("<q", 0))
_MOST = {"I": 2**32 - 1, "q": 2**63 - 1}  # the largest value each struct code above packs


def _field_value(name: str, value):
    """``value`` (an int, or a tuple for a field that packs several) as field ``name`` holds it."""
    fmt, least = SPEC_FIELDS[name]
    count, most = int(fmt[1:-1] or 1), _MOST[fmt[-1]]
    values = tuple(value) if isinstance(value, (tuple, list)) else (value,)
    if len(values) != count:
        raise ConfigurationError(f"{name} must hold {count} integer{'s' * (count > 1)}, got {len(values)}")
    values = tuple(check_int(name if count == 1 else f"{name}[{i}]", v, least, most)
                   for i, v in enumerate(values))
    return values if count > 1 else values[0]


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of one classifier; unused fields are ignored but validated."""

    kind: str
    vocab_size: int
    visual_dim: int = 1024
    audio_dim: int = 128
    hidden_size: int = 64
    depth: int = 1
    trb_count: int = 9
    trb_filters: int = 1024
    fc_sizes: tuple | None = None
    vlad_clusters: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigurationError(f"kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        for name in SPEC_FIELDS:  # vocab_size comes first, so the fc_sizes default reads it checked
            value = getattr(self, name)
            if name == "fc_sizes" and value is None:
                value = (512, self.vocab_size)
            object.__setattr__(self, name, _field_value(name, value))
        check_int("visual_dim + audio_dim", self.feature_dim, 1)
        if self.fc_sizes[1] != self.vocab_size:
            vocab, got = self.vocab_size, self.fc_sizes[1]
            raise ConfigurationError(f"fc_sizes[1] must equal vocab_size {vocab}, got {got}")

    @property
    def feature_dim(self) -> int:
        return self.visual_dim + self.audio_dim


_STATE_ZEROS, _STATE_ONES = Init(0.0, trainable=False), Init(1.0, trainable=False)


def _head_table(spec: ModelSpec, width: int):
    hidden, out = spec.fc_sizes
    yield "head.w1", (hidden, width), Init(fan_in=width)
    yield "head.b1", (hidden,), ZEROS
    yield "head.w2", (out, hidden), Init(fan_in=hidden)
    yield "head.b2", (out,), ZEROS


def _conv_table(weight: str, bias: str, c_out: int, c_in: int, width: int):
    yield weight, (c_out, c_in, width), Init(fan_in=c_in * width)
    yield bias, (c_out,), ZEROS


def _birnn_attention_table(spec: ModelSpec, prefixes, in_dim: int, attn_prefix: str,
                           fast_forward: bool = False):
    """One bidirectional layer per prefix (with its fast-forward FC if on), then the attention.

    Cells are GRUs for the ``*_gru`` kinds and LSTMs otherwise.
    """
    h, cell = spec.hidden_size, "gru" if spec.kind.endswith("_gru") else "lstm"
    for prefix in prefixes:
        yield from cell_table(f"{prefix}.fwd", cell, in_dim, h)
        yield from cell_table(f"{prefix}.bwd", cell, in_dim, h)
        if fast_forward:
            yield from _conv_table(f"{prefix}.ff_weight", f"{prefix}.ff_bias", 2 * h, in_dim + 2 * h, 1)
        in_dim = 2 * h
    yield from attention_table(attn_prefix, 2 * h, h)


def _mlp_head(t: dict, x: Tensor) -> Tensor:
    """Two fully-connected layers (``head.*``) with a ReLU between and a sigmoid on top."""
    h = ad.relu(ad.linear(x, t["head.w1"], t["head.b1"]))
    return ad.sigmoid(ad.linear(h, t["head.w2"], t["head.b2"]))


def _birnn_attention(t: dict, prefixes, attn_prefix: str, x: Tensor, mask: TimeMask) -> Tensor:
    """Bidirectional layers, then attention pooling: [b x c x t] -> [b x 2*hidden].

    Layer i's input is x_{i-1} (x_0 = ``x``); its output x_i is its states h_i,
    or with a fast-forward FC, ReLU(FC([x_{i-1}; h_i])) at every step.
    """
    for prefix in prefixes:
        states = run_bidirectional(t, prefix, x, mask)
        ff_k = t.get(f"{prefix}.ff_weight")
        if ff_k is None:
            x = states
        else:
            x = ad.relu(ad.conv1d_same(ad.concat([x, states]), ff_k, t[f"{prefix}.ff_bias"]))
    return attention_pool(t, attn_prefix, x, mask)


class VideoLevelModel:
    """Masked mean over frames, then the MLP head; the skeleton of every kind.

    ``tensors`` maps each name of the kind's table to its Tensor, in table
    order. Every other kind subclasses it and overrides the ``_table`` and
    ``_pool`` hooks (see the module docstring).
    """

    def __init__(self, spec: ModelSpec, tensors: dict):
        self.spec = spec
        self.tensors = tensors

    @classmethod
    def _table(cls, spec: ModelSpec):
        return _head_table(spec, spec.feature_dim)

    def _pool(self, visual: Tensor, audio: Tensor, mask: TimeMask, train: bool) -> Tensor:
        return ad.concat([ad.masked_mean_time(visual, mask), ad.masked_mean_time(audio, mask)])

    def named_parameters(self):
        return [(name, t) for name, t in self.tensors.items() if t.requires_grad]

    def forward(self, visual: Tensor, audio: Tensor, mask: TimeMask, train: bool = False) -> Tensor:
        """Per-class probabilities [batch x vocab], every value strictly in (0, 1), once each
        stream passes ``mask.check`` with its width, ``visual_dim`` or ``audio_dim``."""
        mask.check(visual, "forward (visual)", self.spec.visual_dim)
        mask.check(audio, "forward (audio)", self.spec.audio_dim)
        return _mlp_head(self.tensors, self._pool(visual, audio, mask, train))


class VladMlpModel(VideoLevelModel):
    """VLAD encoding of each video's valid frames, classified by an MLP.

    The codebook is fitted outside the gradient loop (k-means on training
    frames) and rides along in checkpoints as non-trainable state.
    """

    @classmethod
    def _table(cls, spec):
        k, d = spec.vlad_clusters, spec.feature_dim
        yield from _head_table(spec, k * d)
        yield "codebook.centers", (k, d), _STATE_ZEROS

    def set_codebook(self, codebook: Codebook):
        centers = self.tensors["codebook.centers"]
        check_shape("codebook centers", codebook.centers.shape, centers.shape)
        centers.data = codebook.centers

    def _pool(self, visual, audio, mask, train):
        codebook = Codebook(self.tensors["codebook.centers"].data)
        rows = []
        for i in range(mask.batch):
            t = int(mask.valid_lengths[i])
            frames = np.concatenate(
                [visual.data[i, :, :t].T, audio.data[i, :, :t].T], axis=1
            )
            rows.append(vlad_encode(codebook, frames))
        return Tensor(np.stack(rows))


class TwoStreamModel(VideoLevelModel):
    """Independent bidirectional encoder + attention per modality, fused late."""

    @classmethod
    def _table(cls, spec):
        for name, dim in (("visual", spec.visual_dim), ("audio", spec.audio_dim)):
            yield from _birnn_attention_table(spec, [name], dim, f"{name}.attn")
        yield from _head_table(spec, 4 * spec.hidden_size)

    def _pool(self, visual, audio, mask, train):
        pooled = [_birnn_attention(self.tensors, [name], f"{name}.attn", ad.concat([x], mask), mask)
                  for name, x in (("visual", visual), ("audio", audio))]
        return ad.concat(pooled)


class FastForwardModel(VideoLevelModel):
    """Deep bidirectional stack with per-layer fully-connected fast paths.

    Layer i runs a bidirectional cell pair over the previous fast-forward
    embedding f_{i-1} (f_0 is the raw feature sequence), then embeds
    [f_{i-1}; h_i] back to the fast-forward width with one per-step FC and
    a ReLU. The classifier head attends over the last embedding. With
    ``fast_forward`` off the FC is absent and f_i is h_i itself.
    """

    fast_forward = True

    @classmethod
    def _table(cls, spec):
        layers = (f"layer{i}" for i in range(spec.depth))
        yield from _birnn_attention_table(spec, layers, spec.feature_dim, "attn", cls.fast_forward)
        yield from _head_table(spec, 2 * spec.hidden_size)

    def _pool(self, visual, audio, mask, train):
        features = ad.concat([visual, audio], mask)
        layers = (f"layer{i}" for i in range(self.spec.depth))
        return _birnn_attention(self.tensors, layers, "attn", features, mask)


class StackedModel(FastForwardModel):
    """The naive deep stack: the fast-forward LSTM with its FC off."""

    fast_forward = False


class TemporalResnetModel(VideoLevelModel):
    """Stack of temporal residual blocks, then a bidirectional LSTM head.

    Each block is conv3 -> BN -> ReLU -> conv3 -> BN, then the shortcut sum
    and the final ReLU as one ``relu(x, y)`` node. The raw streams enter as
    one ``autodiff.concat([visual, audio], mask)``, and the width-1 projection's
    output is re-masked to zero at padded frames by ``concat([x], mask)`` (its
    bias makes them nonzero); a block needs no mask of its own, since batch
    norm zeroes its output there and the shortcut is zero there already.
    """

    @classmethod
    def _table(cls, spec):
        f = spec.trb_filters
        yield from _conv_table("proj.weight", "proj.bias", f, spec.feature_dim, 1)
        for i in range(spec.trb_count):
            for j in (1, 2):
                yield from _conv_table(f"block{i}.conv{j}.weight", f"block{i}.conv{j}.bias", f, f, 3)
                yield f"block{i}.bn{j}.gamma", (f,), ONES
                yield f"block{i}.bn{j}.beta", (f,), ZEROS
        yield from _birnn_attention_table(spec, ["lstm"], f, "attn")
        yield from _head_table(spec, 2 * spec.hidden_size)
        for bn in (f"block{i}.bn{j}" for i in range(spec.trb_count) for j in (1, 2)):
            yield f"{bn}.running_mean", (f,), _STATE_ZEROS
            yield f"{bn}.running_var", (f,), _STATE_ONES
            yield f"{bn}.initialized", (1,), _STATE_ZEROS

    def _conv_bn(self, x: Tensor, block: str, j: int, mask: TimeMask, train: bool) -> Tensor:
        """conv{j} then bn{j} of ``block``; batch norm keeps its running statistics in ``tensors``."""
        t = self.tensors
        y = ad.conv1d_same(x, t[f"{block}.conv{j}.weight"], t[f"{block}.conv{j}.bias"])
        return ad.batchnorm_time(t, f"{block}.bn{j}", y, mask, train)

    def _pool(self, visual, audio, mask, train):
        t = self.tensors
        x = ad.conv1d_same(ad.concat([visual, audio], mask), t["proj.weight"], t["proj.bias"])
        x = ad.concat([x], mask)
        for i in range(self.spec.trb_count):
            y = ad.relu(self._conv_bn(x, f"block{i}", 1, mask, train))
            x = ad.relu(x, self._conv_bn(y, f"block{i}", 2, mask, train))
        return _birnn_attention(self.tensors, ["lstm"], "attn", x, mask)


_BUILDERS = {
    "video_level": VideoLevelModel,
    "vlad_mlp": VladMlpModel,
    "two_stream_lstm": TwoStreamModel,
    "two_stream_gru": TwoStreamModel,
    "ff_lstm": FastForwardModel,
    "ff_gru": FastForwardModel,
    "temporal_resnet": TemporalResnetModel,
    "stacked_lstm": StackedModel,
}
MODEL_KINDS = tuple(_BUILDERS)


def tensor_table(spec: ModelSpec):
    """Lazy (name, shape, init) entries of every tensor of ``spec``'s model, in checkpoint order:
    pooling parameters, then ``head.*``, then the non-trainable state."""
    return _BUILDERS[spec.kind]._table(spec)


def build_model(spec: ModelSpec) -> VideoLevelModel:
    """A fresh model: every table entry drawn in order from the spec-seeded generator."""
    rng = np.random.default_rng(spec.seed)
    return _BUILDERS[spec.kind](spec, draw_table(tensor_table(spec), rng))


# ---------------------------------------------------------------------------
# checkpoint file format
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"FLCK"
_CKPT_VERSION = 1


def _spec_to_bytes(spec: ModelSpec) -> bytes:
    parts = [container.string(spec.kind)]
    for name, (fmt, _) in SPEC_FIELDS.items():
        value = getattr(spec, name)
        parts.append(struct.pack(fmt, *(value if isinstance(value, tuple) else (value,))))
    return b"".join(parts)


def _spec_from_reader(reader: container.Reader) -> ModelSpec:
    """The spec record; a bad field is a FormatError naming the file, field, value and offset."""
    start = reader.offset
    fields = {"kind": reader.string("spec kind")}
    try:
        for name, (fmt, _) in SPEC_FIELDS.items():
            at = reader.offset
            fields[name] = _field_value(name, reader.unpack(fmt, f"spec field {name}"))
        at = start
        return ModelSpec(**fields)
    except ConfigurationError as exc:
        raise FormatError(f"{reader.path}: spec at byte {at}: {exc}") from None


def save_checkpoint(path: str, model: VideoLevelModel) -> None:
    """Flat binary: spec, then every tensor in table order."""
    with container.atomic_write(path) as f:
        f.write(container.header(_CKPT_MAGIC, _CKPT_VERSION))
        f.write(_spec_to_bytes(model.spec))
        f.write(struct.pack("<I", len(model.tensors)))
        for name, tensor in model.tensors.items():
            arr = tensor.data
            f.write(container.string(name))
            f.write(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
            f.write(np.ascontiguousarray(arr, dtype="<f8"))


def load_checkpoint(path: str) -> VideoLevelModel:
    """Walk the spec's tensor table beside the file's and adopt the read arrays: each tensor is
    read, bounded by the file size, then must have the name and shape the table declares next."""
    with container.Reader(path, _CKPT_MAGIC, _CKPT_VERSION, "checkpoint") as reader:
        spec = _spec_from_reader(reader)
        (count,) = reader.unpack("<I", "tensor count")
        tensors = {}
        for name, shape, init in tensor_table(spec):
            at = f"at byte {reader.offset}"  # where this tensor's record starts, or would start
            if len(tensors) == count:
                raise FormatError(f"{path}: checkpoint is missing tensor {name!r} {at}")
            found = reader.string("tensor name")
            (ndim,) = reader.unpack("<B", f"tensor {found!r} rank")
            dims = reader.unpack(f"<{ndim}I", f"tensor {found!r} shape")
            arr = reader.tensor(dims, f"tensor {found!r}")
            if found != name:
                raise FormatError(f"{path}: found tensor {found!r} where {name!r} belongs {at}")
            if arr.shape != shape:
                raise FormatError(f"{path}: tensor {name!r} has shape {arr.shape}, expected {shape} {at}")
            tensors[name] = Tensor(arr, requires_grad=init.trainable)
        if count > len(tensors):
            at = f"at byte {reader.offset}"
            raise FormatError(f"{path}: unexpected tensor {reader.string('tensor name')!r} {at}")
        reader.finish()
    return _BUILDERS[spec.kind](spec, tensors)
