"""The classifier architectures, assembled from the autodiff primitives.

Every kind is ``VideoLevelModel`` with its own temporal pooling: the model
checks its inputs, pools the masked frame features into one vector per
video, and scores it with the same MLP head. ``forward`` is defined once,
on ``VideoLevelModel``, and returns the [batch x vocab] probability tensor.
A kind supplies two hooks: ``_build`` draws its pooling parameters from
the spec-seeded generator (the head is drawn after them) and returns the
pooled width, and ``_pool`` does the pooling:

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
fast-forwarded) -> attention" helper. Every model ends in a per-class
sigmoid and masks its raw inputs up front, so values stored at padded
frame positions can never influence the output. Checkpoints (``FLCK``) are
read and written at the end of this module; their framing (magic, version,
strings, bounded reads, atomic writes) lives in ``container``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import container
from .autodiff import BatchNormState, Tensor, TimeMask
from .errors import ConfigurationError, DimensionError, FormatError
from .recurrent import AttentionParams, RecurrentCellParams, attention_pool, run_bidirectional
from .vlad import Codebook, vlad_encode

MODEL_KINDS = (
    "video_level",
    "vlad_mlp",
    "two_stream_lstm",
    "two_stream_gru",
    "ff_lstm",
    "ff_gru",
    "temporal_resnet",
    "stacked_lstm",
)
# the deep bidirectional stacks: the default clip rule and the gradcheck toy depth read this
DEEP_STACK_KINDS = ("ff_lstm", "ff_gru", "stacked_lstm")


@dataclass
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
            raise ConfigurationError(
                f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}"
            )
        for name in ("vocab_size", "feature_dim", "hidden_size", "depth", "trb_count",
                     "trb_filters", "vlad_clusters"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.fc_sizes is None:
            self.fc_sizes = (512, self.vocab_size)
        else:
            self.fc_sizes = tuple(int(s) for s in self.fc_sizes)
            if len(self.fc_sizes) != 2:
                raise ConfigurationError("fc_sizes must hold exactly two layer widths")
            if self.fc_sizes[0] < 1:
                raise ConfigurationError(f"fc_sizes[0] must be >= 1, got {self.fc_sizes[0]}")
            if self.fc_sizes[1] != self.vocab_size:
                raise ConfigurationError(
                    f"final head width {self.fc_sizes[1]} must equal vocab_size "
                    f"{self.vocab_size}"
                )

    @property
    def feature_dim(self) -> int:
        return self.visual_dim + self.audio_dim


class MlpHead:
    """Two fully-connected layers with a ReLU between and a sigmoid on top."""

    def __init__(self, input_dim: int, fc_sizes: tuple, rng: np.random.Generator):
        hidden, out = fc_sizes
        s1 = 1.0 / np.sqrt(input_dim)
        s2 = 1.0 / np.sqrt(hidden)
        self.w1 = Tensor(rng.uniform(-s1, s1, size=(hidden, input_dim)), requires_grad=True)
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.w2 = Tensor(rng.uniform(-s2, s2, size=(out, hidden)), requires_grad=True)
        self.b2 = Tensor(np.zeros(out), requires_grad=True)

    def parameters(self, prefix: str):
        yield f"{prefix}.w1", self.w1
        yield f"{prefix}.b1", self.b1
        yield f"{prefix}.w2", self.w2
        yield f"{prefix}.b2", self.b2

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[1] != self.w1.shape[1]:
            raise DimensionError(
                f"head expects {self.w1.shape[1]} input features, got {x.shape}"
            )
        h = ad.relu(ad.matmul(x, ad.transpose(self.w1)) + self.b1)
        return ad.sigmoid(ad.matmul(h, ad.transpose(self.w2)) + self.b2)


def _conv_params(c_out: int, c_in: int, width: int, rng: np.random.Generator):
    scale = 1.0 / np.sqrt(c_in * width)
    k = Tensor(rng.uniform(-scale, scale, size=(c_out, c_in, width)), requires_grad=True)
    b = Tensor(np.zeros(c_out), requires_grad=True)
    return k, b


def _masked_features(visual: Tensor, audio: Tensor, mask: TimeMask) -> Tensor:
    m = mask.channel_mask()
    return ad.concat([visual * m, audio * m], axis=1)


def _birnn_attention_params(model, rng, in_dim: int, prefixes, attn_prefix: str,
                            fast_forward: bool = False):
    """Draw and register one layer per prefix, then the attention pool -> (layers, attn).

    Cells are GRUs for the ``*_gru`` kinds and LSTMs otherwise; a layer is
    (fwd, bwd, ff_k, ff_b), its fast-forward FC None with ``fast_forward`` off.
    """
    cell = "gru" if model.spec.kind.endswith("_gru") else "lstm"
    h = model.spec.hidden_size
    layers = []
    for prefix in prefixes:
        fwd = RecurrentCellParams.create(cell, in_dim, h, rng)
        bwd = RecurrentCellParams.create(cell, in_dim, h, rng)
        model._register(fwd.parameters(f"{prefix}.fwd"))
        model._register(bwd.parameters(f"{prefix}.bwd"))
        ff_k = ff_b = None
        if fast_forward:
            ff_k, ff_b = _conv_params(2 * h, in_dim + 2 * h, 1, rng)
            model._register([(f"{prefix}.ff_weight", ff_k), (f"{prefix}.ff_bias", ff_b)])
        layers.append((fwd, bwd, ff_k, ff_b))
        in_dim = 2 * h
    attn = AttentionParams.create(2 * h, h, rng)
    model._register(attn.parameters(attn_prefix))
    return layers, attn


def _birnn_attention(layers, attn: AttentionParams, x: Tensor, mask: TimeMask) -> Tensor:
    """Bidirectional layers, then attention pooling: [b x c x t] -> [b x 2*hidden].

    Layer i's input is x_{i-1} (x_0 = ``x``); its output x_i is its states h_i,
    or with a fast-forward FC, ReLU(FC([x_{i-1}; h_i])) at every step.
    """
    for fwd, bwd, ff_k, ff_b in layers:
        states = run_bidirectional(fwd, bwd, x, mask)
        if ff_k is None:
            x = states
        else:
            x = ad.relu(ad.conv1d_same(ad.concat([x, states], axis=1), ff_k, ff_b))
    return attention_pool(attn, x, mask)


class VideoLevelModel:
    """Masked mean over frames, then the MLP head; the skeleton of every kind.

    Every other kind subclasses it and overrides the ``_build`` and ``_pool``
    hooks (see the module docstring).
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self._params: list = []
        rng = np.random.default_rng(spec.seed)
        self.head = MlpHead(self._build(rng), spec.fc_sizes, rng)
        self._register(self.head.parameters("head"))

    def _build(self, rng: np.random.Generator) -> int:
        return self.spec.feature_dim

    def _pool(self, visual: Tensor, audio: Tensor, mask: TimeMask, train: bool) -> Tensor:
        return ad.masked_mean_time(_masked_features(visual, audio, mask), mask)

    def _register(self, named):
        self._params.extend(named)

    def named_parameters(self):
        return list(self._params)

    def _extra_state(self):
        """Non-trainable arrays the predict path needs (overridden as needed)."""
        return []

    def _load_extra_state(self, arrays: dict):
        """Restore ``_extra_state`` from arrays already checked against its names and shapes."""

    def forward(self, visual: Tensor, audio: Tensor, mask: TimeMask, train: bool = False) -> Tensor:
        """Per-class probabilities [batch x vocab], every value strictly in (0, 1)."""
        spec = self.spec
        if visual.ndim != 3 or visual.shape[1] != spec.visual_dim:
            raise DimensionError(
                f"visual input {visual.shape} does not match visual_dim {spec.visual_dim}"
            )
        if audio.ndim != 3 or audio.shape[1] != spec.audio_dim:
            raise DimensionError(
                f"audio input {audio.shape} does not match audio_dim {spec.audio_dim}"
            )
        if visual.shape[0] != audio.shape[0] or visual.shape[2] != audio.shape[2]:
            raise DimensionError(
                f"visual {visual.shape} and audio {audio.shape} batches do not align"
            )
        if visual.shape[0] != mask.batch or visual.shape[2] != mask.max_time:
            raise DimensionError(
                f"inputs {visual.shape} do not match mask (batch {mask.batch}, "
                f"time {mask.max_time})"
            )
        return self.head.forward(self._pool(visual, audio, mask, train))


class VladMlpModel(VideoLevelModel):
    """VLAD encoding of each video's valid frames, classified by an MLP.

    The codebook is fitted outside the gradient loop (k-means on training
    frames) and rides along in checkpoints as non-trainable state.
    """

    def _build(self, rng):
        spec = self.spec
        self.codebook = Codebook(np.zeros((spec.vlad_clusters, spec.feature_dim)))
        return spec.vlad_clusters * spec.feature_dim

    def set_codebook(self, codebook: Codebook):
        if codebook.centers.shape != self.codebook.centers.shape:
            raise DimensionError(
                f"codebook shape {codebook.centers.shape} does not match spec "
                f"{self.codebook.centers.shape}"
            )
        self.codebook = codebook

    def _pool(self, visual, audio, mask, train):
        rows = []
        for i in range(mask.batch):
            t = int(mask.valid_lengths[i])
            frames = np.concatenate(
                [visual.data[i, :, :t].T, audio.data[i, :, :t].T], axis=1
            )
            rows.append(vlad_encode(self.codebook, frames))
        return Tensor(np.stack(rows))

    def _extra_state(self):
        return [("codebook.centers", self.codebook.centers)]

    def _load_extra_state(self, arrays):
        self.codebook = Codebook(arrays.pop("codebook.centers"))


class TwoStreamModel(VideoLevelModel):
    """Independent bidirectional encoder + attention per modality, fused late."""

    def _build(self, rng):
        spec = self.spec
        self.streams = {
            name: _birnn_attention_params(self, rng, dim, [name], f"{name}.attn")
            for name, dim in (("visual", spec.visual_dim), ("audio", spec.audio_dim))
        }
        return 4 * spec.hidden_size

    def _pool(self, visual, audio, mask, train):
        m = mask.channel_mask()
        pooled = [
            _birnn_attention(*self.streams[name], x * m, mask)
            for name, x in (("visual", visual), ("audio", audio))
        ]
        return ad.concat(pooled, axis=1)


class FastForwardModel(VideoLevelModel):
    """Deep bidirectional stack with per-layer fully-connected fast paths.

    Layer i runs a bidirectional cell pair over the previous fast-forward
    embedding f_{i-1} (f_0 is the raw feature sequence), then embeds
    [f_{i-1}; h_i] back to the fast-forward width with one per-step FC and
    a ReLU. The classifier head attends over the last embedding. With
    ``fast_forward`` off the FC is absent and f_i is h_i itself.
    """

    fast_forward = True

    def _build(self, rng):
        spec = self.spec
        prefixes = [f"layer{i}" for i in range(spec.depth)]
        self.layers, self.attn = _birnn_attention_params(
            self, rng, spec.feature_dim, prefixes, "attn", self.fast_forward
        )
        return 2 * spec.hidden_size

    def _pool(self, visual, audio, mask, train):
        features = _masked_features(visual, audio, mask)
        return _birnn_attention(self.layers, self.attn, features, mask)


class StackedModel(FastForwardModel):
    """The naive deep stack: the fast-forward LSTM with its FC off."""

    fast_forward = False


class TemporalResnetModel(VideoLevelModel):
    """Stack of temporal residual blocks, then a bidirectional LSTM head.

    Each block is conv3 -> BN -> ReLU -> conv3 -> BN, an additive shortcut,
    and a final ReLU; outputs are re-masked to zero at padded frames after
    the width-1 projection and after every block.
    """

    def _build(self, rng):
        spec = self.spec
        filters = spec.trb_filters
        self.proj_k, self.proj_b = _conv_params(filters, spec.feature_dim, 1, rng)
        self._register([("proj.weight", self.proj_k), ("proj.bias", self.proj_b)])
        self.blocks = []
        self.bn_states = []
        for i in range(spec.trb_count):
            block = {}
            for j in (1, 2):
                k, b = _conv_params(filters, filters, 3, rng)
                gamma = Tensor(np.ones(filters), requires_grad=True)
                beta = Tensor(np.zeros(filters), requires_grad=True)
                state = BatchNormState.for_channels(filters)
                block[j] = (k, b, gamma, beta, state)
                self._register(
                    [
                        (f"block{i}.conv{j}.weight", k),
                        (f"block{i}.conv{j}.bias", b),
                        (f"block{i}.bn{j}.gamma", gamma),
                        (f"block{i}.bn{j}.beta", beta),
                    ]
                )
                self.bn_states.append((f"block{i}.bn{j}", state))
            self.blocks.append(block)
        self.layers, self.attn = _birnn_attention_params(self, rng, filters, ["lstm"], "attn")
        return 2 * spec.hidden_size

    def _pool(self, visual, audio, mask, train):
        m = mask.channel_mask()
        x = ad.conv1d_same(_masked_features(visual, audio, mask), self.proj_k, self.proj_b) * m
        for block in self.blocks:
            k1, b1, g1, be1, s1 = block[1]
            k2, b2, g2, be2, s2 = block[2]
            y = ad.relu(ad.batchnorm_time(ad.conv1d_same(x, k1, b1), mask, g1, be1, train, s1))
            y = ad.batchnorm_time(ad.conv1d_same(y, k2, b2), mask, g2, be2, train, s2)
            x = ad.relu(x + y) * m
        return _birnn_attention(self.layers, self.attn, x, mask)

    def _extra_state(self):
        out = []
        for name, state in self.bn_states:
            out.append((f"{name}.running_mean", state.running_mean))
            out.append((f"{name}.running_var", state.running_var))
            out.append((f"{name}.initialized", np.array([1.0 if state.initialized else 0.0])))
        return out

    def _load_extra_state(self, arrays):
        for name, state in self.bn_states:
            state.running_mean = arrays.pop(f"{name}.running_mean")
            state.running_var = arrays.pop(f"{name}.running_var")
            state.initialized = bool(arrays.pop(f"{name}.initialized")[0])


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


def build_model(spec: ModelSpec) -> VideoLevelModel:
    return _BUILDERS[spec.kind](spec)


# ---------------------------------------------------------------------------
# checkpoint file format
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"FLCK"
_CKPT_VERSION = 1
# the spec record after the kind string: struct format per field, in file order
_SPEC_FIELDS = dict(vocab_size="<I", visual_dim="<I", audio_dim="<I", hidden_size="<I",
                    depth="<I", trb_count="<I", trb_filters="<I", fc_sizes="<2I",
                    vlad_clusters="<I", seed="<q")


def _spec_to_bytes(spec: ModelSpec) -> bytes:
    parts = [container.string(spec.kind)]
    for name, fmt in _SPEC_FIELDS.items():
        value = getattr(spec, name)
        parts.append(struct.pack(fmt, *(value if isinstance(value, tuple) else (value,))))
    return b"".join(parts)


def _spec_from_reader(reader: container.Reader) -> ModelSpec:
    fields = {"kind": reader.string("spec kind")}
    for name, fmt in _SPEC_FIELDS.items():
        value = reader.unpack(fmt, f"spec field {name}")
        fields[name] = value if len(value) > 1 else value[0]
    return ModelSpec(**fields)


def _named_arrays(model: VideoLevelModel):
    for name, tensor in model.named_parameters():
        yield name, tensor.data
    for name, arr in model._extra_state():
        yield name, np.asarray(arr, dtype=np.float64)


def save_checkpoint(path: str, model: VideoLevelModel) -> None:
    """Flat binary: spec, then every named array in declaration order."""
    entries = list(_named_arrays(model))
    with container.atomic_write(path) as f:
        f.write(container.header(_CKPT_MAGIC, _CKPT_VERSION))
        f.write(_spec_to_bytes(model.spec))
        f.write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            f.write(container.string(name))
            f.write(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
            f.write(arr.astype("<f8", copy=False).tobytes())


def load_checkpoint(path: str) -> VideoLevelModel:
    """Read the whole tensor table, bounded by the file size, before building the model."""
    with container.Reader(path, _CKPT_MAGIC, _CKPT_VERSION, "checkpoint") as reader:
        spec = _spec_from_reader(reader)
        (count,) = reader.unpack("<I", "tensor count")
        arrays = {}
        for _ in range(count):
            name = reader.string("tensor name")
            (ndim,) = reader.unpack("<B", f"tensor {name!r} rank")
            shape = reader.unpack(f"<{ndim}I", f"tensor {name!r} shape")
            arrays[name] = reader.tensor(shape, f"tensor {name!r}")
        reader.finish()
    model = build_model(spec)
    expected = dict(_named_arrays(model))
    for name, arr in expected.items():
        if name not in arrays:
            raise FormatError(f"{path}: checkpoint is missing parameter {name!r}")
        if arrays[name].shape != arr.shape:
            raise FormatError(
                f"{path}: parameter {name!r} has shape {arrays[name].shape}, expected "
                f"{arr.shape}"
            )
    if len(arrays) != len(expected):
        raise FormatError(
            f"{path}: unexpected state arrays in checkpoint: {sorted(set(arrays) - set(expected))}"
        )
    for name, tensor in model.named_parameters():
        tensor.data = arrays.pop(name)
    model._load_extra_state(arrays)
    return model
