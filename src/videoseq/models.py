"""The classifier architectures, assembled from the autodiff primitives.

Seven trainable kinds plus a naive deep stack used for side-by-side
comparisons; every kind trains and predicts through ``forward``:

- ``video_level``: masked mean over frames -> MLP head
- ``vlad_mlp``: VLAD encoding against a fitted codebook -> MLP head
- ``two_stream_lstm`` / ``two_stream_gru``: one bidirectional encoder with
  attention pooling per modality, fused by concatenation
- ``ff_lstm`` / ``ff_gru``: deep bidirectional stacks where each layer's
  output is embedded together with the previous embedding through a
  per-step fully-connected fast-forward connection
- ``temporal_resnet``: residual temporal convolution blocks feeding a
  bidirectional LSTM with attention
- ``stacked_lstm``: ``ff_lstm`` with the fast-forward FC off, so each layer
  feeds its bidirectional states straight to the next

Every model ends in a per-class sigmoid and masks its raw inputs up front,
so values stored at padded frame positions can never influence the output.
All parameters are drawn deterministically from the spec seed. Checkpoints
(``FLCK``) are read and written at the end of this module; their framing
(magic, version, strings, bounded reads, atomic writes) lives in
``container``.
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
    """Declarative description of one classifier; irrelevant fields are ignored."""

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
        if self.vocab_size < 1:
            raise ConfigurationError("vocab_size must be >= 1")
        if self.depth < 1:
            raise ConfigurationError("depth must be >= 1")
        if self.trb_count < 1:
            raise ConfigurationError("trb_count must be >= 1")
        if self.fc_sizes is None:
            self.fc_sizes = (512, self.vocab_size)
        else:
            self.fc_sizes = tuple(int(s) for s in self.fc_sizes)
            if len(self.fc_sizes) != 2:
                raise ConfigurationError("fc_sizes must hold exactly two layer widths")
            if self.fc_sizes[1] != self.vocab_size:
                raise ConfigurationError(
                    f"final head width {self.fc_sizes[1]} must equal vocab_size "
                    f"{self.vocab_size}"
                )

    @property
    def feature_dim(self) -> int:
        return self.visual_dim + self.audio_dim


@dataclass
class ModelOutput:
    probabilities: Tensor  # [batch x vocab], every value strictly in (0, 1)


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


def mlp_classify(head: MlpHead, features: Tensor) -> ModelOutput:
    return ModelOutput(head.forward(features))


def _conv_params(c_out: int, c_in: int, width: int, rng: np.random.Generator):
    scale = 1.0 / np.sqrt(c_in * width)
    k = Tensor(rng.uniform(-scale, scale, size=(c_out, c_in, width)), requires_grad=True)
    b = Tensor(np.zeros(c_out), requires_grad=True)
    return k, b


class _Model:
    """Common plumbing: parameter registry, input checks, forward dispatch."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self._params: list = []

    def _register(self, named):
        for name, tensor in named:
            self._params.append((name, tensor))

    def named_parameters(self):
        return list(self._params)

    def parameters(self):
        return [t for _, t in self._params]

    def zero_grad(self):
        for _, t in self._params:
            t.zero_grad()

    def _extra_state(self):
        """Non-trainable arrays the predict path needs (overridden as needed)."""
        return []

    def _load_extra_state(self, arrays: dict):
        """Restore ``_extra_state`` from arrays already checked against its names and shapes."""

    def _check_inputs(self, visual: Tensor, audio: Tensor, mask: TimeMask):
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

    def forward(self, visual: Tensor, audio: Tensor, mask: TimeMask, train: bool = False) -> ModelOutput:
        raise NotImplementedError


def _masked_features(visual: Tensor, audio: Tensor, mask: TimeMask) -> Tensor:
    m = mask.channel_mask()
    return ad.concat_channels([visual * m, audio * m])


class VideoLevelModel(_Model):
    """Frame-mean pooling followed by the MLP classifier."""

    def __init__(self, spec: ModelSpec):
        super().__init__(spec)
        rng = np.random.default_rng(spec.seed)
        self.head = MlpHead(spec.feature_dim, spec.fc_sizes, rng)
        self._register(self.head.parameters("head"))

    def forward(self, visual, audio, mask, train=False):
        self._check_inputs(visual, audio, mask)
        pooled = ad.masked_mean_time(_masked_features(visual, audio, mask), mask)
        return mlp_classify(self.head, pooled)


class VladMlpModel(_Model):
    """VLAD encoding of each video's valid frames, classified by an MLP.

    The codebook is fitted outside the gradient loop (k-means on training
    frames) and rides along in checkpoints as non-trainable state.
    """

    def __init__(self, spec: ModelSpec):
        super().__init__(spec)
        if spec.vlad_clusters < 1:
            raise ConfigurationError("vlad_clusters must be >= 1")
        rng = np.random.default_rng(spec.seed)
        self.codebook = Codebook(np.zeros((spec.vlad_clusters, spec.feature_dim)))
        self.head = MlpHead(spec.vlad_clusters * spec.feature_dim, spec.fc_sizes, rng)
        self._register(self.head.parameters("head"))

    def set_codebook(self, codebook: Codebook):
        if codebook.centers.shape != self.codebook.centers.shape:
            raise DimensionError(
                f"codebook shape {codebook.centers.shape} does not match spec "
                f"{self.codebook.centers.shape}"
            )
        self.codebook = codebook

    def encode_batch(self, visual: Tensor, audio: Tensor, mask: TimeMask) -> np.ndarray:
        """Encode each item's valid frames -> [batch x clusters*feature_dim]."""
        rows = []
        for i in range(mask.batch):
            t = int(mask.valid_lengths[i])
            frames = np.concatenate(
                [visual.data[i, :, :t].T, audio.data[i, :, :t].T], axis=1
            )
            rows.append(vlad_encode(self.codebook, frames).vector)
        return np.stack(rows)

    def forward(self, visual, audio, mask, train=False):
        self._check_inputs(visual, audio, mask)
        encodings = Tensor(self.encode_batch(visual, audio, mask))
        return mlp_classify(self.head, encodings)

    def _extra_state(self):
        return [("codebook.centers", self.codebook.centers)]

    def _load_extra_state(self, arrays):
        self.codebook = Codebook(arrays.pop("codebook.centers"))


class TwoStreamModel(_Model):
    """Independent bidirectional encoder + attention per modality, fused late."""

    def __init__(self, spec: ModelSpec):
        super().__init__(spec)
        cell = "lstm" if spec.kind == "two_stream_lstm" else "gru"
        rng = np.random.default_rng(spec.seed)
        h = spec.hidden_size
        self.streams = {}
        for name, dim in (("visual", spec.visual_dim), ("audio", spec.audio_dim)):
            fwd = RecurrentCellParams.create(cell, dim, h, rng)
            bwd = RecurrentCellParams.create(cell, dim, h, rng)
            attn = AttentionParams.create(2 * h, h, rng)
            self.streams[name] = (fwd, bwd, attn)
            self._register(fwd.parameters(f"{name}.fwd"))
            self._register(bwd.parameters(f"{name}.bwd"))
            self._register(attn.parameters(f"{name}.attn"))
        self.head = MlpHead(4 * h, spec.fc_sizes, rng)
        self._register(self.head.parameters("head"))

    def forward(self, visual, audio, mask, train=False):
        self._check_inputs(visual, audio, mask)
        m = mask.channel_mask()
        pooled = []
        for name, x in (("visual", visual), ("audio", audio)):
            fwd, bwd, attn = self.streams[name]
            states = run_bidirectional(fwd, bwd, x * m, mask)
            pooled.append(attention_pool(attn, states, mask))
        return mlp_classify(self.head, ad.concat(pooled, axis=1))


class FastForwardModel(_Model):
    """Deep bidirectional stack with per-layer fully-connected fast paths.

    Layer i runs a bidirectional cell pair over the previous fast-forward
    embedding f_{i-1} (f_0 is the raw feature sequence), then embeds
    [f_{i-1}; h_i] back to the fast-forward width with one per-step FC and
    a ReLU. The classifier head attends over the last embedding. With
    ``fast_forward`` off the FC is absent and f_i is h_i itself.
    """

    fast_forward = True

    def __init__(self, spec: ModelSpec):
        super().__init__(spec)
        cell = "gru" if spec.kind == "ff_gru" else "lstm"
        rng = np.random.default_rng(spec.seed)
        h = spec.hidden_size
        self.ff_width = 2 * h
        self.layers = []
        in_dim = spec.feature_dim
        for i in range(spec.depth):
            fwd = RecurrentCellParams.create(cell, in_dim, h, rng)
            bwd = RecurrentCellParams.create(cell, in_dim, h, rng)
            self._register(fwd.parameters(f"layer{i}.fwd"))
            self._register(bwd.parameters(f"layer{i}.bwd"))
            ff_k = ff_b = None
            if self.fast_forward:
                ff_k, ff_b = _conv_params(self.ff_width, in_dim + 2 * h, 1, rng)
                self._register([(f"layer{i}.ff_weight", ff_k), (f"layer{i}.ff_bias", ff_b)])
            self.layers.append((fwd, bwd, ff_k, ff_b))
            in_dim = self.ff_width
        self.attn = AttentionParams.create(self.ff_width, h, rng)
        self._register(self.attn.parameters("attn"))
        self.head = MlpHead(self.ff_width, spec.fc_sizes, rng)
        self._register(self.head.parameters("head"))

    def forward(self, visual, audio, mask, train=False):
        self._check_inputs(visual, audio, mask)
        f = _masked_features(visual, audio, mask)
        for fwd, bwd, ff_k, ff_b in self.layers:
            states = run_bidirectional(fwd, bwd, f, mask)
            if ff_k is None:
                f = states
            else:
                f = ad.relu(ad.conv1d_same(ad.concat_channels([f, states]), ff_k, ff_b))
        pooled = attention_pool(self.attn, f, mask)
        return mlp_classify(self.head, pooled)


class StackedModel(FastForwardModel):
    """The naive deep stack: the fast-forward LSTM with its FC off."""

    fast_forward = False


class TemporalResnetModel(_Model):
    """Stack of temporal residual blocks, then a bidirectional LSTM head.

    Each block is conv3 -> BN -> ReLU -> conv3 -> BN, an additive shortcut,
    and a final ReLU; outputs are re-masked to zero at padded frames after
    the width-1 projection and after every block.
    """

    def __init__(self, spec: ModelSpec):
        super().__init__(spec)
        if spec.trb_filters < 1:
            raise ConfigurationError("trb_filters must be >= 1")
        rng = np.random.default_rng(spec.seed)
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
        h = spec.hidden_size
        self.lstm_fwd = RecurrentCellParams.create("lstm", filters, h, rng)
        self.lstm_bwd = RecurrentCellParams.create("lstm", filters, h, rng)
        self._register(self.lstm_fwd.parameters("lstm.fwd"))
        self._register(self.lstm_bwd.parameters("lstm.bwd"))
        self.attn = AttentionParams.create(2 * h, h, rng)
        self._register(self.attn.parameters("attn"))
        self.head = MlpHead(2 * h, spec.fc_sizes, rng)
        self._register(self.head.parameters("head"))

    def forward(self, visual, audio, mask, train=False):
        self._check_inputs(visual, audio, mask)
        mode = "train" if train else "eval"
        m = mask.channel_mask()
        x = ad.conv1d_same(_masked_features(visual, audio, mask), self.proj_k, self.proj_b) * m
        for block in self.blocks:
            k1, b1, g1, be1, s1 = block[1]
            k2, b2, g2, be2, s2 = block[2]
            y = ad.relu(ad.batchnorm_time(ad.conv1d_same(x, k1, b1), mask, g1, be1, mode, s1))
            y = ad.batchnorm_time(ad.conv1d_same(y, k2, b2), mask, g2, be2, mode, s2)
            x = ad.relu(x + y) * m
        states = run_bidirectional(self.lstm_fwd, self.lstm_bwd, x, mask)
        pooled = attention_pool(self.attn, states, mask)
        return mlp_classify(self.head, pooled)

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


def build_model(spec: ModelSpec) -> _Model:
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


def _named_arrays(model: _Model):
    for name, tensor in model.named_parameters():
        yield name, tensor.data
    for name, arr in model._extra_state():
        yield name, np.asarray(arr, dtype=np.float64)


def save_checkpoint(path: str, model: _Model) -> None:
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


def load_checkpoint(path: str) -> _Model:
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
