"""LSTM/GRU cells, bidirectional sequence runners, and attention pooling.

Cells keep one weight matrix and bias per gate, each gate matrix of shape
[hidden x (input + hidden)] acting on the concatenated [x_t; h_prev]. The
runners process zero-padded batches: the forward direction walks all time
steps (padded outputs are zeroed afterwards), the backward direction walks
each item's reversed valid prefix so padding can never leak into its
states. Parameters are declared as (name, shape, ``Init``) tables
(``cell_table``, ``attention_table``) that ``create`` and ``models`` draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, TimeMask
from .errors import DimensionError, PreconditionError

LSTM_GATES = ("input", "forget", "output", "candidate")
GRU_GATES = ("update", "reset", "candidate")


class Init(NamedTuple):
    """The init rule of one table entry: U(-1/sqrt(fan_in), 1/sqrt(fan_in)) when ``fan_in``
    is set, else the constant ``value``; saved state has ``trainable`` off."""

    value: float = 0.0
    fan_in: int = 0
    trainable: bool = True

    def draw(self, shape: tuple, rng: np.random.Generator) -> Tensor:
        if self.fan_in:
            scale = 1.0 / np.sqrt(self.fan_in)
            return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=self.trainable)
        return Tensor(np.full(shape, self.value), requires_grad=self.trainable)


ZEROS, ONES = Init(0.0), Init(1.0)


def draw_table(table, rng: np.random.Generator) -> dict:
    """{name: Tensor} for (name, shape, init) entries, drawn from ``rng`` in table order."""
    return {name: init.draw(shape, rng) for name, shape, init in table}


def cell_table(prefix: str, kind: str, input_size: int, hidden_size: int):
    """Per gate w_<gate> [hidden x (input + hidden)] and b_<gate>; LSTM forget bias starts at 1."""
    if kind not in ("lstm", "gru"):
        raise PreconditionError(f"unknown cell kind {kind!r}")
    fan_in = input_size + hidden_size
    for gate in LSTM_GATES if kind == "lstm" else GRU_GATES:
        yield f"{prefix}.w_{gate}", (hidden_size, fan_in), Init(fan_in=fan_in)
        yield f"{prefix}.b_{gate}", (hidden_size,), ONES if gate == "forget" else ZEROS


@dataclass
class RecurrentCellParams:
    kind: str  # "lstm" | "gru"
    input_size: int
    hidden_size: int
    weights: dict  # gate name -> Tensor[hidden x (input + hidden)]
    biases: dict  # gate name -> Tensor[hidden]

    @classmethod
    def create(
        cls, kind: str, input_size: int, hidden_size: int, rng: np.random.Generator
    ) -> "RecurrentCellParams":
        """Uniform weights scaled by 1/sqrt(fan-in); LSTM forget bias 1, other biases 0."""
        tensors = draw_table(cell_table("cell", kind, input_size, hidden_size), rng)
        return cls.from_tensors(tensors, "cell")

    @classmethod
    def from_tensors(cls, tensors: dict, prefix: str) -> "RecurrentCellParams":
        """The cell ``cell_table(prefix, ...)`` names in ``tensors``; only an LSTM has a forget gate."""
        kind, gates = ("lstm", LSTM_GATES) if f"{prefix}.w_forget" in tensors else ("gru", GRU_GATES)
        hidden, width = tensors[f"{prefix}.w_candidate"].shape
        return cls(kind, width - hidden, hidden, {g: tensors[f"{prefix}.w_{g}"] for g in gates},
                   {g: tensors[f"{prefix}.b_{g}"] for g in gates})

    def parameters(self, prefix: str):
        for gate in LSTM_GATES if self.kind == "lstm" else GRU_GATES:
            yield f"{prefix}.w_{gate}", self.weights[gate]
            yield f"{prefix}.b_{gate}", self.biases[gate]

    def _check_step_shapes(self, x_t: Tensor, h_prev: Tensor) -> None:
        if x_t.shape[1] != self.input_size or h_prev.shape[1] != self.hidden_size:
            raise DimensionError(
                f"cell expects input {self.input_size} / hidden {self.hidden_size}, "
                f"got x {x_t.shape} and h {h_prev.shape}"
            )
        if x_t.shape[0] != h_prev.shape[0]:
            raise DimensionError(
                f"batch mismatch between x {x_t.shape} and h {h_prev.shape}"
            )


# Fused per-sequence weights: gate matrices concatenated and pre-transposed
# so every step is a single [b x (in+h)] @ [(in+h) x n*h] product.


def _fuse_lstm(params: RecurrentCellParams):
    w = ad.transpose(ad.concat([params.weights[g] for g in LSTM_GATES], axis=0))
    b = ad.concat([params.biases[g] for g in LSTM_GATES], axis=0)
    return w, b


def _fuse_gru(params: RecurrentCellParams):
    w_zr = ad.transpose(ad.concat([params.weights[g] for g in GRU_GATES[:2]], axis=0))
    b_zr = ad.concat([params.biases[g] for g in GRU_GATES[:2]], axis=0)
    w_c = ad.transpose(params.weights["candidate"])
    b_c = params.biases["candidate"]
    return w_zr, b_zr, w_c, b_c


def _lstm_apply(fused, h: int, x_t: Tensor, h_prev: Tensor, c_prev: Tensor):
    w, b = fused
    cat = ad.concat([x_t, h_prev], axis=1)
    pre = ad.matmul(cat, w) + b
    i = ad.sigmoid(pre[:, 0:h])
    f = ad.sigmoid(pre[:, h : 2 * h])
    o = ad.sigmoid(pre[:, 2 * h : 3 * h])
    g = ad.tanh(pre[:, 3 * h : 4 * h])
    c_t = f * c_prev + i * g
    h_t = o * ad.tanh(c_t)
    return h_t, c_t


def _gru_apply(fused, h: int, x_t: Tensor, h_prev: Tensor):
    w_zr, b_zr, w_c, b_c = fused
    cat = ad.concat([x_t, h_prev], axis=1)
    pre = ad.matmul(cat, w_zr) + b_zr
    z = ad.sigmoid(pre[:, 0:h])
    r = ad.sigmoid(pre[:, h : 2 * h])
    cat2 = ad.concat([x_t, r * h_prev], axis=1)
    h_bar = ad.tanh(ad.matmul(cat2, w_c) + b_c)
    return (1.0 - z) * h_prev + z * h_bar


def lstm_step(params: RecurrentCellParams, x_t: Tensor, h_prev: Tensor, c_prev: Tensor):
    """One LSTM step: returns (h_t, c_t)."""
    if params.kind != "lstm":
        raise PreconditionError(f"lstm_step on a {params.kind!r} cell")
    params._check_step_shapes(x_t, h_prev)
    return _lstm_apply(_fuse_lstm(params), params.hidden_size, x_t, h_prev, c_prev)


def gru_step(params: RecurrentCellParams, x_t: Tensor, h_prev: Tensor) -> Tensor:
    """One GRU step: returns h_t."""
    if params.kind != "gru":
        raise PreconditionError(f"gru_step on a {params.kind!r} cell")
    params._check_step_shapes(x_t, h_prev)
    return _gru_apply(_fuse_gru(params), params.hidden_size, x_t, h_prev)


def _run_direction(params: RecurrentCellParams, x: Tensor) -> Tensor:
    """Unroll one direction over t = 0..max_time-1 from zero initial state."""
    batch, _, time = x.shape
    h = Tensor(np.zeros((batch, params.hidden_size)))
    if params.kind == "lstm":
        c = h
        fused = _fuse_lstm(params)
        outputs = []
        for t in range(time):
            h, c = _lstm_apply(fused, params.hidden_size, x[:, :, t], h, c)
            outputs.append(h)
    else:
        fused = _fuse_gru(params)
        outputs = []
        for t in range(time):
            h = _gru_apply(fused, params.hidden_size, x[:, :, t], h)
            outputs.append(h)
    return ad.stack_time(outputs)


def run_bidirectional(
    params_fwd: RecurrentCellParams,
    params_bwd: RecurrentCellParams,
    x: Tensor,
    mask: TimeMask,
) -> Tensor:
    """Both directions over a padded batch -> [batch x 2*hidden x time].

    Forward and backward outputs are concatenated per time step; outputs at
    padded positions are exactly zero.
    """
    if (
        params_fwd.hidden_size != params_bwd.hidden_size
        or params_fwd.input_size != params_bwd.input_size
        or params_fwd.kind != params_bwd.kind
    ):
        raise PreconditionError("forward and backward cells must match in kind and sizes")
    if x.ndim != 3 or x.shape[1] != params_fwd.input_size:
        raise DimensionError(
            f"run_bidirectional: input shape {x.shape} does not match input size "
            f"{params_fwd.input_size}"
        )
    if x.shape[0] != mask.batch or x.shape[2] != mask.max_time:
        raise DimensionError(
            f"run_bidirectional: input shape {x.shape} does not match mask "
            f"(batch {mask.batch}, time {mask.max_time})"
        )
    fwd = _run_direction(params_fwd, x)
    bwd = ad.reverse_valid_time(_run_direction(params_bwd, ad.reverse_valid_time(x, mask)), mask)
    return ad.concat([fwd, bwd], axis=1) * mask.channel_mask()


def attention_table(prefix: str, channels: int, attn_size: int):
    """proj_weight [attn x channels], proj_bias [attn] and score_vector [attn]."""
    yield f"{prefix}.proj_weight", (attn_size, channels), Init(fan_in=channels)
    yield f"{prefix}.proj_bias", (attn_size,), ZEROS
    yield f"{prefix}.score_vector", (attn_size,), Init(fan_in=channels)


@dataclass
class AttentionParams:
    proj_weight: Tensor  # [attn x channels]
    proj_bias: Tensor  # [attn]
    score_vector: Tensor  # [attn]

    @classmethod
    def create(cls, channels: int, attn_size: int, rng: np.random.Generator) -> "AttentionParams":
        return cls.from_tensors(draw_table(attention_table("attn", channels, attn_size), rng), "attn")

    @classmethod
    def from_tensors(cls, tensors: dict, prefix: str) -> "AttentionParams":
        return cls(*(tensors[f"{prefix}.{f}"] for f in ("proj_weight", "proj_bias", "score_vector")))

    def parameters(self, prefix: str):
        yield f"{prefix}.proj_weight", self.proj_weight
        yield f"{prefix}.proj_bias", self.proj_bias
        yield f"{prefix}.score_vector", self.score_vector


def attention_pool(params: AttentionParams, h: Tensor, mask: TimeMask) -> Tensor:
    """Additive attention over time: [b x c x t] -> [b x c].

    Scores e_t = v . tanh(W h_t + b) are normalized with a masked softmax,
    so the result is a convex combination of the valid frame vectors.
    """
    attn, channels = params.proj_weight.shape
    if h.ndim != 3 or h.shape[1] != channels:
        raise DimensionError(
            f"attention_pool: input {h.shape} does not match projection width {channels}"
        )
    if params.score_vector.shape != (attn,):
        raise DimensionError(
            f"attention_pool: score vector {params.score_vector.shape} does not match "
            f"projection rows {attn}"
        )
    if h.shape[0] != mask.batch or h.shape[2] != mask.max_time:
        raise DimensionError(
            f"attention_pool: input {h.shape} does not match mask "
            f"(batch {mask.batch}, time {mask.max_time})"
        )
    u = ad.tanh(
        ad.conv1d_same(h, params.proj_weight.reshape(attn, channels, 1), params.proj_bias)
    )
    scores = (u * params.score_vector.reshape(1, attn, 1)).sum(axis=1)
    alpha = ad.softmax_masked(scores, mask)
    return (h * alpha.reshape(mask.batch, 1, mask.max_time)).sum(axis=2)
