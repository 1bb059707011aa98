"""LSTM/GRU cells, bidirectional sequence runners, and attention pooling.

Cells keep one weight matrix and bias per gate, each gate matrix of shape
[hidden x (input + hidden)] acting on the concatenated [x_t; h_prev]. The
runners process zero-padded batches: the forward direction walks all time
steps (padded outputs are zeroed afterwards), the backward direction walks
each item's reversed valid prefix so padding can never leak into its
states. Parameters are declared as (name, shape, ``Init``) tables
(``cell_table``, ``attention_table``) that ``draw_table`` draws; the steps,
runners and pools read those names by prefix from a {name: Tensor} dict,
such as a model's ``tensors``, and a cell is an LSTM when it has a forget gate.
"""

from __future__ import annotations

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


def _cell(t: dict, prefix: str, x: Tensor, h: Tensor) -> str:
    """The kind ("lstm" | "gru") of the cell ``cell_table(prefix, ...)`` names in ``t``, once
    x [batch x input (x time)] and h [batch x hidden] fit its ``w_candidate``; only an LSTM
    has a forget gate."""
    hidden, width = t[f"{prefix}.w_candidate"].shape
    if x.shape[1] != width - hidden or h.shape[1] != hidden or x.shape[0] != h.shape[0]:
        raise DimensionError(
            f"cell {prefix!r} expects input {width - hidden} / hidden {hidden}, "
            f"got x {x.shape} and h {h.shape}"
        )
    return "lstm" if f"{prefix}.w_forget" in t else "gru"


# Fused per-sequence weights: gate matrices concatenated and pre-transposed
# so every step is a single [b x (in+h)] @ [(in+h) x n*h] product.


def _fuse_lstm(t: dict, prefix: str):
    w = ad.transpose(ad.concat([t[f"{prefix}.w_{g}"] for g in LSTM_GATES], axis=0))
    b = ad.concat([t[f"{prefix}.b_{g}"] for g in LSTM_GATES], axis=0)
    return w, b


def _fuse_gru(t: dict, prefix: str):
    w_zr = ad.transpose(ad.concat([t[f"{prefix}.w_{g}"] for g in GRU_GATES[:2]], axis=0))
    b_zr = ad.concat([t[f"{prefix}.b_{g}"] for g in GRU_GATES[:2]], axis=0)
    return w_zr, b_zr, ad.transpose(t[f"{prefix}.w_candidate"]), t[f"{prefix}.b_candidate"]


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


def lstm_step(t: dict, prefix: str, x_t: Tensor, h_prev: Tensor, c_prev: Tensor):
    """One step of the LSTM ``prefix`` in ``t``: returns (h_t, c_t)."""
    if _cell(t, prefix, x_t, h_prev) != "lstm":
        raise PreconditionError(f"lstm_step on the GRU cell {prefix!r}")
    return _lstm_apply(_fuse_lstm(t, prefix), h_prev.shape[1], x_t, h_prev, c_prev)


def gru_step(t: dict, prefix: str, x_t: Tensor, h_prev: Tensor) -> Tensor:
    """One step of the GRU ``prefix`` in ``t``: returns h_t."""
    if _cell(t, prefix, x_t, h_prev) != "gru":
        raise PreconditionError(f"gru_step on the LSTM cell {prefix!r}")
    return _gru_apply(_fuse_gru(t, prefix), h_prev.shape[1], x_t, h_prev)


def _run_direction(t: dict, prefix: str, x: Tensor) -> Tensor:
    """Unroll the cell ``prefix`` over t = 0..max_time-1 of x from zero initial state."""
    batch, _, time = x.shape
    hidden = t[f"{prefix}.w_candidate"].shape[0]
    h = Tensor(np.zeros((batch, hidden)))
    outputs = []
    if _cell(t, prefix, x, h) == "lstm":
        c = h
        fused = _fuse_lstm(t, prefix)
        for step in range(time):
            h, c = _lstm_apply(fused, hidden, x[:, :, step], h, c)
            outputs.append(h)
    else:
        fused = _fuse_gru(t, prefix)
        for step in range(time):
            h = _gru_apply(fused, hidden, x[:, :, step], h)
            outputs.append(h)
    return ad.stack_time(outputs)


def run_bidirectional(t: dict, prefix: str, x: Tensor, mask: TimeMask) -> Tensor:
    """The cells ``<prefix>.fwd`` and ``<prefix>.bwd`` of ``t`` over a padded batch
    -> [batch x 2*hidden x time].

    Forward and backward outputs are concatenated per time step; outputs at
    padded positions are exactly zero.
    """
    if x.ndim != 3:
        raise DimensionError(f"run_bidirectional: input shape {x.shape} is not [batch x in x time]")
    if x.shape[0] != mask.batch or x.shape[2] != mask.max_time:
        raise DimensionError(
            f"run_bidirectional: input shape {x.shape} does not match mask "
            f"(batch {mask.batch}, time {mask.max_time})"
        )
    fwd = _run_direction(t, f"{prefix}.fwd", x)
    bwd = _run_direction(t, f"{prefix}.bwd", ad.reverse_valid_time(x, mask))
    return ad.concat([fwd, ad.reverse_valid_time(bwd, mask)], axis=1) * mask.channel_mask()


def attention_table(prefix: str, channels: int, attn_size: int):
    """proj_weight [attn x channels], proj_bias [attn] and score_vector [attn]."""
    yield f"{prefix}.proj_weight", (attn_size, channels), Init(fan_in=channels)
    yield f"{prefix}.proj_bias", (attn_size,), ZEROS
    yield f"{prefix}.score_vector", (attn_size,), Init(fan_in=channels)


def attention_pool(t: dict, prefix: str, h: Tensor, mask: TimeMask) -> Tensor:
    """Additive attention ``prefix`` of ``t`` over time: [b x c x t] -> [b x c].

    Scores e_t = v . tanh(W h_t + b) are normalized with a masked softmax,
    so the result is a convex combination of the valid frame vectors.
    """
    weight, bias, score = (t[f"{prefix}.{f}"] for f in ("proj_weight", "proj_bias", "score_vector"))
    attn, channels = weight.shape
    if h.ndim != 3 or h.shape[1] != channels:
        raise DimensionError(
            f"attention_pool: input {h.shape} does not match projection width {channels}"
        )
    if score.shape != (attn,):
        raise DimensionError(
            f"attention_pool: score vector {score.shape} does not match projection rows {attn}"
        )
    if h.shape[0] != mask.batch or h.shape[2] != mask.max_time:
        raise DimensionError(
            f"attention_pool: input {h.shape} does not match mask "
            f"(batch {mask.batch}, time {mask.max_time})"
        )
    u = ad.tanh(ad.conv1d_same(h, weight.reshape(attn, channels, 1), bias))
    scores = (u * score.reshape(1, attn, 1)).sum(axis=1)
    alpha = ad.softmax_masked(scores, mask)
    return (h * alpha.reshape(mask.batch, 1, mask.max_time)).sum(axis=2)
