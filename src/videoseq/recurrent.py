"""LSTM/GRU cells, the bidirectional sequence op, and attention pooling.

Cells keep one weight matrix and bias per gate, each gate matrix of shape
[hidden x (input + hidden)] acting on the concatenated [x_t; h_prev].
``run_bidirectional`` runs a forward and a backward cell over a zero-padded
batch as one autodiff node: one input-projection GEMM over all frames of both
directions, then one numpy time loop doing only the recurrent GEMM and the
gate math, with a hand-written BPTT loop as its backward. Its buffers are
time-major, [T x 2 x b x k], and both loops walk their per-step views; the
sigmoid gates have a contiguous block of their own, every gate, cell and
state value is written in place into its step's view, and one
``np.errstate`` covers a whole sequence. The backward
direction reads each item's reversed valid prefix, so padding never enters
its states, and outputs at padded positions are exactly zero. Attention
pooling is one node too: the per-frame tanh projection, the scores, their
softmax over valid frames and the weighted sum, with the composed chain rule
written out as its backward. Parameters are declared as (name, shape,
``Init``) tables (``cell_table``, ``attention_table``) that ``draw_table``
draws; the sequence op and the pools read those names by prefix from a
{name: Tensor} dict, such as a model's ``tensors``, and a cell is an LSTM
when it has a forget gate.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, TimeMask
from .errors import DimensionError, PreconditionError, check_shape

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


def _cell(t: dict, prefix: str, x: Tensor) -> tuple:
    """(kind, hidden) of the cell ``cell_table(prefix, ...)`` names in ``t``, once the
    width of x [batch x input (x time)] fits its ``w_candidate``; kind is "lstm" or
    "gru", and only an LSTM has a forget gate."""
    hidden, width = t[f"{prefix}.w_candidate"].shape
    check_shape(f"{prefix} input", x.shape, (None, width - hidden) + (None,) * (len(x.shape) - 2))
    return ("lstm" if f"{prefix}.w_forget" in t else "gru"), hidden


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per direction, the sum over steps and items of a^T b:
    [T x 2 x b x m], [T x 2 x b x n] -> [2 x m x n]."""
    a, b = (m.transpose(1, 0, 2, 3).reshape(2, -1, m.shape[-1]) for m in (a, b))  # [2 x T·b x k]
    return np.matmul(a.transpose(0, 2, 1), b)


def _lstm_sequence(pre_x: np.ndarray, w_h: np.ndarray):
    """Both directions' LSTM over their projected inputs pre_x [T x 2 x b x 4h] (gates
    i, f, o, g) from zero state. Returns the states hs [T+1 x 2 x b x h] (hs[0] = 0)
    and bptt(d_hs [T x 2 x b x h]) -> (d_pre [T x 2 x b x 4h], d_w_h [2 x h x 4h])."""
    steps, _, batch, width = pre_x.shape
    h = width // 4
    hs, cs = np.zeros((2, steps + 1, 2, batch, h))
    sig = np.empty((steps, 2, batch, 3 * h))  # i, f, o: one contiguous block per step
    g, tanh_c = np.empty((2, steps, 2, batch, h))
    pre, ig = np.empty((2, batch, width)), np.empty((2, batch, h))
    # exp(-z) overflows to inf for very negative z, and 1/(1+inf) is the exact limit 0;
    # each product and sum takes the operands of the composed step, so it rounds the same
    with np.errstate(over="ignore"):
        for px, h_prev, h_next, c_prev, c_next, sg, gs, tc in zip(
                pre_x, hs[:-1], hs[1:], cs[:-1], cs[1:], sig, g, tanh_c):
            np.matmul(h_prev, w_h, pre)
            pre += px
            np.negative(pre[..., : 3 * h], sg)
            np.exp(sg, sg)
            sg += 1.0
            np.divide(1.0, sg, sg)
            np.tanh(pre[..., 3 * h :], gs)
            np.multiply(sg[..., :h], gs, ig)
            np.multiply(sg[..., h : 2 * h], c_prev, c_next)
            c_next += ig
            np.tanh(c_next, tc)
            np.multiply(sg[..., 2 * h :], tc, h_next)

    def bptt(d_hs):
        i, f, o = (sig[..., k * h : (k + 1) * h] for k in range(3))
        # d_pre at a step is [dc, dc, dh, dc] * factor, dc the cell-state gradient
        factor = np.concatenate([g * i * (1.0 - i), cs[:-1] * f * (1.0 - f),
                                 tanh_c * o * (1.0 - o), i * (1.0 - g * g)], axis=-1)
        dc_dh = o * (1.0 - tanh_c * tanh_c)
        d_pre, w_t = np.empty(pre_x.shape), w_h.transpose(0, 2, 1)
        dh, dc, dcat = np.zeros((2, batch, h)), np.zeros((2, batch, h)), np.empty((2, batch, width))
        for d_h, fac, dcdh, fs, dp in zip(d_hs[::-1], factor[::-1], dc_dh[::-1], f[::-1], d_pre[::-1]):
            dh += d_h
            dc += dh * dcdh
            np.concatenate((dc, dc, dh, dc), axis=-1, out=dcat)
            np.multiply(dcat, fac, dp)
            dc *= fs
            np.matmul(dp, w_t, dh)
        return d_pre, _gram(hs[:-1], d_pre)

    return hs, bptt


def _gru_sequence(pre_x: np.ndarray, w_h: np.ndarray):
    """``_lstm_sequence`` for the GRU: gates z, r and the candidate, width 3h."""
    steps, _, batch, width = pre_x.shape
    h = width // 3
    hs = np.zeros((steps + 1, 2, batch, h))
    zr = np.empty((steps, 2, batch, 2 * h))  # z, r: one contiguous block per step
    cand, reset_h = np.empty((2, steps, 2, batch, h))  # reset_h = r * h_prev, the candidate's input
    keep_h = np.empty((2, batch, h))
    w_zr, w_c = w_h[..., : 2 * h], w_h[..., 2 * h :]
    with np.errstate(over="ignore"):
        for px, h_prev, h_next, sg, cd, rh in zip(pre_x, hs[:-1], hs[1:], zr, cand, reset_h):
            np.matmul(h_prev, w_zr, sg)
            sg += px[..., : 2 * h]
            np.negative(sg, sg)
            np.exp(sg, sg)
            sg += 1.0
            np.divide(1.0, sg, sg)
            np.multiply(sg[..., h:], h_prev, rh)
            np.matmul(rh, w_c, cd)
            cd += px[..., 2 * h :]
            np.tanh(cd, cd)
            np.subtract(1.0, sg[..., :h], keep_h)  # h_next = (1 - z) * h_prev + z * cand
            keep_h *= h_prev
            np.multiply(sg[..., :h], cd, h_next)
            h_next += keep_h

    def bptt(d_hs):
        z, r = zr[..., :h], zr[..., h:]
        h_prev = hs[:-1]
        dz_dh, dc_dh = (cand - h_prev) * z * (1.0 - z), z * (1.0 - cand * cand)
        dr_drh, keep = h_prev * r * (1.0 - r), 1.0 - z
        w_zr_t, w_c_t = w_zr.transpose(0, 2, 1), w_c.transpose(0, 2, 1)
        d_pre = np.empty(pre_x.shape)
        dh, drh = np.zeros((2, batch, h)), np.empty((2, batch, h))
        for d_h, d, dzdh, dcdh, drdrh, k, rs in zip(d_hs[::-1], d_pre[::-1], dz_dh[::-1], dc_dh[::-1],
                                                   dr_drh[::-1], keep[::-1], r[::-1]):
            dh += d_h
            np.multiply(dh, dcdh, d[..., 2 * h :])
            np.matmul(d[..., 2 * h :], w_c_t, drh)
            np.multiply(dh, dzdh, d[..., :h])
            np.multiply(drh, drdrh, d[..., h : 2 * h])
            dh *= k
            dh += drh * rs
            dh += d[..., : 2 * h] @ w_zr_t
        return d_pre, np.concatenate(
            [_gram(h_prev, d_pre[..., : 2 * h]), _gram(reset_h, d_pre[..., 2 * h :])], axis=-1
        )

    return hs, bptt


def run_bidirectional(t: dict, prefix: str, x: Tensor, mask: TimeMask) -> Tensor:
    """The cells ``<prefix>.fwd`` and ``<prefix>.bwd`` of ``t`` over a padded batch
    -> [batch x 2*hidden x time], as one tape node.

    Forward and backward outputs are concatenated per time step; outputs at
    padded positions are exactly zero. Both directions share one input-projection
    GEMM over all frames and one time loop that does only the recurrent GEMM and
    the gate math; the backward direction reads each item's reversed valid
    prefix. The node's backward is a hand-written BPTT loop, after which the
    input and weight gradients are one GEMM or sum each over all frames.
    """
    batch, d, steps = mask.check(x, "run_bidirectional")
    kind, hidden = _cell(t, f"{prefix}.fwd", x)
    if _cell(t, f"{prefix}.bwd", x) != (kind, hidden):
        raise DimensionError(f"run_bidirectional: {prefix}.fwd and {prefix}.bwd differ in kind or width")
    gates = LSTM_GATES if kind == "lstm" else GRU_GATES
    n, h = len(gates), hidden
    cells = [[(t[f"{prefix}.{side}.w_{g}"], t[f"{prefix}.{side}.b_{g}"]) for g in gates]
             for side in ("fwd", "bwd")]
    w = np.array([[wt.data for wt, _ in cell] for cell in cells]).reshape(2, n * h, d + h)
    w_x = w[:, :, :d].transpose(2, 0, 1).reshape(d, 2 * n * h)
    w_h = w[:, :, d:].transpose(0, 2, 1).copy()
    src, valid = mask.reversal()
    src, valid, items = src.T, valid.T[:, :, None], np.arange(batch)

    def flip(a):  # [T x b x k]: each item's valid prefix reversed in time, padding 0
        return a[src, items] * valid

    def frames():  # [T·b x d] time-major copy of x, rebuilt in backward rather than kept
        return x.data.transpose(2, 0, 1).reshape(steps * batch, d)

    pre_x = np.empty((steps, 2, batch, n * h))
    bias = np.array([[bt.data for _, bt in cell] for cell in cells]).reshape(2, 1, n * h)
    np.add((frames() @ w_x).reshape(steps, batch, 2, n * h).transpose(0, 2, 1, 3), bias, out=pre_x)
    pre_x[:, 1] = flip(pre_x[:, 1])
    hs, bptt = (_lstm_sequence if kind == "lstm" else _gru_sequence)(pre_x, w_h)
    states = hs[1:] * valid[:, None]
    states[:, 1] = flip(states[:, 1])

    def bw(g):
        d_hs = g.reshape(batch, 2, h, steps).transpose(3, 1, 0, 2) * valid[:, None]
        d_hs[:, 1] = flip(d_hs[:, 1])
        d_pre, d_w_h = bptt(d_hs)
        d_pre[:, 1] = flip(d_pre[:, 1])
        d_flat = d_pre.transpose(0, 2, 1, 3).reshape(steps * batch, 2 * n * h)
        if x.requires_grad:
            ad._accumulate(x, (d_flat @ w_x.T).reshape(steps, batch, d).transpose(1, 2, 0))
        d_w_x = (frames().T @ d_flat).reshape(d, 2, n * h).transpose(1, 2, 0)
        d_w = np.concatenate([d_w_x, d_w_h.transpose(0, 2, 1)], axis=2).reshape(2, n, h, d + h)
        d_b = d_flat.sum(axis=0).reshape(2, n, h)
        for k, cell in enumerate(cells):
            for j, (wt, bt) in enumerate(cell):
                ad._accumulate(wt, d_w[k, j], fresh=True)
                ad._accumulate(bt, d_b[k, j], fresh=True)

    out = states.transpose(2, 1, 3, 0).reshape(batch, 2 * h, steps)
    return Tensor._op(out, (x, *(p for cell in cells for pair in cell for p in pair)), bw)


def attention_table(prefix: str, channels: int, attn_size: int):
    """proj_weight [attn x channels], proj_bias [attn] and score_vector [attn]."""
    yield f"{prefix}.proj_weight", (attn_size, channels), Init(fan_in=channels)
    yield f"{prefix}.proj_bias", (attn_size,), ZEROS
    yield f"{prefix}.score_vector", (attn_size,), Init(fan_in=channels)


def attention_pool(t: dict, prefix: str, h: Tensor, mask: TimeMask) -> Tensor:
    """Additive attention ``prefix`` of ``t`` over time: [b x c x t] -> [b x c], as one tape node.

    Scores e_t = v . tanh(W h_t + b) are normalized with a softmax over each
    item's valid frames, so the result is a convex combination of the valid
    frame vectors and padded frames weigh exactly 0. The forward evaluates the
    composed expressions in their order, and the backward applies their chain
    rule step by step in reverse, so both give the bits of the composed ops;
    the backward rebuilds the [b·t x c] frame matrix from ``h`` rather than
    keeping it.
    """
    weight, bias, score = (t[f"{prefix}.{f}"] for f in ("proj_weight", "proj_bias", "score_vector"))
    attn, channels = weight.shape
    batch, _, steps = mask.check(h, "attention_pool", channels)
    check_shape(f"{prefix}.score_vector", score.shape, (attn,))
    v = score.data[:, None]

    def frames():  # [b·t x c] frame-major copy of h
        return h.data.transpose(0, 2, 1).reshape(batch * steps, channels)

    u = np.tanh(frames() @ weight.data.T + bias.data).reshape(batch, steps, attn)
    u = np.ascontiguousarray(u.transpose(0, 2, 1))  # [b x attn x t]
    scores = (u * v).sum(axis=1)
    valid = mask.bool_matrix()
    m = valid.astype(np.float64)
    shift = np.where(valid, scores, -np.inf).max(axis=1, keepdims=True)
    e = np.exp((scores - shift) * m) * m
    denom = e.sum(axis=1, keepdims=True)
    alpha = e / denom

    def bw(g):
        g = g[:, :, None]
        if h.requires_grad:
            ad._accumulate(h, g * alpha[:, None, :], fresh=True)
        g_alpha = (g * h.data).sum(axis=1)
        g_e = g_alpha / denom
        g_e += (-g_alpha * alpha / denom).sum(axis=1, keepdims=True)
        g_scores = (g_e * e)[:, None, :]  # through exp and both masks: e is exp(z)·m, m 0 or 1
        if score.requires_grad:
            ad._accumulate(score, (g_scores * u).sum(axis=(0, 2)), fresh=True)
        g_pre = (g_scores * v) * (1.0 - u * u)
        g_pre = g_pre.transpose(0, 2, 1).reshape(batch * steps, attn)
        if weight.requires_grad:
            ad._accumulate(weight, g_pre.T @ frames(), fresh=True)
        if bias.requires_grad:
            ad._accumulate(bias, g_pre.sum(axis=0), fresh=True)
        if h.requires_grad:
            ad._accumulate(h, (g_pre @ weight.data).reshape(batch, steps, channels).transpose(0, 2, 1))

    return Tensor._op((h.data * alpha[:, None, :]).sum(axis=2), (h, weight, bias, score), bw)
