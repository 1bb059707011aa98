"""Slow reference implementations the library's fast paths are tested against."""

import tracemalloc

import numpy as np

from videoseq import autodiff as ad
from videoseq.autodiff import Tensor, TimeMask
from videoseq.errors import ConfigurationError, DimensionError, PreconditionError
from videoseq.gradcheck import _worst_errors
from videoseq.metrics import TOP_K, GapResult, PredictionSet, _pooled_pairs
from videoseq.recurrent import GRU_GATES, LSTM_GATES, _cell
from videoseq.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, Adam, TrainingError
from videoseq.vlad import _DEGENERATE_NORM, Codebook


def traced_peak(fn, *args) -> int:
    """tracemalloc's peak over one ``fn(*args)``: the most bytes the call held at once."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def doubled_squared_distances(samples: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """[n x k] squared distances with the cross term of a doubled [n x d] sample copy."""
    d2 = (samples * samples).sum(axis=1)[:, None] - (2.0 * samples) @ centers.T
    return np.maximum(d2 + (centers * centers).sum(axis=1)[None, :], 0.0)


def check_gradients(f, named_params, step: float = 1e-4, samples_per_block: int | None = None,
                    rng: np.random.Generator | None = None) -> dict:
    """Compare analytic and numeric gradients for each parameter block.

    ``f`` rebuilds the forward pass and returns the scalar loss tensor.
    Returns ``{name: worst relative error}`` over the sampled coordinates
    of each block (all coordinates when ``samples_per_block`` is None).
    This is ``grad_check``'s engine, applied to any loss closure.
    """
    return _worst_errors(f, named_params, step, samples_per_block, rng or np.random.default_rng(0))


def gap_oracle(preds: PredictionSet, k: int = TOP_K) -> GapResult:
    """Naive reference: recounts hits from scratch at every position.

    Test-only; limited to small instances.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if len(preds.predictions) > 100:
        raise PreconditionError("oracle is limited to <= 100 videos")
    pooled, total_positives = _pooled_pairs(preds, k)
    if total_positives == 0:
        return GapResult(0.0, len(pooled), 0)
    flags = [is_positive for (_, _, _, is_positive) in pooled]
    ap_sum = 0.0
    for i, flag in enumerate(flags):
        if flag:
            ap_sum += sum(flags[: i + 1]) / (i + 1)
    return GapResult(ap_sum / total_positives, len(pooled), total_positives)


def vlad_encode_oracle(codebook: Codebook, frames: np.ndarray) -> np.ndarray:
    """Reference VLAD vector: residuals accumulated frame by frame with ``np.add.at``."""
    frames = np.asarray(frames, dtype=np.float64)
    assignments = doubled_squared_distances(frames, codebook.centers).argmin(axis=1)
    residuals = np.zeros_like(codebook.centers)
    np.add.at(residuals, assignments, frames - codebook.centers[assignments])
    flat = residuals.reshape(-1)
    flat = np.sign(flat) * np.sqrt(np.abs(flat))
    norm = np.linalg.norm(flat)
    return np.zeros_like(flat) if norm < _DEGENERATE_NORM else flat / norm


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b) -> Tensor:
    """Broadcasting a + b as an autodiff op."""
    a, b = ad._const(a), ad._const(b)

    def bw(g):
        ad._accumulate(a, _unbroadcast(g, a.data.shape))
        ad._accumulate(b, _unbroadcast(g, b.data.shape))

    return Tensor._op(a.data + b.data, (a, b), bw)


def mul(a, b) -> Tensor:
    """Broadcasting a * b as an autodiff op."""
    a, b = ad._const(a), ad._const(b)

    def bw(g):
        if a.requires_grad:
            ad._accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            ad._accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return Tensor._op(a.data * b.data, (a, b), bw)


def sub(a, b) -> Tensor:
    """Broadcasting a - b as an autodiff op."""
    a, b = ad._const(a), ad._const(b)

    def bw(g):
        ad._accumulate(a, _unbroadcast(g, a.data.shape))
        ad._accumulate(b, _unbroadcast(-g, b.data.shape))

    return Tensor._op(a.data - b.data, (a, b), bw)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Sum over ``axis`` (every axis when None) as an autodiff op."""
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        ad._accumulate(a, np.broadcast_to(g, a.data.shape))

    return Tensor._op(data, (a,), bw)


def tensor_mean(a: Tensor) -> Tensor:
    """Mean over every element as two autodiff ops: the sum, then times 1/size."""
    return mul(tensor_sum(a), 1.0 / a.data.size)


def log(a: Tensor) -> Tensor:
    """Elementwise natural log as an autodiff op."""

    def bw(g):
        ad._accumulate(a, g / a.data)

    return Tensor._op(np.log(a.data), (a,), bw)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi] as an autodiff op; the gradient passes only where unclamped."""
    passthrough = (a.data >= lo) & (a.data <= hi)

    def bw(g):
        ad._accumulate(a, g * passthrough)

    return Tensor._op(np.clip(a.data, lo, hi), (a,), bw)


def composed_bce_loss(probabilities: Tensor, targets) -> Tensor:
    """``bce_loss`` as 10 tape nodes: clip, log, ``1 - p``, log, two products, their
    sum, the mean as a sum and a scale, and the negation as a product with -1."""
    y = np.asarray(targets, dtype=np.float64)
    p = clip(probabilities, 1e-7, 1.0 - 1e-7)
    loss = add(mul(log(p), y), mul(log(sub(1.0, p)), 1.0 - y))
    return mul(tensor_mean(loss), -1.0)


def composed_masked_mean_time(x: Tensor, mask: TimeMask) -> Tensor:
    """``masked_mean_time`` as three tape nodes: x times the mask, the sum over time,
    then times 1/len."""
    s = tensor_sum(mul(x, mask.channel_mask()), axis=2)
    return mul(s, 1.0 / mask.valid_lengths.astype(np.float64)[:, None])


def tanh(a: Tensor) -> Tensor:
    """Elementwise tanh as an autodiff op, for the composed cells and attention."""
    data = np.tanh(a.data)

    def bw(g):
        ad._accumulate(a, g * (1.0 - data * data))

    return Tensor._op(data, (a,), bw)


def exp(a: Tensor) -> Tensor:
    """Elementwise exp as an autodiff op, for the composed masked softmax."""
    data = np.exp(a.data)

    def bw(g):
        ad._accumulate(a, g * data)

    return Tensor._op(data, (a,), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    """Broadcasting a / b as an autodiff op."""
    data = a.data / b.data

    def bw(g):
        if a.requires_grad:
            ad._accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            ad._accumulate(b, _unbroadcast(-g * data / b.data, b.data.shape))

    return Tensor._op(data, (a, b), bw)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    """a viewed as ``shape``, as an autodiff op."""

    def bw(g):
        ad._accumulate(a, g.reshape(a.data.shape))

    return Tensor._op(a.data.reshape(shape), (a,), bw)


def _gates(t: dict, prefix: str, kind: str, x_t: Tensor, h_prev: Tensor):
    """gate(name, inputs) -> ``linear(inputs, w_<name>, b_<name>)`` of ``prefix``, in
    ``cell_table``'s layout, once the cell is a ``kind`` cell fitting x_t, h_prev."""
    cell, hidden = _cell(t, prefix, x_t)
    if h_prev.shape != (x_t.shape[0], hidden):
        raise DimensionError(
            f"cell {prefix!r} expects hidden {hidden}, got x {x_t.shape} and h {h_prev.shape}"
        )
    if cell != kind:
        raise PreconditionError(f"{kind}_step on the {cell.upper()} cell {prefix!r}")
    return lambda gate, inputs: ad.linear(inputs, t[f"{prefix}.w_{gate}"], t[f"{prefix}.b_{gate}"])


def lstm_step(t: dict, prefix: str, x_t: Tensor, h_prev: Tensor, c_prev: Tensor):
    """One step of the LSTM ``prefix`` in ``t``, composed of autodiff ops: returns (h_t, c_t)."""
    gate = _gates(t, prefix, "lstm", x_t, h_prev)
    xh = ad.concat([x_t, h_prev])
    i, f, o = (ad.sigmoid(gate(g, xh)) for g in ("input", "forget", "output"))
    c_t = add(mul(f, c_prev), mul(i, tanh(gate("candidate", xh))))
    return mul(o, tanh(c_t)), c_t


def gru_step(t: dict, prefix: str, x_t: Tensor, h_prev: Tensor) -> Tensor:
    """One step of the GRU ``prefix`` in ``t``, composed of autodiff ops: returns h_t."""
    gate = _gates(t, prefix, "gru", x_t, h_prev)
    xh = ad.concat([x_t, h_prev])
    z, r = (ad.sigmoid(gate(g, xh)) for g in ("update", "reset"))
    h_bar = tanh(gate("candidate", ad.concat([x_t, mul(r, h_prev)])))
    return add(mul(sub(1.0, z), h_prev), mul(z, h_bar))


def time_step(x: Tensor, s: int) -> Tensor:
    """Frame s of x [batch x d x time] as a [batch x d] autodiff op."""

    def bw(g):
        full = np.zeros(x.data.shape)
        full[:, :, s] = g
        ad._accumulate(x, full)

    return Tensor._op(x.data[:, :, s], (x,), bw)


def concat_time(steps) -> Tensor:
    """[batch x d x 1] steps stacked along time as one op: [batch x d x len(steps)]."""

    def bw(g):
        for s, step in enumerate(steps):
            ad._accumulate(step, g[:, :, s : s + 1])

    return Tensor._op(np.concatenate([step.data for step in steps], axis=2), tuple(steps), bw)


def reverse_valid_time(x: Tensor, mask: TimeMask) -> Tensor:
    """Reverse each item's valid prefix along time; padded positions become 0.

    The map is an involution on the valid prefix, so the backward rule is
    the same reversal applied to the incoming gradient.
    """
    x = ad._const(x)
    mask.check(x, "reverse_valid_time")
    src, valid = mask.reversal()
    gather = src[:, None, :]
    keep = valid[:, None, :]

    data = np.take_along_axis(x.data, gather, axis=2) * keep

    def bw(g):
        ad._accumulate(x, np.take_along_axis(g, gather, axis=2) * keep)

    return Tensor._op(data, (x,), bw)


def composed_bidirectional(t: dict, prefix: str, x: Tensor, mask: TimeMask) -> Tensor:
    """``run_bidirectional`` unrolled from the oracle steps, one tape node per op: each
    direction walks all steps from zero state, the backward one over the reversed
    valid prefixes, and padded outputs are zeroed."""
    batch, _, steps = x.shape

    def direction(prefix, x):
        kind, hidden = _cell(t, prefix, x)
        h = c = Tensor(np.zeros((batch, hidden)))
        outputs = []
        for s in range(steps):
            if kind == "lstm":
                h, c = lstm_step(t, prefix, time_step(x, s), h, c)
            else:
                h = gru_step(t, prefix, time_step(x, s), h)
            outputs.append(reshape(h, (batch, hidden, 1)))
        return concat_time(outputs)

    fwd = direction(f"{prefix}.fwd", x)
    bwd = reverse_valid_time(direction(f"{prefix}.bwd", reverse_valid_time(x, mask)), mask)
    return mul(ad.concat([fwd, bwd]), mask.channel_mask())


def _gate_major_gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per direction, the sum over steps and items of a^T b:
    [2 x T x b x m], [2 x T x b x n] -> [2 x m x n]."""
    return np.matmul(a.reshape(2, -1, a.shape[-1]).transpose(0, 2, 1), b.reshape(2, -1, b.shape[-1]))


def _gate_major_lstm(pre_x: np.ndarray, w_h: np.ndarray):
    """Both directions' LSTM over pre_x [2 x T x b x 4h] (gates i, f, o, g) from zero
    state, one fresh array per gate expression and step. Returns the states
    hs [2 x T+1 x b x h] and bptt(d_hs [2 x T x b x h]) -> (d_pre, d_w_h [2 x h x 4h])."""
    _, steps, batch, width = pre_x.shape
    h = width // 4
    hs, cs = np.zeros((2, 2, steps + 1, batch, h))
    gates = np.empty(pre_x.shape)
    tanh_c = np.empty((2, steps, batch, h))
    for s in range(steps):
        pre, a = pre_x[:, s] + hs[:, s] @ w_h, gates[:, s]
        a[..., : 3 * h] = ad._sigmoid(pre[..., : 3 * h])
        a[..., 3 * h :] = np.tanh(pre[..., 3 * h :])
        cs[:, s + 1] = a[..., h : 2 * h] * cs[:, s] + a[..., :h] * a[..., 3 * h :]
        tanh_c[:, s] = np.tanh(cs[:, s + 1])
        hs[:, s + 1] = a[..., 2 * h : 3 * h] * tanh_c[:, s]

    def bptt(d_hs):
        i, f, o, g = (gates[..., k * h : (k + 1) * h] for k in range(4))
        factor = np.concatenate([g * i * (1.0 - i), cs[:, :-1] * f * (1.0 - f),
                                 tanh_c * o * (1.0 - o), i * (1.0 - g * g)], axis=-1)
        dc_dh = o * (1.0 - tanh_c * tanh_c)
        d_pre, w_t = np.empty(pre_x.shape), w_h.transpose(0, 2, 1)
        dh = dc = 0.0
        for s in reversed(range(steps)):
            dh = dh + d_hs[:, s]
            dc = dc + dh * dc_dh[:, s]
            np.multiply(np.concatenate([dc, dc, dh, dc], axis=-1), factor[:, s], out=d_pre[:, s])
            dc = dc * f[:, s]
            dh = d_pre[:, s] @ w_t
        return d_pre, _gate_major_gram(hs[:, :-1], d_pre)

    return hs, bptt


def _gate_major_gru(pre_x: np.ndarray, w_h: np.ndarray):
    """``_gate_major_lstm`` for the GRU: gates z, r and the candidate, width 3h."""
    _, steps, batch, width = pre_x.shape
    h = width // 3
    hs = np.zeros((2, steps + 1, batch, h))
    gates = np.empty(pre_x.shape)
    reset_h = np.empty((2, steps, batch, h))
    for s in range(steps):
        a, h_prev = gates[:, s], hs[:, s]
        a[..., : 2 * h] = ad._sigmoid(pre_x[:, s, :, : 2 * h] + h_prev @ w_h[..., : 2 * h])
        reset_h[:, s] = a[..., h : 2 * h] * h_prev
        a[..., 2 * h :] = np.tanh(pre_x[:, s, :, 2 * h :] + reset_h[:, s] @ w_h[..., 2 * h :])
        hs[:, s + 1] = (1.0 - a[..., :h]) * h_prev + a[..., :h] * a[..., 2 * h :]

    def bptt(d_hs):
        z, r, cand = (gates[..., k * h : (k + 1) * h] for k in range(3))
        h_prev = hs[:, :-1]
        dz_dh, dc_dh = (cand - h_prev) * z * (1.0 - z), z * (1.0 - cand * cand)
        dr_drh, keep = h_prev * r * (1.0 - r), 1.0 - z
        w_zr, w_c = w_h[..., : 2 * h].transpose(0, 2, 1), w_h[..., 2 * h :].transpose(0, 2, 1)
        d_pre = np.empty(pre_x.shape)
        dh = 0.0
        for s in reversed(range(steps)):
            dh, d = dh + d_hs[:, s], d_pre[:, s]
            np.multiply(dh, dc_dh[:, s], out=d[..., 2 * h :])
            drh = d[..., 2 * h :] @ w_c
            np.multiply(dh, dz_dh[:, s], out=d[..., :h])
            np.multiply(drh, dr_drh[:, s], out=d[..., h : 2 * h])
            dh = dh * keep[:, s] + drh * r[:, s] + d[..., : 2 * h] @ w_zr
        return d_pre, np.concatenate(
            [_gate_major_gram(h_prev, d_pre[..., : 2 * h]), _gate_major_gram(reset_h, d_pre[..., 2 * h :])],
            axis=-1,
        )

    return hs, bptt


def gate_major_bidirectional(t: dict, prefix: str, x: Tensor, mask: TimeMask) -> Tensor:
    """``run_bidirectional`` with direction-major [2 x T x b x k] buffers, one gate
    buffer per cell, ``[:, s]`` step indexing and a sigmoid call per step: the form the
    time-major loops replaced, kept to test them bit for bit."""
    mask.check(x, "gate_major_bidirectional")
    kind, hidden = _cell(t, f"{prefix}.fwd", x)
    if _cell(t, f"{prefix}.bwd", x) != (kind, hidden):
        raise DimensionError(f"gate_major_bidirectional: {prefix}.fwd and {prefix}.bwd differ")
    batch, d, steps = x.shape
    gates = LSTM_GATES if kind == "lstm" else GRU_GATES
    n, h = len(gates), hidden
    cells = [[(t[f"{prefix}.{side}.w_{g}"], t[f"{prefix}.{side}.b_{g}"]) for g in gates]
             for side in ("fwd", "bwd")]
    w = np.array([[wt.data for wt, _ in cell] for cell in cells]).reshape(2, n * h, d + h)
    w_x = w[:, :, :d].transpose(2, 0, 1).reshape(d, 2 * n * h)
    w_h = w[:, :, d:].transpose(0, 2, 1).copy()
    src, valid = mask.reversal()
    src, valid, items = src.T, valid.T[:, :, None], np.arange(batch)

    def flip(a):
        return a[src, items] * valid

    def frames():
        return x.data.transpose(2, 0, 1).reshape(steps * batch, d)

    pre_x = np.empty((2, steps, batch, n * h))
    bias = np.array([[bt.data for _, bt in cell] for cell in cells]).reshape(2, 1, 1, n * h)
    np.add((frames() @ w_x).reshape(steps, batch, 2, n * h).transpose(2, 0, 1, 3), bias, out=pre_x)
    pre_x[1] = flip(pre_x[1])
    hs, bptt = (_gate_major_lstm if kind == "lstm" else _gate_major_gru)(pre_x, w_h)
    states = hs[:, 1:] * valid
    states[1] = flip(states[1])

    def bw(g):
        d_hs = g.reshape(batch, 2, h, steps).transpose(1, 3, 0, 2) * valid
        d_hs[1] = flip(d_hs[1])
        d_pre, d_w_h = bptt(d_hs)
        d_pre[1] = flip(d_pre[1])
        d_flat = d_pre.transpose(1, 2, 0, 3).reshape(steps * batch, 2 * n * h)
        if x.requires_grad:
            ad._accumulate(x, (d_flat @ w_x.T).reshape(steps, batch, d).transpose(1, 2, 0))
        d_w_x = (frames().T @ d_flat).reshape(d, 2, n * h).transpose(1, 2, 0)
        d_w = np.concatenate([d_w_x, d_w_h.transpose(0, 2, 1)], axis=2).reshape(2, n, h, d + h)
        d_b = d_pre.sum(axis=(1, 2)).reshape(2, n, h)
        for k, cell in enumerate(cells):
            for j, (wt, bt) in enumerate(cell):
                ad._accumulate(wt, d_w[k, j])
                ad._accumulate(bt, d_b[k, j])

    out = states.transpose(2, 0, 3, 1).reshape(batch, 2 * h, steps)
    return Tensor._op(out, (x, *(p for cell in cells for pair in cell for p in pair)), bw)


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root as an autodiff op, for the composed batch norm below."""
    data = np.sqrt(a.data)

    def bw(g):
        ad._accumulate(a, g / (2.0 * data))

    return Tensor._op(data, (a,), bw)


def composed_batchnorm_time(t: dict, prefix: str, x: Tensor, mask: TimeMask, train: bool) -> Tensor:
    """``batchnorm_time`` composed of autodiff ops, one tape node per op: the backward is
    the chain rule through every elementwise step and reduction, not the closed form.
    Reads and writes the same table entries as the fused op."""
    gamma, beta, running_mean, running_var, seen = (
        t[f"{prefix}.{f}"] for f in ("gamma", "beta", "running_mean", "running_var", "initialized")
    )
    c = x.shape[1]
    m = mask.channel_mask()
    gamma3 = reshape(gamma, (1, c, 1))
    beta3 = reshape(beta, (1, c, 1))
    if not train:
        rm = running_mean.data.reshape(1, c, 1)
        rstd = np.sqrt(running_var.data + ad.BN_EPS).reshape(1, c, 1)
        xhat = mul(sub(x, rm), 1.0 / rstd)
        return mul(add(mul(xhat, gamma3), beta3), m)

    n = float(mask.total_valid())
    mean = mul(tensor_sum(mul(x, m), axis=(0, 2), keepdims=True), 1.0 / n)
    centered = mul(sub(x, mean), m)
    var = mul(tensor_sum(mul(centered, centered), axis=(0, 2), keepdims=True), 1.0 / n)
    xhat = div(centered, sqrt(add(var, ad.BN_EPS)))
    out = mul(add(mul(xhat, gamma3), beta3), m)

    batch_mean = mean.data.reshape(c).copy()
    batch_var = var.data.reshape(c).copy()
    if seen.data[0]:
        running_mean.data = ad.BN_MOMENTUM * running_mean.data + (1.0 - ad.BN_MOMENTUM) * batch_mean
        running_var.data = ad.BN_MOMENTUM * running_var.data + (1.0 - ad.BN_MOMENTUM) * batch_var
    else:
        running_mean.data, running_var.data, seen.data = batch_mean, batch_var, np.ones(1)
    return out


def composed_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``linear`` as two tape nodes: ``x @ w.T`` under the composed matmul and transpose
    rules (x gets ``g @ w``, w gets ``(x.T @ g).T``), then a broadcast add of b."""

    def bw(g):
        ad._accumulate(x, g @ w.data)
        ad._accumulate(w, (x.data.T @ g).T)

    return add(Tensor._op(x.data @ w.data.T, (x, w), bw), b)


def composed_conv1d_same(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """``conv1d_same`` through a frame-major [b·t x c_in·w] im2col matrix gathered from
    ``sliding_window_view``: the output is ``cols @ kernels.T``, the kernels get
    ``g.T @ cols`` and x gets ``g @ kernels`` folded back over a zero-padded copy."""
    b, ci, t = x.shape
    co, _, w = kernels.shape
    p = (w - 1) // 2

    def im2col():  # row (i, s) holds item i's zero-padded window at s
        xp = np.pad(x.data, ((0, 0), (0, 0), (p, p))) if p else x.data
        win = np.lib.stride_tricks.sliding_window_view(xp, w, axis=2)  # (b, ci, t, w)
        return win.transpose(0, 2, 1, 3).reshape(b * t, ci * w)

    kmat = kernels.data.reshape(co, ci * w)
    out = (im2col() @ kmat.T + bias.data).reshape(b, t, co).transpose(0, 2, 1)

    def bw(g):
        gmat = g.transpose(0, 2, 1).reshape(b * t, co)
        if kernels.requires_grad:
            ad._accumulate(kernels, (gmat.T @ im2col()).reshape(co, ci, w))
        if bias.requires_grad:
            ad._accumulate(bias, gmat.sum(axis=0))
        if x.requires_grad:
            gcol = (gmat @ kmat).reshape(b, t, ci, w).transpose(0, 2, 1, 3)
            gxp = np.zeros((b, ci, t + 2 * p))
            for j in range(w):
                gxp[:, :, j : j + t] += gcol[:, :, :, j]
            ad._accumulate(x, gxp[:, :, p : p + t])

    return Tensor._op(np.ascontiguousarray(out), (x, kernels, bias), bw)


def softmax_masked(scores: Tensor, mask: TimeMask) -> Tensor:
    """Per-item softmax of scores [b x t] over valid positions as six tape nodes: shift by
    the maximum over valid positions, mask, exp, mask, sum, divide. Padded positions
    weigh exactly 0."""
    m = mask.bool_matrix().astype(np.float64)
    shift = np.where(mask.bool_matrix(), scores.data, -np.inf).max(axis=1, keepdims=True)
    e = mul(exp(mul(sub(scores, shift), m)), m)
    return div(e, tensor_sum(e, axis=1, keepdims=True))


def composed_attention_pool(t: dict, prefix: str, h: Tensor, mask: TimeMask) -> Tensor:
    """``attention_pool`` as 15 tape nodes: a width-1 ``composed_conv1d_same`` projection,
    tanh, the scores as a broadcast product summed over the attention axis, the six-node
    masked softmax, and the weighted sum over time."""
    weight, bias, score = (t[f"{prefix}.{f}"] for f in ("proj_weight", "proj_bias", "score_vector"))
    attn, channels = weight.shape
    u = tanh(composed_conv1d_same(h, reshape(weight, (attn, channels, 1)), bias))
    scores = tensor_sum(mul(u, reshape(score, (1, attn, 1))), axis=1)
    alpha = softmax_masked(scores, mask)
    return tensor_sum(mul(h, reshape(alpha, (mask.batch, 1, mask.max_time))), axis=2)


def composed_masked_features(streams, mask: TimeMask) -> Tensor:
    """``autodiff.concat(streams, mask)`` as one tape node per stream, each stream times the
    mask, then the unmasked concat."""
    m = mask.channel_mask()
    return ad.concat([mul(x, m) for x in streams])


def composed_video_level_pool(streams, mask: TimeMask) -> Tensor:
    """``video_level``'s pool as ``composed_masked_mean_time`` over the masked, concatenated
    streams."""
    return composed_masked_mean_time(composed_masked_features(streams, mask), mask)


class WholeArrayAdam(Adam):
    """``Adam`` updating each parameter in one pass over whole arrays: a finite scan and
    a scaled copy per gradient and two fresh scratch arrays per parameter."""

    def step(self) -> float:
        grads = {}
        for name, p in self.named_params:
            g = p.grad if p.grad is not None else np.zeros(p.data.shape)
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient in parameter block {name!r}")
            grads[name] = g
        norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
        if self.clip_norm is not None and norm > self.clip_norm:
            scale = self.clip_norm / norm
            grads = {name: g * scale for name, g in grads.items()}
        self.step_count += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.step_count
        bc2 = 1.0 - ADAM_BETA2 ** self.step_count
        for name, p in self.named_params:
            g, m, v = grads[name], self.moments1[name], self.moments2[name]
            a, b = np.empty(g.shape), np.empty(g.shape)
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            v *= ADAM_BETA2
            np.multiply(g, g, out=a)
            v += np.multiply(a, 1.0 - ADAM_BETA2, out=a)
            np.sqrt(np.divide(v, bc2, out=a), out=a)
            a += ADAM_EPSILON
            np.multiply(np.divide(m, bc1, out=b), self.lr, out=b)
            p.data -= np.divide(b, a, out=b)
        return norm


def whole_array_kmeanspp_init(samples: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding with each distance pass over all rows at once."""
    n = samples.shape[0]
    centers = np.empty((k, samples.shape[1]))
    centers[0] = samples[rng.integers(n)]
    closest = ((samples - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest.sum()
        idx = rng.integers(n) if total <= 0.0 else rng.choice(n, p=closest / total)
        centers[i] = samples[idx]
        np.minimum(closest, ((samples - centers[i]) ** 2).sum(axis=1), out=closest)
    return centers


def kmeans_oracle(samples: np.ndarray, k: int, max_iter: int, seed: int) -> Codebook:
    """``kmeans_fit`` with whole-array seeding and one boolean scan per cluster."""
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[0]
    centers = whole_array_kmeanspp_init(samples, k, np.random.default_rng(seed))
    history, assignments = [], None
    for _ in range(max_iter):
        d2 = doubled_squared_distances(samples, centers)
        new_assignments = d2.argmin(axis=1)
        history.append(float(d2[np.arange(n), new_assignments].sum()))
        if assignments is not None and np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for c in range(k):
            members = samples[assignments == c]
            if len(members):
                centers[c] = members.mean(axis=0)
        empty = [c for c in range(k) if not np.any(assignments == c)]
        if empty:
            own_d2 = ((samples - centers[assignments]) ** 2).sum(axis=1)
            for c, idx in zip(empty, np.argsort(-own_d2, kind="stable")):
                centers[c] = samples[idx]
    return Codebook(centers, inertia_history=history)
