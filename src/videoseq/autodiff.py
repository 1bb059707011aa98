"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is define-by-run: an operation records a node exactly when a
``with Tape():`` block is open, so creation order is already a topological
order; outside one, operations give constants. ``backward(loss)`` walks the
tape once in reverse, accumulating gradients into every reachable tensor
with ``requires_grad=True``, and lets each node go as soon as its backward
has run: its gradient and closure are dropped, and the tape is closed and
emptied when the walk ends. Leaving the block closes the tape too, so a
forward without a backward keeps nothing alive.

Only the primitives the sequence models need are provided: ``linear`` (one
node for a fully-connected layer, ``x @ w.T + b``), ``concat`` (the one
channel join, which given a ``TimeMask`` also zeroes padded frames),
same-length temporal convolution, masked batch normalization, the masked
mean over time as one fused node, and the ReLU and sigmoid activations.
There is no broadcasting arithmetic: ``relu`` takes the residual sum, so
``relu(x, y)`` is a residual block's ``ReLU(x + y)`` as one node, and
``concat(xs, mask)`` masks.
Batch norm reads its parameters and running statistics by prefix from a
{name: Tensor} dict, such as a model's ``tensors``, and is one fused node
that keeps only x̂ and 1/σ for its closed-form backward. A fused op
elsewhere, such as ``recurrent.run_bidirectional``,
``recurrent.attention_pool`` or the loss ``training.bce_loss``, is likewise
one ``Tensor._op`` node whose backward calls ``_accumulate`` on each parent.
``TimeMask.check`` is the one check that a [batch x c x time] input fits its mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    ContractError,
    DimensionError,
    PreconditionError,
    StateError,
    check_each,
    check_int,
    check_shape,
)

__all__ = [
    "Tensor",
    "Tape",
    "TimeMask",
    "backward",
    "linear",
    "concat",
    "conv1d_same",
    "batchnorm_time",
    "relu",
    "sigmoid",
    "masked_mean_time",
]


class Tape:
    """The tape of one differentiated computation, opened as ``with Tape():``.

    Operations record onto the open tape in creation order, which is a valid
    topological order by construction: an op's inputs always exist before its
    output. The first ``backward`` through the tape closes it, and so does
    leaving the block; a closed tape holds no nodes, and an op that would
    record onto it raises.
    Only one tape is open at a time: parents on an outer tape would get no
    gradient from an inner one.
    """

    __slots__ = ("nodes", "closed")

    def __init__(self) -> None:
        self.nodes: list[Tensor] = []
        self.closed = False

    def __enter__(self) -> "Tape":
        global _open
        if _open is not None:
            raise StateError("a Tape is already open; tapes do not nest")
        _open = self
        return self

    def __exit__(self, *exc):
        global _open
        _open = None
        self._close()
        return False

    def _close(self) -> None:
        """Close the tape and let go of every node still on it."""
        self.closed = True
        for node in self.nodes:
            if node is not None:
                node.grad, node._backward = None, None
        self.nodes = []


_open: Tape | None = None  # the tape of the enclosing ``with Tape():`` block


class Tensor:
    """A dense float64 array, optionally tracked for differentiation."""

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_graph", "_index")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        check_each("tensor values must be finite", np.isfinite(arr), arr)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._backward = None
        self._graph = None
        self._index = -1

    # -- construction of op outputs (fast path, skips the finite scan) --

    @staticmethod
    def _op(data: np.ndarray, parents: tuple, backward_fn) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._backward = None
        out._graph = None
        out._index = -1
        g = _open
        if g is not None and any(p.requires_grad for p in parents):
            if g.closed:
                raise StateError("the tape was closed by backward; open a new Tape")
            for p in parents:
                if p.requires_grad and p._graph is not None and p._graph.closed:
                    raise StateError("cannot extend a graph that has already been traversed")
            out.requires_grad = True
            out._backward = backward_fn
            out._graph = g
            out._index = len(g.nodes)
            g.nodes.append(out)
        else:
            out.requires_grad = False
        return out

    # -- basic introspection --

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return self.data.item()

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def zero_grad(self) -> None:
        self.grad = None


def _const(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _accumulate(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add ``g`` into ``t.grad``; a first gradient gets the bits of ``zeros + g`` (-0.0 becomes 0.0).

    A first gradient is a C-order copy of ``g``, unless ``fresh`` says the op made ``g``
    for ``t`` alone and keeps no other reference to it: a C-contiguous ``g`` is then
    adopted, the ``+ 0.0`` pass running in place. ``relu``'s shared ``g`` and unmasked
    ``concat``'s views are copied. ``training.train`` drops every parameter gradient
    right after ``Adam.step``."""
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif fresh and g.flags.c_contiguous:
        t.grad = np.add(g, 0.0, out=g)
    else:
        t.grad = np.add(g, 0.0, order="C")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w.T + b`` as one node, for x [n x i], w [o x i], b [o]; w's gradient is
    built as ``g.T @ x``, in w's layout."""
    x, w, b = _const(x), _const(w), _const(b)
    o, i = check_shape("linear w", w.data.shape, (None, None))
    check_shape("linear x", x.data.shape, (None, i))
    check_shape("linear b", b.data.shape, (o,))
    data = x.data @ w.data.T
    data += b.data

    def bw(g):
        if x.requires_grad:
            _accumulate(x, g @ w.data, fresh=True)
        if w.requires_grad:
            _accumulate(w, g.T @ x.data, fresh=True)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0), fresh=True)

    return Tensor._op(data, (x, w, b), bw)


def concat(xs, mask: TimeMask | None = None) -> Tensor:
    """Join [batch x c_i x ...] tensors along channels (axis 1) as one node; every other dim
    must agree with the first input's. With ``mask``, each input is [batch x c_i x time] and is
    zeroed at padded frames: every product goes into one buffer, and the backward is ``g * m``
    split by channel."""
    xs = [_const(x) for x in xs]
    if not xs:
        raise DimensionError("concat of an empty list")
    first = (check_shape("concat input 0", xs[0].data.shape, (None,) * max(xs[0].data.ndim, 2))
             if mask is None else mask.check(xs[0], "concat input 0"))
    for i, x in enumerate(xs[1:], 1):
        check_shape(f"concat input {i}", x.data.shape, (first[0], None, *first[2:]))
    ends = np.cumsum([0] + [x.data.shape[1] for x in xs])
    if mask is None:
        m, data = None, np.concatenate([x.data for x in xs], axis=1)
    else:
        m, data = mask.channel_mask(), np.empty((mask.batch, ends[-1], mask.max_time))
        for x, lo, hi in zip(xs, ends, ends[1:]):
            np.multiply(x.data, m, out=data[:, lo:hi])

    def bw(g):
        for x, lo, hi in zip(xs, ends, ends[1:]):
            if x.requires_grad:
                _accumulate(x, g[:, lo:hi] if m is None else g[:, lo:hi] * m, fresh=m is not None)

    return Tensor._op(data, tuple(xs), bw)


# ---------------------------------------------------------------------------
# elementwise functions
# ---------------------------------------------------------------------------


def relu(first: Tensor, *rest: Tensor) -> Tensor:
    """ReLU of the sum of one or more terms of the first's shape, as one node; each term
    gets ``g`` where the output is positive."""
    terms = tuple(map(_const, (first, *rest)))
    for i, a in enumerate(terms[1:], 1):
        check_shape(f"relu term {i}", a.data.shape, terms[0].data.shape)
    data = np.maximum(sum((a.data for a in terms[1:]), terms[0].data), 0.0)

    def bw(g):
        g = g * (data > 0.0)
        for a in terms:
            _accumulate(a, g)

    return Tensor._op(data, terms, bw)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp overflows to inf for very negative z; 1 / (1 + inf) is the exact limit 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def sigmoid(a: Tensor) -> Tensor:
    a = _const(a)
    data = _sigmoid(a.data)

    def bw(g):
        _accumulate(a, g * data * (1.0 - data), fresh=True)

    return Tensor._op(data, (a,), bw)


# ---------------------------------------------------------------------------
# masking over the time axis
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TimeMask:
    """Valid-frame bookkeeping for a zero-padded [batch x ... x time] batch."""

    batch: int
    max_time: int
    valid_lengths: np.ndarray

    def __post_init__(self):
        check_int("TimeMask batch", self.batch, 1)
        check_int("TimeMask max_time", self.max_time, 1)
        lengths = np.asarray(self.valid_lengths)
        if lengths.dtype.kind not in "iu":  # a float, bool, object or string array
            raise ConfigurationError(f"TimeMask valid_lengths must be integers, got dtype {lengths.dtype}")
        object.__setattr__(self, "valid_lengths", lengths.astype(np.int64))
        self.valid_lengths.setflags(write=False)  # a later write would bypass the checks below
        check_shape("TimeMask valid_lengths", lengths.shape, (self.batch,))
        check_each(f"TimeMask valid_lengths must lie in [1, max_time {self.max_time}]",
                   (lengths >= 1) & (lengths <= self.max_time), lengths, PreconditionError)

    @classmethod
    def full(cls, batch: int, time: int) -> "TimeMask":
        return cls(batch, time, np.full(batch, time, dtype=np.int64))

    def bool_matrix(self) -> np.ndarray:
        """[batch x time] boolean validity."""
        return np.arange(self.max_time)[None, :] < self.valid_lengths[:, None]

    def channel_mask(self) -> np.ndarray:
        """[batch x 1 x time] float mask, broadcastable over channels."""
        return self.bool_matrix().astype(np.float64)[:, None, :]

    def total_valid(self) -> int:
        return int(self.valid_lengths.sum())

    def reversal(self):
        """(src, valid), both [batch x time]: position t of item i's reversed valid
        prefix holds its frame src[i, t] where valid[i, t]; padding reads frame 0."""
        t = np.arange(self.max_time)[None, :]
        valid = self.bool_matrix()
        return np.where(valid, self.valid_lengths[:, None] - 1 - t, 0), valid

    def check(self, x, name: str, channels: int | None = None) -> tuple:
        """x's shape (x a Tensor or an array), or a DimensionError naming ``name`` unless it is
        [batch x channels x max_time]; ``channels`` None matches any width."""
        return check_shape(name, x.shape, (self.batch, channels, self.max_time))


def masked_mean_time(x: Tensor, mask: TimeMask) -> Tensor:
    """Mean over each item's valid frames, ``(x·m).sum(time) · 1/len``: [b x c x t] -> [b x c],
    as one node. The backward spreads ``g · 1/len`` over the valid frames; padded frames get 0."""
    x = _const(x)
    mask.check(x, "masked_mean_time")
    m = mask.channel_mask()
    scale = 1.0 / mask.valid_lengths.astype(np.float64)[:, None]

    def bw(g):
        _accumulate(x, (g * scale)[:, :, None] * m, fresh=True)

    return Tensor._op((x.data * m).sum(axis=2) * scale, (x,), bw)


# ---------------------------------------------------------------------------
# temporal convolution
# ---------------------------------------------------------------------------


def conv1d_same(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Cross-correlate along time with zero padding so the length is kept.

    x: [batch x c_in x time], kernels: [c_out x c_in x width] (width odd),
    bias: [c_out]. Implemented as im2col + one BLAS matmul over a channel-major
    [c_in·w x b·t] column matrix: row (c, j) holds every item's channel c
    shifted by j - p along time, zero off the ends, copied in contiguous time
    runs from ``x``'s own layout. The output and the input gradient are
    computed frame-major, [b·t x c_out] and [b·t x c_in·w], because the BLAS
    rounds a product by the layout of its result: laid out so, they keep the
    bits of a frame-major im2col. The input gradient is folded back by ``w``
    shifted adds along time. The backward closure keeps ``x`` rather than the
    column matrix and rebuilds it when the kernels need their gradient (the
    recompute trade of Chen et al. 2016, arXiv:1604.06174).
    """
    x, kernels, bias = _const(x), _const(kernels), _const(bias)
    b, ci, t = check_shape("conv1d_same x", x.data.shape, (None, None, None))
    co, _, w = check_shape("conv1d_same kernels", kernels.data.shape, (None, ci, None))
    if w % 2 == 0:
        raise ConfigurationError(f"kernel width must be odd, got {w}")
    check_shape("conv1d_same bias", bias.data.shape, (co,))
    p = (w - 1) // 2
    # (j, lo, src, n): tap j pairs output frames [lo, lo + n) with input frames [src, src + n)
    taps = [(j, max(p - j, 0), max(j - p, 0), t - abs(j - p)) for j in range(w) if abs(j - p) < t]

    def im2col():  # [c_in·w x b·t]: row (c, j) holds every item's channel c shifted by j - p
        cols = np.empty((ci, w, b, t)) if w == 1 else np.zeros((ci, w, b, t))
        xc = x.data.transpose(1, 0, 2)
        for j, lo, src, n in taps:
            cols[:, j, :, lo : lo + n] = xc[:, :, src : src + n]
        return cols.reshape(ci * w, b * t)

    kmat = kernels.data.reshape(co, ci * w)
    out = (im2col().T @ kmat.T + bias.data).reshape(b, t, co).transpose(0, 2, 1)

    def bw(g):
        gmat = g.transpose(0, 2, 1).reshape(b * t, co)
        if kernels.requires_grad:
            _accumulate(kernels, (gmat.T @ im2col().T).reshape(co, ci, w), fresh=True)
        if bias.requires_grad:
            _accumulate(bias, gmat.sum(axis=0), fresh=True)
        if x.requires_grad:
            gcols = (gmat @ kmat).reshape(b, t, ci, w)
            gx = np.zeros((b, t, ci))
            for j, lo, src, n in taps:
                gx[:, src : src + n] += gcols[:, lo : lo + n, :, j]
            _accumulate(x, gx.transpose(0, 2, 1))

    return Tensor._op(np.ascontiguousarray(out), (x, kernels, bias), bw)


# ---------------------------------------------------------------------------
# batch normalization over (batch, valid time)
# ---------------------------------------------------------------------------


BN_MOMENTUM = 0.9
BN_EPS = 1e-5


def batchnorm_time(t: dict, prefix: str, x: Tensor, mask: TimeMask, train: bool) -> Tensor:
    """Batch norm ``prefix`` of ``t``: per-channel normalization over (batch, valid time).

    Reads ``<prefix>.gamma``, ``.beta``, ``.running_mean``, ``.running_var`` and
    ``.initialized`` from ``t``. Train mode normalizes with batch statistics
    computed over valid frames only and writes them into the running
    statistics' ``.data`` (the first call seeds them directly and sets
    ``initialized``, later calls blend with momentum ``BN_MOMENTUM``). Eval mode
    applies the running statistics as a fixed affine map. Padded positions stay
    zero.

    Either mode is one tape node over ``(x, gamma, beta)``. Train mode keeps
    only x̂ and 1/σ for the closed-form backward of Ioffe & Szegedy 2015
    (arXiv:1502.03167); eval mode keeps nothing beyond its parents. The output
    is built in the one scratch buffer the batch mean was summed from.
    """
    gamma, beta, running_mean, running_var, seen = (
        t[f"{prefix}.{f}"] for f in ("gamma", "beta", "running_mean", "running_var", "initialized")
    )
    x = _const(x)
    _, c, _ = mask.check(x, "batchnorm_time")
    check_shape(f"{prefix}.gamma", gamma.data.shape, (c,))
    check_shape(f"{prefix}.beta", beta.data.shape, (c,))
    m = mask.channel_mask()
    g3, b3 = gamma.data.reshape(1, c, 1), beta.data.reshape(1, c, 1)

    if not train:
        if not seen.data[0]:
            raise StateError("eval-mode batch norm requires populated running statistics")
        rm = running_mean.data.reshape(1, c, 1)
        inv_std = 1.0 / np.sqrt(running_var.data + BN_EPS).reshape(1, c, 1)
        out = x.data - rm
        out *= inv_std
        out *= g3
        out += b3
        out *= m

        def bw_eval(g):
            gm = g * m
            _accumulate(beta, gm.sum(axis=(0, 2)), fresh=True)
            if gamma.requires_grad:
                _accumulate(gamma, (gm * ((x.data - rm) * inv_std)).sum(axis=(0, 2)), fresh=True)
            if x.requires_grad:
                gm *= g3
                gm *= inv_std
                _accumulate(x, gm, fresh=True)

        return Tensor._op(out, (x, gamma, beta), bw_eval)

    n = float(mask.total_valid())
    out = x.data * m  # the scratch buffer: masked x, then squared deviations, then the output
    mean = out.sum(axis=(0, 2), keepdims=True) * (1.0 / n)
    xhat = x.data - mean
    xhat *= m
    np.multiply(xhat, xhat, out=out)
    var = out.sum(axis=(0, 2), keepdims=True) * (1.0 / n)
    std = np.sqrt(var + BN_EPS)
    xhat /= std
    inv_std = 1.0 / std
    np.multiply(xhat, g3, out=out)
    out += b3
    out *= m

    def bw(g):
        gm = g * m
        d_beta = gm.sum(axis=(0, 2), keepdims=True)
        scratch = gm * xhat
        d_gamma = scratch.sum(axis=(0, 2), keepdims=True)
        if x.requires_grad:  # dx = γ/σ · (g − (Σg + x̂·Σg·x̂) / n), sums over valid frames
            np.multiply(xhat, d_gamma * (1.0 / n), out=scratch)
            scratch += d_beta * (1.0 / n)
            np.subtract(gm, scratch, out=scratch)
            scratch *= g3 * inv_std
            scratch *= m
            _accumulate(x, scratch, fresh=True)
        _accumulate(beta, d_beta.reshape(c), fresh=True)  # after dx, which reads both sums
        _accumulate(gamma, d_gamma.reshape(c), fresh=True)

    batch_mean, batch_var = mean.reshape(c), var.reshape(c)
    if seen.data[0]:
        running_mean.data = BN_MOMENTUM * running_mean.data + (1.0 - BN_MOMENTUM) * batch_mean
        running_var.data = BN_MOMENTUM * running_var.data + (1.0 - BN_MOMENTUM) * batch_var
    else:
        running_mean.data, running_var.data, seen.data = batch_mean, batch_var, np.ones(1)
    return Tensor._op(out, (x, gamma, beta), bw)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate gradients of every tracked ancestor of a scalar loss.

    Walks the loss's tape in reverse creation order, so each node is
    visited exactly once and gradients sum over all uses of a tensor. Each
    interior node lets go of its gradient and closure as soon as its
    backward has run, and the tape is closed and emptied afterwards;
    the loss keeps its value, and calling backward on it again raises.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    g = loss._graph
    if g is None:
        raise StateError("loss does not belong to a live graph (no tracked ancestors)")
    if g.closed:
        raise StateError("graph already traversed; rebuild the forward pass first")
    loss.grad = np.ones(loss.data.shape)
    nodes = g.nodes
    for i in range(loss._index, -1, -1):
        # off the tape too, so an output dies once the nodes that read it have run
        node, nodes[i] = nodes[i], None
        if node.grad is not None:
            node._backward(node.grad)
        node.grad, node._backward = None, None
    g._close()

