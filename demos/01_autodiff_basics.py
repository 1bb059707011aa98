#!/usr/bin/env python3
"""A tour of the tensor core: forward math, backward pass, masking.

Everything downstream (recurrent layers, attention, the temporal resnet)
is built from the handful of primitives shown here.
"""

import numpy as np

from videoseq import Tape, Tensor, TimeMask, backward, conv1d_same, linear, masked_mean_time, sigmoid
from videoseq.gradcheck import numerical_gradient

# --- tensors and the tape ---------------------------------------------------
# A Tensor wraps a float64 ndarray. Inside a `with Tape():` block, operations
# on tensors with requires_grad=True are recorded on that tape in creation
# order, so one reverse sweep computes every gradient. The sweep lets go of
# each node as it passes, and leaving the block empties the tape; outside a
# Tape, operations record nothing.
#
# linear(x, w, b) is a fully-connected layer, x @ w.T + b, as one tape node:
# x is [batch x inputs], w is [outputs x inputs] and b is [outputs]. A layer
# with one output, weights of ones and no bias sums its inputs, so it turns
# sigmoid(y) into the scalar loss sum(sigmoid(y)), as a [1 x 1] tensor. There
# is no `+` or `*` on tensors: every step of a graph is one of the engine's ops.

w = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
x = Tensor(np.array([[0.5, -1.0]]))
b = Tensor(np.zeros(2))
ones, zero = Tensor(np.ones((1, 2))), Tensor(np.zeros(1))

with Tape() as tape:
    y = linear(x, w, b)       # [1x2]
    loss = linear(sigmoid(y), ones, zero)  # [1x1]
    print("tape nodes    :", len(tape.nodes))
    backward(loss)
print("after backward:", len(tape.nodes), "nodes")

print("loss          :", loss.item())
print("grad of w     :\n", w.grad)

# The analytic gradient can always be cross-checked with central finite
# differences: videoseq.gradcheck holds the library's one finite-difference
# checker, which the `gradcheck` command and the test suite both use.
w2 = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)


def f():
    y2 = linear(x, w2, b)
    return linear(sigmoid(y2), ones, zero).data[0, 0]


numeric = numerical_gradient(f, w2, step=1e-6)
print("finite diff   :\n", numeric)
print("max abs diff  :", np.max(np.abs(w.grad - numeric)))

# --- temporal convolution ----------------------------------------------------
# conv1d_same cross-correlates along time and zero-pads so the length is
# preserved. A centered identity kernel reproduces its input.

signal = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
identity_kernel = Tensor(np.array([[[0.0, 1.0, 0.0]]]))
box_kernel = Tensor(np.array([[[1.0, 1.0, 1.0]]]))
zero_bias = Tensor(np.zeros(1))

print("\nidentity kernel:", conv1d_same(signal, identity_kernel, zero_bias).data[0, 0])
print("box kernel     :", conv1d_same(signal, box_kernel, zero_bias).data[0, 0])

# --- masking ------------------------------------------------------------------
# Batches of videos are zero-padded to a common length; a TimeMask records
# each item's true frame count. Pooling over time reads valid frames only:
# masked_mean_time averages each item's valid frames (attention_pool likewise
# gives padded frames weight exactly 0), so whatever is stored there cannot
# matter.

frames = Tensor(np.array([[[2.0, 4.0, 99.0]], [[1.0, 2.0, 3.0]]]))  # [batch x 1 x time]
mask = TimeMask(batch=2, max_time=3, valid_lengths=np.array([2, 3]))
print("\nmasked mean over time (item 0 has 2 valid frames, then 99 as padding):")
print(masked_mean_time(frames, mask).data[:, 0])
