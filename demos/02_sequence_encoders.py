#!/usr/bin/env python3
"""Recurrent cells, bidirectional encoding, and attention pooling.

Shows how a variable-length batch flows through the sequence machinery
that the two-stream and fast-forward classifiers are assembled from.
"""

import numpy as np

from videoseq import Tensor, TimeMask, attention_pool, run_bidirectional
from videoseq.recurrent import attention_table, cell_table, draw_table

rng = np.random.default_rng(0)

# --- one frame: a single step per direction ------------------------------------
# The sequence op reads a forward cell "<prefix>.fwd" and a backward cell
# "<prefix>.bwd" from one {name: Tensor} dict; each gate matrix acts on
# [x_t; h_prev]. On a one-frame batch both directions take one step from zero
# state. With all weights zero and the LSTM candidate bias at 1, the gates sit
# at sigmoid(0) = 0.5 and the candidate at tanh(1), so c = 0.5*tanh(1) and
# h = 0.5*tanh(c) in both halves of the output.

lstm = draw_table(cell_table("one.fwd", "lstm", input_size=4, hidden_size=3), rng)
lstm.update(draw_table(cell_table("one.bwd", "lstm", input_size=4, hidden_size=3), rng))
for name, tensor in lstm.items():
    tensor.data[...] = 1.0 if name.endswith("b_candidate") else 0.0
one_frame = TimeMask.full(1, 1)
h = run_bidirectional(lstm, "one", Tensor(np.ones((1, 4, 1))), one_frame).data[0, :, 0]
print("zero-weight LSTM step: h_t =", h)
print("expected             : h_t = 0.5*tanh(0.5*tanh(1)) =", 0.5 * np.tanh(0.5 * np.tanh(1.0)))

# From zero state a GRU step is h = z * tanh(W_c x + b_c), z = sigmoid(W_z x + b_z):
# the reset gate only scales h_prev, which is zero.
gru = draw_table(cell_table("g.fwd", "gru", input_size=4, hidden_size=3), rng)
gru.update(draw_table(cell_table("g.bwd", "gru", input_size=4, hidden_size=3), rng))
frame = rng.normal(size=4)
h = run_bidirectional(gru, "g", Tensor(frame.reshape(1, 4, 1)), one_frame).data[0, :, 0]


def gru_closed_form(side):
    def pre(gate):
        return gru[f"g.{side}.w_{gate}"].data[:, :4] @ frame + gru[f"g.{side}.b_{gate}"].data

    return np.tanh(pre("candidate")) / (1.0 + np.exp(-pre("update")))


expected = np.concatenate([gru_closed_form("fwd"), gru_closed_form("bwd")])
print("random GRU step matches its closed form:", bool(np.allclose(h, expected, atol=1e-15)))

# --- bidirectional run over a padded batch -------------------------------------
# Item 0 has 2 valid frames, item 1 has 5. The forward direction walks all
# steps (padded outputs are zeroed afterwards); the backward direction walks
# each item's reversed valid prefix, so padding never enters its state. The
# whole layer, both directions over all steps, is one autodiff node.

cells = draw_table(cell_table("bi.fwd", "lstm", input_size=4, hidden_size=3), rng)
cells.update(draw_table(cell_table("bi.bwd", "lstm", input_size=4, hidden_size=3), rng))

x = np.zeros((2, 4, 5))
x[0, :, :2] = rng.normal(size=(4, 2))
x[1] = rng.normal(size=(4, 5))
mask = TimeMask(batch=2, max_time=5, valid_lengths=np.array([2, 5]))

states = run_bidirectional(cells, "bi", Tensor(x), mask)
print("\nbidirectional output shape:", states.shape, "(channels = 2 * hidden)")
print("item 0 padded positions are exactly zero:",
      bool(np.all(states.data[0, :, 2:] == 0.0)))

# Values stored at padded positions are inert: scribbling on them cannot
# change any valid output.
poked = x.copy()
poked[0, :, 2:] = 1e9
states2 = run_bidirectional(cells, "bi", Tensor(poked), mask)
print("valid outputs unchanged after poking padding:",
      bool(np.array_equal(states.data[0, :, :2], states2.data[0, :, :2])))

# --- attention pooling ----------------------------------------------------------
# Additive attention scores each time step, normalizes over valid positions,
# and returns the weighted frame average. With a zero score vector it
# degenerates to plain mean pooling.

attn = draw_table(attention_table("attn", channels=6, attn_size=3), rng)
pooled = attention_pool(attn, "attn", states, mask)
print("\nattention-pooled shape:", pooled.shape)

attn["attn.score_vector"].data[...] = 0.0
uniform = attention_pool(attn, "attn", states, mask)
manual_mean = states.data[1, :, :5].mean(axis=1)
print("zero scores reduce to the masked mean:",
      bool(np.allclose(uniform.data[1], manual_mean)))
