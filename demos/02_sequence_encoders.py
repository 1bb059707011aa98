#!/usr/bin/env python3
"""Recurrent cells, bidirectional encoding, and attention pooling.

Shows how a variable-length batch flows through the sequence machinery
that the two-stream and fast-forward classifiers are assembled from.
"""

import numpy as np

from videoseq import Tensor, TimeMask, attention_pool, run_bidirectional
from videoseq.recurrent import attention_table, cell_table, draw_table, gru_step, lstm_step

rng = np.random.default_rng(0)

# --- a single LSTM step -------------------------------------------------------
# Cells keep one weight matrix per gate acting on [x_t; h_prev]. With all
# weights zero the gates sit at sigmoid(0) = 0.5 and the candidate at
# tanh(0) = 0, so a unit cell state decays to exactly 0.5.

cell = draw_table(cell_table("cell", "lstm", input_size=4, hidden_size=3), rng)
for tensor in cell.values():
    tensor.data[...] = 0.0

h, c = lstm_step(
    cell,
    "cell",
    Tensor(np.ones((1, 4))),
    Tensor(np.zeros((1, 3))),
    Tensor(np.ones((1, 3))),
)
print("zero-weight LSTM: c_t =", c.data[0], " h_t =", h.data[0])
print("expected        : c_t = 0.5, h_t = 0.5*tanh(0.5) =", 0.5 * np.tanh(0.5))

gru = draw_table(cell_table("gru", "gru", input_size=4, hidden_size=3), rng)
h = gru_step(gru, "gru", Tensor(rng.normal(size=(1, 4))), Tensor(np.zeros((1, 3))))
print("random GRU step bounded by 1:", np.all(np.abs(h.data) <= 1.0))

# --- bidirectional run over a padded batch -------------------------------------
# Item 0 has 2 valid frames, item 1 has 5. The forward direction walks all
# steps (padded outputs are zeroed afterwards); the backward direction walks
# each item's reversed valid prefix, so padding never enters its state.

# The runner reads the cells "bi.fwd" and "bi.bwd" from one {name: Tensor} dict.
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
