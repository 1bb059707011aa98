import warnings

import numpy as np
import pytest

from videoseq import DimensionError, PreconditionError, Tape, Tensor, TimeMask, backward
from videoseq.autodiff import masked_mean_time
from videoseq.recurrent import attention_pool, attention_table, cell_table, draw_table, run_bidirectional

from oracles import (add, check_gradients, composed_attention_pool, composed_bidirectional,
                     gate_major_bidirectional, gru_step, lstm_step, mul, reverse_valid_time, tensor_sum)


def zeroed(params):
    for t in params.values():
        t.data[...] = 0.0
    return params


def rand_cell(kind, input_size, hidden, seed):
    return draw_table(cell_table("cell", kind, input_size, hidden), np.random.default_rng(seed))


def pair(fwd, bwd):
    """The table ``run_bidirectional(t, "bi", ...)`` reads: cell ``fwd`` as bi.fwd, ``bwd`` as bi.bwd."""
    return {name.replace("cell.", f"bi.{d}.", 1): t
            for d, cell in (("fwd", fwd), ("bwd", bwd)) for name, t in cell.items()}


def rand_attention(channels, attn_size, seed):
    return draw_table(attention_table("attn", channels, attn_size), np.random.default_rng(seed))


class TestLstmStep:
    def test_zero_weights_zero_state(self):
        cell = zeroed(rand_cell("lstm", 3, 2, 0))
        h, c = lstm_step(cell, "cell", Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))))
        assert np.array_equal(c.data, np.zeros((1, 2)))
        assert np.array_equal(h.data, np.zeros((1, 2)))

    def test_zero_weights_unit_cell_state(self):
        # gates all sigmoid(0)=0.5, candidate tanh(0)=0:
        # c_t = 0.5 * 1 = 0.5, h_t = 0.5 * tanh(0.5)
        cell = zeroed(rand_cell("lstm", 3, 2, 0))
        h, c = lstm_step(cell, "cell", Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 2))), Tensor(np.ones((1, 2))))
        assert np.allclose(c.data, 0.5, atol=1e-15)
        assert np.allclose(h.data, 0.5 * np.tanh(0.5), atol=1e-15)

    def test_kind_enforced(self):
        cell = rand_cell("gru", 2, 2, 1)
        with pytest.raises(PreconditionError):
            lstm_step(cell, "cell", Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))))

    def test_gradients(self):
        cell = rand_cell("lstm", 3, 4, 2)
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 3)))
        h0 = Tensor(rng.normal(size=(2, 4)))
        c0 = Tensor(rng.normal(size=(2, 4)))

        def f():
            h, c = lstm_step(cell, "cell", x, h0, c0)
            return tensor_sum(add(mul(h, h), c))

        worst = check_gradients(f, list(cell.items()), step=1e-5)
        assert max(worst.values()) < 1e-5


class TestGruStep:
    def test_zero_everything(self):
        cell = zeroed(rand_cell("gru", 3, 2, 0))
        h = gru_step(cell, "cell", Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 2))))
        assert np.array_equal(h.data, np.zeros((1, 2)))

    def test_zero_weights_unit_hidden(self):
        # z = r = 0.5, candidate tanh(0) = 0 -> h = 0.5*1 + 0.5*0 = 0.5
        cell = zeroed(rand_cell("gru", 3, 2, 0))
        h = gru_step(cell, "cell", Tensor(np.ones((1, 3))), Tensor(np.ones((1, 2))))
        assert np.allclose(h.data, 0.5, atol=1e-15)

    def test_gradients(self):
        cell = rand_cell("gru", 3, 4, 5)
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 3)))
        h0 = Tensor(rng.normal(size=(2, 4)))

        def f():
            h = gru_step(cell, "cell", x, h0)
            return tensor_sum(mul(h, h))

        worst = check_gradients(f, list(cell.items()), step=1e-5)
        assert max(worst.values()) < 1e-5


class TestRunBidirectional:
    def test_length_one_sees_same_frame_in_both_directions(self):
        fwd = rand_cell("lstm", 3, 2, 7)
        bwd = rand_cell("lstm", 3, 2, 8)
        rng = np.random.default_rng(9)
        frame = rng.normal(size=(2, 3, 1))
        mask = TimeMask.full(2, 1)
        out = run_bidirectional(pair(fwd, bwd), "bi", Tensor(frame), mask)
        x_t = Tensor(frame[:, :, 0])
        zeros = Tensor(np.zeros((2, 2)))
        h_f, _ = lstm_step(fwd, "cell", x_t, zeros, zeros)
        h_b, _ = lstm_step(bwd, "cell", x_t, zeros, zeros)
        assert np.allclose(out.data[:, :2, 0], h_f.data, atol=1e-15)
        assert np.allclose(out.data[:, 2:, 0], h_b.data, atol=1e-15)

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_matches_step_oracle(self, kind):
        # the forward half is the step unrolled over each item's valid prefix,
        # the backward half the other cell over the reversed prefix
        fwd, bwd = rand_cell(kind, 3, 2, 31), rand_cell(kind, 3, 2, 32)
        lengths = np.array([1, 3, 5])
        x = np.random.default_rng(33).normal(size=(3, 3, 5))
        out = run_bidirectional(pair(fwd, bwd), "bi", Tensor(x), TimeMask(3, 5, lengths)).data
        for i, n in enumerate(lengths):
            backward = range(n - 1, -1, -1)
            for cell, half, steps in ((fwd, slice(0, 2), range(n)), (bwd, slice(2, 4), backward)):
                h = c = Tensor(np.zeros((1, 2)))
                for t in steps:
                    x_t = Tensor(x[i : i + 1, :, t])
                    if kind == "lstm":
                        h, c = lstm_step(cell, "cell", x_t, h, c)
                    else:
                        h = gru_step(cell, "cell", x_t, h)
                    assert np.max(np.abs(out[i, half, t] - h.data[0])) <= 1e-12
            assert np.array_equal(out[i, :, n:], np.zeros((4, 5 - n)))

    def test_palindrome_with_shared_params_mirrors(self):
        cell = rand_cell("gru", 2, 3, 10)
        rng = np.random.default_rng(11)
        half = rng.normal(size=(1, 2, 3))
        seq = np.concatenate([half, half[:, :, ::-1]], axis=2)  # length 6 palindrome
        mask = TimeMask.full(1, 6)
        out = run_bidirectional(pair(cell, cell), "bi", Tensor(seq), mask).data
        fwd, bwd = out[:, :3, :], out[:, 3:, :]
        assert np.allclose(fwd, bwd[:, :, ::-1], atol=1e-12)

    def test_padding_zero_and_inert(self):
        fwd = rand_cell("gru", 2, 3, 12)
        bwd = rand_cell("gru", 2, 3, 13)
        rng = np.random.default_rng(14)
        x = np.zeros((2, 2, 5))
        x[0, :, :3] = rng.normal(size=(2, 3))
        x[1, :, :5] = rng.normal(size=(2, 5))
        mask = TimeMask(2, 5, np.array([3, 5]))
        base = run_bidirectional(pair(fwd, bwd), "bi", Tensor(x), mask).data
        assert np.array_equal(base[0, :, 3:], np.zeros((6, 2)))
        poked = x.copy()
        poked[0, :, 3:] = 1e6
        out2 = run_bidirectional(pair(fwd, bwd), "bi", Tensor(poked), mask).data
        assert np.array_equal(base[0, :, :3], out2[0, :, :3])
        assert np.array_equal(base[1], out2[1])

    def test_reversal_symmetry(self):
        # running on reversed valid frames with swapped cell roles reverses
        # time and swaps the channel halves
        fwd = rand_cell("lstm", 2, 2, 15)
        bwd = rand_cell("lstm", 2, 2, 16)
        rng = np.random.default_rng(17)
        x = np.zeros((2, 2, 4))
        lengths = np.array([2, 4])
        x[0, :, :2] = rng.normal(size=(2, 2))
        x[1] = rng.normal(size=(2, 4))
        mask = TimeMask(2, 4, lengths)
        out = run_bidirectional(pair(fwd, bwd), "bi", Tensor(x), mask).data

        x_rev = reverse_valid_time(Tensor(x), mask).data
        out_swapped = run_bidirectional(pair(bwd, fwd), "bi", Tensor(x_rev), mask).data
        expected = reverse_valid_time(
            Tensor(np.concatenate([out[:, 2:, :], out[:, :2, :]], axis=1)), mask
        ).data
        assert np.allclose(out_swapped, expected, atol=1e-12)

    def test_hidden_states_bounded(self):
        for kind in ("lstm", "gru"):
            fwd = rand_cell(kind, 3, 4, 18)
            bwd = rand_cell(kind, 3, 4, 19)
            rng = np.random.default_rng(20)
            x = rng.normal(size=(2, 3, 5)) * 10
            mask = TimeMask.full(2, 5)
            out = run_bidirectional(pair(fwd, bwd), "bi", Tensor(x), mask)
            assert np.all(np.abs(out.data) <= 1.0)

    @staticmethod
    def sequence_gradient_errors(kind):
        fwd = rand_cell(kind, 2, 3, 21)
        bwd = rand_cell(kind, 2, 3, 22)
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(2, 2, 4)))
        mask = TimeMask(2, 4, np.array([3, 4]))

        def f():
            out = run_bidirectional(pair(fwd, bwd), "bi", x, mask)
            return tensor_sum(mul(out, out))

        params = list(pair(fwd, bwd).items())
        return check_gradients(f, params, step=1e-5, samples_per_block=6)

    def test_gradients_through_sequence(self):
        assert max(self.sequence_gradient_errors("lstm").values()) < 1e-5

    def test_gradients_through_sequence_gru(self):
        assert max(self.sequence_gradient_errors("gru").values()) < 1e-5

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_gradients_match_composed_steps(self, kind):
        # the fused op's hand-written BPTT against the tape of the unrolled oracle steps
        cells = pair(rand_cell(kind, 3, 2, 34), rand_cell(kind, 3, 2, 35))
        rng = np.random.default_rng(36)
        x = Tensor(rng.normal(size=(3, 3, 5)), requires_grad=True)
        mask = TimeMask(3, 5, np.array([1, 3, 5]))
        coef = rng.normal(size=(3, 4, 5))
        results = []
        for runner in (run_bidirectional, composed_bidirectional):
            for tensor in [x, *cells.values()]:
                tensor.zero_grad()
            with Tape():
                out = runner(cells, "bi", x, mask)
                backward(tensor_sum(mul(out, coef)))
            results.append({"out": out.data, "x": x.grad.copy(), **{n: p.grad.copy() for n, p in cells.items()}})
        fused, composed = results
        for name in fused:
            assert np.max(np.abs(fused[name] - composed[name])) <= 1e-12, name

    @staticmethod
    def run_both(kind, d, hidden, lengths, scale=1.0):
        """{name: array} of the output and every gradient, x's and each w_*/b_* of both
        cells, from ``run_bidirectional`` and from ``gate_major_bidirectional``."""
        cells = pair(rand_cell(kind, d, hidden, 43), rand_cell(kind, d, hidden, 44))
        rng = np.random.default_rng(45)
        mask = TimeMask(len(lengths), max(lengths), np.array(lengths))
        x = Tensor(rng.normal(size=(mask.batch, d, mask.max_time)) * scale, requires_grad=True)
        coef = rng.normal(size=(mask.batch, 2 * hidden, mask.max_time))
        results = []
        for runner in (run_bidirectional, gate_major_bidirectional):
            for tensor in [x, *cells.values()]:
                tensor.zero_grad()
            with Tape():
                out = runner(cells, "bi", x, mask)
                backward(tensor_sum(mul(out, coef)))
            results.append({"out": out.data, "x": x.grad, **{n: p.grad for n, p in cells.items()}})
        return cells, x, results

    # (input width, hidden, valid lengths): one step, equal lengths, one-step item, one
    # item of width 1, the desk spec (b 16, d 48, h 16, T 40) and b 4, d 128, h 32, T 187
    SHAPES = [(5, 4, (1, 1, 1)), (5, 4, (6, 6, 6)), (5, 4, (1, 3, 5)), (3, 1, (4,)),
              (48, 16, (40, *np.random.default_rng(46).integers(1, 41, size=15))),
              (128, 32, (187, 52, 144, 102))]

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    @pytest.mark.parametrize("d, hidden, lengths", SHAPES)
    def test_matches_gate_major_bitwise(self, kind, d, hidden, lengths):
        # the time-major loops against the direction-major form they replaced
        _, _, (fused, reference) = self.run_both(kind, d, hidden, lengths)
        assert len(fused) == 2 + 4 * (4 if kind == "lstm" else 3)
        for name in fused:
            assert fused[name].tobytes() == reference[name].tobytes(), name  # tells -0.0 from 0.0

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_saturated_gates_raise_no_warning(self, kind):
        # inputs scaled so that exp(-z) overflows in the sigmoid gates
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells, x, (fused, reference) = self.run_both(kind, 5, 4, (1, 3, 5), scale=1e4)
        gate = "input" if kind == "lstm" else "update"
        w = cells[f"bi.fwd.w_{gate}"].data[:, :5]
        assert (x.data[:, :, 0] @ w.T).min() < -np.log(np.finfo(np.float64).max)
        for name in fused:
            assert np.all(np.isfinite(fused[name])), name
            assert fused[name].tobytes() == reference[name].tobytes(), name

    def test_one_tape_node(self):
        cells = pair(rand_cell("lstm", 3, 2, 37), rand_cell("lstm", 3, 2, 38))
        x = Tensor(np.random.default_rng(39).normal(size=(2, 3, 4)), requires_grad=True)
        with Tape() as tape:
            out = run_bidirectional(cells, "bi", x, TimeMask(2, 4, np.array([2, 4])))
            assert tape.nodes == [out]

    def test_cells_must_agree(self):
        cells = pair(rand_cell("lstm", 3, 2, 40), rand_cell("gru", 3, 2, 41))
        with pytest.raises(DimensionError):
            run_bidirectional(cells, "bi", Tensor(np.zeros((1, 3, 2))), TimeMask.full(1, 2))


class TestAttentionPool:
    def test_identical_frames_pass_through(self):
        params = rand_attention(3, 2, 24)
        frame = np.array([1.0, -2.0, 0.5])
        h = np.broadcast_to(frame[None, :, None], (2, 3, 4)).copy()
        mask = TimeMask(2, 4, np.array([2, 4]))
        out = attention_pool(params, "attn", Tensor(h), mask)
        assert np.allclose(out.data, np.broadcast_to(frame, (2, 3)), atol=1e-12)

    def test_zero_score_vector_reduces_to_mean(self):
        params = rand_attention(3, 2, 25)
        params["attn.score_vector"].data[...] = 0.0
        rng = np.random.default_rng(26)
        h = rng.normal(size=(2, 3, 5)) * np.array([1, 1, 1, 1, 0])[None, None, :]
        mask = TimeMask(2, 5, np.array([4, 4]))
        out = attention_pool(params, "attn", Tensor(h), mask)
        expected = masked_mean_time(Tensor(h), mask).data
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_output_in_convex_hull_per_coordinate(self):
        params = rand_attention(2, 3, 27)
        rng = np.random.default_rng(28)
        h = rng.normal(size=(3, 2, 6))
        mask = TimeMask(3, 6, np.array([2, 4, 6]))
        out = attention_pool(params, "attn", Tensor(h), mask).data
        for i in range(3):
            valid = h[i, :, : mask.valid_lengths[i]]
            assert np.all(out[i] <= valid.max(axis=1) + 1e-12)
            assert np.all(out[i] >= valid.min(axis=1) - 1e-12)

    def test_two_frames_closed_form(self):
        # one channel, W = 1, b = 0: scores are v * tanh(h_t), so alpha_0 = sigmoid(s_0 - s_1)
        params = rand_attention(1, 1, 31)
        params["attn.proj_weight"].data[...] = 1.0
        params["attn.proj_bias"].data[...] = 0.0
        params["attn.score_vector"].data[...] = 10.0
        h = np.array([[[0.5, -2.0, 7.0]]])
        out = attention_pool(params, "attn", Tensor(h), TimeMask(1, 3, np.array([2])))
        s0, s1 = 10.0 * np.tanh(h[0, 0, :2])
        hi = 1.0 / (1.0 + np.exp(s1 - s0))
        assert np.allclose(out.data, [[hi * 0.5 + (1.0 - hi) * -2.0]], rtol=0, atol=1e-14)

    def test_weights_are_a_distribution_over_valid_frames(self):
        # with h the identity in time (channel k is frame k's indicator), the output is alpha
        rng = np.random.default_rng(9)
        for _ in range(20):
            b, t = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            mask = TimeMask(b, t, rng.integers(1, t + 1, size=b))
            params = rand_attention(t, 3, int(rng.integers(100)))
            params["attn.proj_weight"].data *= 10.0
            params["attn.score_vector"].data *= 10.0
            alpha = attention_pool(params, "attn", Tensor(np.broadcast_to(np.eye(t), (b, t, t))), mask).data
            assert np.all(alpha >= 0.0) and np.all(alpha[~mask.bool_matrix()] == 0.0)
            assert np.allclose(alpha.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_padded_frame_is_inert(self):
        params = rand_attention(3, 2, 32)
        mask = TimeMask(2, 4, np.array([2, 4]))
        base = np.random.default_rng(33).normal(size=(2, 3, 4))
        poked = base.copy()
        poked[0, :, 3] = 1e6
        outs, grads = [], []
        for x in (base, poked):
            h = Tensor(x, requires_grad=True)
            with Tape():
                out = attention_pool(params, "attn", h, mask)
                backward(tensor_sum(mul(out, out)))
            outs.append(out.data)
            grads.append(h.grad)
        assert outs[0].tobytes() == outs[1].tobytes()
        for g in grads:
            assert np.all(g[0, :, 2:] == 0.0) and not np.any(np.signbit(g[0, :, 2:]))

    def test_gradients(self):
        params = rand_attention(3, 2, 29)
        rng = np.random.default_rng(30)
        h = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        mask = TimeMask(2, 4, np.array([3, 4]))

        def f():
            out = attention_pool(params, "attn", h, mask)
            return tensor_sum(mul(out, out))

        worst = check_gradients(f, [("h", h), *params.items()], step=1e-5)
        assert max(worst.values()) < 1e-5

    @staticmethod
    def run(op, channels, attn, lengths, grads):
        """(nodes, output, h/weight/bias/score gradients) of ``op`` on h with 1e6 garbage
        at every padded frame, each input requiring a gradient as ``grads`` says."""
        rng = np.random.default_rng(channels + attn)
        mask = TimeMask(len(lengths), max(lengths), np.array(lengths))
        h = rng.normal(size=(mask.batch, channels, mask.max_time))
        padded = ~mask.bool_matrix()
        h.transpose(0, 2, 1)[padded] = rng.normal(scale=1e6, size=(padded.sum(), channels))
        params = rand_attention(channels, attn, 42)
        inputs = [Tensor(h), *params.values()]
        for x, r in zip(inputs, grads):
            x.requires_grad = r
        with Tape() as tape:
            out = op(params, "attn", inputs[0], mask)
            nodes = len(tape.nodes)
            if any(grads):
                backward(tensor_sum(mul(out, rng.normal(size=out.shape))))
        return nodes, out.data, *(x.grad for x in inputs)

    # (channels, attention size, valid lengths): desk width, one item, and the paper's
    # 1024+128 features x 300 frames
    @pytest.mark.parametrize("channels, attn, lengths", [(16, 8, (40, 17, 1)), (6, 4, (5,)),
                                                         (1152, 64, (300, 120, 1))])
    @pytest.mark.parametrize("grads", [(True, True, True, True), (True, False, False, False),
                                       (False, True, False, False), (False, False, True, False),
                                       (False, False, False, True), (False, True, True, True),
                                       (False, False, False, False)])
    def test_matches_composed_bitwise(self, channels, attn, lengths, grads):
        nodes, *fused = self.run(attention_pool, channels, attn, lengths, grads)
        composed_nodes, *composed = self.run(composed_attention_pool, channels, attn, lengths, grads)
        assert nodes == (1 if any(grads) else 0)
        if all(grads):
            assert composed_nodes == 15
        names = ["out", "h", "proj_weight", "proj_bias", "score_vector"]
        for name, got, want, wanted in zip(names, fused, composed, (True, *grads)):
            assert (got is not None) == wanted, name
            if wanted:
                assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), name


class TestDeterministicInit:
    def test_same_seed_same_weights(self):
        a = rand_cell("lstm", 4, 3, 99)
        b = rand_cell("lstm", 4, 3, 99)
        for name in a:
            assert np.array_equal(a[name].data, b[name].data)

    def test_forget_bias_starts_at_one(self):
        cell = rand_cell("lstm", 4, 3, 1)
        assert np.array_equal(cell["cell.b_forget"].data, np.ones(3))
