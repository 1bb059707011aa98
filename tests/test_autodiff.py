import ast
import inspect
import warnings
from pathlib import Path

import numpy as np
import pytest

from videoseq import (
    ConfigurationError,
    ContractError,
    DimensionError,
    PreconditionError,
    StateError,
    Tape,
    Tensor,
    TimeMask,
    ValidationError,
    backward,
    batchnorm_time,
    concat,
    conv1d_same,
    linear,
    masked_mean_time,
    relu,
    sigmoid,
)
from videoseq import autodiff
from videoseq.autodiff import _accumulate
from videoseq.gradcheck import toy_spec
from videoseq.models import MODEL_KINDS, ModelSpec, build_model
from videoseq.training import bce_loss

from oracles import (add, check_gradients, composed_batchnorm_time, composed_conv1d_same, composed_linear,
                     composed_masked_mean_time, mul, reverse_valid_time, tanh, tensor_sum, traced_peak)


def conv1d_naive(x, kernels, bias):
    """Triple-loop zero-padded cross-correlation, the independent oracle."""
    b, ci, t = x.shape
    co, _, w = kernels.shape
    p = (w - 1) // 2
    out = np.zeros((b, co, t))
    for bi in range(b):
        for oi in range(co):
            for ti in range(t):
                acc = bias[oi]
                for ii in range(ci):
                    for wi in range(w):
                        src = ti + wi - p
                        if 0 <= src < t:
                            acc += kernels[oi, ii, wi] * x[bi, ii, src]
                out[bi, oi, ti] = acc
    return out


class TestLinear:
    # (batch, inputs, outputs); the last is the vlad_ensemble head's first layer
    SHAPES = [(3, 4, 5), (1, 7, 2), (8, 300, 64), (8, 32 * 1152, 64)]

    @pytest.mark.parametrize("n, i, o", SHAPES)
    def test_matches_composed_matmul_bitwise(self, n, i, o):
        rng = np.random.default_rng(n + i + o)
        values = rng.normal(size=(n, i)), rng.normal(size=(o, i)), rng.normal(size=o)
        upstream = rng.normal(size=(n, o))
        results = []
        for op in (linear, composed_linear):
            x, w, b = (Tensor(v, requires_grad=True) for v in values)
            with Tape() as tape:
                out = op(x, w, b)
                nodes = len(tape.nodes)
                backward(tensor_sum(mul(out, upstream)))
            results.append((nodes, out.data, x.grad, w.grad, b.grad))
        (nodes, *fused), (composed_nodes, *composed) = results
        assert (nodes, composed_nodes) == (1, 2)
        for name, got, want in zip(["out", "x", "w", "b"], fused, composed):
            assert got.flags.c_contiguous, name
            assert np.array_equal(got, want), name

    def test_shape_mismatch_names_all_three(self):
        for shapes, message in [
            (((2, 3), (4, 2), (4,)), "linear x has shape (2, 3), expected [* x 2]"),
            (((2, 3), (4, 3, 1), (4,)), "linear w has shape (4, 3, 1), expected [* x *]"),
            (((2, 3), (4, 3), (3,)), "linear b has shape (3,), expected [4]"),
        ]:
            with pytest.raises(DimensionError) as exc:
                linear(*(Tensor(np.zeros(shape)) for shape in shapes))
            assert str(exc.value) == message


class TestConv1dSame:
    def test_centered_identity_kernel(self):
        x = Tensor(np.array([[[1.0, 2.0, 3.0]]]))
        k = Tensor(np.array([[[0.0, 1.0, 0.0]]]))
        out = conv1d_same(x, k, Tensor(np.zeros(1)))
        assert np.array_equal(out.data, [[[1.0, 2.0, 3.0]]])

    def test_box_kernel_matches_naive_oracle(self):
        x = np.array([[[1.0, 1.0, 1.0]]])
        k = np.array([[[1.0, 1.0, 1.0]]])
        bias = np.zeros(1)
        out = conv1d_same(Tensor(x), Tensor(k), Tensor(bias))
        assert np.array_equal(out.data, [[[2.0, 3.0, 2.0]]])
        assert np.allclose(out.data, conv1d_naive(x, k, bias))

    def test_forward_matches_naive_on_random_input(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 5))
        k = rng.normal(size=(4, 3, 3))
        bias = rng.normal(size=4)
        out = conv1d_same(Tensor(x), Tensor(k), Tensor(bias))
        assert np.allclose(out.data, conv1d_naive(x, k, bias), atol=1e-12)

    def test_even_width_rejected(self):
        from videoseq import ConfigurationError

        with pytest.raises(ConfigurationError):
            conv1d_same(Tensor(np.zeros((1, 1, 4))), Tensor(np.zeros((1, 1, 2))), Tensor(np.zeros(1)))

    def test_preserves_time_length_for_odd_widths(self):
        rng = np.random.default_rng(0)
        for w in (1, 3, 5, 7):
            x = Tensor(rng.normal(size=(2, 2, 9)))
            k = Tensor(rng.normal(size=(3, 2, w)))
            out = conv1d_same(x, k, Tensor(np.zeros(3)))
            assert out.data.shape == (2, 3, 9)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        bias = Tensor(rng.normal(size=4), requires_grad=True)

        def f():
            out = conv1d_same(x, k, bias)
            return tensor_sum(tanh(out))

        worst = check_gradients(f, [("x", x), ("k", k), ("bias", bias)], step=1e-5)
        assert max(worst.values()) < 1e-6

    @staticmethod
    def run(op, batch, c_in, c_out, width, time, grads):
        """(nodes, output, x/kernels/bias gradients) of ``op``, each input requiring a
        gradient as ``grads`` says."""
        rng = np.random.default_rng(batch + c_in + c_out + width + time)
        values = (rng.normal(size=(batch, c_in, time)), rng.normal(size=(c_out, c_in, width)),
                  rng.normal(size=c_out))
        inputs = [Tensor(v, requires_grad=r) for v, r in zip(values, grads)]
        with Tape() as tape:
            out = op(*inputs)
            nodes = len(tape.nodes)
            if any(grads):
                backward(tensor_sum(mul(out, rng.normal(size=out.shape))))
        return nodes, out.data, *(x.grad for x in inputs)

    # (batch, c_in, c_out, width, time): desk width at each odd width; the paper's
    # 1024+128 features projected to 128 filters and a 128-filter block conv, three
    # items of 300 frames; a window wider than the sequence
    PAPER = [(3, 1152, 128, 1, 300), (3, 128, 128, 3, 300)]
    SHAPES = [(3, 16, 16, w, 40) for w in (1, 3, 5, 7)] + PAPER + [(2, 4, 3, 3, 1), (2, 4, 3, 5, 2)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("grads", [(x, k, b) for x in (True, False) for k in (True, False)
                                       for b in (True, False)], ids=str)
    def test_matches_composed(self, shape, grads):
        """Output, x and bias gradients keep the frame-major im2col's bits, zero signs
        included; the kernel gradient is within 1e-12 and keeps them at paper shapes."""
        nodes, *fused = self.run(conv1d_same, *shape, grads)
        _, *composed = self.run(composed_conv1d_same, *shape, grads)
        assert nodes == (1 if any(grads) else 0)
        for name, got, want, wanted in zip(["out", "x", "kernels", "bias"], fused, composed,
                                           (True, *grads)):
            assert (got is not None) == wanted, name
            if not wanted:
                continue
            assert got.flags.c_contiguous, name
            if name == "kernels" and shape not in self.PAPER:
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
            else:
                assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), name

    def test_matches_composed_within_1e_12_at_random_shapes(self):
        """Below the BLAS's blocked sizes, its small-matrix kernels may round the output
        and kernel gradient in another order than the frame-major form; never by more."""
        rng = np.random.default_rng(19)
        for _ in range(40):
            shape = (int(rng.integers(1, 6)), int(rng.choice([1, 3, 8, 24])), int(rng.choice([1, 2, 4, 16])),
                     int(rng.choice([1, 3, 5, 7])), int(rng.integers(1, 30)))
            _, *fused = self.run(conv1d_same, *shape, (True, True, True))
            _, *composed = self.run(composed_conv1d_same, *shape, (True, True, True))
            for got, want in zip(fused, composed):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), shape


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor(0.0)).data == 0.5

    def test_relu(self):
        assert np.array_equal(relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

    def test_relu_gradient_is_zero_where_the_sum_is_not_positive(self):
        x, y = Tensor([-1.0, 0.5, 2.0], requires_grad=True), Tensor([0.5, -0.5, 1.0], requires_grad=True)
        with Tape():
            backward(tensor_sum(relu(x, y)))
        assert x.grad.tolist() == y.grad.tolist() == [0.0, 0.0, 1.0]

    # [b x c x t]: desk widths, and the paper's 1024 filters over 300 frames
    @pytest.mark.parametrize("shape", [(2, 8, 6), (16, 16, 40), (2, 1024, 300)])
    @pytest.mark.parametrize("grads", [(True, True), (True, False), (False, True)])
    def test_residual_relu_has_the_bits_of_relu_of_add(self, shape, grads):
        """``relu(x, y)``, one node, against ``relu(add(x, y))``: the output and both
        gradients by value and zero sign, with sums of exactly 0 and -0.0 in the upstream."""
        rng = np.random.default_rng(shape[1])
        x, y, upstream = (rng.normal(size=shape) for _ in range(3))
        y.reshape(-1)[::7] = -x.reshape(-1)[::7]
        x[..., 0] = y[..., 0] = -0.0
        upstream.reshape(-1)[::5] = -0.0
        results = []
        for op in (relu, lambda a, b: relu(add(a, b))):
            a, b = (Tensor(v, requires_grad=r) for v, r in zip((x, y), grads))
            with Tape() as tape:
                out = op(a, b)
                nodes = len(tape.nodes)
                backward(tensor_sum(mul(out, upstream)))
            results.append((nodes, out.data, a.grad, b.grad))
        (nodes, *fused), (composed_nodes, *composed) = results
        assert (nodes, composed_nodes) == (1, 2)
        for name, got, want, wanted in zip(["out", "x", "y"], fused, composed, (True, *grads)):
            assert (got is not None) == wanted, name
            if wanted:
                assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), name

    # (2, 3, 1) and (5,) would broadcast against (2, 3, 5)
    @pytest.mark.parametrize("shape", [(2, 3, 1), (5,), (2, 4, 5)])
    def test_residual_relu_refuses_a_term_of_another_shape(self, shape):
        with pytest.raises(DimensionError) as exc:
            relu(Tensor(np.ones((2, 3, 5))), Tensor(np.ones(shape)))
        assert str(exc.value) == f"relu term 1 has shape {shape}, expected [2 x 3 x 5]"

    def test_tanh_gradient_at_random_points(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=6), requires_grad=True)

        def f():
            return tensor_sum(tanh(x))

        worst = check_gradients(f, [("x", x)], step=1e-5)
        assert worst["x"] < 1e-8


class TestMaskedMeanTime:
    def test_constant_frames(self):
        mask = TimeMask.full(1, 3)
        x = Tensor(np.full((1, 2, 3), 4.5))
        assert np.allclose(masked_mean_time(x, mask).data, 4.5)

    def test_two_frames(self):
        mask = TimeMask.full(1, 2)
        x = Tensor(np.array([[[1.0, 3.0]]]))
        assert masked_mean_time(x, mask).data[0, 0] == 2.0

    def test_padding_inert(self):
        mask = TimeMask(1, 4, np.array([2]))
        x = np.zeros((1, 2, 4))
        x[0, :, :2] = [[1.0, 3.0], [5.0, 7.0]]
        base = masked_mean_time(Tensor(x), mask).data
        x2 = x.copy()
        x2[0, :, 2:] = 99.0
        assert np.array_equal(base, masked_mean_time(Tensor(x2), mask).data)

    # (channels, valid lengths): the desk streams' 24+8 features over 40 frames, and the
    # paper's 1024+128 over 300
    @pytest.mark.parametrize("channels, lengths", [(24, (40, 17, 1)), (8, (40, 17, 1)),
                                                   (1024, (300, 120, 1)), (128, (300, 120, 1))])
    def test_one_node_with_the_bits_of_the_composed_mean(self, channels, lengths):
        """Output and gradient equal the 3-node composed form byte for byte, zero signs
        included, with garbage of scale 1e6 at every padded frame."""
        rng = np.random.default_rng(channels)
        mask = TimeMask(len(lengths), max(lengths), np.array(lengths))
        data = rng.normal(size=(mask.batch, channels, mask.max_time))
        padded = ~mask.bool_matrix()
        data.transpose(0, 2, 1)[padded] = rng.normal(scale=1e6, size=(padded.sum(), channels))
        upstream = rng.normal(size=(mask.batch, channels))
        upstream[:, ::3] = -0.0
        results = []
        for op in (masked_mean_time, composed_masked_mean_time):
            x = Tensor(data, requires_grad=True)
            with Tape() as tape:
                out = op(x, mask)
                nodes = len(tape.nodes)
                backward(tensor_sum(mul(out, upstream)))
            results.append((nodes, out.data.tobytes(), x.grad.tobytes()))
        (nodes, *fused), (composed_nodes, *composed) = results
        assert (nodes, composed_nodes) == (1, 3)
        assert fused == composed


class TestConcatChannels:
    def test_visual_audio_widths(self):
        v = Tensor(np.zeros((1, 1024, 2)))
        a = Tensor(np.zeros((1, 128, 2)))
        assert concat([v, a]).data.shape == (1, 1152, 2)

    def test_single_tensor(self):
        x = Tensor(np.arange(6.0).reshape(1, 2, 3))
        assert np.array_equal(concat([x]).data, x.data)

    def test_mismatch(self):
        with pytest.raises(DimensionError):
            concat([Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((2, 2, 3)))])

    def test_a_mismatched_input_is_named(self):
        a = Tensor(np.ones((2, 3)))
        with pytest.raises(DimensionError) as exc:
            concat([a, Tensor(np.ones((3, 3)))])
        assert str(exc.value) == "concat input 1 has shape (3, 3), expected [2 x *]"

    def test_it_always_joins_channels(self):
        assert list(inspect.signature(concat).parameters) == ["xs", "mask"]  # no axis

    @pytest.mark.parametrize("shape", [(), (3,)])
    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_an_input_without_channels_is_named(self, shape, masked):
        mask = TimeMask(3, 3, np.array([3, 2, 1])) if masked else None
        with pytest.raises(DimensionError) as exc:
            concat([Tensor(np.ones(shape))], mask)
        expected = "[3 x * x 3]" if masked else "[* x *]"
        assert str(exc.value) == f"concat input 0 has shape {shape}, expected {expected}"

    @pytest.mark.parametrize("i", [0, 1])
    @pytest.mark.parametrize("shape", [(1, 2, 3), (3, 2, 4), (3, 2)], ids=["batch", "time", "rank"])
    def test_with_a_mask_a_stream_that_misfits_it_is_named(self, i, shape):
        """Before the mask folded into concat, a batch-1 stream broadcast to the mask's batch 3."""
        streams = [Tensor(np.ones((3, 1, 3))), Tensor(np.ones((3, 1, 3)))]
        streams[i] = Tensor(np.ones(shape))
        with pytest.raises(DimensionError) as exc:
            concat(streams, TimeMask(3, 3, np.array([3, 2, 1])))
        assert str(exc.value) == f"concat input {i} has shape {shape}, expected [3 x * x 3]"

    def test_gradient_splits_by_slice(self):
        rng = np.random.default_rng(21)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2, 4)), requires_grad=True)
        coef = rng.normal(size=(2, 5, 4))

        def f():
            return tensor_sum(mul(concat([a, b]), coef))

        worst = check_gradients(f, [("a", a), ("b", b)], step=1e-5)
        assert max(worst.values()) < 1e-7


def bn_table(gamma, beta, initialized=False):
    """The tensors of batch norm "bn" over len(gamma) channels: fresh running statistics
    (zero mean, unit variance), marked initialized when asked."""
    gamma, beta = (v if isinstance(v, Tensor) else Tensor(v) for v in (gamma, beta))
    c = gamma.shape[0]
    return {"bn.gamma": gamma, "bn.beta": beta, "bn.running_mean": Tensor(np.zeros(c)),
            "bn.running_var": Tensor(np.ones(c)), "bn.initialized": Tensor([float(initialized)])}


class TestBatchnormTime:
    def test_constant_input_maps_to_zero(self):
        mask = TimeMask(2, 3, np.array([2, 3]))
        x = np.zeros((2, 2, 3))
        x[mask.bool_matrix()[:, None, :].repeat(2, axis=1)] = 3.7
        out = batchnorm_time(bn_table(np.ones(2), np.zeros(2)), "bn", Tensor(x), mask, True)
        valid = mask.bool_matrix()
        assert np.allclose(out.data[:, 0, :][valid], 0.0, atol=1e-9)

    def test_eval_is_affine_map_of_running_stats(self):
        mask = TimeMask.full(1, 3)
        table = bn_table([2.0], [1.0], initialized=True)
        x = np.array([[[0.5, -1.0, 2.0]]])
        out = batchnorm_time(table, "bn", Tensor(x), mask, False)
        assert np.allclose(out.data, 2.0 * x + 1.0, atol=1e-4)

    def test_eval_without_stats_errors(self):
        mask = TimeMask.full(1, 2)
        table = bn_table([1.0], [0.0])
        with pytest.raises(StateError):
            batchnorm_time(table, "bn", Tensor(np.zeros((1, 1, 2))), mask, False)

    def test_train_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        mask = TimeMask(2, 4, np.array([3, 4]))
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        gamma = Tensor(rng.normal(size=3), requires_grad=True)
        beta = Tensor(rng.normal(size=3), requires_grad=True)
        coef = rng.normal(size=(2, 3, 4))

        def f():
            out = batchnorm_time(bn_table(gamma, beta), "bn", x, mask, True)
            return tensor_sum(mul(out, coef))

        worst = check_gradients(f, [("x", x), ("gamma", gamma), ("beta", beta)], step=1e-4)
        assert max(worst.values()) < 1e-5

    def test_train_seeds_then_blends_running_stats_in_the_table(self):
        from videoseq.autodiff import BN_MOMENTUM

        mask = TimeMask(2, 3, np.array([2, 3]))
        first, second = np.random.default_rng(5).normal(size=(2, 2, 2, 3)) * mask.channel_mask()
        table = bn_table(np.ones(2), np.zeros(2))

        def stats(x):  # per-channel mean and biased variance over the valid frames
            valid = x.transpose(1, 0, 2)[:, mask.bool_matrix()]
            return valid.mean(axis=1), valid.var(axis=1)

        batchnorm_time(table, "bn", Tensor(first), mask, True)
        mean1, var1 = stats(first)
        assert table["bn.initialized"].data.tolist() == [1.0]
        assert np.allclose(table["bn.running_mean"].data, mean1, rtol=0, atol=1e-12)
        assert np.allclose(table["bn.running_var"].data, var1, rtol=0, atol=1e-12)

        batchnorm_time(table, "bn", Tensor(second), mask, True)
        mean2, var2 = stats(second)
        blend = lambda old, new: BN_MOMENTUM * old + (1.0 - BN_MOMENTUM) * new
        assert table["bn.initialized"].data.tolist() == [1.0]
        assert np.allclose(table["bn.running_mean"].data, blend(mean1, mean2), rtol=0, atol=1e-12)
        assert np.allclose(table["bn.running_var"].data, blend(var1, var2), rtol=0, atol=1e-12)

    def test_padded_positions_stay_zero(self):
        mask = TimeMask(1, 4, np.array([2]))
        x = np.ones((1, 1, 4))
        out = batchnorm_time(bn_table([1.0], [5.0]), "bn", Tensor(x), mask, True)
        assert np.array_equal(out.data[0, 0, 2:], [0.0, 0.0])

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_one_tape_node_over_x_gamma_beta(self, train):
        rng = np.random.default_rng(3)
        mask = TimeMask(2, 4, np.array([3, 4]))
        gamma, beta = (Tensor(rng.normal(size=3), requires_grad=True) for _ in range(2))
        table = bn_table(gamma, beta, initialized=True)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        with Tape() as tape:
            out = batchnorm_time(table, "bn", x, mask, train)
            assert tape.nodes == [out]
            backward(tensor_sum(mul(out, rng.normal(size=out.shape))))
        for p in (x, gamma, beta):
            assert p.grad is not None and p.grad.shape == p.shape
        for f in ("running_mean", "running_var", "initialized"):
            assert table[f"bn.{f}"].grad is None

    @pytest.mark.parametrize("lengths", [[1, 5, 3], [5, 5, 5]], ids=["one_frame_item", "equal_lengths"])
    @pytest.mark.parametrize("train, initialized", [(True, False), (True, True), (False, True)],
                             ids=["train_first", "train_blend", "eval"])
    def test_matches_composed_oracle(self, lengths, train, initialized):
        """Outputs, x/gamma/beta gradients and running statistics agree to 1e-12."""

        def run(bn):
            rng = np.random.default_rng(23)
            mask = TimeMask(3, 5, np.array(lengths))
            gamma, beta = (Tensor(rng.normal(size=4), requires_grad=True) for _ in range(2))
            table = bn_table(gamma, beta, initialized)
            table["bn.running_mean"].data = rng.normal(size=4)
            table["bn.running_var"].data = rng.uniform(0.5, 2.0, size=4)
            x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
            with Tape():
                out = bn(table, "bn", x, mask, train)
                backward(tensor_sum(mul(out, rng.normal(size=out.shape))))
            return (out.data, x.grad, gamma.grad, beta.grad,
                    table["bn.running_mean"].data, table["bn.running_var"].data)

        for fused, composed in zip(run(batchnorm_time), run(composed_batchnorm_time)):
            assert np.max(np.abs(fused - composed)) <= 1e-12


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor(np.arange(3.0), requires_grad=True)
        with Tape():
            backward(tensor_sum(w))
        assert np.array_equal(w.grad, np.ones(3))

    def test_elementwise_square(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            backward(tensor_sum(mul(w, w)))
        assert np.array_equal(w.grad, [2.0, 4.0])

    def test_gradients_sum_over_uses(self):
        w = Tensor([3.0], requires_grad=True)
        with Tape():
            backward(tensor_sum(relu(w, w)))
        assert np.array_equal(w.grad, [2.0])

    @pytest.mark.parametrize("case, fresh", [("transposed", False), ("broadcast", False), ("negative_zero", False),
                                             ("transposed", True), ("broadcast", True)],
                             ids=["transposed", "broadcast", "negative_zero", "transposed-fresh", "broadcast-fresh"])
    def test_first_gradient_is_a_c_order_copy_with_the_bits_of_zeros_plus_g(self, case, fresh):
        """Out of C order, a fresh gradient is copied too."""
        rng = np.random.default_rng(4)
        g = {
            "transposed": rng.normal(size=(5, 3)).T,
            "broadcast": np.broadcast_to(rng.normal(size=(1, 5)), (3, 5)),
            "negative_zero": np.array([[-0.0, 1.5, -2.0, 0.0, -0.0]] * 3),
        }[case]
        t = Tensor(np.zeros((3, 5)), requires_grad=True)
        _accumulate(t, g, fresh)
        want = np.zeros((3, 5)) + g
        assert t.grad.flags.c_contiguous and not np.shares_memory(t.grad, g)
        assert t.grad.tobytes() == want.tobytes()  # tobytes tells -0.0 from 0.0
        _accumulate(t, g)
        assert t.grad.tobytes() == (want + g).tobytes()

    @pytest.mark.parametrize("case", ["random", "negative_zero"])
    def test_fresh_first_gradient_is_adopted_with_the_bits_of_zeros_plus_g(self, case):
        rng = np.random.default_rng(5)
        g = {
            "random": rng.normal(size=(3, 5)),
            "negative_zero": np.array([[-0.0, 1.5, -2.0, 0.0, -0.0]] * 3),
        }[case]
        want = np.zeros((3, 5)) + g
        t = Tensor(np.zeros((3, 5)), requires_grad=True)
        _accumulate(t, g, fresh=True)
        assert np.shares_memory(t.grad, g) and t.grad.flags.c_contiguous
        assert t.grad.tobytes() == want.tobytes()
        again = rng.normal(size=(3, 5))
        _accumulate(t, again, fresh=True)  # a second gradient adds into the first
        assert np.shares_memory(t.grad, g) and not np.shares_memory(t.grad, again)
        assert t.grad.tobytes() == (want + again).tobytes()

    def test_relu_terms_get_gradients_of_their_own(self):
        rng = np.random.default_rng(7)
        x, y = (Tensor(rng.normal(size=(3, 4)), requires_grad=True) for _ in range(2))
        with Tape():
            backward(tensor_sum(relu(x, y)))
        assert np.array_equal(x.grad, y.grad) and not np.shares_memory(x.grad, y.grad)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_no_two_parameter_gradients_share_memory(self, kind):
        spec = toy_spec(kind)
        model = build_model(spec)
        if kind == "vlad_mlp":
            centers = model.tensors["codebook.centers"]
            centers.data = np.random.default_rng(8).normal(size=centers.shape)
        visual, audio, mask, targets = toy_batch(spec, 3, 6, seed=53)
        with Tape():
            backward(bce_loss(model.forward(visual, audio, mask, train=True), targets))
        grads = [(name, p.grad) for name, p in model.named_parameters()]
        assert all(g is not None for _, g in grads)
        for i, (name, g) in enumerate(grads):
            for other, h in grads[i + 1 :]:
                assert not np.shares_memory(g, h), (name, other)

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with Tape(), pytest.raises(ContractError):
            backward(mul(w, w))

    def test_repeated_backward_rejected(self):
        w = Tensor([1.0], requires_grad=True)
        with Tape():
            loss = tensor_sum(mul(w, w))
            backward(loss)
            with pytest.raises(StateError):
                backward(loss)


class TestValidation:
    @pytest.mark.parametrize("lengths, item, length", [([2, 0, 5], 1, 0), ([4, 3, 1], 0, 4),
                                                       ([1, 2, -1], 2, -1)])
    def test_time_mask_names_the_first_offending_item(self, lengths, item, length):
        count = sum(not 1 <= n <= 3 for n in lengths)
        with pytest.raises(PreconditionError) as exc:
            TimeMask(3, 3, np.array(lengths))
        assert str(exc.value) == (f"TimeMask valid_lengths must lie in [1, max_time 3]: {count} of 3 "
                                  f"are not, the first {length} at index ({item},)")

    # an int64 cast would truncate the floats to [2, 1], read the bools as [1, 1] and turn
    # NaN into -2**63 after a numpy warning
    @pytest.mark.parametrize("lengths", [np.array([2.7, 1.2]), [True, True], np.array([np.nan, 1.0]),
                                         np.array([2, 1], dtype=object)])
    def test_time_mask_lengths_must_be_an_integer_array(self, lengths):
        dtype = np.asarray(lengths).dtype
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError) as exc:
                TimeMask(2, 3, lengths)
        assert str(exc.value) == f"TimeMask valid_lengths must be integers, got dtype {dtype}"

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64])
    def test_time_mask_keeps_any_integer_dtype_as_int64(self, dtype):
        mask = TimeMask(2, 3, np.array([3, 1], dtype=dtype))
        assert mask.valid_lengths.dtype == np.int64 and mask.valid_lengths.tolist() == [3, 1]

    def test_time_mask_names_a_length_before_the_int64_cast(self):
        with pytest.raises(PreconditionError) as exc:
            TimeMask(1, 3, np.array([2**64 - 1], dtype=np.uint64))  # -1 as int64
        assert str(exc.value) == ("TimeMask valid_lengths must lie in [1, max_time 3]: 1 of 1 are not, "
                                  "the first 18446744073709551615 at index (0,)")

    @pytest.mark.parametrize("data, count, first, index", [
        ([1.0, np.nan, np.inf], 2, "nan", "(1,)"),
        ([[1.0, 2.0], [3.0, -np.inf]], 1, "-inf", "(1, 1)"),
        (np.inf, 1, "inf", "()"),
    ])
    def test_non_finite_tensor_names_count_first_value_and_index(self, data, count, first, index):
        size = np.size(data)
        with pytest.raises(ValidationError) as exc:
            Tensor(data)
        assert isinstance(exc.value, ValueError)
        assert str(exc.value) == (f"tensor values must be finite: {count} of {size} are not, "
                                  f"the first {first} at index {index}")

    def test_time_mask_lengths_are_read_only_and_the_callers_array_is_not(self):
        """A write after the checks would slip past them: a length of 0 made the masked mean nan."""
        lengths = np.array([2])
        mask = TimeMask(1, 3, lengths)
        with pytest.raises(ValueError, match="read-only"):
            mask.valid_lengths[0] = 0
        lengths[0] = 0
        assert lengths.flags.writeable and mask.valid_lengths.tolist() == [2]

    def test_item_reads_any_one_element_tensor(self):
        assert Tensor(2.5).item() == 2.5 and type(Tensor(2.5).item()) is float
        assert Tensor([[-1.5]]).item() == -1.5  # the [1 x 1] loss a one-output linear makes
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()


class TestTimePlumbing:
    def test_reverse_valid_time(self):
        mask = TimeMask(2, 4, np.array([3, 4]))
        x = np.arange(2 * 1 * 4, dtype=float).reshape(2, 1, 4)
        out = reverse_valid_time(Tensor(x), mask).data
        assert np.array_equal(out[0, 0], [2.0, 1.0, 0.0, 0.0])
        assert np.array_equal(out[1, 0], [7.0, 6.0, 5.0, 4.0])

    def test_reverse_valid_time_is_involution_on_valid_prefix(self):
        rng = np.random.default_rng(2)
        mask = TimeMask(3, 5, np.array([1, 3, 5]))
        x = rng.normal(size=(3, 2, 5))
        twice = reverse_valid_time(
            reverse_valid_time(Tensor(x), mask), mask
        ).data
        expected = x * mask.channel_mask()
        assert np.allclose(twice, expected, atol=0)

    def test_reverse_valid_time_gradient(self):
        rng = np.random.default_rng(4)
        mask = TimeMask(2, 4, np.array([2, 4]))
        x = Tensor(rng.normal(size=(2, 2, 4)), requires_grad=True)
        coef = rng.normal(size=(2, 2, 4))

        def f():
            return tensor_sum(mul(reverse_valid_time(x, mask), coef))

        worst = check_gradients(f, [("x", x)], step=1e-5)
        assert worst["x"] < 1e-7


class TestCheckGradients:
    def test_linear_model_is_exact(self):
        # central differences are exact (up to roundoff) for a linear map
        rng = np.random.default_rng(33)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 4)))
        b = Tensor(np.zeros(3))

        def f():
            return tensor_sum(linear(x, w, b))

        worst = check_gradients(f, [("w", w)], step=1e-4)
        assert worst["w"] < 1e-10


class TestDeterminism:
    def test_repeated_evaluation_is_bit_identical(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(2, 3, 4))
        k = rng.normal(size=(2, 3, 3))
        b = rng.normal(size=2)

        def run():
            out = conv1d_same(Tensor(x), Tensor(k), Tensor(b))
            return tanh(out).data

        assert np.array_equal(run(), run())


def toy_batch(spec, batch, time, seed):
    rng = np.random.default_rng(seed)
    visual = Tensor(rng.normal(size=(batch, spec.visual_dim, time)))
    audio = Tensor(rng.normal(size=(batch, spec.audio_dim, time)))
    lengths = rng.integers(1, time + 1, size=batch)
    targets = (rng.random(size=(batch, spec.vocab_size)) < 0.4).astype(np.float64)
    return visual, audio, TimeMask(batch, time, lengths), targets


class TestTape:
    def test_ops_record_only_inside_a_tape(self):
        w = Tensor([1.0], requires_grad=True)
        assert not mul(w, w).requires_grad
        with Tape() as tape:
            y = mul(w, w)
            assert y.requires_grad and tape.nodes == [y]

    def test_nested_tape_rejected(self):
        with Tape():
            with pytest.raises(StateError):
                with Tape():
                    pass

    def test_forward_without_backward_leaves_nothing_behind(self):
        import weakref

        spec = toy_spec("two_stream_lstm")
        model = build_model(spec)
        visual, audio, mask, _ = toy_batch(spec, 2, 5, seed=50)
        with Tape() as tape:
            probs = model.forward(visual, audio, mask, train=True)
            interior = weakref.ref(tape.nodes[len(tape.nodes) // 2].data)
            assert interior() is not None
        assert tape.closed and tape.nodes == []
        assert probs._backward is None
        del probs
        assert interior() is None

    def test_backward_lets_go_of_every_node(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(mul(tanh(linear(x, w, Tensor(np.zeros(2)))), 2.0))
            walked = list(tape.nodes)
            backward(loss)
            assert tape.closed and tape.nodes == []
            for node in walked:
                assert node.grad is None and node._backward is None
            assert x.grad is not None and w.grad is not None
            assert loss.item() == pytest.approx(2.0 * np.tanh(x.data @ w.data.T).sum())
            with pytest.raises(StateError):
                backward(loss)
            with pytest.raises(StateError):
                mul(loss, 2.0)
        with Tape(), pytest.raises(StateError):
            add(walked[0], 1.0)

    def test_step_holds_no_more_than_the_parameter_gradients(self):
        import gc
        import tracemalloc

        spec = toy_spec("temporal_resnet")
        model = build_model(spec)
        params = [p for _, p in model.named_parameters()]
        visual, audio, mask, targets = toy_batch(spec, 4, 40, seed=51)

        def step():
            """Bytes traced after backward returns, while the loss is still held."""
            for p in params:
                p.zero_grad()
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            with Tape():
                loss = bce_loss(model.forward(visual, audio, mask, train=True), targets)
                backward(loss)
                return tracemalloc.get_traced_memory()[0] - before

        step()  # warm every cache the step fills once
        held = []
        traced_peak(lambda: held.append(step()))
        grads = sum(p.grad.nbytes for p in params)
        # the whole tape of this step is about 1.5 MB
        assert held[0] <= grads + 64 * 1024, (held, grads)

    def test_backward_peak_holds_the_head_gradient_once(self):
        """``g.T @ x`` becomes ``head.w1``'s gradient itself: a copy beside it would add w1's bytes."""
        spec = ModelSpec(kind="vlad_mlp", vocab_size=5, visual_dim=64, audio_dim=16, vlad_clusters=32,
                         fc_sizes=(128, 5))
        model = build_model(spec)
        centers = model.tensors["codebook.centers"]
        centers.data = np.random.default_rng(9).normal(size=centers.shape)
        params = [p for _, p in model.named_parameters()]
        w1 = model.tensors["head.w1"].data.nbytes
        assert w1 > 0.9 * sum(p.data.nbytes for p in params)
        visual, audio, mask, targets = toy_batch(spec, 4, 20, seed=54)
        with Tape():
            peak = traced_peak(backward, bce_loss(model.forward(visual, audio, mask, train=True), targets))
        grads = sum(p.grad.nbytes for p in params)
        assert peak < grads + w1 // 2, (peak, grads, w1)


def _calls(node, inside=frozenset()):
    """(callee, names of the enclosing defs) for each ``name(...)``, ``ad.name(...)`` or
    ``autodiff.name(...)`` call under an ast node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            fn = child.func
            if isinstance(fn, ast.Name):
                yield fn.id, inside
            elif isinstance(fn, ast.Attribute) and getattr(fn.value, "id", None) in ("ad", "autodiff"):
                yield fn.attr, inside
        yield from _calls(child, inside | {child.name} if isinstance(child, ast.FunctionDef) else inside)


def test_every_exported_op_is_called_by_the_library():
    """Each op in ``autodiff.__all__`` is called somewhere in the package outside its own def,
    and the package re-exports from ``autodiff`` only names in ``autodiff.__all__``."""
    package = Path(autodiff.__file__).parent
    called = {name for path in package.glob("*.py")
              for name, inside in _calls(ast.parse(path.read_text())) if name not in inside}
    ops = set(autodiff.__all__) - {"Tensor", "Tape", "TimeMask", "backward"}
    assert sorted(ops - called) == []
    reexported = {alias.name for node in ast.walk(ast.parse((package / "__init__.py").read_text()))
                  if isinstance(node, ast.ImportFrom) and node.module == "autodiff"
                  for alias in node.names}
    assert reexported and sorted(reexported - set(autodiff.__all__)) == []


def test_the_engine_has_no_broadcasting_arithmetic():
    """``relu`` takes the residual sum and ``concat(xs, mask)`` masks, so the engine has no
    ``add``, ``mul`` or Tensor operator through which numpy broadcasting could enter."""
    assert [name for name in ("add", "mul", "_unbroadcast") if hasattr(autodiff, name)] == []
    assert [name for name in ("__add__", "__radd__", "__mul__", "__rmul__") if hasattr(Tensor, name)] == []
    with pytest.raises(TypeError):
        Tensor([1.0]) * Tensor([2.0])
    with pytest.raises(TypeError):
        2.0 + Tensor([1.0])


def test_models_make_no_tape_node_of_their_own():
    """Every model masks through ``autodiff.concat(xs, mask)``: ``models`` records no node
    by hand and reads no channel mask."""
    text = (Path(autodiff.__file__).parent / "models.py").read_text()
    assert [name for name in ("Tensor._op", "channel_mask") if name in text] == []
