import re

import numpy as np
import pytest

from videoseq import (
    ConfigurationError,
    DatasetHeader,
    DimensionError,
    ModelSpec,
    Tape,
    Tensor,
    TimeMask,
    VideoRecord,
    backward,
    build_model,
    load_checkpoint,
    pad_batch,
    save_checkpoint,
)
from videoseq.gradcheck import grad_check, toy_spec
from videoseq import container
from videoseq import autodiff as ad
from videoseq.autodiff import batchnorm_time, masked_mean_time
from videoseq.models import _mlp_head, _spec_from_reader, tensor_table
from videoseq.recurrent import attention_pool, attention_table, cell_table, draw_table, run_bidirectional

from oracles import composed_masked_features, composed_video_level_pool, mul, tensor_sum

ALL_KINDS = (
    "video_level",
    "vlad_mlp",
    "two_stream_lstm",
    "two_stream_gru",
    "ff_lstm",
    "ff_gru",
    "temporal_resnet",
    "stacked_lstm",
)


def tiny_spec(kind, **overrides):
    kwargs = dict(
        kind=kind,
        vocab_size=5,
        visual_dim=7,
        audio_dim=3,
        hidden_size=4,
        depth=2,
        trb_count=2,
        trb_filters=6,
        fc_sizes=(8, 5),
        vlad_clusters=3,
        seed=1,
    )
    kwargs.update(overrides)
    return ModelSpec(**kwargs)


def random_batch(spec, batch, time, lengths=None, seed=0):
    rng = np.random.default_rng(seed)
    visual = Tensor(rng.normal(size=(batch, spec.visual_dim, time)))
    audio = Tensor(rng.normal(size=(batch, spec.audio_dim, time)))
    if lengths is None:
        lengths = np.full(batch, time)
    mask = TimeMask(batch, time, np.asarray(lengths))
    return visual, audio, mask


def build_ready(spec):
    model = build_model(spec)
    if spec.kind == "vlad_mlp":
        rng = np.random.default_rng(99)
        centers = model.tensors["codebook.centers"].data
        centers[...] = rng.normal(size=centers.shape)
    return model


class TestModelSpec:
    def test_defaults_match_published_architecture(self):
        spec = ModelSpec(kind="temporal_resnet", vocab_size=100)
        assert spec.trb_count == 9
        assert spec.trb_filters == 1024
        assert spec.visual_dim == 1024
        assert spec.audio_dim == 128
        assert spec.feature_dim == 1152
        assert spec.vlad_clusters == 256

    def test_irrelevant_fields_ignored(self):
        # trb settings are meaningless for a video_level model; any value >= 1 is accepted
        spec = tiny_spec("video_level", trb_filters=1, trb_count=99)
        out = build_ready(spec).forward(*random_batch(spec, 2, 3))
        assert out.shape == (2, 5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(kind="transformer", vocab_size=5)

    def test_head_width_must_match_vocab(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(kind="video_level", vocab_size=5, fc_sizes=(8, 7))

    @pytest.mark.parametrize("kind, fields", [
        ("two_stream_lstm", dict(hidden_size=0)),
        ("video_level", dict(fc_sizes=(0, 5))),
        ("video_level", dict(visual_dim=0, audio_dim=0)),
        ("temporal_resnet", dict(trb_filters=0)),
        ("vlad_mlp", dict(vlad_clusters=0)),
    ])
    def test_zero_widths_rejected(self, kind, fields):
        # a zero width used to reach numpy's uniform init as an OverflowError
        with pytest.raises(ConfigurationError, match="must be >= 1"):
            ModelSpec(kind=kind, vocab_size=5, **fields)

    def test_same_seed_same_parameters(self):
        for kind in ALL_KINDS:
            a = build_model(tiny_spec(kind))
            b = build_model(tiny_spec(kind))
            for (name_a, pa), (name_b, pb) in zip(a.named_parameters(), b.named_parameters()):
                assert name_a == name_b
                assert np.array_equal(pa.data, pb.data), (kind, name_a)


class TestOutputContract:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_shape_and_open_interval(self, kind):
        spec = tiny_spec(kind)
        model = build_ready(spec)
        for time in (1, 4, 9):
            visual, audio, mask = random_batch(spec, 2, time, seed=time)
            out = model.forward(visual, audio, mask, train=True)
            assert out.shape == (2, 5)
            assert np.all(out.data > 0.0)
            assert np.all(out.data < 1.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_padding_values_are_inert(self, kind):
        spec = tiny_spec(kind)
        model = build_ready(spec)
        visual, audio, mask = random_batch(spec, 3, 6, lengths=[2, 4, 6], seed=5)
        base = model.forward(visual, audio, mask, train=True).data
        rng = np.random.default_rng(6)
        pad = ~mask.bool_matrix()
        visual.data[:, :, :][np.broadcast_to(pad[:, None, :], visual.shape)] = rng.normal(
            size=int(pad.sum()) * spec.visual_dim
        )
        audio.data[np.broadcast_to(pad[:, None, :], audio.shape)] = rng.normal(
            size=int(pad.sum()) * spec.audio_dim
        )
        poked = model.forward(visual, audio, mask, train=True).data
        assert np.array_equal(base, poked), kind

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_extending_with_padded_frames_is_inert(self, kind):
        spec = tiny_spec(kind)
        model = build_ready(spec)
        visual, audio, mask = random_batch(spec, 2, 5, seed=7)
        base = model.forward(visual, audio, mask, train=True).data
        extended_v = Tensor(np.pad(visual.data, ((0, 0), (0, 0), (0, 3))))
        extended_a = Tensor(np.pad(audio.data, ((0, 0), (0, 0), (0, 3))))
        extended_mask = TimeMask(2, 8, mask.valid_lengths)
        grown = model.forward(extended_v, extended_a, extended_mask, train=True).data
        assert np.max(np.abs(base - grown)) < 1e-12, kind

    def test_modality_dimension_mismatch(self):
        spec = tiny_spec("two_stream_lstm")
        model = build_ready(spec)
        rng = np.random.default_rng(0)
        bad_visual = Tensor(rng.normal(size=(2, spec.visual_dim + 1, 3)))
        audio = Tensor(rng.normal(size=(2, spec.audio_dim, 3)))
        with pytest.raises(DimensionError):
            model.forward(bad_visual, audio, TimeMask.full(2, 3))


def time_entry_points():
    """name -> (channels, call(x, mask)) for every entry point that checks a
    [batch x channels x time] input against its mask. The layers take 4 channels, as
    many as the test's frames, so a 2-D [batch x time] input fits their width checks."""
    rng = np.random.default_rng(5)
    cells = draw_table([*cell_table("bi.fwd", "lstm", 4, 2), *cell_table("bi.bwd", "lstm", 4, 2)], rng)
    attn = draw_table(attention_table("attn", 4, 2), rng)
    bn = {"bn.gamma": Tensor(np.ones(4)), "bn.beta": Tensor(np.zeros(4)), "bn.running_mean": Tensor(np.zeros(4)),
          "bn.running_var": Tensor(np.ones(4)), "bn.initialized": Tensor([0.0])}
    spec = tiny_spec("video_level")
    model = build_model(spec)

    def zeros(mask, channels):
        return Tensor(np.zeros((mask.batch, channels, mask.max_time)))

    return {
        "masked_mean_time": (4, masked_mean_time),
        "batchnorm_time": (4, lambda x, mask: batchnorm_time(bn, "bn", x, mask, True)),
        "run_bidirectional": (4, lambda x, mask: run_bidirectional(cells, "bi", x, mask)),
        "attention_pool": (4, lambda x, mask: attention_pool(attn, "attn", x, mask)),
        "forward (visual)": (spec.visual_dim,
                             lambda x, mask: model.forward(x, zeros(mask, spec.audio_dim), mask)),
        "forward (audio)": (spec.audio_dim,
                            lambda x, mask: model.forward(zeros(mask, spec.visual_dim), x, mask)),
    }


@pytest.mark.parametrize("bad", ["2-D", "batch + 1", "time + 1"])
@pytest.mark.parametrize("entry", list(time_entry_points()))
def test_batch_time_contract(entry, bad):
    """A 2-D input, or one whose batch or time is off by one, is a DimensionError
    naming the entry point; the well-formed input passes."""
    channels, call = time_entry_points()[entry]
    mask = TimeMask(2, 4, np.array([4, 2]))
    call(Tensor(np.ones((2, channels, 4))), mask)
    shape = {"2-D": (2, 4), "batch + 1": (3, channels, 4), "time + 1": (2, channels, 5)}[bad]
    with pytest.raises(DimensionError, match=re.escape(entry)):
        call(Tensor(np.ones(shape)), mask)


class TestVideoLevel:
    def test_repeated_frames_same_output(self):
        spec = tiny_spec("video_level")
        model = build_ready(spec)
        rng = np.random.default_rng(1)
        frame_v = rng.normal(size=(1, spec.visual_dim, 1))
        frame_a = rng.normal(size=(1, spec.audio_dim, 1))
        outputs = []
        for k in (1, 3, 6):
            v = Tensor(np.repeat(frame_v, k, axis=2))
            a = Tensor(np.repeat(frame_a, k, axis=2))
            outputs.append(model.forward(v, a, TimeMask.full(1, k)).data)
        assert np.allclose(outputs[0], outputs[1], atol=1e-12)
        assert np.allclose(outputs[0], outputs[2], atol=1e-12)

    def test_frame_permutation_invariant(self):
        spec = tiny_spec("video_level")
        model = build_ready(spec)
        visual, audio, mask = random_batch(spec, 1, 5, seed=2)
        base = model.forward(visual, audio, mask).data
        perm = np.random.default_rng(3).permutation(5)
        shuffled = model.forward(
            Tensor(visual.data[:, :, perm]), Tensor(audio.data[:, :, perm]), mask
        ).data
        assert np.allclose(base, shuffled, atol=1e-12)

    def test_sequence_model_is_not_permutation_invariant(self):
        spec = tiny_spec("two_stream_lstm")
        model = build_ready(spec)
        visual, audio, mask = random_batch(spec, 1, 5, seed=4)
        base = model.forward(visual, audio, mask).data
        perm = np.array([4, 2, 0, 3, 1])
        shuffled = model.forward(
            Tensor(visual.data[:, :, perm]), Tensor(audio.data[:, :, perm]), mask
        ).data
        assert not np.allclose(base, shuffled, atol=1e-9)


def video_level_pool(streams, mask):
    visual, audio = streams
    spec = tiny_spec("video_level", visual_dim=visual.shape[1], audio_dim=audio.shape[1])
    return build_model(spec)._pool(visual, audio, mask, False)


def masked_by_mul(streams, mask):
    """One stream times the mask as the oracle ``mul``: the composed form of the
    ``autodiff.concat([x], mask)`` that two-stream and the resnet projection call."""
    (x,) = streams
    return mul(x, mask.channel_mask())


class TestMaskedInput:
    """The one-node masked concat and the per-stream ``video_level`` pool against
    their composed forms, with garbage stored at every padded frame."""

    @staticmethod
    def run(op, widths, lengths, grads):
        rng = np.random.default_rng(sum(widths))
        mask = TimeMask(len(lengths), max(lengths), np.array(lengths))
        arrays = [rng.normal(size=(mask.batch, c, mask.max_time)) for c in widths]
        padded = ~mask.bool_matrix()
        for x in arrays:
            x.transpose(0, 2, 1)[padded] = rng.normal(scale=1e6, size=(padded.sum(), x.shape[1]))
        streams = [Tensor(x, requires_grad=r) for x, r in zip(arrays, grads)]
        with Tape() as tape:
            out = op(streams, mask)
            nodes = len(tape.nodes)
            if any(grads):
                backward(tensor_sum(mul(out, rng.normal(size=out.shape))))
        return nodes, out.data, *(x.grad for x in streams)

    @staticmethod
    def assert_same_bits(fused, composed, wanted):
        for i, (got, want, w) in enumerate(zip(fused, composed, wanted)):
            assert (got is not None) == w, i
            if w:
                assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), i

    @pytest.mark.parametrize("fused_op, composed_op", [(ad.concat, composed_masked_features),
                                                       (video_level_pool, composed_video_level_pool)],
                             ids=["masked_features", "video_level_pool"])
    # (visual_dim, audio_dim, valid lengths): desk width, and the paper's 1024+128 x 300 frames
    @pytest.mark.parametrize("v, a, lengths", [(24, 8, (40, 17, 1)), (1024, 128, (300, 120, 1))])
    @pytest.mark.parametrize("grads", [(True, True), (True, False), (False, True), (False, False)])
    def test_matches_composed_bitwise(self, fused_op, composed_op, v, a, lengths, grads):
        nodes, *fused = self.run(fused_op, (v, a), lengths, grads)
        _, *composed = self.run(composed_op, (v, a), lengths, grads)
        if fused_op is ad.concat:
            assert nodes == (1 if any(grads) else 0)
        else:  # one masked mean per stream that needs a gradient, then the concat
            assert nodes == sum(grads) + any(grads)
        self.assert_same_bits(fused, composed, (True, *grads))

    # (channels, valid lengths): a desk stream, and the paper's 1024 channels x 300 frames
    @pytest.mark.parametrize("c, lengths", [(24, (40, 17, 1)), (1024, (300, 120, 1))])
    @pytest.mark.parametrize("grad", [True, False])
    def test_one_stream_has_the_bits_of_mul_by_the_mask(self, c, lengths, grad):
        nodes, *fused = self.run(ad.concat, (c,), lengths, (grad,))
        composed_nodes, *composed = self.run(masked_by_mul, (c,), lengths, (grad,))
        assert nodes == composed_nodes == int(grad)
        self.assert_same_bits(fused, composed, (True, grad))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_paper_width_forward_on_batch_views_equals_contiguous_copies(kind):
    """An eval forward on ``pad_batch``'s channel views gives the bits of one on
    C-contiguous copies, at the paper's 1024+128 features and up to 300 frames."""
    header = DatasetHeader(vocab_size=5, visual_dim=1024, audio_dim=128, max_frames=300)
    rng = np.random.default_rng(5)
    records = [VideoRecord(f"v{t}", rng.normal(size=(t, header.feature_dim)).astype(np.float32), [0])
               for t in (300, 97, 1)]
    visual, audio, mask, _ = pad_batch(records, header)
    assert not visual.data.flags.c_contiguous
    copies = [Tensor(np.ascontiguousarray(x.data)) for x in (visual, audio)]
    model = build_ready(tiny_spec(kind, visual_dim=1024, audio_dim=128, trb_count=1))
    model.forward(*copies, mask, train=True)  # fills temporal_resnet's running statistics
    got = model.forward(visual, audio, mask).data
    want = model.forward(*copies, mask).data
    assert np.array_equal(got, want)


def mlp_head(seed):
    """The ``head.*`` tensors of a 4-feature, (3, 2) head drawn from ``default_rng(seed)``."""
    spec = ModelSpec(kind="video_level", vocab_size=2, visual_dim=3, audio_dim=1,
                     fc_sizes=(3, 2), seed=seed)
    return build_model(spec).tensors


class TestMlpHead:
    def test_zero_weights_give_half(self):
        head = mlp_head(0)
        for p in head.values():
            p.data[...] = 0.0
        out = _mlp_head(head, Tensor(np.random.default_rng(1).normal(size=(3, 4))))
        assert np.array_equal(out.data, np.full((3, 2), 0.5))

    def test_final_bias_monotonicity(self):
        head = mlp_head(2)
        x = Tensor(np.random.default_rng(3).normal(size=(2, 4)))
        before = _mlp_head(head, x).data
        head["head.b2"].data[1] += 0.5
        after = _mlp_head(head, x).data
        assert np.all(after[:, 1] > before[:, 1])
        assert np.array_equal(after[:, 0], before[:, 0])

    def test_gradient(self):
        from oracles import check_gradients

        head = mlp_head(4)
        x = Tensor(np.random.default_rng(5).normal(size=(3, 4)))

        def f():
            return tensor_sum(_mlp_head(head, x))

        worst = check_gradients(f, list(head.items()), step=1e-5)
        assert max(worst.values()) < 1e-6


class TestFastForward:
    def test_depth_one_and_seven_produce_valid_probabilities(self):
        for depth in (1, 7):
            spec = tiny_spec("ff_lstm", depth=depth, hidden_size=3)
            model = build_ready(spec)
            visual, audio, mask = random_batch(spec, 2, 3, seed=depth)
            out = model.forward(visual, audio, mask)
            assert out.shape == (2, 5)
            assert np.all((out.data > 0) & (out.data < 1))

    def test_zero_weights_make_output_input_independent(self):
        spec = tiny_spec("ff_gru", depth=2)
        model = build_ready(spec)
        for _, p in model.named_parameters():
            p.data[...] = 0.0
        # give the fast-forward biases some signal so the constant is nontrivial
        for i in range(spec.depth):
            model.tensors[f"layer{i}.ff_bias"].data[...] = 0.3
        out_a = model.forward(*random_batch(spec, 2, 4, seed=8)).data
        out_b = model.forward(*random_batch(spec, 2, 4, seed=9)).data
        assert np.allclose(out_a, out_b, atol=1e-15)
        assert np.allclose(out_a, 0.5, atol=1e-12)  # zero head on a constant

    def test_depth_three_gradients_and_norms(self):
        spec = toy_spec("ff_lstm")
        report = grad_check(spec, sample_count=3, seed=11)
        assert report.passed, [l for l in report.lines()]
        per_layer = {}
        for block in report.blocks:
            if block.name.startswith("layer"):
                per_layer.setdefault(block.name.split(".")[0], []).append(block)
        assert set(per_layer) == {"layer0", "layer1", "layer2"}


class TestStackedLstm:
    def test_is_ff_lstm_without_fast_forward_fc(self):
        stacked = build_model(tiny_spec("stacked_lstm", depth=3))
        ff = build_model(tiny_spec("ff_lstm", depth=3))
        ff_params = dict(ff.named_parameters())
        stacked_params = dict(stacked.named_parameters())
        assert list(stacked_params) == [
            name for name in ff_params if not re.match(r"layer\d+\.ff_", name)
        ]
        for name, tensor in stacked_params.items():
            assert tensor.shape == ff_params[name].shape
            if name.startswith("layer0."):
                assert np.array_equal(tensor.data, ff_params[name].data)


class TestTemporalResnet:
    def test_zeroed_block_reduces_to_relu_of_shortcut(self):
        spec = tiny_spec("temporal_resnet", trb_count=1)
        model = build_ready(spec)
        block = {
            j: tuple(model.tensors[f"block0.{part}"] for part in
                     (f"conv{j}.weight", f"conv{j}.bias", f"bn{j}.gamma", f"bn{j}.beta"))
            for j in (1, 2)
        }
        for j in (1, 2):
            k, b, gamma, beta = block[j]
            k.data[...] = 0.0
            b.data[...] = 0.0
            gamma.data[...] = 0.0
            beta.data[...] = 0.0
        # drive the block directly with a nonnegative input
        import videoseq.autodiff as ad

        rng = np.random.default_rng(12)
        x = Tensor(np.abs(rng.normal(size=(2, spec.trb_filters, 4))))
        mask = TimeMask.full(2, 4)
        k1, b1, _, _ = block[1]
        k2, b2, _, _ = block[2]
        t = model.tensors
        y = ad.relu(ad.batchnorm_time(t, "block0.bn1", ad.conv1d_same(x, k1, b1), mask, True))
        y = ad.batchnorm_time(t, "block0.bn2", ad.conv1d_same(y, k2, b2), mask, True)
        out = ad.relu(x, y)
        assert np.array_equal(out.data, x.data)

    def test_gradients_at_toy_size(self):
        report = grad_check(toy_spec("temporal_resnet"), sample_count=3, seed=13)
        assert report.passed

    def test_train_leaves_running_statistics_in_the_model_tensors(self, tmp_path, monkeypatch):
        from videoseq import generate_synthetic, training

        built = []

        def build_and_keep(spec):
            built.append(build_model(spec))
            return built[-1]

        monkeypatch.setattr(training, "build_model", build_and_keep)
        data = str(tmp_path / "d.flvr")
        generate_synthetic(data, vocab_size=5, video_count=6, seed=0, noise_sigma=0.3,
                           visual_dim=7, audio_dim=3, max_frames=6)
        spec = tiny_spec("temporal_resnet")
        training.train(training.TrainConfig(model=spec, batch_size=3, epochs=2, train_data=data))
        (model,) = built
        for bn in (f"block{i}.bn{j}" for i in range(spec.trb_count) for j in (1, 2)):
            assert model.tensors[f"{bn}.initialized"].data.tolist() == [1.0]
            assert np.all(model.tensors[f"{bn}.running_mean"].data != 0.0)
            assert np.all(model.tensors[f"{bn}.running_var"].data != 1.0)

    def test_train_step_tape_node_count(self):
        """Pinned, so that a batch norm recording more than one node shows: each of the 4 is one.
        Each head layer is one ``linear`` node, not transpose, matmul and add: 50 became 46.
        Attention pooling is one node, not 15 (projection, tanh, scores, a six-node masked
        softmax and the weighted sum): 46 became 32. The loss is one node, not 10 (clip, two
        logs, ``1 - p``, two products, their sum, the mean's sum and scale, the negation):
        32 became 23. Each block's shortcut sum and final ReLU are one ``relu(x, y)`` node, not
        an add and a ReLU: at ``trb_count`` 2, 23 became 21."""
        from videoseq import Tape
        from videoseq.training import bce_loss

        spec = toy_spec("temporal_resnet")
        visual, audio, mask = random_batch(spec, 2, 6, seed=30)
        with Tape() as tape:
            bce_loss(build_model(spec).forward(visual, audio, mask, train=True), np.eye(5)[[0, 1]])
            assert len(tape.nodes) == 21

    def test_eval_mode_requires_training_first(self):
        from videoseq import StateError

        spec = tiny_spec("temporal_resnet")
        model = build_ready(spec)
        with pytest.raises(StateError):
            model.forward(*random_batch(spec, 1, 3), train=False)


@pytest.mark.parametrize("input_grads, count", [(False, 5), (True, 8)], ids=["train_step", "input_gradients"])
def test_video_level_tape_node_count(input_grads, count):
    """Pinned beside the temporal resnet's count: the head's two ``linear`` nodes, ReLU,
    sigmoid and the one-node loss (14 before the loss was one node). The inputs of a train
    step need no gradient, so its masked means record nothing; where they do, each masked
    mean is one node, not 3 (mask, sum, scale), and the concat one more (21 became 8)."""
    from videoseq import Tape
    from videoseq.training import bce_loss

    spec = toy_spec("video_level")
    visual, audio, mask = random_batch(spec, 2, 6, seed=30)
    visual.requires_grad = audio.requires_grad = input_grads
    with Tape() as tape:
        bce_loss(build_model(spec).forward(visual, audio, mask, train=True), np.eye(5)[[0, 1]])
        assert len(tape.nodes) == count


def test_grad_check_negative_seed_names_value():
    with pytest.raises(ConfigurationError, match="seed must be >= 0, got -1"):
        grad_check(toy_spec("video_level"), seed=-1)


class TestCheckpoint:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_round_trip_bit_exact(self, kind, tmp_path):
        spec = tiny_spec(kind)
        model = build_ready(spec)
        # make some state non-default so the round trip is meaningful
        if kind == "temporal_resnet":
            model.forward(*random_batch(spec, 2, 4, seed=20), train=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.spec == spec
        path2 = tmp_path / "m2.ckpt"
        save_checkpoint(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_trained_checkpoint_is_saved_back_byte_for_byte(self, kind, tmp_path):
        from videoseq import generate_synthetic
        from videoseq.training import TrainConfig, train

        data = str(tmp_path / "d.flvr")
        generate_synthetic(data, vocab_size=5, video_count=6, seed=0, noise_sigma=0.3,
                           visual_dim=7, audio_dim=3, max_frames=6)
        path = tmp_path / "m.ckpt"
        train(TrainConfig(model=tiny_spec(kind), batch_size=3, epochs=1, train_data=data,
                          checkpoint_path=str(path)))
        loaded = load_checkpoint(path)
        if kind == "temporal_resnet":  # trained batch-norm statistics
            assert loaded.tensors["block1.bn2.initialized"].data[0] == 1.0
        if kind == "vlad_mlp":  # a fitted codebook
            assert np.all(loaded.tensors["codebook.centers"].data != 0.0)
        save_checkpoint(tmp_path / "again.ckpt", loaded)
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    def test_prediction_identical_after_round_trip(self, tmp_path):
        spec = tiny_spec("temporal_resnet")
        model = build_ready(spec)
        batch = random_batch(spec, 2, 4, seed=21)
        model.forward(*batch, train=True)  # populate running stats
        before = model.forward(*batch, train=False).data
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        after = loaded.forward(*batch, train=False).data
        assert np.array_equal(before, after)

    def test_bad_magic(self, tmp_path):
        from videoseq import FormatError

        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"WHAT" * 10)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_checkpoint(self, tmp_path):
        from videoseq import CorruptionError

        spec = tiny_spec("video_level")
        model = build_ready(spec)
        path = tmp_path / "full.ckpt"
        save_checkpoint(path, model)
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(CorruptionError, match=r"byte \d+"):
            load_checkpoint(cut)


LSTM = ("input", "forget", "output", "candidate")
GRU = ("update", "reset", "candidate")


def _cell(prefix, gates, n_in, h=6):
    for g in gates:
        yield f"{prefix}.w_{g}", (h, n_in + h)
        yield f"{prefix}.b_{g}", (h,)


def _attn(prefix, channels):
    return [(f"{prefix}.proj_weight", (6, channels)), (f"{prefix}.proj_bias", (6,)),
            (f"{prefix}.score_vector", (6,))]


def _head(n_in):
    return [("head.w1", (8, n_in)), ("head.b1", (8,)), ("head.w2", (5, 8)), ("head.b2", (5,))]


def _two_stream(gates):
    table = []
    for name, dim in (("visual", 9), ("audio", 4)):
        table += [*_cell(f"{name}.fwd", gates, dim), *_cell(f"{name}.bwd", gates, dim)]
        table += _attn(f"{name}.attn", 12)
    return table + _head(24)


def _deep_stack(gates, fast_forward):
    table = []
    for i in range(3):
        n_in = 13 if i == 0 else 12
        table += [*_cell(f"layer{i}.fwd", gates, n_in), *_cell(f"layer{i}.bwd", gates, n_in)]
        if fast_forward:
            table += [(f"layer{i}.ff_weight", (12, n_in + 12, 1)), (f"layer{i}.ff_bias", (12,))]
    return table + _attn("attn", 12) + _head(12)


def _temporal_resnet():
    table = [("proj.weight", (8, 13, 1)), ("proj.bias", (8,))]
    for i in range(2):
        for j in (1, 2):
            table += [(f"block{i}.conv{j}.weight", (8, 8, 3)), (f"block{i}.conv{j}.bias", (8,)),
                      (f"block{i}.bn{j}.gamma", (8,)), (f"block{i}.bn{j}.beta", (8,))]
    table += [*_cell("lstm.fwd", LSTM, 8), *_cell("lstm.bwd", LSTM, 8)]
    table += _attn("attn", 12) + _head(12)
    for i in range(2):
        for j in (1, 2):
            table += [(f"block{i}.bn{j}.running_mean", (8,)), (f"block{i}.bn{j}.running_var", (8,)),
                      (f"block{i}.bn{j}.initialized", (1,))]
    return table


# The FLCK tensor table of every kind at toy_spec (13 = 9 visual + 4 audio features, hidden 6,
# depth 3 for the stacks): parameters in declaration order, then batch-norm statistics or the
# codebook. A renamed, reshaped or reordered tensor breaks every checkpoint written before it.
CHECKPOINT_TABLES = {
    "video_level": _head(13),
    "vlad_mlp": _head(4 * 13) + [("codebook.centers", (4, 13))],
    "two_stream_lstm": _two_stream(LSTM),
    "two_stream_gru": _two_stream(GRU),
    "ff_lstm": _deep_stack(LSTM, True),
    "ff_gru": _deep_stack(GRU, True),
    "temporal_resnet": _temporal_resnet(),
    "stacked_lstm": _deep_stack(LSTM, False),
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_checkpoint_tensor_table_is_pinned(kind, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_model(toy_spec(kind)))
    table = []
    with container.Reader(path, b"FLCK", 1, "checkpoint") as reader:
        _spec_from_reader(reader)
        (count,) = reader.unpack("<I", "tensor count")
        for _ in range(count):
            name = reader.string("tensor name")
            (ndim,) = reader.unpack("<B", "rank")
            shape = reader.unpack(f"<{ndim}I", "shape")
            reader.tensor(shape, name)
            table.append((name, shape))
        reader.finish()
    assert table == CHECKPOINT_TABLES[kind]
    assert [(name, shape) for name, shape, _ in tensor_table(toy_spec(kind))] == table
