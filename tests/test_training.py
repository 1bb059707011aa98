import numpy as np
import pytest

from videoseq import (
    ConfigurationError,
    DimensionError,
    FormatError,
    InputError,
    ModelSpec,
    PreconditionError,
    Tape,
    Tensor,
    TrainingError,
    backward,
    generate_synthetic,
    load_records,
    training,
)
from videoseq.metrics import PredictionSet, read_prediction_file, write_prediction_file
from videoseq.training import (
    ADAM_BLOCK,
    Adam,
    TrainConfig,
    _sum_of_squares,
    bce_loss,
    ensemble_average,
    evaluate,
    fit_vlad_codebook,
    predict,
    train,
)
from videoseq.vlad import kmeans_fit

from oracles import (WholeArrayAdam, check_gradients, composed_bce_loss, gap_oracle, mul, tensor_sum,
                     traced_peak)


def spec_for(kind, vocab=6, **overrides):
    kwargs = dict(
        kind=kind,
        vocab_size=vocab,
        visual_dim=8,
        audio_dim=4,
        hidden_size=6,
        depth=2,
        trb_count=2,
        trb_filters=6,
        fc_sizes=(12, vocab),
        vlad_clusters=3,
        seed=3,
    )
    kwargs.update(overrides)
    return ModelSpec(**kwargs)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.bin"
    generate_synthetic(
        path, vocab_size=6, video_count=24, seed=5, noise_sigma=0.3,
        visual_dim=8, audio_dim=4, max_frames=10,
    )
    return str(path)


class TestBceLoss:
    def test_perfect_prediction_is_near_zero(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = Tensor(y.copy())
        assert bce_loss(p, y).item() < 1e-6

    def test_uniform_half_is_ln2(self):
        y = np.array([[1.0, 0.0, 1.0]])
        loss = bce_loss(Tensor(np.full((1, 3), 0.5)), y)
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(0)
        p = Tensor(rng.uniform(0.05, 0.95, size=(2, 4)), requires_grad=True)
        y = (rng.random(size=(2, 4)) < 0.5).astype(np.float64)

        worst = check_gradients(lambda: bce_loss(p, y), [("p", p)], step=1e-6)
        assert worst["p"] < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            bce_loss(Tensor(np.zeros((1, 2))), np.zeros((1, 3)))

    def test_minimized_at_targets(self):
        rng = np.random.default_rng(1)
        y = (rng.random(size=(2, 3)) < 0.5).astype(np.float64)
        at_target = bce_loss(Tensor(np.abs(y - 1e-7)), y).item()
        for _ in range(20):
            other = Tensor(rng.uniform(0.01, 0.99, size=(2, 3)))
            assert bce_loss(other, y).item() >= at_target

    @pytest.mark.parametrize("targets", ["zeros", "ones", "mixed"])
    @pytest.mark.parametrize("probabilities", ["inside", "outside", "edges"])
    def test_one_node_with_the_bits_of_the_composed_loss(self, probabilities, targets):
        """Loss and gradient equal the 10-node composed form byte for byte, zero signs
        included, inside and outside the clip range and exactly at 0, 1 and 1e-7."""
        rng = np.random.default_rng(7)
        shape = (4, 6)
        p_values = {"inside": rng.uniform(0.01, 0.99, size=shape),
                    "outside": rng.uniform(-0.5, 1.5, size=shape),
                    "edges": rng.choice([0.0, 1.0, 1e-7, 1.0 - 1e-7, 0.5], size=shape)}[probabilities]
        y = {"zeros": np.zeros(shape), "ones": np.ones(shape),
             "mixed": (rng.random(size=shape) < 0.3).astype(np.float64)}[targets]
        results = []
        for op in (bce_loss, composed_bce_loss):
            p = Tensor(p_values, requires_grad=True)
            with Tape() as tape:
                loss = op(p, y)
                nodes = len(tape.nodes)
                backward(loss)
            results.append((nodes, np.asarray(loss.data).tobytes(), p.grad.tobytes()))
        (nodes, *fused), (composed_nodes, *composed) = results
        assert (nodes, composed_nodes) == (1, 10)
        assert fused == composed

    @pytest.mark.parametrize("y, count, first, index", [
        ([[0.0, 0.5, 1.0]], 1, "0.5", "(0, 1)"),
        ([[1.0, 2.0], [np.nan, -1.0]], 3, "2.0", "(0, 1)"),
    ])
    def test_bad_targets_named_by_count_first_value_and_index(self, y, count, first, index):
        y = np.array(y)
        with pytest.raises(PreconditionError) as exc:
            bce_loss(Tensor(np.full(y.shape, 0.5)), y)
        assert str(exc.value) == (f"targets must be multi-hot (0/1): {count} of {y.size} are not, "
                                  f"the first {first} at index {index}")


class TestAdam:
    def test_zero_gradients_leave_parameters(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam([("p", p)], learning_rate=0.1)
        p.grad = np.zeros(2)
        opt.step()
        assert np.array_equal(p.data, [1.0, -2.0])
        assert opt.step_count == 1

    def test_first_step_moves_by_learning_rate(self):
        # bias correction makes the first update lr * g/(|g| + eps-scale)
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([("p", p)], learning_rate=0.05)
        p.grad = np.array([1.0])
        opt.step()
        assert p.data[0] == pytest.approx(-0.05, rel=1e-6)

    def test_clipping_equals_scaled_gradients(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=5)
        g = g / np.linalg.norm(g) * 10.0  # norm exactly 10

        p1 = Tensor(np.zeros(5), requires_grad=True)
        clipped = Adam([("p", p1)], learning_rate=0.1, clip_norm=1.0)
        p1.grad = g.copy()
        clipped.step()

        p2 = Tensor(np.zeros(5), requires_grad=True)
        scaled = Adam([("p", p2)], learning_rate=0.1)
        p2.grad = g * 0.1
        scaled.step()

        assert np.allclose(p1.data, p2.data, atol=1e-15)

    def test_non_finite_gradient_names_block(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam([("encoder.w", p)], learning_rate=0.1)
        p.grad = np.array([np.nan, 0.0])
        with pytest.raises(TrainingError, match="encoder.w"):
            opt.step()

    @staticmethod
    def _twin_params(rng):
        """Five blocks, the same values twice: one of over two ``ADAM_BLOCK``s, one
        smaller than a block and not C-ordered, one of odd size over three blocks, one of
        over two blocks whose gradients are Fortran-ordered, and one that never gets a
        gradient."""
        shapes = {"big": (2, ADAM_BLOCK + 3), "small": (5, 7), "odd": (3 * ADAM_BLOCK + 1,),
                  "wide": (5, ADAM_BLOCK // 2 + 3), "unused": (4,)}
        values = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        values["small"] = np.asfortranarray(values["small"])
        return [[(name, Tensor(v.copy(order="K"), requires_grad=True)) for name, v in values.items()]
                for _ in range(2)]

    @pytest.mark.parametrize("clip_norm", [None, 1.0])
    def test_blocks_match_whole_array_step_bitwise(self, clip_norm):
        rng = np.random.default_rng(11)
        blocked_params, whole_params = self._twin_params(rng)
        blocked = Adam(blocked_params, learning_rate=0.01, clip_norm=clip_norm)
        whole = WholeArrayAdam(whole_params, learning_rate=0.01, clip_norm=clip_norm)
        for _ in range(3):
            grads = {name: rng.normal(size=p.shape) for name, p in blocked_params[:-1]}
            for name in ("small", "wide"):  # the update and the norm read any layout
                grads[name] = np.asfortranarray(grads[name])
            for params in (blocked_params, whole_params):
                for name, p in params[:-1]:
                    p.grad = grads[name].copy(order="K")
            norm = blocked.step()
            assert norm == whole.step()
            if clip_norm is not None:
                assert norm > clip_norm  # so the clipped path ran
        for (name, b), (_, w) in zip(blocked_params, whole_params):
            assert np.array_equal(b.data, w.data), name
            assert np.array_equal(blocked.moments1[name], whole.moments1[name]), name
            assert np.array_equal(blocked.moments2[name], whole.moments2[name]), name

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_in_a_multi_block_parameter_names_it(self, bad):
        params, _ = self._twin_params(np.random.default_rng(12))
        before = [p.data.copy() for _, p in params]
        opt = Adam(params, learning_rate=0.1)
        params[0][1].grad = np.zeros(params[0][1].shape)
        params[1][1].grad = np.ones(params[1][1].shape)
        params[0][1].grad[1, ADAM_BLOCK + 1] = bad  # in the last block
        with pytest.raises(TrainingError, match="parameter block 'big'"):
            opt.step()
        assert opt.step_count == 0
        assert all(np.array_equal(p.data, b) for (_, p), b in zip(params, before))

    @pytest.mark.parametrize("clip_norm", [None, 1.0])
    def test_finite_huge_gradients_do_not_raise(self, clip_norm):
        # (g * g).sum() overflows to inf, so the finite scan runs and finds nothing
        blocked_params, whole_params = self._twin_params(np.random.default_rng(13))
        blocked = Adam(blocked_params, learning_rate=0.1, clip_norm=clip_norm)
        whole = WholeArrayAdam(whole_params, learning_rate=0.1, clip_norm=clip_norm)
        for params in (blocked_params, whole_params):
            for _, p in params[:-1]:
                p.grad = np.full(p.shape, 1e200)
        with np.errstate(over="ignore"):
            assert blocked.step() == whole.step() == np.inf
        for (_, b), (_, w) in zip(blocked_params, whole_params):
            assert np.array_equal(b.data, w.data)

    @pytest.mark.parametrize("shape", [(2, ADAM_BLOCK + 3), (3 * ADAM_BLOCK + 1,), (5, ADAM_BLOCK + 13)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_gradient_norm_has_the_bits_of_the_whole_array_sum(self, shape, order):
        # magnitudes 2**20 apart, so a sum added in another tree shows in the last bits
        g = np.random.default_rng(15).normal(size=shape)
        g.reshape(-1)[::5] *= 2.0**20
        g = np.asarray(g, order=order)
        assert _sum_of_squares(g.ravel(order="K"), np.empty(ADAM_BLOCK)) == (g * g).sum()

    def test_gradient_norm_allocates_no_whole_array(self):
        # the norm squares ADAM_BLOCK values at a time: no [16 x ADAM_BLOCK] g * g
        p = Tensor(np.zeros((16, ADAM_BLOCK)), requires_grad=True)
        opt = Adam([("p", p)], learning_rate=0.1, clip_norm=1.0)
        p.grad = np.random.default_rng(14).normal(size=p.shape)
        assert traced_peak(opt.step) < 8 * ADAM_BLOCK  # one block's bytes; g * g would be 16 of them

    def test_descends_on_quadratic(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        opt = Adam([("p", p)], learning_rate=0.2)
        for _ in range(200):
            opt.zero_grad()
            with Tape():
                loss = tensor_sum(mul(p, p))
                backward(loss)
            opt.step()
        assert abs(p.data[0]) < 1e-2


class TestTrain:
    def test_identical_configs_identical_logs(self, dataset, tmp_path):
        def run(tag):
            config = TrainConfig(
                model=spec_for("two_stream_gru"),
                learning_rate=5e-3,
                batch_size=8,
                epochs=3,
                seed=11,
                train_data=dataset,
                checkpoint_path=str(tmp_path / f"{tag}.ckpt"),
            )
            return train(config)

        a, b = run("a"), run("b")
        assert a.log_lines == b.log_lines
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_no_gradient_outlives_its_update(self, dataset, tmp_path, monkeypatch):
        """Validation and the checkpoint save run with every parameter gradient already freed."""
        calls, real_eval, real_save = [], training._eval_gap, training.save_checkpoint

        def freed(model, call):
            assert [n for n, p in model.named_parameters() if p.grad is not None] == []
            calls.append(call)

        def eval_gap(model, *rest):
            freed(model, "eval")
            return real_eval(model, *rest)

        def save(path, model):
            freed(model, "save")
            real_save(path, model)

        monkeypatch.setattr(training, "_eval_gap", eval_gap)
        monkeypatch.setattr(training, "save_checkpoint", save)
        config = TrainConfig(model=spec_for("temporal_resnet"), batch_size=8, epochs=2, seed=4,
                             train_data=dataset, checkpoint_path=str(tmp_path / "m.ckpt"))
        train(config)
        assert calls.count("eval") == 2 and "save" in calls

    def test_loss_decreases(self, dataset, tmp_path):
        config = TrainConfig(
            model=spec_for("video_level"),
            learning_rate=1e-2,
            batch_size=8,
            epochs=10,
            seed=1,
            train_data=dataset,
            checkpoint_path=str(tmp_path / "vl.ckpt"),
        )
        result = train(config)
        assert result.epoch_losses[-1] < result.epoch_losses[0]
        assert all(np.isfinite(result.grad_norms))

    def test_vlad_mlp_trains(self, dataset, tmp_path):
        config = TrainConfig(
            model=spec_for("vlad_mlp"),
            learning_rate=1e-2,
            batch_size=8,
            epochs=8,
            seed=2,
            train_data=dataset,
            checkpoint_path=str(tmp_path / "vlad.ckpt"),
        )
        result = train(config)
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    @pytest.mark.parametrize("cap", [50, 100_000])
    def test_codebook_matches_widen_then_subsample(self, dataset, monkeypatch, cap):
        monkeypatch.setattr(training, "CODEBOOK_SAMPLE_CAP", cap)
        _, records = load_records(dataset)
        spec, seed = spec_for("vlad_mlp"), 4
        # the earlier form: widen every record, join them, then subsample
        frames = np.concatenate([r.frames.astype(np.float64) for r in records], axis=0)
        assert (frames.shape[0] > cap) == (cap == 50)
        if frames.shape[0] > cap:
            idx = np.random.default_rng(seed).choice(frames.shape[0], size=cap, replace=False)
            frames = frames[np.sort(idx)]
        expected = kmeans_fit(frames, spec.vlad_clusters, max_iter=25, seed=seed)
        got = fit_vlad_codebook(records, spec, seed)
        assert np.array_equal(got.centers, expected.centers)
        assert got.inertia_history == expected.inertia_history

    def test_dimension_mismatch_fails_before_first_step(self, dataset, tmp_path):
        config = TrainConfig(
            model=spec_for("video_level", visual_dim=16),
            train_data=dataset,
            checkpoint_path=str(tmp_path / "x.ckpt"),
        )
        with pytest.raises(ConfigurationError):
            train(config)

    def test_spec_mismatch_names_every_field_that_differs(self, dataset, tmp_path):
        spec = spec_for("video_level", vocab=10, audio_dim=3)
        config = TrainConfig(model=spec, train_data=dataset, checkpoint_path=str(tmp_path / "x.ckpt"))
        with pytest.raises(ConfigurationError) as exc:
            train(config)
        assert str(exc.value) == f"{dataset} does not match model spec: vocab_size 6 vs 10; audio_dim 4 vs 3"

    def test_deep_stack_clip_rule(self):
        assert TrainConfig(model=spec_for("ff_lstm", depth=4)).resolved_clip_norm() == 5.0
        assert TrainConfig(model=spec_for("ff_lstm", depth=2)).resolved_clip_norm() is None
        assert TrainConfig(model=spec_for("temporal_resnet")).resolved_clip_norm() is None
        cfg = TrainConfig(model=spec_for("ff_lstm", depth=7), clip_norm=2.5)
        assert cfg.resolved_clip_norm() == 2.5
        assert TrainConfig(model=spec_for("ff_lstm", depth=7), clip_norm=0).resolved_clip_norm() is None

    def test_bad_config_values(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(model=spec_for("video_level"), learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(model=spec_for("video_level"), epochs=0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf"), -1e-3])
    def test_learning_rate_not_finite_and_positive_names_value(self, rate):
        # nan and inf trained one step, then blamed a non-finite gradient
        with pytest.raises(ConfigurationError, match=f"learning_rate must be finite and > 0, got {rate}"):
            TrainConfig(model=spec_for("video_level"), learning_rate=rate)

    @pytest.mark.parametrize("clip", [float("nan"), float("inf"), -1.0])
    def test_clip_norm_not_none_zero_or_finite_positive_names_value(self, clip):
        # nan and -1 used to switch clipping off silently; only 0 does
        with pytest.raises(ConfigurationError, match=f"^clip_norm must be finite and >= 0, got {clip}$"):
            TrainConfig(model=spec_for("ff_lstm", depth=7), clip_norm=clip)


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pred")
    ckpt = str(tmp / "m.ckpt")
    config = TrainConfig(
        model=spec_for("temporal_resnet"),
        learning_rate=5e-3,
        batch_size=8,
        epochs=2,
        seed=4,
        train_data=dataset,
        checkpoint_path=ckpt,
    )
    train(config)
    return ckpt, tmp


class TestPredict:
    def test_repeated_predictions_identical(self, dataset, trained):
        ckpt, tmp = trained
        p1, p2 = str(tmp / "p1.txt"), str(tmp / "p2.txt")
        predict(ckpt, dataset, p1)
        predict(ckpt, dataset, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_format_contract(self, dataset, trained):
        ckpt, tmp = trained
        path = str(tmp / "fmt.txt")
        predict(ckpt, dataset, path)
        for vid, items in read_prediction_file(path):
            assert len(items) <= 20
            scores = [s for _, s in items]
            assert scores == sorted(scores, reverse=True)

    def test_batch_partitioning_does_not_change_output(self, dataset, trained):
        ckpt, tmp = trained
        p1, p8 = str(tmp / "b1.txt"), str(tmp / "b8.txt")
        predict(ckpt, dataset, p1, batch_size=1)
        predict(ckpt, dataset, p8, batch_size=8)
        a = dict(read_prediction_file(p1))
        b = dict(read_prediction_file(p8))
        assert a.keys() == b.keys()
        for vid in a:
            for (ca, sa), (cb, sb) in zip(a[vid], b[vid]):
                assert ca == cb
                assert abs(sa - sb) < 1e-9


    def test_in_memory_gap_equals_read_back_gap(self, dataset, trained):
        from videoseq import gap_at_k, load_records

        ckpt, tmp = trained
        path = str(tmp / "gap.txt")
        predictions = predict(ckpt, dataset, path)
        _, records = load_records(dataset)
        labels = {r.id: frozenset(r.labels) for r in records}
        rounded = [(vid, [(c, round(s, 6)) for c, s in items]) for vid, items in predictions]
        in_memory = gap_at_k(PredictionSet(rounded, labels), k=20).gap
        assert abs(in_memory - evaluate(path, dataset).gap) <= 1e-12


class TestEvaluate:
    def test_perfect_predictions_give_one(self, dataset, tmp_path):
        from videoseq import load_records

        _, records = load_records(dataset)
        preds = [
            (r.id, [(c, 1.0 - 0.01 * i) for i, c in enumerate(r.labels)])
            for r in records
        ]
        path = tmp_path / "perfect.txt"
        write_prediction_file(path, preds)
        assert evaluate(str(path), dataset).gap == 1.0

    def test_unknown_video_rejected(self, dataset, tmp_path):
        path = tmp_path / "ghost.txt"
        write_prediction_file(path, [("who_is_this", [(0, 0.5)])])
        with pytest.raises(InputError):
            evaluate(str(path), dataset)

    @pytest.fixture()
    def four_videos(self, tmp_path):
        """Videos v0..v3 with the single label i each, vocab 5."""
        from videoseq import DatasetHeader, VideoRecord, write_records

        header = DatasetHeader(vocab_size=5, visual_dim=2, audio_dim=1, max_frames=3, video_count=4)
        records = [VideoRecord(f"v{i}", np.zeros((2, 3), np.float32), [i]) for i in range(4)]
        path = tmp_path / "four.bin"
        write_records(path, header, records)
        return str(path)

    # two hits and two misses: GAP 0.5 when every video is predicted once
    HONEST = [("v0", [(0, 0.9)]), ("v1", [(1, 0.8)]), ("v2", [(4, 0.7)]), ("v3", [(4, 0.6)])]

    def test_honest_file_scores_every_positive(self, four_videos, tmp_path):
        path = tmp_path / "honest.txt"
        write_prediction_file(path, self.HONEST)
        assert evaluate(str(path), four_videos).gap == 0.5

    def test_leaving_videos_out_rejected(self, four_videos, tmp_path):
        # scored GAP 1.0 when the unpredicted videos' positives were dropped
        path = tmp_path / "one_of_four.txt"
        write_prediction_file(path, self.HONEST[:1])
        with pytest.raises(InputError, match=r"without a prediction: \['v1', 'v2', 'v3'\]"):
            evaluate(str(path), four_videos)

    def test_repeated_video_line_rejected(self, four_videos, tmp_path):
        # scored 0.667: each repeated hit counted its positive twice
        path = tmp_path / "repeated.txt"
        write_prediction_file(path, self.HONEST + self.HONEST[:2])
        with pytest.raises(InputError, match=r"more than once: \['v0', 'v1'\]"):
            evaluate(str(path), four_videos)

    def test_class_outside_vocab_rejected(self, four_videos, tmp_path):
        # scored 0.5 with class 99 in vocab 5
        rows = [self.HONEST[0], self.HONEST[1], ("v2", [(99, 0.7)]), self.HONEST[3]]
        path = tmp_path / "class99.txt"
        write_prediction_file(path, rows)
        with pytest.raises(InputError, match=r"\[\('v2', 99\)\]"):
            evaluate(str(path), four_videos)

    def test_random_scores_land_near_positive_rate(self, tmp_path):
        from videoseq import load_records

        data = tmp_path / "big.bin"
        generate_synthetic(data, 25, 400, seed=9, noise_sigma=0.2,
                           visual_dim=4, audio_dim=2, max_frames=2)
        _, records = load_records(data)
        rng = np.random.default_rng(10)
        preds = []
        for r in records:
            scores = rng.random(25)
            order = np.argsort(-scores)[:20]
            preds.append((r.id, [(int(c), float(scores[c])) for c in order]))
        path = tmp_path / "rand.txt"
        write_prediction_file(path, preds)
        result = evaluate(str(path), str(data))
        positive_rate = np.mean([len(r.labels) for r in records]) / 25
        assert result.gap < 0.5
        assert abs(result.gap - positive_rate) < 0.1

    def test_agrees_with_oracle(self, dataset, tmp_path):
        from videoseq import load_records

        _, records = load_records(dataset)
        rng = np.random.default_rng(12)
        preds = []
        for r in records:
            scores = rng.random(6)
            order = np.argsort(-scores)
            preds.append((r.id, [(int(c), float(round(scores[c], 6))) for c in order]))
        path = tmp_path / "p.txt"
        write_prediction_file(path, preds)
        got = evaluate(str(path), dataset)
        labels = {r.id: frozenset(r.labels) for r in records}
        expected = gap_oracle(PredictionSet(read_prediction_file(path), labels), k=20)
        assert got == expected


class TestEnsemble:
    def _write(self, path, rows):
        write_prediction_file(path, rows)
        return str(path)

    def test_single_file_identity(self, tmp_path):
        rows = [("a", [(0, 0.9), (1, 0.2)]), ("b", [(1, 0.8), (0, 0.3)])]
        src = self._write(tmp_path / "one.txt", rows)
        out = str(tmp_path / "out.txt")
        ensemble_average([src], out)
        assert open(src, "rb").read() == open(out, "rb").read()

    def test_two_identical_files_idempotent(self, tmp_path):
        rows = [("a", [(0, 0.9), (1, 0.2)]), ("b", [(1, 0.8), (0, 0.3)])]
        src = self._write(tmp_path / "one.txt", rows)
        out = str(tmp_path / "out.txt")
        ensemble_average([src, src], out)
        assert open(src, "rb").read() == open(out, "rb").read()

    def test_first_weight_only_reproduces_first_file(self, tmp_path):
        rows_a = [("a", [(0, 0.9), (1, 0.2)])]
        rows_b = [("a", [(1, 0.7), (0, 0.1)])]
        src_a = self._write(tmp_path / "a.txt", rows_a)
        src_b = self._write(tmp_path / "b.txt", rows_b)
        out = str(tmp_path / "out.txt")
        ensemble_average([src_a, src_b], out, weights=[1.0, 0.0])
        assert open(src_a, "rb").read() == open(out, "rb").read()

    def test_complementary_models_improve(self, tmp_path):
        # model A nails video 1, model B nails video 2; the mean ranks both
        labels = {"v1": frozenset({0}), "v2": frozenset({1})}
        rows_a = [("v1", [(0, 0.9), (1, 0.1)]), ("v2", [(0, 0.6), (1, 0.4)])]
        rows_b = [("v1", [(0, 0.4), (1, 0.6)]), ("v2", [(0, 0.1), (1, 0.9)])]
        src_a = self._write(tmp_path / "a.txt", rows_a)
        src_b = self._write(tmp_path / "b.txt", rows_b)
        out = str(tmp_path / "mean.txt")
        ensemble_average([src_a, src_b], out)

        def gap_of(rows):
            return gap_oracle(PredictionSet(rows, labels), k=2).gap

        merged = read_prediction_file(out)
        assert gap_of(merged) >= max(gap_of(rows_a), gap_of(rows_b))

    def test_video_set_mismatch_lists_difference(self, tmp_path):
        src_a = self._write(tmp_path / "a.txt", [("a", [(0, 0.9)])])
        src_b = self._write(tmp_path / "b.txt", [("b", [(0, 0.9)])])
        with pytest.raises(InputError, match="'a'"):
            ensemble_average([src_a, src_b], str(tmp_path / "out.txt"))

    def test_repeated_video_line_rejected(self, tmp_path):
        # was merged into two identical "a 1:0.650000 0:0.350000" lines
        src_a = self._write(tmp_path / "a.txt", [("a", [(0, 0.9), (1, 0.1)]),
                                                 ("a", [(1, 0.8), (0, 0.2)])])
        src_b = self._write(tmp_path / "b.txt", [("a", [(0, 0.5), (1, 0.5)])])
        out = tmp_path / "out.txt"
        with pytest.raises(InputError, match=r"more than once: \['a'\]"):
            ensemble_average([src_a, src_b], str(out), full_scores=True)
        assert not out.exists()

    @pytest.mark.parametrize("line", ["a 0:0.5 0:0.7 1:0.2", "a 0:nan 1:0.2"])
    def test_repeated_class_or_non_finite_score_rejected(self, tmp_path, line):
        # were written as "a 0:0.700000 0:0.700000 1:0.200000" and "a 0:nan 1:0.200000"
        src = tmp_path / "a.txt"
        src.write_text(line + "\n")
        out = tmp_path / "out.txt"
        with pytest.raises(FormatError, match="a.txt:1: class 0"):
            ensemble_average([str(src)], str(out), full_scores=True)
        assert not out.exists()

    @pytest.mark.parametrize("weight, message", [
        (np.nan, "must be finite and >= 0, got nan"),
        (np.inf, "must be finite and >= 0, got inf"),
        (-1.0, "must be finite and >= 0, got -1.0"),
        (None, "must be a real number, got None"),
        ("x", "must be a real number, got 'x'"),
    ], ids=["nan", "inf", "-1", "None", "x"])
    def test_non_finite_or_negative_weight_rejected(self, tmp_path, weight, message):
        # nan was written as "a 0:nan 1:nan"; -1 pushed the mean outside [0, 1];
        # None and "x" escaped as a bare TypeError and ValueError
        src_a = self._write(tmp_path / "a.txt", [("a", [(0, 0.9), (1, 0.2)])])
        src_b = self._write(tmp_path / "b.txt", [("a", [(1, 0.7), (0, 0.1)])])
        out = tmp_path / "out.txt"
        with pytest.raises(ConfigurationError, match=f"^ensemble weight {message}$"):
            ensemble_average([src_a, src_b], str(out), weights=[3.0, weight])
        assert not out.exists()

    def test_empty_input_list_rejected(self, tmp_path):
        with pytest.raises(InputError):
            ensemble_average([], str(tmp_path / "out.txt"))
