"""Acceptance suite: one test per criterion, printing one pass line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines inline. The training-based criteria use a reduced-dimensionality
synthetic set (the criteria pin vocabulary and video count, not feature
width) so the whole suite stays well inside its time budgets on a CPU.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from videoseq import (
    Codebook,
    ModelSpec,
    Tensor,
    TimeMask,
    build_model,
    generate_synthetic,
    kmeans_fit,
    load_checkpoint,
    load_records,
    save_checkpoint,
    vlad_encode,
    write_records,
)
from videoseq.gradcheck import grad_check, toy_spec
from videoseq.metrics import (
    PredictionSet,
    gap_at_k,
    read_prediction_file,
    write_prediction_file,
)
from videoseq.training import TrainConfig, ensemble_average, train
from videoseq.vlad import load_codebook, save_codebook

from oracles import gap_oracle

SEVEN_KINDS = (
    "video_level",
    "vlad_mlp",
    "two_stream_lstm",
    "two_stream_gru",
    "ff_lstm",
    "ff_gru",
    "temporal_resnet",
)

# Reduced-width synthetic set shared by the training criteria: 64 videos,
# vocab 10, as pinned by the criteria; feature dims and frame cap chosen
# for CPU speed.
DATA_ARGS = dict(
    vocab_size=10, video_count=64, seed=42, noise_sigma=0.25,
    visual_dim=48, audio_dim=16, max_frames=40,
)


def overfit_spec(kind: str) -> ModelSpec:
    return ModelSpec(
        kind=kind,
        vocab_size=10,
        visual_dim=48,
        audio_dim=16,
        hidden_size=12 if kind in ("ff_lstm", "ff_gru", "temporal_resnet") else 16,
        depth=2,
        trb_count=2,
        trb_filters=16,
        fc_sizes=(32, 10),
        vlad_clusters=8,
        seed=7,
    )


@pytest.fixture(scope="module")
def overfit_data(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "overfit.bin"
    generate_synthetic(str(path), **DATA_ARGS)
    return str(path)


def test_criterion_1_gradient_suite():
    """Every parameter block of every kind passes FD checks at rel err < 1e-4."""
    start = time.time()
    for kind in SEVEN_KINDS:
        report = grad_check(toy_spec(kind, seed=3), sample_count=4, tolerance=1e-4, seed=3)
        failed = [b.name for b in report.blocks if not b.passed]
        assert report.passed, f"{kind}: blocks failed gradient check: {failed}"
        print(f"  criterion 1: {kind} worst rel err {report.worst:.2e} over "
              f"{len(report.blocks)} blocks")
    elapsed = time.time() - start
    assert elapsed < 300, f"gradient suite took {elapsed:.0f}s (budget 300s)"
    print(f"ACCEPTANCE 1 gradient suite: PASS ({elapsed:.1f}s)")


def test_criterion_2_metric_oracle():
    """gap_at_k equals gap_oracle exactly on 1000 seeded random instances."""
    rng = np.random.default_rng(20240)
    start = time.time()
    for _ in range(1000):
        n_videos = int(rng.integers(1, 6))
        vocab = int(rng.integers(1, 11))
        predictions, labels = [], {}
        for i in range(n_videos):
            vid = f"v{i}"
            n_pred = int(rng.integers(0, vocab + 1))
            classes = rng.choice(vocab, size=n_pred, replace=False)
            items = sorted(
                [(int(c), float(rng.random())) for c in classes],
                key=lambda cs: (-cs[1], cs[0]),
            )
            predictions.append((vid, items))
            n_pos = int(rng.integers(0, vocab + 1))
            labels[vid] = frozenset(
                int(c) for c in rng.choice(vocab, size=n_pos, replace=False)
            )
        preds = PredictionSet(predictions, labels)
        k = int(rng.integers(1, 21))
        assert gap_at_k(preds, k) == gap_oracle(preds, k)
    elapsed = time.time() - start
    assert elapsed < 10, f"metric oracle suite took {elapsed:.1f}s (budget 10s)"
    print(f"ACCEPTANCE 2 metric oracle: PASS ({elapsed:.1f}s)")


def test_criterion_3_overfitting_capacity(overfit_data, tmp_path):
    """All seven kinds reach training GAP@20 >= 0.95 within 300 epochs."""
    for kind in SEVEN_KINDS:
        start = time.time()
        config = TrainConfig(
            model=overfit_spec(kind),
            learning_rate=1e-2 if kind in ("video_level", "vlad_mlp") else 8e-3,
            batch_size=16,
            epochs=60,
            seed=3,
            train_data=overfit_data,
            checkpoint_path=str(tmp_path / f"{kind}.ckpt"),
        )
        result = train(config)
        elapsed = time.time() - start
        hit = next((i + 1 for i, g in enumerate(result.val_gaps) if g >= 0.95), None)
        assert hit is not None and hit <= 300, (
            f"{kind}: best training GAP {result.best_gap:.4f} never reached 0.95"
        )
        assert elapsed < 600, f"{kind}: took {elapsed:.0f}s (budget 600s)"
        print(f"  criterion 3: {kind} GAP>=0.95 at epoch {hit}, "
              f"best {result.best_gap:.4f} ({elapsed:.1f}s)")
    print("ACCEPTANCE 3 overfitting capacity: PASS")


def test_criterion_4_deep_stack_stability(overfit_data, tmp_path):
    """Depth-7 fast-forward LSTM trains stably; the naive stack is runnable."""
    spec = ModelSpec(
        kind="ff_lstm", vocab_size=10, visual_dim=48, audio_dim=16,
        hidden_size=8, depth=7, fc_sizes=(32, 10), seed=7,
    )
    config = TrainConfig(
        model=spec, learning_rate=5e-3, batch_size=32, epochs=100, seed=3,
        train_data=overfit_data, checkpoint_path=str(tmp_path / "ff7.ckpt"),
    )
    assert config.resolved_clip_norm() == 5.0  # deep-stack default engaged
    result = train(config)
    assert all(np.isfinite(g) for g in result.grad_norms), "non-finite gradient norm"
    ratio = result.epoch_losses[99] / result.epoch_losses[0]
    assert ratio <= 0.5, (
        f"epoch-100 loss {result.epoch_losses[99]:.4f} not half of epoch-1 "
        f"loss {result.epoch_losses[0]:.4f}"
    )

    # side-by-side naive variant: must run end to end, no ordering asserted
    naive_spec = ModelSpec(
        kind="stacked_lstm", vocab_size=10, visual_dim=48, audio_dim=16,
        hidden_size=8, depth=7, fc_sizes=(32, 10), seed=7,
    )
    naive = train(
        TrainConfig(
            model=naive_spec, learning_rate=5e-3, batch_size=32, epochs=3,
            seed=3, train_data=overfit_data,
            checkpoint_path=str(tmp_path / "naive7.ckpt"),
        )
    )
    assert all(np.isfinite(g) for g in naive.grad_norms)
    print(f"ACCEPTANCE 4 deep-stack stability: PASS "
          f"(ff_lstm depth7 loss ratio {ratio:.3f}, naive stack ran "
          f"{len(naive.log_lines)} epochs)")


def test_criterion_5_padding_inertness():
    """Extending inputs with padded frames moves probabilities < 1e-12."""
    for kind in SEVEN_KINDS:
        spec = ModelSpec(
            kind=kind, vocab_size=6, visual_dim=7, audio_dim=3, hidden_size=5,
            depth=2, trb_count=2, trb_filters=6, fc_sizes=(8, 6),
            vlad_clusters=3, seed=5,
        )
        model = build_model(spec)
        if kind == "vlad_mlp":
            rng = np.random.default_rng(50)
            centers = model.tensors["codebook.centers"].data
            centers[...] = rng.normal(size=centers.shape)
        rng = np.random.default_rng(51)
        visual = rng.normal(size=(3, 7, 5))
        audio = rng.normal(size=(3, 3, 5))
        mask = TimeMask(3, 5, np.array([2, 4, 5]))
        base = model.forward(Tensor(visual), Tensor(audio), mask, train=True).data
        grown_v = np.pad(visual, ((0, 0), (0, 0), (0, 4)))
        grown_a = np.pad(audio, ((0, 0), (0, 0), (0, 4)))
        # scribble on the new padding: stored values there must stay inert
        grown_v[:, :, 5:] = rng.normal(size=(3, 7, 4)) * 100
        grown_a[:, :, 5:] = rng.normal(size=(3, 3, 4)) * 100
        grown_mask = TimeMask(3, 9, mask.valid_lengths)
        grown = model.forward(
            Tensor(grown_v), Tensor(grown_a), grown_mask, train=True
        ).data
        delta = float(np.max(np.abs(base - grown)))
        assert delta < 1e-12, f"{kind}: padded frames moved probabilities by {delta:.2e}"
    print("ACCEPTANCE 5 padding inertness: PASS")


def test_criterion_6_vlad_contracts():
    """Unit (or zero) encoding norm within 1e-12; k-means objective monotone."""
    rng = np.random.default_rng(60)
    for _ in range(200):
        cb = Codebook(rng.normal(size=(int(rng.integers(1, 6)), 4)))
        frames = rng.normal(size=(int(rng.integers(1, 30)), 4))
        norm = float(np.linalg.norm(vlad_encode(cb, frames)))
        assert abs(norm - 1.0) < 1e-12 or norm == 0.0
    # degenerate case: frames exactly on centers
    cb = Codebook(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.linalg.norm(vlad_encode(cb, cb.centers.copy())) == 0.0

    for seed in range(100):
        inst_rng = np.random.default_rng(1000 + seed)
        samples = inst_rng.normal(size=(int(inst_rng.integers(8, 60)), int(inst_rng.integers(1, 5))))
        k = int(inst_rng.integers(1, min(6, samples.shape[0] + 1)))
        cb = kmeans_fit(samples, k, max_iter=40, seed=seed)
        hist = cb.inertia_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:])), (
            f"seed {seed}: objective increased: {hist}"
        )
    print("ACCEPTANCE 6 vlad contracts: PASS")


def test_criterion_7_io_round_trips(tmp_path):
    """Records, checkpoints, codebooks, and prediction files round-trip bit-exactly."""
    rng = np.random.default_rng(70)

    # record file
    from videoseq import DatasetHeader, VideoRecord

    header = DatasetHeader(vocab_size=5, visual_dim=3, audio_dim=2, max_frames=6, video_count=3)
    records = [
        VideoRecord(f"r{i}", rng.normal(size=(int(rng.integers(1, 7)), 5)).astype(np.float32),
                    sorted(int(c) for c in rng.choice(5, 2, replace=False)))
        for i in range(3)
    ]
    rec1, rec2 = tmp_path / "r1.bin", tmp_path / "r2.bin"
    write_records(str(rec1), header, records)
    h2, loaded = load_records(str(rec1))
    write_records(str(rec2), h2, loaded)
    assert rec1.read_bytes() == rec2.read_bytes()

    # checkpoint
    spec = ModelSpec(kind="temporal_resnet", vocab_size=5, visual_dim=3, audio_dim=2,
                     hidden_size=4, trb_count=2, trb_filters=5, fc_sizes=(6, 5), seed=1)
    model = build_model(spec)
    model.forward(Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(2, 2, 4))),
                  TimeMask.full(2, 4), train=True)
    ck1, ck2 = tmp_path / "c1.ckpt", tmp_path / "c2.ckpt"
    save_checkpoint(str(ck1), model)
    save_checkpoint(str(ck2), load_checkpoint(str(ck1)))
    assert ck1.read_bytes() == ck2.read_bytes()

    # codebook
    cb1, cb2 = tmp_path / "b1.bin", tmp_path / "b2.bin"
    save_codebook(str(cb1), Codebook(rng.normal(size=(4, 5))))
    save_codebook(str(cb2), load_codebook(str(cb1)))
    assert cb1.read_bytes() == cb2.read_bytes()

    # prediction file
    p1, p2 = tmp_path / "p1.txt", tmp_path / "p2.txt"
    write_prediction_file(str(p1), [("a", [(0, 0.987654), (3, 0.5)]), ("b", [])])
    write_prediction_file(str(p2), read_prediction_file(str(p1)))
    assert p1.read_bytes() == p2.read_bytes()

    print("ACCEPTANCE 7 io round-trips: PASS")


def test_criterion_8_ensemble_sanity(tmp_path):
    """Self-average keeps GAP exactly; weights (1,0) reproduce the first file."""
    rng = np.random.default_rng(80)
    vocab = 12  # <= 20, so a full-score file and its top-20 truncation coincide
    labels = {}
    rows_a, rows_b = [], []
    for i in range(10):
        vid = f"v{i}"
        labels[vid] = frozenset(int(c) for c in rng.choice(vocab, 2, replace=False))
        for rows in (rows_a, rows_b):
            scores = np.round(rng.random(vocab), 6)
            order = np.lexsort((np.arange(vocab), -scores))
            rows.append((vid, [(int(c), float(scores[c])) for c in order]))
    file_a, file_b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_prediction_file(str(file_a), rows_a)
    write_prediction_file(str(file_b), rows_b)

    self_avg = tmp_path / "self.txt"
    ensemble_average([str(file_a), str(file_a)], str(self_avg))
    gap_src = gap_at_k(PredictionSet(rows_a, labels))
    gap_avg = gap_at_k(PredictionSet(read_prediction_file(str(self_avg)), labels))
    assert gap_avg == gap_src

    first_only = tmp_path / "first.txt"
    ensemble_average([str(file_a), str(file_b)], str(first_only), weights=[1.0, 0.0])
    assert file_a.read_bytes() == first_only.read_bytes()
    print("ACCEPTANCE 8 ensemble sanity: PASS")


def test_criterion_9_end_to_end_determinism(tmp_path):
    """gen-data -> train 10 epochs -> predict -> eval twice, byte-identical."""

    def pipeline(tag: str):
        root = tmp_path / tag
        root.mkdir()
        data = root / "data.bin"
        config = root / "train.cfg"
        ckpt = root / "model.ckpt"
        preds = root / "preds.txt"
        config.write_text(
            "config_version = 1\n"
            "model.kind = two_stream_gru\n"
            "model.vocab_size = 8\n"
            "model.visual_dim = 12\n"
            "model.audio_dim = 4\n"
            "model.hidden_size = 8\n"
            "model.fc_sizes = 16,8\n"
            "model.seed = 5\n"
            "learning_rate = 0.008\n"
            "batch_size = 8\n"
            "epochs = 10\n"
            "seed = 6\n"
        )

        def cli(*args):
            result = subprocess.run(
                [sys.executable, "-m", "videoseq.cli", *args],
                capture_output=True, text=True,
            )
            assert result.returncode == 0, result.stderr
            return result.stdout

        cli("gen-data", "--vocab", "8", "--videos", "32", "--seed", "13",
            "--noise", "0.3", "--out", str(data), "--max-frames", "12",
            "--visual-dim", "12", "--audio-dim", "4")
        cli("train", "--config", str(config), "--data", str(data), "--out", str(ckpt))
        cli("predict", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(preds))
        eval_out = cli("eval", "--predictions", str(preds), "--data", str(data))
        return (
            data.read_bytes(),
            preds.read_bytes(),
            (root / "model.ckpt.log").read_bytes(),
            eval_out,
        )

    first = pipeline("run1")
    second = pipeline("run2")
    assert first[0] == second[0], "generated data differs"
    assert first[1] == second[1], "prediction files differ"
    assert first[2] == second[2], "metric logs differ"
    assert first[3] == second[3], "eval output differs"
    print("ACCEPTANCE 9 end-to-end determinism: PASS")
