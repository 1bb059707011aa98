#!/usr/bin/env python3
"""End to end: synthetic data, training, prediction files, GAP@20.

Uses a deliberately small feature width so the whole run takes seconds.
The same flow is available from the shell:

    videoseq gen-data --vocab 8 --videos 48 --seed 3 --noise 0.3 --out data.bin
    videoseq train --config train.cfg --data data.bin --out model.ckpt
    videoseq predict --checkpoint model.ckpt --data data.bin --out preds.txt
    videoseq eval --predictions preds.txt --data data.bin
"""

import tempfile
from pathlib import Path

from videoseq import ModelSpec, generate_synthetic
from videoseq.training import TrainConfig, evaluate, predict, train

with tempfile.TemporaryDirectory(prefix="videoseq_demo_") as tmp:
    work = Path(tmp)
    data = work / "data.bin"

    # Each class owns a random prototype; videos carry 1-3 labels (1.8 on
    # average) and a frame count in [30, 40] here.
    header = generate_synthetic(
        str(data), vocab_size=8, video_count=48, seed=3, noise_sigma=0.3,
        visual_dim=24, audio_dim=8, max_frames=40,
    )
    print(f"dataset: {header.video_count} videos, vocab {header.vocab_size}, "
          f"{header.visual_dim}+{header.audio_dim} features per frame")

    # One bidirectional GRU per modality, attention pooling, late fusion.
    spec = ModelSpec(
        kind="two_stream_gru", vocab_size=8, visual_dim=24, audio_dim=8,
        hidden_size=12, fc_sizes=(24, 8), seed=1,
    )
    config = TrainConfig(
        model=spec, learning_rate=8e-3, batch_size=16, epochs=15, seed=2,
        train_data=str(data), checkpoint_path=str(work / "model.ckpt"),
    )

    result = train(config)
    print("\nepoch\ttrain_loss\tval_gap")
    for line in result.log_lines[:3] + ["..."] + result.log_lines[-2:]:
        print(line)
    print(f"best GAP@20 {result.best_gap:.4f} at epoch {result.best_epoch}")

    # The retained checkpoint is the best-GAP epoch; predictions are evaluated
    # through the same interchange file format the CLI uses.
    preds = work / "preds.txt"
    predict(str(work / "model.ckpt"), str(data), str(preds))
    gap = evaluate(str(preds), str(data))
    print(f"\nGAP@20 from the prediction file: {gap.gap:.4f} "
          f"({gap.total_positives} positives pooled over {gap.pooled_pairs} pairs)")
    print("first prediction line:", preds.read_text().splitlines()[0][:72], "...")
