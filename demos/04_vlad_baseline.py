#!/usr/bin/env python3
"""The VLAD baseline: codebook learning, encoding, and classification.

VLAD summarizes a variable-length frame sequence as the per-cluster sum of
residuals against a k-means codebook, with a signed square root and L2
normalization on top.
"""

import tempfile
from pathlib import Path

import numpy as np

from videoseq import generate_synthetic, kmeans_fit, vlad_encode
from videoseq.models import ModelSpec
from videoseq.training import TrainConfig, train

rng = np.random.default_rng(0)

# --- codebook learning ---------------------------------------------------------
# Two well-separated blobs: the fitted centers land on the blob means, and
# the recorded objective never increases across Lloyd iterations.

blob_a = rng.normal(size=(60, 2)) * 0.2
blob_b = rng.normal(size=(60, 2)) * 0.2 + np.array([8.0, 8.0])
samples = np.concatenate([blob_a, blob_b])

codebook = kmeans_fit(samples, k=2, max_iter=30, seed=1)
print("centers:\n", np.round(codebook.centers, 3))
print("blob means:\n", np.round(np.stack([blob_a.mean(0), blob_b.mean(0)]), 3))
print("objective trace:", [round(v, 2) for v in codebook.inertia_history])

# --- encoding ---------------------------------------------------------------------
frames = rng.normal(size=(40, 2)) + np.array([4.0, 4.0])
encoding = vlad_encode(codebook, frames)
print("\nencoding length :", encoding.shape[0], "(clusters x feature dim)")
print("encoding L2 norm:", np.linalg.norm(encoding))

# Frames sitting exactly on the centers leave nothing to aggregate: the
# degenerate encoding is all-zero rather than a division by ~0.
degenerate = vlad_encode(codebook, codebook.centers.copy())
print("degenerate norm :", np.linalg.norm(degenerate))

# The signed square root keeps the map odd: reflecting every frame about its
# assigned center negates the whole pre-normalization vector.
assignments = np.array([
    np.argmin(((f - codebook.centers) ** 2).sum(axis=1)) for f in frames
])
reflected = 2 * codebook.centers[assignments] - frames
print("odd symmetry    :", bool(np.allclose(
    vlad_encode(codebook, frames),
    -vlad_encode(codebook, reflected),
)))

# --- the vlad_mlp classifier -------------------------------------------------------
# During training the harness fits the codebook on the training frames once;
# every step then re-encodes its batch through the model's forward and
# trains only the MLP head, since the codebook takes no gradient.

with tempfile.TemporaryDirectory(prefix="videoseq_vlad_") as tmp:
    work = Path(tmp)
    data = work / "data.bin"
    generate_synthetic(str(data), vocab_size=6, video_count=48, seed=9,
                       noise_sigma=0.25, visual_dim=16, audio_dim=6, max_frames=30)

    spec = ModelSpec(kind="vlad_mlp", vocab_size=6, visual_dim=16, audio_dim=6,
                     vlad_clusters=8, fc_sizes=(24, 6), seed=4)
    result = train(TrainConfig(
        model=spec, learning_rate=1e-2, batch_size=16, epochs=20, seed=5,
        train_data=str(data), checkpoint_path=str(work / "vlad.ckpt"),
    ))
    print(f"\nvlad_mlp: loss {result.epoch_losses[0]:.3f} -> "
          f"{result.epoch_losses[-1]:.3f}, best GAP@20 {result.best_gap:.4f}")
