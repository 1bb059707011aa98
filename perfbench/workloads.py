"""The benchmark's workloads: input shapes, models and run lengths.

Plain data only, so that ``run.py`` can read it without importing numpy or
the library.

``--seed`` selects the class prototypes of the synthetic data, so every seed
gives different feature values. The per-video stream (frame counts, label
sets, noise) is drawn from a fixed seed per split, so every seed does the same
amount of work and throughput compares like with like across seeds. The
held-out split uses another video seed than the training split, with the same
prototypes, as ``videoseq gen-data --video-seed`` does.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 1
SECOND_SEED = 2  # confirm a claim here too: a seed it was not tuned on

TRAIN_VIDEO_SEED = 101
HELDOUT_VIDEO_SEED = 202
NOISE_SIGMA = 0.3


@dataclass(frozen=True)
class ModelRun:
    """One model the pipeline trains, predicts with and (maybe) evaluates."""

    spec: dict  # videoseq.ModelSpec keyword arguments, without vocab_size
    learning_rate: float


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    vocab_size: int
    visual_dim: int
    audio_dim: int
    max_frames: int  # frame counts are uniform in [min(30, max_frames), max_frames]
    train_videos: int
    heldout_videos: int
    batch_size: int
    epochs: int
    models: tuple
    ensemble: bool = False  # predict full scores, ensemble them, evaluate the ensemble

    @property
    def data_args(self) -> dict:
        return dict(
            vocab_size=self.vocab_size,
            visual_dim=self.visual_dim,
            audio_dim=self.audio_dim,
            max_frames=self.max_frames,
            noise_sigma=NOISE_SIGMA,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk_recurrent",
            why=(
                "desk spec, tiny GEMMs, about 3.2k tape nodes a step: Python "
                "dispatch in autodiff and recurrent dominates"
            ),
            vocab_size=10,
            visual_dim=48,
            audio_dim=16,
            max_frames=40,
            train_videos=16,
            heldout_videos=16,
            batch_size=16,
            epochs=1,
            models=(
                ModelRun(dict(kind="two_stream_lstm", hidden_size=16, fc_sizes=(32, 10)), 1e-2),
                ModelRun(dict(kind="ff_gru", hidden_size=16, depth=4, fc_sizes=(32, 10)), 1e-2),
                ModelRun(
                    dict(kind="temporal_resnet", hidden_size=16, trb_count=2,
                         trb_filters=16, fc_sizes=(32, 10)),
                    1e-2,
                ),
            ),
        ),
        Workload(
            name="paper_shapes",
            why=(
                "paper feature shapes, 1024+128 dims and 30-300 frames: BLAS, "
                "im2col buffers, float64 batches and padding dominate"
            ),
            vocab_size=25,
            visual_dim=1024,
            audio_dim=128,
            max_frames=300,
            train_videos=4,
            heldout_videos=4,
            batch_size=4,
            epochs=1,
            models=(
                ModelRun(
                    dict(kind="temporal_resnet", hidden_size=32, trb_count=2,
                         trb_filters=128, fc_sizes=(64, 25)),
                    3e-3,
                ),
                ModelRun(dict(kind="two_stream_lstm", hidden_size=32, fc_sizes=(64, 25)), 3e-3),
            ),
        ),
        Workload(
            name="vlad_ensemble",
            why=(
                "paper feature width, about 18 tape nodes a step: k-means, VLAD "
                "encoding, a 2.4M-weight Adam update and full-score files dominate"
            ),
            vocab_size=25,
            visual_dim=1024,
            audio_dim=128,
            max_frames=300,
            train_videos=8,
            heldout_videos=8,
            batch_size=8,
            epochs=2,
            models=(
                ModelRun(dict(kind="video_level", fc_sizes=(64, 25)), 1e-2),
                ModelRun(dict(kind="vlad_mlp", vlad_clusters=32, fc_sizes=(64, 25)), 1e-3),
            ),
            ensemble=True,
        ),
    )
}

MODEL_SEED = 7  # ModelSpec.seed: parameter init
TRAIN_SEED = 3  # TrainConfig.seed: batch order and the k-means seed
