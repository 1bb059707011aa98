"""Slow reference implementations the library's fast paths are tested against."""

import numpy as np

from videoseq.errors import ConfigurationError, PreconditionError
from videoseq.metrics import TOP_K, GapResult, PredictionSet, _pooled_pairs
from videoseq.vlad import _DEGENERATE_NORM, Codebook, _squared_distances


def gap_oracle(preds: PredictionSet, k: int = TOP_K) -> GapResult:
    """Naive reference: recounts hits from scratch at every position.

    Test-only; limited to small instances.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if len(preds.predictions) > 100:
        raise PreconditionError("oracle is limited to <= 100 videos")
    pooled, total_positives = _pooled_pairs(preds, k)
    if total_positives == 0:
        return GapResult(0.0, len(pooled), 0)
    flags = [is_positive for (_, _, _, is_positive) in pooled]
    ap_sum = 0.0
    for i, flag in enumerate(flags):
        if flag:
            ap_sum += sum(flags[: i + 1]) / (i + 1)
    return GapResult(ap_sum / total_positives, len(pooled), total_positives)


def vlad_encode_oracle(codebook: Codebook, frames: np.ndarray) -> np.ndarray:
    """Reference VLAD vector: residuals accumulated frame by frame with ``np.add.at``."""
    frames = np.asarray(frames, dtype=np.float64)
    assignments = _squared_distances(frames, codebook.centers).argmin(axis=1)
    residuals = np.zeros_like(codebook.centers)
    np.add.at(residuals, assignments, frames - codebook.centers[assignments])
    flat = residuals.reshape(-1)
    flat = np.sign(flat) * np.sqrt(np.abs(flat))
    norm = np.linalg.norm(flat)
    return np.zeros_like(flat) if norm < _DEGENERATE_NORM else flat / norm
