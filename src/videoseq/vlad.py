"""K-means codebook learning and VLAD encoding.

The encoder hard-assigns each frame to its nearest center (ties go to the
lowest center index), sums residuals per center, flattens, applies the
signed square root x -> sign(x)*sqrt(|x|), and L2-normalizes. A residual
vector with negligible norm encodes to all zeros.

Codebook files (``FLCB``): magic and version, k u32, d u32, then k*d
row-major f64 centers; their framing lives in ``container``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import container
from .errors import PreconditionError, check_each, check_int, check_shape

_CODEBOOK_MAGIC = b"FLCB"
_CODEBOOK_VERSION = 1
_DEGENERATE_NORM = 1e-12
KMEANS_BLOCK_ROWS = 256  # rows per block of a k-means++ distance pass


@dataclass(eq=False)  # == compares identity: an array has no one truth value
class Codebook:
    """k cluster centers in feature space, row per center."""

    centers: np.ndarray
    inertia_history: list | None = None

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=np.float64)
        check_shape("codebook centers", centers.shape, (None, None))
        check_each("codebook centers must be finite", np.isfinite(centers), centers)
        self.centers = centers

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def d(self) -> int:
        return self.centers.shape[1]


def _squared_distances(samples: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """[n x k] squared euclidean distances, clipped at zero."""
    d2 = (
        (samples * samples).sum(axis=1)[:, None]
        - 2.0 * samples @ centers.T
        + (centers * centers).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _row_sq_dists(samples: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``((samples - c) ** 2).sum(axis=1)``, computed ``KMEANS_BLOCK_ROWS`` rows at a time."""
    out = np.empty(samples.shape[0])
    for start in range(0, len(out), KMEANS_BLOCK_ROWS):
        rows = slice(start, start + KMEANS_BLOCK_ROWS)
        diff = samples[rows] - c
        np.square(diff, out=diff).sum(axis=1, out=out[rows])
    return out


def _kmeanspp_init(samples: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = samples.shape[0]
    centers = np.empty((k, samples.shape[1]))
    centers[0] = samples[rng.integers(n)]
    closest = _row_sq_dists(samples, centers[0])
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # all remaining mass is on existing centers; fall back to uniform
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=closest / total)
        centers[i] = samples[idx]
        np.minimum(closest, _row_sq_dists(samples, centers[i]), out=closest)
    return centers


def kmeans_fit(
    samples: np.ndarray, k: int, max_iter: int = 100, seed: int = 0
) -> Codebook:
    """Lloyd's algorithm with k-means++ seeding, deterministic given seed.

    Iterates until the assignment reaches a fixpoint or max_iter. An empty
    cluster is re-seeded to the sample currently farthest from its own
    center, which cannot increase the recorded objective. The within-cluster
    sum of squares after each assignment step lands in
    ``Codebook.inertia_history``.
    """
    k, max_iter = check_int("k", k, 1), check_int("max_iter", max_iter, 1)
    seed = check_int("seed", seed, 0)
    samples = np.asarray(samples, dtype=np.float64)
    n, _ = check_shape("kmeans_fit samples", samples.shape, (None, None))
    if n < k:
        raise PreconditionError(f"need at least k={k} samples, got {n}")
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(samples, k, rng)
    history: list[float] = []
    assignments = None
    for _ in range(max_iter):
        d2 = _squared_distances(samples, centers)
        new_assignments = d2.argmin(axis=1)  # argmin takes the lowest index on ties
        history.append(float(d2[np.arange(n), new_assignments].sum()))
        if assignments is not None and np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        counts = np.bincount(assignments, minlength=k)
        groups = np.split(np.argsort(assignments, kind="stable"), np.cumsum(counts)[:-1])
        for c, members in enumerate(groups):  # cluster c's sample indices, in sample order
            if len(members):
                centers[c] = samples[members].mean(axis=0)
        empty = np.flatnonzero(counts == 0)
        if len(empty):
            own_d2 = ((samples - centers[assignments]) ** 2).sum(axis=1)
            order = np.argsort(-own_d2, kind="stable")
            for c, idx in zip(empty, order):
                centers[c] = samples[idx]
    return Codebook(centers, inertia_history=history)


def vlad_encode(codebook: Codebook, frames: np.ndarray) -> np.ndarray:
    """Aggregate per-center residual sums of a [t x d] frame matrix into a
    length k*d vector of unit L2 norm, or all zeros (see the module docstring)."""
    frames = np.asarray(frames, dtype=np.float64)
    t, _ = check_shape("vlad_encode frames", frames.shape, (None, codebook.d))
    if t < 1:
        raise PreconditionError("need at least one frame to encode")
    assignments = _squared_distances(frames, codebook.centers).argmin(axis=1)
    residuals = np.zeros_like(codebook.centers)
    for c in np.unique(assignments):
        residuals[c] = (frames[assignments == c] - codebook.centers[c]).sum(axis=0)
    flat = residuals.reshape(-1)
    flat = np.sign(flat) * np.sqrt(np.abs(flat))
    norm = np.linalg.norm(flat)
    if norm < _DEGENERATE_NORM:
        return np.zeros_like(flat)
    return flat / norm


def save_codebook(path: str, codebook: Codebook) -> None:
    with container.atomic_write(path) as f:
        f.write(container.header(_CODEBOOK_MAGIC, _CODEBOOK_VERSION))
        f.write(struct.pack("<II", codebook.k, codebook.d))
        f.write(np.ascontiguousarray(codebook.centers, dtype="<f8"))


def load_codebook(path: str) -> Codebook:
    with container.Reader(path, _CODEBOOK_MAGIC, _CODEBOOK_VERSION, "codebook") as reader:
        k, d = reader.unpack("<II", "codebook shape")
        centers = reader.tensor((k, d), "codebook centers")
        reader.finish()
    return Codebook(centers)
