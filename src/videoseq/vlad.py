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
KMEANS_BLOCK_ROWS = 32  # rows per block of a row-distance pass: 288 KiB at 1152 dims stays in L2
# k-means++ seeding skips a row where |owner - new center|^2 > _PRUNE_SCALE * closest + _PRUNE_FLOOR
_PRUNE_SCALE = 4.0 * (1.0 + 1e-6)
_PRUNE_FLOOR = np.finfo(np.float64).tiny


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


def _squared_distances(samples: np.ndarray, centers: np.ndarray, sample_sq=None) -> np.ndarray:
    """[n x k] squared euclidean distances, clipped at zero. ``sample_sq`` is
    ``_sample_sq(samples)``, passed by callers that reuse the samples. The cross term doubles
    the [k x d] centers, not the [n x d] samples: scaling by 2 is exact, so the bits are
    those of ``(2.0 * samples) @ centers.T``."""
    sample_sq = _sample_sq(samples) if sample_sq is None else sample_sq
    d2 = sample_sq - samples @ (2.0 * centers).T + (centers * centers).sum(axis=1)[None, :]
    return np.maximum(d2, 0.0)


def _sample_sq(samples: np.ndarray) -> np.ndarray:
    """[n x 1] squared norms, the one term of ``_squared_distances`` that depends only on the samples."""
    return (samples * samples).sum(axis=1)[:, None]


def _row_sq_dists(samples: np.ndarray, centers: np.ndarray, rows=None, owner=None) -> np.ndarray:
    """``((samples[rows] - c) ** 2).sum(axis=1)`` over all rows when ``rows`` is None, where
    ``c`` is the one center ``centers`` [d], or row j's ``centers[owner[j]]`` when ``owner``
    is given. Each block of ``KMEANS_BLOCK_ROWS`` rows is gathered into one scratch block:
    the per-row sums have the bits of the whole-array expression."""
    count = len(samples) if rows is None else len(rows)
    out = np.empty(count)
    scratch = np.empty((min(count, KMEANS_BLOCK_ROWS), samples.shape[1]))
    for start in range(0, count, KMEANS_BLOCK_ROWS):
        part = slice(start, start + KMEANS_BLOCK_ROWS)
        diff = scratch[: len(out[part])]
        if rows is None:
            x = samples[part]
        else:  # rows are in range; mode "clip" gathers straight into diff, "raise" buffers
            x = np.take(samples, rows[part], axis=0, out=diff, mode="clip")
        np.subtract(x, centers if owner is None else centers[owner[part]], out=diff)
        np.square(diff, out=diff).sum(axis=1, out=out[part])
    return out


def _kmeanspp_init(samples: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii 2007), with the bits of the loop that
    measures every row against each new center and keeps the minimum.

    Each row keeps its ``owner``, the center its ``closest`` squared distance was measured
    to. A new center ``c`` can be nearer to row ``x`` only if ``|owner - c|^2 <= 4 * closest``
    (``|x - c| >= |owner - c| - |x - owner|``, the bound of Elkan 2003), so only those rows
    are measured again. The rule keeps a margin, ``_PRUNE_SCALE`` = 4 * (1 + 1e-6) and
    ``_PRUNE_FLOOR`` = tiny: a skipped row's true new distance exceeds the old by a relative
    1e-6, far above the rounding of either sum (about 1e-14 relative, plus the absolute
    rounding of subnormal squares, which ``tiny`` covers). So its computed distance is
    never below ``closest``, and the minimum would have kept ``closest``. A row whose test
    reads NaN is measured again.
    """
    n = samples.shape[0]
    centers = np.empty((k, samples.shape[1]))
    centers[0] = samples[rng.integers(n)]
    closest, owner = _row_sq_dists(samples, centers[0]), np.zeros(n, dtype=np.intp)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # all remaining mass is on existing centers; fall back to uniform
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=closest / total)
        centers[i] = samples[idx]
        if i == k - 1:
            break  # the last center's distances are never read
        reach = _row_sq_dists(centers[:i], centers[i])[owner]
        rows = np.flatnonzero(~(reach > _PRUNE_SCALE * closest + _PRUNE_FLOOR))
        old, new = closest[rows], _row_sq_dists(samples, centers[i], rows)
        owner[rows[new < old]] = i
        closest[rows] = np.minimum(old, new)
    return centers


def kmeans_fit(
    samples: np.ndarray, k: int, max_iter: int = 100, seed: int = 0
) -> Codebook:
    """Lloyd's algorithm with k-means++ seeding, deterministic given seed.

    Iterates until the assignment reaches a fixpoint or max_iter. An empty
    cluster is re-seeded to the sample currently farthest from its own
    center, which cannot increase the recorded objective. The within-cluster
    sum of squares after each assignment step lands in
    ``Codebook.inertia_history``. The seeding measures only the distances
    that can change its draws (see ``_kmeanspp_init``), and the samples'
    squared norms are computed once per fit, not once per iteration.
    """
    k, max_iter = check_int("k", k, 1), check_int("max_iter", max_iter, 1)
    seed = check_int("seed", seed, 0)
    samples = np.asarray(samples, dtype=np.float64)
    n, _ = check_shape("kmeans_fit samples", samples.shape, (None, None))
    check_each("kmeans_fit samples must be finite", np.isfinite(samples), samples)
    if n < k:
        raise PreconditionError(f"need at least k={k} samples, got {n}")
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(samples, k, rng)
    sample_sq = _sample_sq(samples)
    history: list[float] = []
    assignments = None
    for _ in range(max_iter):
        d2 = _squared_distances(samples, centers, sample_sq)
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
            own_d2 = _row_sq_dists(samples, centers, owner=assignments)
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
