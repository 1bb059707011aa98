"""Training loop, loss, optimizer, prediction, ensembling, evaluation.

Everything is deterministic given the config seed: batch order, parameter
init, and the synthetic data are all driven by seeded generators, so two
identical runs produce byte-identical prediction files and metric logs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .container import atomic_write
from .dataio import DatasetHeader, load_records, pad_batch
from .errors import (
    ConfigurationError,
    InputError,
    PreconditionError,
    TrainingError,
    check_each,
    check_int,
    check_real,
    check_shape,
)
from .metrics import (
    TOP_K,
    GapResult,
    PredictionSet,
    gap_at_k,
    read_prediction_file,
    topk_predictions,
    write_prediction_file,
)
from .models import DEEP_STACK_KINDS, ModelSpec, build_model, load_checkpoint, save_checkpoint
from .vlad import kmeans_fit

CODEBOOK_SAMPLE_CAP = 100_000
DEEP_STACK_CLIP_NORM = 5.0
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
ADAM_BLOCK = 1 << 15  # values per block of the update: two scratch buffers of 256 KiB


@dataclass(frozen=True)
class TrainConfig:
    model: ModelSpec
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 10
    clip_norm: float | None = None  # None -> depth rule below; 0 disables
    seed: int = 0
    train_data: str = ""
    val_data: str | None = None
    checkpoint_path: str = ""
    log_path: str | None = None

    def __post_init__(self):
        rate = check_real("learning_rate", self.learning_rate, positive=True)
        object.__setattr__(self, "learning_rate", rate)
        if self.clip_norm is not None:  # 0 turns clipping off
            object.__setattr__(self, "clip_norm", check_real("clip_norm", self.clip_norm, positive=False))
        for name, least in (("batch_size", 1), ("epochs", 1), ("seed", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), least))

    def resolved_clip_norm(self) -> float | None:
        """Deep recurrent stacks get a default global-norm clip of 5.0."""
        if self.clip_norm is None:
            deep = self.model.kind in DEEP_STACK_KINDS and self.model.depth >= 4
            return DEEP_STACK_CLIP_NORM if deep else None
        return self.clip_norm or None  # 0 disables


def bce_loss(probabilities: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy over batch and classes, probs clamped
    to [1e-7, 1 - 1e-7], as one node over ``probabilities``.

    The forward is ``-(sum(log(p)·y + log(1 - p)·(1 - y)) · 1/count)``; the backward
    is its chain rule, passed only where the probabilities were not clamped."""
    y = targets.data if isinstance(targets, Tensor) else np.asarray(targets, dtype=np.float64)
    check_shape("targets", y.shape, probabilities.shape)
    check_each("targets must be multi-hot (0/1)", (y == 0.0) | (y == 1.0), y, PreconditionError)
    p = np.clip(probabilities.data, 1e-7, 1.0 - 1e-7)
    passthrough = (probabilities.data >= 1e-7) & (probabilities.data <= 1.0 - 1e-7)
    q, not_y, scale = 1.0 - p, 1.0 - y, 1.0 / y.size
    loss = np.log(p) * y + np.log(q) * not_y

    def bw(g):
        # the composed chain's ``+ 0.0``s would change only zero signs, which
        # ``_accumulate`` erases: the gradient keeps the composed form's bits
        g = -g * scale
        dp = -(g * not_y / q)
        dp += g * y / p
        ad._accumulate(probabilities, dp * passthrough, fresh=True)

    return Tensor._op(-(loss.sum() * scale), (probabilities,), bw)


def _sum_of_squares(flat: np.ndarray, scratch: np.ndarray):
    """``(flat * flat).sum()`` with its bits, squaring ``ADAM_BLOCK`` values at a time.

    numpy sums an array in memory order over a pairwise tree: a node of more than 128
    values splits at ``n // 2 - (n // 2) % 8``. Each node of at most ``ADAM_BLOCK`` values
    is one sum over ``scratch``, and the nodes above them are added here as numpy adds
    them. Pass ``g.ravel(order="K")`` for the bits of ``(g * g).sum()``."""
    size = flat.size
    if size <= ADAM_BLOCK:
        return np.multiply(flat, flat, out=scratch[:size]).sum()
    half = size // 2 - (size // 2) % 8
    return _sum_of_squares(flat[:half], scratch) + _sum_of_squares(flat[half:], scratch)


class Adam:
    """Adam (Kingma & Ba 2015) with the ``ADAM_*`` constants; one pair of moment buffers per
    parameter block. The elementwise update runs over flat blocks of ``ADAM_BLOCK`` values."""

    def __init__(self, named_params, learning_rate: float, clip_norm: float | None = None):
        self.named_params = list(named_params)
        self.lr = learning_rate
        self.clip_norm = clip_norm
        self.moments1 = {name: np.zeros(p.data.shape) for name, p in self.named_params}
        self.moments2 = {name: np.zeros(p.data.shape) for name, p in self.named_params}
        self.step_count = 0
        self._scratch = np.empty((2, ADAM_BLOCK))

    def zero_grad(self):
        for _, p in self.named_params:
            p.zero_grad()

    def step(self) -> float:
        """One bias-corrected Adam update; returns the pre-clip gradient norm."""
        grads, squares = {}, []
        for name, p in self.named_params:
            g = p.grad if p.grad is not None else np.zeros(p.data.shape)
            squares.append(float(_sum_of_squares(g.ravel(order="K"), self._scratch[0])))
            # a finite sum rules out inf and nan; huge finite values can overflow it
            if not np.isfinite(squares[-1]):
                check_each(f"gradient of parameter block {name!r} must be finite", np.isfinite(g), g,
                           TrainingError)
            grads[name] = g
        norm = float(np.sqrt(sum(squares)))
        scale = None
        if self.clip_norm is not None and norm > self.clip_norm:
            scale = self.clip_norm / norm
        self.step_count += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.step_count
        bc2 = 1.0 - ADAM_BETA2 ** self.step_count
        for name, p in self.named_params:
            if not p.data.flags.c_contiguous:  # the flat view below must write through
                p.data = p.data.copy()
            arrays = grads[name], self.moments1[name], self.moments2[name], p.data
            flats = [x.reshape(-1) for x in arrays]
            for start in range(0, flats[0].size, ADAM_BLOCK):
                g, m, v, w = (x[start : start + ADAM_BLOCK] for x in flats)
                a, b = self._scratch[:, : g.size]
                # in the order of g *= scale; p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
                if scale is not None:
                    g = np.multiply(g, scale, out=b)
                m *= ADAM_BETA1
                m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
                v *= ADAM_BETA2
                np.multiply(g, g, out=a)
                v += np.multiply(a, 1.0 - ADAM_BETA2, out=a)
                np.sqrt(np.divide(v, bc2, out=a), out=a)
                a += ADAM_EPSILON
                np.multiply(np.divide(m, bc1, out=b), self.lr, out=b)
                w -= np.divide(b, a, out=b)
        return norm


def _check_data_matches_spec(header: DatasetHeader, spec: ModelSpec, path: str):
    problems = [f"{f} {getattr(header, f)} vs {getattr(spec, f)}"
                for f in ("vocab_size", "visual_dim", "audio_dim") if getattr(header, f) != getattr(spec, f)]
    if problems:
        raise ConfigurationError(f"{path} does not match model spec: " + "; ".join(problems))


def fit_vlad_codebook(records, spec: ModelSpec, seed: int):
    """K-means over a seeded subsample of at most 100k training frames, widened once drawn."""
    frames = np.concatenate([r.frames for r in records], axis=0)
    if frames.shape[0] > CODEBOOK_SAMPLE_CAP:
        rng = np.random.default_rng(seed)
        idx = rng.choice(frames.shape[0], size=CODEBOOK_SAMPLE_CAP, replace=False)
        frames = frames[np.sort(idx)]
    frames = frames.astype(np.float64)  # rebound, so the float32 copy is freed before k-means
    return kmeans_fit(frames, spec.vlad_clusters, max_iter=25, seed=seed)


def _eval_gap(model, records, header, batch_size: int) -> GapResult:
    preds = _predict_records(model, records, header, batch_size, min(TOP_K, header.vocab_size))
    labels = {r.id: frozenset(r.labels) for r in records}
    return gap_at_k(PredictionSet(preds, labels))


def _predict_records(model, records, header, batch_size: int, k: int):
    predictions = []
    for start in range(0, len(records), batch_size):
        batch = records[start : start + batch_size]
        visual, audio, mask, _ = pad_batch(batch, header)
        probs = model.forward(visual, audio, mask, train=False)
        predictions.extend(topk_predictions(probs, k, [r.id for r in batch]))
    return predictions


@dataclass
class TrainResult:
    log_lines: list
    epoch_losses: list
    val_gaps: list
    grad_norms: list
    best_gap: float
    best_epoch: int
    checkpoint_path: str


def _batch_loss(model, batch, header) -> Tensor:
    """Train-mode loss of one batch; the padded inputs live only as long as the tape needs them."""
    visual, audio, mask, targets = pad_batch(batch, header)
    return bce_loss(model.forward(visual, audio, mask, train=True), targets)


def train(config: TrainConfig) -> TrainResult:
    """Seeded epochs over shuffled batches; keeps the best-GAP checkpoint.

    Per epoch one metric-log line is emitted:
    ``epoch<TAB>train_loss<TAB>val_gap``.
    """
    header, records = load_records(config.train_data)
    _check_data_matches_spec(header, config.model, config.train_data)
    if config.val_data:
        val_header, val_records = load_records(config.val_data)
        _check_data_matches_spec(val_header, config.model, config.val_data)
    else:
        val_header, val_records = header, records
    for path, held in ((config.train_data, records), (config.val_data, val_records)):
        if not held:
            raise InputError(f"{path}: record file holds no videos to train or validate on")

    model = build_model(config.model)
    if config.model.kind == "vlad_mlp":
        model.set_codebook(fit_vlad_codebook(records, config.model, config.seed))

    optimizer = Adam(model.named_parameters(), config.learning_rate, config.resolved_clip_norm())
    rng = np.random.default_rng(config.seed)
    n = len(records)

    log_lines, epoch_losses, val_gaps, grad_norms = [], [], [], []
    best_gap, best_epoch = -1.0, -1
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        total_loss, total_items = 0.0, 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            with Tape():
                loss = _batch_loss(model, [records[i] for i in idx], header)
                ad.backward(loss)
            grad_norms.append(optimizer.step())
            optimizer.zero_grad()  # no gradient outlives its update: not into validation or the save
            total_loss += loss.item() * len(idx)
            total_items += len(idx)
        epoch_loss = total_loss / total_items
        gap = _eval_gap(model, val_records, val_header, config.batch_size).gap
        epoch_losses.append(epoch_loss)
        val_gaps.append(gap)
        log_lines.append(f"{epoch}\t{epoch_loss:.6f}\t{gap:.6f}")
        if gap > best_gap:
            best_gap, best_epoch = gap, epoch
            if config.checkpoint_path:
                save_checkpoint(config.checkpoint_path, model)
    if config.log_path:
        with atomic_write(config.log_path, "w") as f:
            f.write("\n".join(log_lines) + "\n")
    return TrainResult(
        log_lines,
        epoch_losses,
        val_gaps,
        grad_norms,
        best_gap,
        best_epoch,
        config.checkpoint_path,
    )


def predict(
    checkpoint_path: str,
    data_path: str,
    out_path: str,
    k: int = TOP_K,
    full_scores: bool = False,
    batch_size: int = 32,
):
    """Eval-mode forward over a record file; writes the prediction file.

    ``full_scores`` emits every class's probability per video (the input
    format ensembling expects) instead of the top-k truncation.
    """
    batch_size, k = check_int("batch_size", batch_size, 1), check_int("k", k, 1)
    model = load_checkpoint(checkpoint_path)
    header, records = load_records(data_path)
    _check_data_matches_spec(header, model.spec, data_path)
    effective_k = header.vocab_size if full_scores else min(k, header.vocab_size)
    predictions = _predict_records(model, records, header, batch_size, effective_k)
    write_prediction_file(out_path, predictions)
    return predictions


def _check_coverage(path: str, predictions, ids, reference: str) -> None:
    """Raise InputError unless ``predictions`` name every id of ``ids`` exactly once.

    The message names every problem found, each with up to 10 offenders.
    """
    counts = Counter(vid for vid, _ in predictions)
    problems = {
        f"predicted videos not present in {reference}": [v for v in counts if v not in ids],
        "videos predicted more than once": [v for v, n in counts.items() if n > 1],
        f"{reference} videos without a prediction": [v for v in ids if v not in counts],
    }
    faults = [f"{problem}: {offenders[:10]}" for problem, offenders in problems.items() if offenders]
    if faults:
        raise InputError(f"{path}: " + "; ".join(faults))


def evaluate(prediction_path: str, data_path: str) -> GapResult:
    """Join a prediction file with a record file's labels and compute GAP.

    The file must predict every video of the data exactly once, with class
    ids in [0, vocab), so that GAP counts every positive of the data.
    """
    predictions = read_prediction_file(prediction_path)
    header, records = load_records(data_path)
    labels = {r.id: frozenset(r.labels) for r in records}
    _check_coverage(prediction_path, predictions, labels, "data")
    vocab = header.vocab_size
    outside = [(v, c) for v, items in predictions for c, _ in items if not 0 <= c < vocab]
    if outside:
        raise InputError(
            f"{prediction_path}: (video, class) pairs outside [0, {vocab}): {outside[:10]}"
        )
    return gap_at_k(PredictionSet(predictions, labels))


def ensemble_average(input_paths, out_path: str, weights=None, full_scores: bool = False):
    """Weighted per-class mean of full-score prediction files.

    Every file must predict each video of the first file exactly once, with
    the same classes per video.
    Weights must be finite and >= 0 with a positive sum; the weighted mean is
    normalized by that sum, then re-truncated to the top ``TOP_K`` (or kept
    whole with ``full_scores``).
    """
    input_paths = list(input_paths)
    if not input_paths:
        raise InputError("ensemble needs at least one input file")
    if weights is None:
        weights = [1.0] * len(input_paths)
    else:
        weights = [check_real("ensemble weight", w, positive=False) for w in weights]
        if len(weights) != len(input_paths):
            raise InputError(
                f"{len(weights)} weights for {len(input_paths)} input files"
            )
    wsum = sum(weights)
    if wsum <= 0:
        raise InputError("weights must sum to a positive value")
    weights = [w / wsum for w in weights]

    per_file = []
    for path in input_paths:
        parsed = read_prediction_file(path)
        per_file.append((path, parsed, {vid: dict(items) for vid, items in parsed}))

    base_path, base_parsed, _ = per_file[0]
    base_ids = dict.fromkeys(vid for vid, _ in base_parsed)
    for path, parsed, _ in per_file:
        _check_coverage(path, parsed, base_ids, base_path)

    predictions = []
    for vid, base_items in base_parsed:
        classes = [cls for cls, _ in base_items]
        for path, _, scores in per_file[1:]:
            if set(scores[vid]) != set(classes):
                raise InputError(
                    f"{path} predicts different classes than {base_path} for "
                    f"video {vid!r}; ensembling needs full-score files"
                )
        merged = []
        for cls in classes:
            score = sum(w * scores[vid][cls] for w, (_, _, scores) in zip(weights, per_file))
            merged.append((cls, score))
        merged.sort(key=lambda cs: (-cs[1], cs[0]))
        if not full_scores:
            merged = merged[:TOP_K]
        predictions.append((vid, merged))
    write_prediction_file(out_path, predictions)
    return predictions
