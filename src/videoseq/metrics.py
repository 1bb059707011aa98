"""Global average precision at top K, and the prediction interchange file.

GAP pools every video's top-K (score, is-positive) pairs into one list,
sorts it by score with a deterministic tie-break (ascending video order,
then ascending class index), and averages precision at each hit over the
total number of ground-truth positives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import atomic_write, text_lines
from .errors import FormatError, PreconditionError, ValidationError, check_int, check_shape

TOP_K = 20


@dataclass
class PredictionSet:
    """Per-video ranked (class, score) lists plus ground-truth label sets.

    ``predictions`` keeps file/insertion order: [(video_id, [(class, score),
    ...])] with scores descending. ``labels`` maps video id to its positive
    class set.
    """

    predictions: list
    labels: dict


@dataclass
class GapResult:
    gap: float
    pooled_pairs: int
    total_positives: int


def _pooled_pairs(preds: PredictionSet, k: int):
    """All (score, video_order, class, is_positive) tuples, top-k per video."""
    pooled = []
    total_positives = 0
    for video_order, (video_id, items) in enumerate(preds.predictions):
        if video_id not in preds.labels:
            raise PreconditionError(f"video {video_id!r} has no ground truth")
        positives = preds.labels[video_id]
        total_positives += len(positives)
        ranked = sorted(items, key=lambda cs: (-cs[1], cs[0]))[:k]
        seen = set()
        for cls, score in ranked:
            if cls in seen:
                raise PreconditionError(
                    f"video {video_id!r} predicts class {cls} more than once"
                )
            if not np.isfinite(score):
                raise PreconditionError(
                    f"video {video_id!r} has a non-finite score for class {cls}"
                )
            seen.add(cls)
            pooled.append((score, video_order, cls, cls in positives))
    pooled.sort(key=lambda p: (-p[0], p[1], p[2]))
    return pooled, total_positives


def gap_at_k(preds: PredictionSet, k: int = TOP_K) -> GapResult:
    """Streaming computation with an incremental hit counter."""
    k = check_int("k", k, 1)
    pooled, total_positives = _pooled_pairs(preds, k)
    if total_positives == 0:
        return GapResult(0.0, len(pooled), 0)
    hits = 0
    ap_sum = 0.0
    for rank, (_, _, _, is_positive) in enumerate(pooled, start=1):
        if is_positive:
            hits += 1
            ap_sum += hits / rank
    return GapResult(ap_sum / total_positives, len(pooled), total_positives)


def topk_predictions(probabilities, k: int, video_ids) -> list:
    """[(video_id, [(class, score), ...])]: the top-k classes per video by
    probability, ties to the lower class index."""
    probs = np.asarray(getattr(probabilities, "data", probabilities), dtype=np.float64)
    video_ids = list(video_ids)
    _, vocab = check_shape("probabilities (a row per video id)", probs.shape, (len(video_ids), None))
    k = check_int("k", k, 1, vocab)
    predictions = []
    classes = np.arange(vocab)
    for vid, row in zip(video_ids, probs):
        order = np.lexsort((classes, -row))[:k]
        predictions.append((vid, [(int(c), float(row[c])) for c in order]))
    return predictions


# ---------------------------------------------------------------------------
# prediction file: one line per video, `video_id class:score ...`
# ---------------------------------------------------------------------------


def check_video_id(video_id) -> None:
    """Raise ValidationError naming ``video_id`` unless a prediction-file line can carry
    it: one non-empty field without whitespace, ``video_id.split() == [video_id]``."""
    if not isinstance(video_id, str) or video_id.split() != [video_id]:
        raise ValidationError(f"video id {video_id!r} is not a non-empty string without whitespace")


def write_prediction_file(path: str, predictions) -> None:
    """Scores are serialized with 6 decimal digits; the file is written atomically."""
    with atomic_write(path, "w") as f:
        for video_id, items in predictions:
            check_video_id(video_id)
            pairs = " ".join(f"{cls}:{score:.6f}" for cls, score in items)
            f.write(f"{video_id} {pairs}\n" if pairs else f"{video_id}\n")


def read_prediction_file(path: str):
    """[(video_id, [(class, score), ...])] in file order.

    A line that is not UTF-8, a malformed pair, a class repeated on one line
    or a non-finite score raises FormatError naming the file and line.
    """
    predictions = []
    for line_no, line in text_lines(path):
        if not line:
            continue
        video_id, *raw_pairs = line.split()
        items = {}
        for pair in raw_pairs:
            try:
                cls_str, score_str = pair.split(":")
                cls, score = int(cls_str), float(score_str)
            except ValueError:
                raise FormatError(f"{path}:{line_no}: malformed class:score pair {pair!r}") from None
            if cls in items:
                raise FormatError(f"{path}:{line_no}: class {cls} appears more than once")
            if not np.isfinite(score):
                raise FormatError(f"{path}:{line_no}: class {cls} has a non-finite score")
            items[cls] = score
        predictions.append((video_id, list(items.items())))
    return predictions
