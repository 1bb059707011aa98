#!/usr/bin/env python3
"""How GAP@20 ranks pooled predictions, and why averaging models helps.

GAP pools every video's top-20 (score, is-positive) pairs into one global
list sorted by confidence, then averages precision at each hit over the
total number of ground-truth positives.
"""

import tempfile
from pathlib import Path

from videoseq.metrics import (
    PredictionSet,
    gap_at_k,
    read_prediction_file,
    write_prediction_file,
)
from videoseq.training import ensemble_average

# --- GAP mechanics ---------------------------------------------------------------
# Video v1 ranks its positive first (score .9); v2 ranks a miss (.8) above
# its hit (.7). Pooled order: hit, miss, hit -> (1/1 + 2/3) / 2 = 5/6.

preds = PredictionSet(
    predictions=[
        ("v1", [(0, 0.9)]),
        ("v2", [(0, 0.8), (1, 0.7)]),
    ],
    labels={"v1": frozenset({0}), "v2": frozenset({1})},
)
result = gap_at_k(preds)
print(f"gap = {result.gap:.6f}  (5/6 = {5 / 6:.6f})")

# Ties are broken deterministically: ascending video order, then ascending
# class index, so identical scores always evaluate the same way.
tied = PredictionSet(
    predictions=[("a", [(0, 0.5), (1, 0.5)]), ("b", [(0, 0.5), (1, 0.5)])],
    labels={"a": frozenset({1}), "b": frozenset({0})},
)
print("tied-score gap:", f"{gap_at_k(tied).gap:.6f}", "(reproducible)")

# --- ensembling --------------------------------------------------------------------
# Model A is confident and right on v1 but wrong on v2; model B is the
# mirror image. Their per-class mean ranks both videos correctly.

labels = {"v1": frozenset({0}), "v2": frozenset({1})}


def gap_of(rows):
    return gap_at_k(PredictionSet(rows, labels), k=2).gap


with tempfile.TemporaryDirectory(prefix="videoseq_ens_") as tmp:
    work = Path(tmp)
    rows_a = [("v1", [(0, 0.9), (1, 0.1)]), ("v2", [(0, 0.6), (1, 0.4)])]
    rows_b = [("v1", [(1, 0.6), (0, 0.4)]), ("v2", [(1, 0.9), (0, 0.1)])]
    file_a, file_b = work / "a.txt", work / "b.txt"
    write_prediction_file(str(file_a), rows_a)
    write_prediction_file(str(file_b), rows_b)

    merged_path = work / "mean.txt"
    ensemble_average([str(file_a), str(file_b)], str(merged_path))
    merged = read_prediction_file(str(merged_path))

    print(f"\nmodel A gap: {gap_of(rows_a):.4f}")
    print(f"model B gap: {gap_of(rows_b):.4f}")
    print(f"ensemble gap: {gap_of(merged):.4f}")

    # Weighted averaging normalizes by the weight sum, so weights (1, 0)
    # reproduce the first file byte for byte.
    first_only = work / "first.txt"
    ensemble_average([str(file_a), str(file_b)], str(first_only), weights=[1.0, 0.0])
    print("weights (1,0) reproduce file A exactly:",
          file_a.read_bytes() == first_only.read_bytes())
