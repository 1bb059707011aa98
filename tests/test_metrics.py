import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from videoseq import (
    ConfigurationError,
    PredictionSet,
    gap_at_k,
    read_prediction_file,
    topk_predictions,
    write_prediction_file,
)

from oracles import gap_oracle


def random_instance(rng, max_videos=5, max_classes=10):
    """A small random prediction set with ground truth."""
    n_videos = int(rng.integers(1, max_videos + 1))
    vocab = int(rng.integers(1, max_classes + 1))
    predictions, labels = [], {}
    for i in range(n_videos):
        vid = f"v{i}"
        n_pred = int(rng.integers(0, vocab + 1))
        classes = rng.choice(vocab, size=n_pred, replace=False)
        items = [(int(c), float(rng.random())) for c in classes]
        items.sort(key=lambda cs: (-cs[1], cs[0]))
        predictions.append((vid, items))
        n_pos = int(rng.integers(0, vocab + 1))
        labels[vid] = frozenset(int(c) for c in rng.choice(vocab, size=n_pos, replace=False))
    return PredictionSet(predictions, labels)


class TestGapAtK:
    def test_perfect_ranking(self):
        preds = PredictionSet(
            [("a", [(3, 0.9), (7, 0.8)])], {"a": frozenset({3, 7})}
        )
        assert gap_at_k(preds).gap == 1.0

    def test_single_label_at_position_two(self):
        preds = PredictionSet(
            [("a", [(2, 0.9), (5, 0.8)])], {"a": frozenset({5})}
        )
        result = gap_at_k(preds)
        assert result.gap == 0.5
        assert result.total_positives == 1

    def test_two_videos_pooled(self):
        # pooled order: .9 hit, .8 miss, .7 hit -> (1/1 + 2/3) / 2 = 5/6
        preds = PredictionSet(
            [("v1", [(0, 0.9)]), ("v2", [(0, 0.8), (1, 0.7)])],
            {"v1": frozenset({0}), "v2": frozenset({1})},
        )
        result = gap_at_k(preds)
        assert result.gap == pytest.approx(5.0 / 6.0, abs=1e-15)
        assert gap_oracle(preds).gap == result.gap

    def test_identical_scores_deterministic(self):
        preds = PredictionSet(
            [("a", [(0, 0.5), (1, 0.5)]), ("b", [(0, 0.5), (1, 0.5)])],
            {"a": frozenset({1}), "b": frozenset({0})},
        )
        first = gap_at_k(preds)
        for _ in range(5):
            again = gap_at_k(preds)
            assert again == first

    def test_k_below_one_rejected(self):
        preds = PredictionSet([("a", [(0, 0.5)])], {"a": frozenset({0})})
        with pytest.raises(ConfigurationError):
            gap_at_k(preds, k=0)

    def test_empty_predictions_with_positives(self):
        preds = PredictionSet([("a", [])], {"a": frozenset({0, 1})})
        assert gap_at_k(preds).gap == 0.0
        assert gap_oracle(preds).gap == 0.0

    def test_no_positives_gives_zero(self):
        preds = PredictionSet([("a", [(0, 0.5)])], {"a": frozenset()})
        assert gap_at_k(preds).gap == 0.0
        assert gap_oracle(preds).gap == 0.0


class TestOracleEquivalence:
    def test_thousand_random_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            preds = random_instance(rng)
            k = int(rng.integers(1, 8))
            assert gap_at_k(preds, k) == gap_oracle(preds, k)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            preds = random_instance(rng)
            base = gap_at_k(preds)
            transformed = PredictionSet(
                [
                    (vid, [(c, float(np.exp(2.0 * s + 1.0))) for c, s in items])
                    for vid, items in preds.predictions
                ],
                preds.labels,
            )
            assert gap_at_k(transformed).gap == pytest.approx(base.gap, abs=1e-12)

    def test_prepending_perfect_video_never_decreases_gap(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            preds = random_instance(rng)
            base = gap_at_k(preds).gap
            perfect = ("perfect", [(0, 10.0), (1, 9.5)])
            labels = dict(preds.labels)
            labels["perfect"] = frozenset({0, 1})
            grown = PredictionSet([perfect] + preds.predictions, labels)
            assert gap_at_k(grown).gap >= base - 1e-12

    def test_gap_one_iff_all_hits_first(self):
        preds = PredictionSet(
            [("a", [(1, 0.9), (0, 0.3)]), ("b", [(2, 0.8), (1, 0.2)])],
            {"a": frozenset({1}), "b": frozenset({2})},
        )
        assert gap_at_k(preds).gap == 1.0
        # swap one hit below a miss -> strictly less than 1
        preds2 = PredictionSet(
            [("a", [(1, 0.25), (0, 0.3)]), ("b", [(2, 0.8), (1, 0.2)])],
            {"a": frozenset({1}), "b": frozenset({2})},
        )
        assert gap_at_k(preds2).gap < 1.0


class TestTopkPredictions:
    def test_basic(self):
        preds = topk_predictions(np.array([[0.1, 0.9, 0.5]]), 2, ["a"])
        assert preds == [("a", [(1, 0.9), (2, 0.5)])]

    def test_tie_break_prefers_lower_class(self):
        preds = topk_predictions(np.array([[0.5, 0.5, 0.5]]), 2, ["a"])
        assert [c for c, _ in preds[0][1]] == [0, 1]

    def test_k_equals_vocab(self):
        preds = topk_predictions(np.array([[0.3, 0.1, 0.2]]), 3, ["a"])
        assert [c for c, _ in preds[0][1]] == [0, 2, 1]

    def test_k_above_vocab_rejected(self):
        with pytest.raises(ConfigurationError):
            topk_predictions(np.zeros((1, 3)), 4, ["a"])

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        # k=-1 used to slice off the last class instead
        with pytest.raises(ConfigurationError):
            topk_predictions(np.zeros((1, 3)), k, ["a"])


class TestPredictionFile:
    def test_round_trip(self, tmp_path):
        predictions = [
            ("vid_a", [(3, 0.875), (0, 0.25)]),
            ("vid_b", [(1, 1.0)]),
            ("vid_c", []),
        ]
        path = tmp_path / "p.txt"
        write_prediction_file(path, predictions)
        parsed = read_prediction_file(path)
        assert parsed == predictions
        path2 = tmp_path / "p2.txt"
        write_prediction_file(path2, parsed)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("video_id", ["a b", "", "c\n", "\x1f"], ids=["space", "empty", "newline", "unit_separator"])
    def test_id_the_file_cannot_hold_rejected_before_write(self, tmp_path, video_id):
        from videoseq import ValidationError

        path = tmp_path / "p.txt"
        with pytest.raises(ValidationError, match=re.escape(repr(video_id))):
            write_prediction_file(path, [("ok", [(0, 0.5)]), (video_id, [(1, 0.5)])])
        assert list(tmp_path.iterdir()) == []

    def test_six_decimal_digits(self, tmp_path):
        path = tmp_path / "p.txt"
        write_prediction_file(path, [("v", [(0, 1 / 3)])])
        assert path.read_text() == "v 0:0.333333\n"

    def test_malformed_pair(self, tmp_path):
        from videoseq import FormatError

        path = tmp_path / "bad.txt"
        path.write_text("v 0:not_a_number\n")
        with pytest.raises(FormatError):
            read_prediction_file(path)

    def test_non_utf8_line_is_a_format_error_with_line_number(self, tmp_path):
        from videoseq import FormatError

        path = tmp_path / "bad.txt"
        path.write_bytes(b"v 0:0.5\n\xff\xfe\n")
        with pytest.raises(FormatError, match=r"bad.txt:2: line is not UTF-8"):
            read_prediction_file(path)

    @pytest.mark.parametrize("line, problem", [
        ("a 0:0.5 0:0.7 1:0.2", "class 0 appears more than once"),
        ("a 0:0.5 1:nan", "class 1 has a non-finite score"),
        ("a 0:inf 1:0.5", "class 0 has a non-finite score"),
    ])
    def test_repeated_class_or_non_finite_score_names_the_line(self, tmp_path, line, problem):
        from videoseq import FormatError

        path = tmp_path / "bad.txt"
        path.write_text(f"b 0:0.5\n{line}\n")
        with pytest.raises(FormatError, match=f"bad.txt:2: {problem}"):
            read_prediction_file(path)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_gap_matches_oracle_property(seed):
    rng = np.random.default_rng(seed)
    preds = random_instance(rng)
    assert gap_at_k(preds) == gap_oracle(preds)
