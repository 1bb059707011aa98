import re

import numpy as np
import pytest

from videoseq import (
    ConfigurationError,
    CorruptionError,
    DatasetHeader,
    FormatError,
    PreconditionError,
    Tensor,
    TimeMask,
    ValidationError,
    VideoRecord,
    generate_synthetic,
    load_records,
    pad_batch,
    read_records,
    write_records,
)


def small_header(**kwargs):
    defaults = dict(vocab_size=6, visual_dim=4, audio_dim=2, max_frames=10, video_count=0)
    defaults.update(kwargs)
    return DatasetHeader(**defaults)


def make_records(rng, header, count):
    records = []
    for i in range(count):
        t = int(rng.integers(1, header.max_frames + 1))
        frames = rng.normal(size=(t, header.feature_dim)).astype(np.float32)
        n_labels = int(rng.integers(1, 4))
        labels = sorted(int(c) for c in rng.choice(header.vocab_size, n_labels, replace=False))
        records.append(VideoRecord(f"clip_{i}", frames, labels))
    return records


class TestRecordFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        header = small_header(video_count=5)
        records = make_records(rng, header, 5)
        path = tmp_path / "a.bin"
        write_records(path, header, records)
        header2, loaded = load_records(path)
        assert header2 == header
        for orig, back in zip(records, loaded):
            assert back.id == orig.id
            assert back.labels == orig.labels
            assert np.array_equal(back.frames, orig.frames)
        path2 = tmp_path / "b.bin"
        write_records(path2, header2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_records(path, small_header(), [])
        header, records = load_records(path)
        assert header.video_count == 0
        assert records == []

    def test_record_over_frame_bound_rejected_before_write(self, tmp_path):
        header = small_header(max_frames=3, video_count=1)
        bad = VideoRecord("x", np.zeros((4, header.feature_dim), dtype=np.float32), [0])
        path = tmp_path / "never.bin"
        with pytest.raises(ValidationError):
            write_records(path, header, [bad])
        assert not path.exists()

    def test_frames_without_a_time_axis_rejected_before_write(self, tmp_path):
        # the frame count was read before the rank: 0-d frames escaped as an IndexError
        path = tmp_path / "never.bin"
        header = small_header(visual_dim=1, audio_dim=0, video_count=1)
        with pytest.raises(ValidationError) as exc:
            write_records(path, header, [VideoRecord("a", 5.0, [])])
        assert str(exc.value) == "record 'a': frames shape () does not match feature dim 1"
        assert not path.exists()

    def test_non_increasing_labels_rejected(self, tmp_path):
        header = small_header(video_count=1)
        bad = VideoRecord("x", np.zeros((2, header.feature_dim), dtype=np.float32), [3, 3])
        with pytest.raises(ValidationError):
            write_records(tmp_path / "n.bin", header, [bad])

    @pytest.mark.parametrize("labels, message", [
        ([0.5, 2.9], "label must be an integer, got 0.5"),
        (["2"], "label must be an integer, got '2'"),
        ([1, -1], "label must be >= 0, got -1"),
    ], ids=["float", "string", "negative"])
    def test_non_integer_label_refused_before_write(self, tmp_path, labels, message):
        # int(x) used to truncate: labels [0.5, 2.9] were written and read back as [0, 2]
        header = small_header(video_count=2)
        frames = np.zeros((2, header.feature_dim), dtype=np.float32)
        path = tmp_path / "labels.bin"
        records = (VideoRecord(video_id, frames, ls) for video_id, ls in (("b", [1]), ("a", labels)))
        with pytest.raises(ConfigurationError, match=f"^record 'a' {re.escape(message)}$"):
            write_records(path, header, records)
        assert not path.exists()

    def test_duplicate_ids_rejected_before_write(self, tmp_path):
        header = small_header(video_count=2)
        frames = np.zeros((2, header.feature_dim), dtype=np.float32)
        path = tmp_path / "twice.bin"
        with pytest.raises(ValidationError, match="'a'"):
            write_records(path, header, [VideoRecord("a", frames, [0]), VideoRecord("a", frames, [1])])
        assert not path.exists()

    def test_duplicate_ids_rejected_on_read(self, tmp_path):
        # evaluate keys labels by id: a repeated id dropped the first record's positives
        header = small_header(video_count=2)
        frames = np.zeros((2, header.feature_dim), dtype=np.float32)
        path = tmp_path / "ab.bin"
        write_records(path, header, [VideoRecord("a", frames, [0]), VideoRecord("b", frames, [1])])
        data = bytearray(path.read_bytes())
        second = data.index(b"\x01\x00b")  # u16 length 1, then the id byte
        data[second + 2] = ord("a")
        path.write_bytes(bytes(data))
        with pytest.raises(ValidationError, match=rf"'a' at byte {second}"):
            load_records(path)

    @pytest.mark.parametrize("video_id", ["a b", "", "c\n", "\x1f"], ids=["space", "empty", "newline", "unit_separator"])
    def test_id_a_prediction_file_cannot_hold_rejected_before_write(self, tmp_path, video_id):
        # predict writes `id class:score ...` lines that evaluate splits on whitespace
        header = small_header(video_count=1)
        frames = np.zeros((2, header.feature_dim), dtype=np.float32)
        path = tmp_path / "ids.bin"
        with pytest.raises(ValidationError, match=re.escape(repr(video_id))):
            write_records(path, header, [VideoRecord(video_id, frames, [0])])
        assert not path.exists()

    def test_id_a_prediction_file_cannot_hold_rejected_on_read(self, tmp_path):
        header = small_header(video_count=1)
        frames = np.zeros((2, header.feature_dim), dtype=np.float32)
        path = tmp_path / "ab.bin"
        write_records(path, header, [VideoRecord("a_b", frames, [0])])
        data = path.read_bytes()
        path.write_bytes(data.replace(b"\x03\x00a_b", b"\x03\x00a b", 1))
        with pytest.raises(ValidationError, match="'a b'"):
            load_records(path)

    def test_invalid_record_on_read_names_file_and_offset(self, tmp_path):
        header = small_header(video_count=2)
        frames = np.ones((2, header.feature_dim), dtype=np.float32)
        path = tmp_path / "ab.bin"
        write_records(path, header, [VideoRecord("a_a", frames, [0]), VideoRecord("a_b", frames, [1])])
        data = path.read_bytes()
        second = data.index(b"\x03\x00a_b")  # u16 length 3, then the id bytes
        features = second + 2 + 3 + 4 + 4  # id, frame/label counts, one label
        inf = tmp_path / "inf.bin"
        inf.write_bytes(data[:features] + np.float32(np.inf).tobytes() + data[features + 4 :])
        spaced = tmp_path / "spaced.bin"
        spaced.write_bytes(data.replace(b"\x03\x00a_b", b"\x03\x00a b", 1))
        non_finite = re.escape("record 'a_b': feature values must be finite: 1 of 12 are not, "
                               "the first inf at index (0, 0)") + "$"
        for bad, message in ((inf, non_finite), (spaced, "'a b'")):
            prefix = re.escape(f"{bad}: record at byte {second}: ")
            with pytest.raises(ValidationError, match=f"^{prefix}.*{message}"):
                load_records(bad)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(FormatError):
            read_records(path)

    def test_truncation_mid_record_names_offset(self, tmp_path):
        rng = np.random.default_rng(1)
        header = small_header(video_count=3)
        records = make_records(rng, header, 3)
        path = tmp_path / "full.bin"
        write_records(path, header, records)
        data = path.read_bytes()
        cut = tmp_path / "cut.bin"
        cut.write_bytes(data[: len(data) - 7])
        _, stream = read_records(cut)
        yielded = []
        with pytest.raises(CorruptionError, match=r"byte \d+"):
            for record in stream:
                yielded.append(record)
        # earlier records still came through intact
        assert len(yielded) == 2
        for orig, back in zip(records, yielded):
            assert np.array_equal(back.frames, orig.frames)

    def test_trailing_garbage_detected(self, tmp_path):
        header = small_header(video_count=0)
        path = tmp_path / "t.bin"
        write_records(path, header, [])
        path.write_bytes(path.read_bytes() + b"x")
        _, stream = read_records(path)
        with pytest.raises(CorruptionError):
            list(stream)


class TestPadBatch:
    def test_single_record_no_padding(self):
        header = small_header()
        rec = VideoRecord("a", np.ones((3, 6), dtype=np.float32), [1])
        visual, audio, mask, labels = pad_batch([rec], header)
        assert visual.shape == (1, 4, 3)
        assert audio.shape == (1, 2, 3)
        assert mask.max_time == 3
        assert mask.valid_lengths.tolist() == [3]

    def test_mixed_lengths(self):
        header = small_header()
        rng = np.random.default_rng(2)
        recs = [
            VideoRecord("a", rng.normal(size=(2, 6)).astype(np.float32), [0]),
            VideoRecord("b", rng.normal(size=(5, 6)).astype(np.float32), [1]),
        ]
        visual, audio, mask, _ = pad_batch(recs, header)
        assert mask.max_time == 5
        assert mask.valid_lengths.tolist() == [2, 5]
        assert np.array_equal(visual.data[0, :, 2:], np.zeros((4, 3)))
        assert np.array_equal(audio.data[0, :, 2:], np.zeros((2, 3)))

    def test_multi_hot_labels(self):
        header = small_header(vocab_size=6)
        rec = VideoRecord("a", np.zeros((1, 6), dtype=np.float32), [0, 4])
        _, _, _, labels = pad_batch([rec], header)
        assert labels.data.tolist() == [[1.0, 0.0, 0.0, 0.0, 1.0, 0.0]]

    def test_visual_audio_split(self):
        header = small_header()
        frames = np.arange(6, dtype=np.float32)[None, :]
        rec = VideoRecord("a", frames, [0])
        visual, audio, _, _ = pad_batch([rec], header)
        assert visual.data[0, :, 0].tolist() == [0.0, 1.0, 2.0, 3.0]
        assert audio.data[0, :, 0].tolist() == [4.0, 5.0]

    def test_empty_batch_rejected(self):
        with pytest.raises(PreconditionError):
            pad_batch([], small_header())

    def test_streams_are_channel_views_of_one_zeroed_buffer(self):
        header = small_header()
        recs = make_records(np.random.default_rng(3), header, 4)
        visual, audio, mask, _ = pad_batch(recs, header)
        b, t_max, v, a = len(recs), mask.max_time, header.visual_dim, header.audio_dim
        base = visual.data.base
        assert base is audio.data.base
        assert base.shape == (b, v + a, t_max) and base.dtype == np.float64
        assert base.flags.c_contiguous
        assert np.shares_memory(visual.data, base) and np.shares_memory(audio.data, base)
        # the two-array form: each stream zero-padded in its own array
        want_visual, want_audio = np.zeros((b, v, t_max)), np.zeros((b, a, t_max))
        for i, rec in enumerate(recs):
            t = rec.frames.shape[0]
            want_visual[i, :, :t] = rec.frames[:, :v].T
            want_audio[i, :, :t] = rec.frames[:, v:].T
        assert np.array_equal(visual.data, want_visual)
        assert np.array_equal(audio.data, want_audio)
        padded = ~mask.bool_matrix()
        assert padded.any()
        for x in (visual, audio):
            at_padding = x.data.transpose(0, 2, 1)[padded]
            assert np.all(at_padding == 0.0) and not np.signbit(at_padding).any()

    def test_what_the_bench_tracer_reads_is_unchanged(self):
        # perfbench's pad_batch hook reads result[0:3], visual's shape and the streams' nbytes
        header = small_header()
        recs = make_records(np.random.default_rng(4), header, 3)
        result = pad_batch(recs, header)
        assert [type(x) for x in result] == [Tensor, Tensor, TimeMask, Tensor]
        visual, audio, mask = result[0], result[1], result[2]
        b, t_max = len(recs), mask.max_time
        assert visual.shape == (b, header.visual_dim, t_max)
        assert audio.shape == (b, header.audio_dim, t_max)
        assert visual.data.nbytes + audio.data.nbytes == b * header.feature_dim * t_max * 8


class TestGenerateSynthetic:
    def test_same_seed_bit_identical_files(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        generate_synthetic(a, 5, 20, seed=7, noise_sigma=0.4, visual_dim=8, audio_dim=4, max_frames=12)
        generate_synthetic(b, 5, 20, seed=7, noise_sigma=0.4, visual_dim=8, audio_dim=4, max_frames=12)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        generate_synthetic(a, 5, 20, seed=7, noise_sigma=0.4, visual_dim=8, audio_dim=4, max_frames=12)
        generate_synthetic(b, 5, 20, seed=8, noise_sigma=0.4, visual_dim=8, audio_dim=4, max_frames=12)
        assert a.read_bytes() != b.read_bytes()

    def test_zero_noise_single_label_video_is_prototype_plus_drift(self, tmp_path):
        path = tmp_path / "clean.bin"
        generate_synthetic(path, 4, 30, seed=3, noise_sigma=0.0, visual_dim=6, audio_dim=2, max_frames=8)
        _, records = load_records(path)
        singles = [r for r in records if len(r.labels) == 1]
        assert singles
        for rec in singles:
            frames = rec.frames.astype(np.float64)
            # drift is linear in time: second differences vanish
            if frames.shape[0] >= 3:
                second_diff = np.diff(frames, n=2, axis=0)
                assert np.allclose(second_diff, 0.0, atol=1e-6)

    def test_mean_labels_per_video_near_1_8(self, tmp_path):
        path = tmp_path / "many.bin"
        generate_synthetic(path, 10, 10_000, seed=11, noise_sigma=0.1, visual_dim=2, audio_dim=1, max_frames=1)
        _, records = load_records(path)
        mean_labels = np.mean([len(r.labels) for r in records])
        assert 1.7 <= mean_labels <= 1.9

    def test_video_seed_shares_prototypes(self, tmp_path):
        # same seed + different video_seed: different videos drawn from the
        # same class prototypes (a matched train/validation split)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        common = dict(vocab_size=4, video_count=60, noise_sigma=0.0,
                      visual_dim=6, audio_dim=2, max_frames=1)
        generate_synthetic(a, seed=1, **common)
        generate_synthetic(b, seed=1, video_seed=2, **common)
        assert a.read_bytes() != b.read_bytes()

        def frames_by_label(path):
            _, records = load_records(path)
            return {
                tuple(r.labels): r.frames[0] for r in records if len(r.labels) == 1
            }

        one, two = frames_by_label(a), frames_by_label(b)
        shared = set(one) & set(two)
        assert shared
        for label in shared:
            # zero noise: frames are prototype + drift; drift is tiny (0.1
            # scale, ramp within +-0.5) so matching labels must agree closely
            assert np.allclose(one[label], two[label], atol=0.3)

    def test_frame_counts_in_range(self, tmp_path):
        path = tmp_path / "r.bin"
        generate_synthetic(path, 3, 50, seed=0, noise_sigma=0.1, visual_dim=2, audio_dim=1, max_frames=40)
        _, records = load_records(path)
        counts = [r.frames.shape[0] for r in records]
        assert min(counts) >= 30
        assert max(counts) <= 40

    def test_tiny_vocab_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            generate_synthetic(tmp_path / "x.bin", 1, 5, seed=0, noise_sigma=0.1)
