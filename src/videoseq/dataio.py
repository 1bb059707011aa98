"""Frame-level record files, batch padding, and the synthetic dataset.

Binary layout (all little-endian): magic ``FLVR``, version u32, vocab_size
u32, visual_dim u32, audio_dim u32, max_frames u32, video_count u64; then
per video: id_len u16, id bytes (UTF-8), num_frames u16, num_labels u16,
labels u32 each (strictly increasing), features f32 per frame with the
visual block before the audio block. Features are stored as 32-bit floats
and promoted to 64-bit when batched for compute. The framing (magic,
version, strings, bounded reads, atomic writes) lives in ``container``.
"""

from __future__ import annotations

import struct
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import container
from .autodiff import Tensor, TimeMask
from .errors import PreconditionError, ValidationError, check_each, check_int, check_real
from .metrics import check_video_id

MAGIC = b"FLVR"
VERSION = 1
_HEADER_STRUCT = struct.Struct("<IIIIQ")  # the DatasetHeader fields, in order


@dataclass(frozen=True)
class DatasetHeader:
    vocab_size: int
    visual_dim: int = 1024
    audio_dim: int = 128
    max_frames: int = 300
    video_count: int = 0

    def __post_init__(self):  # each field in the unsigned range _HEADER_STRUCT packs it in
        for f, code in zip(fields(self), _HEADER_STRUCT.format[1:]):
            most = 2 ** (8 * struct.calcsize("<" + code)) - 1
            object.__setattr__(self, f.name, check_int(f"header {f.name}", getattr(self, f.name), 0, most))

    @property
    def feature_dim(self) -> int:
        return self.visual_dim + self.audio_dim


@dataclass
class VideoRecord:
    id: str
    frames: np.ndarray  # [t x (visual_dim + audio_dim)] float32
    labels: list  # strictly increasing class indices

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float32)
        self.labels = [check_int(f"record {self.id!r} label", x, 0) for x in self.labels]


def _validate_record(record: VideoRecord, header: DatasetHeader) -> None:
    check_video_id(record.id)
    if record.frames.ndim != 2 or record.frames.shape[1] != header.feature_dim:
        raise ValidationError(
            f"record {record.id!r}: frames shape {record.frames.shape} does not "
            f"match feature dim {header.feature_dim}"
        )
    t = record.frames.shape[0]
    if not 1 <= t <= header.max_frames:
        raise ValidationError(
            f"record {record.id!r}: {t} frames outside [1, {header.max_frames}]"
        )
    if t > 0xFFFF or len(record.labels) > 0xFFFF:
        raise ValidationError(f"record {record.id!r}: counts exceed the u16 range")
    if any(b <= a for a, b in zip(record.labels, record.labels[1:])):
        raise ValidationError(f"record {record.id!r}: labels must be strictly increasing")
    if record.labels and not (0 <= record.labels[0] and record.labels[-1] < header.vocab_size):
        raise ValidationError(
            f"record {record.id!r}: labels must lie in [0, {header.vocab_size})"
        )
    if len(record.id.encode("utf-8")) > 0xFFFF:
        raise ValidationError(f"record id too long ({len(record.id)} chars)")
    check_each(f"record {record.id!r}: feature values must be finite", np.isfinite(record.frames),
               record.frames)


def write_records(path: str, header: DatasetHeader, records) -> int:
    """Write a record file atomically; returns byte count.

    Every record is validated against the header, and ids checked unique,
    before any byte is written.
    """
    records = list(records)
    if header.video_count != len(records):
        raise ValidationError(
            f"header says {header.video_count} videos but {len(records)} were given"
        )
    seen = set()
    for record in records:
        _validate_record(record, header)
        if record.id in seen:
            raise ValidationError(f"record id {record.id!r} appears more than once")
        seen.add(record.id)
    with container.atomic_write(path) as f:
        f.write(container.header(MAGIC, VERSION))
        f.write(_HEADER_STRUCT.pack(*astuple(header)))
        for record in records:
            f.write(container.string(record.id))
            f.write(struct.pack("<HH", record.frames.shape[0], len(record.labels)))
            if record.labels:
                f.write(struct.pack(f"<{len(record.labels)}I", *record.labels))
            f.write(np.ascontiguousarray(record.frames, dtype="<f4"))
        written = f.tell()
    return written


def read_records(path: str):
    """Open a record file -> (header, record generator).

    The header is validated eagerly; records stream lazily in file order
    with per-record bound checks, and a repeated id is rejected; either
    error names the file and the record's byte offset. Truncation raises a
    corruption error naming the byte offset; records already yielded stay
    valid.
    """
    reader = container.Reader(path, MAGIC, VERSION, "record")
    try:
        header = DatasetHeader(*reader.unpack(_HEADER_STRUCT.format, "header"))
    except BaseException:
        reader.close()
        raise

    def stream():
        seen = set()
        try:
            for _ in range(header.video_count):
                offset = reader.offset
                video_id = reader.string("video id")
                if video_id in seen:
                    raise ValidationError(
                        f"{reader.path}: video id {video_id!r} at byte {offset} appears "
                        "more than once"
                    )
                seen.add(video_id)
                num_frames, num_labels = reader.unpack("<HH", "frame/label counts")
                labels = list(reader.unpack(f"<{num_labels}I", "labels"))
                frames = reader.array((num_frames, header.feature_dim), "<f4", "features")
                record = VideoRecord(video_id, frames, labels)
                try:
                    _validate_record(record, header)
                except ValidationError as err:
                    raise ValidationError(f"{reader.path}: record at byte {offset}: {err}") from None
                yield record
            reader.finish()
        finally:
            reader.close()

    return header, stream()


def load_records(path: str):
    """Read a whole record file into memory -> (header, list of records)."""
    header, stream = read_records(path)
    return header, list(stream)


def pad_batch(records, header: DatasetHeader):
    """Zero-pad a batch to its longest item.

    Returns (visual [b x visual_dim x T], audio [b x audio_dim x T], mask,
    labels [b x vocab] multi-hot). Visual and audio are channel views of one
    zeroed float64 [b x (visual_dim + audio_dim) x T] buffer, filled by one
    copy per item that widens its float32 frames exactly.
    """
    records = list(records)
    if not records:
        raise PreconditionError("pad_batch needs a non-empty batch")
    lengths = np.array([r.frames.shape[0] for r in records], dtype=np.int64)
    t_max = int(lengths.max())
    b, v = len(records), header.visual_dim
    features = np.zeros((b, header.feature_dim, t_max))
    labels = np.zeros((b, header.vocab_size))
    for i, record in enumerate(records):
        features[i, :, : lengths[i]] = record.frames.T
        labels[i, record.labels] = 1.0
    mask = TimeMask(b, t_max, lengths)
    return Tensor(features[:, :v]), Tensor(features[:, v:]), mask, Tensor(labels)


def generate_synthetic(
    path: str,
    vocab_size: int,
    video_count: int,
    seed: int,
    noise_sigma: float,
    visual_dim: int = 1024,
    audio_dim: int = 128,
    max_frames: int = 300,
    video_seed: int | None = None,
) -> DatasetHeader:
    """Write a seeded synthetic record file and return its header.

    Each class owns a fixed random visual+audio prototype pair drawn from
    ``seed``. A video samples 1-3 labels with probabilities (0.4, 0.4, 0.2)
    — 1.8 labels per video in expectation — and a frame count uniform in
    [30, max_frames]. Frames are the mean of the label prototypes plus
    Gaussian noise and a small linear per-video temporal drift. Fully
    deterministic given the seeds.

    ``video_seed`` draws the per-video randomness from a separate stream:
    two files with the same ``seed`` but different ``video_seed`` share
    class prototypes, which is how a matched validation split is made.
    """
    u32, u16, inf = 2**32 - 1, 2**16 - 1, np.inf  # header sizes are u32, a record's frame count u16
    for name, value, least, most in (  # a video draws up to 3 distinct labels, so vocab_size >= 3
        ("vocab_size", vocab_size, 3, u32), ("video_count", video_count, 0, inf),
        ("max_frames", max_frames, 1, u16), ("visual_dim", visual_dim, 0, u32),
        ("audio_dim", audio_dim, 0, u32), ("seed", seed, 0, inf),
        ("video_seed", 0 if video_seed is None else video_seed, 0, inf),
    ):
        check_int(name, value, least, most)
    check_int("visual_dim + audio_dim", visual_dim + audio_dim, 1)  # summed once both are ints
    noise_sigma = check_real("noise_sigma", noise_sigma, positive=False)
    rng = np.random.default_rng(seed)
    d = visual_dim + audio_dim
    prototypes = rng.normal(size=(vocab_size, d))
    if video_seed is not None:
        rng = np.random.default_rng(video_seed)
    min_frames = min(30, max_frames)
    records = []
    for i in range(video_count):
        n_labels = int(rng.choice([1, 2, 3], p=[0.4, 0.4, 0.2]))
        labels = sorted(int(c) for c in rng.choice(vocab_size, size=n_labels, replace=False))
        t = int(rng.integers(min_frames, max_frames + 1))
        base = prototypes[labels].mean(axis=0)
        drift = 0.1 * rng.normal(size=d)
        ramp = np.linspace(-0.5, 0.5, t)[:, None]
        frames = base + ramp * drift + noise_sigma * rng.normal(size=(t, d))
        records.append(VideoRecord(f"vid{i:06d}", frames.astype(np.float32), labels))
    header = DatasetHeader(
        vocab_size=vocab_size,
        visual_dim=visual_dim,
        audio_dim=audio_dim,
        max_frames=max_frames,
        video_count=video_count,
    )
    write_records(path, header, records)
    return header
