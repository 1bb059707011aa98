"""The shared container: atomic writes, and readers that reject every damaged file by name."""

import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from videoseq import (
    Codebook,
    CorruptionError,
    DatasetHeader,
    FormatError,
    ModelSpec,
    Tensor,
    ValidationError,
    VideoRecord,
    VideoseqError,
    build_model,
    load_checkpoint,
    load_codebook,
    load_records,
    read_prediction_file,
    save_checkpoint,
    save_codebook,
    write_prediction_file,
    write_records,
)
from videoseq import container, dataio, models, vlad

from oracles import traced_peak

FUZZ = settings(max_examples=60, deadline=None, derandomize=True)


def tiny_spec(kind):
    return ModelSpec(kind=kind, vocab_size=5, visual_dim=4, audio_dim=2, hidden_size=3,
                     trb_count=1, trb_filters=3, fc_sizes=(6, 5), vlad_clusters=2, seed=1)


def spec_end(spec):
    """Byte offset where a checkpoint's tensor table starts: magic, version, kind, spec fields."""
    return 8 + 2 + len(spec.kind) + 48


def mutations(data):
    """``data`` cut at any offset, with one byte overwritten, or extended."""
    n = len(data)
    return st.one_of(
        st.integers(0, n - 1).map(lambda i: data[:i]),
        st.tuples(st.integers(0, n - 1), st.integers(0, 255)).map(
            lambda t: data[: t[0]] + bytes([t[1]]) + data[t[0] + 1 :]
        ),
        st.binary(min_size=1, max_size=12).map(lambda extra: data + extra),
    )


def loads_or_names_the_fault(read, path, data):
    """Only a named library error may escape, never MemoryError, struct.error and the like."""
    path.write_bytes(data)
    try:
        read(path)
    except VideoseqError:
        pass


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("container")
    rng = np.random.default_rng(0)
    header = DatasetHeader(vocab_size=5, visual_dim=3, audio_dim=2, max_frames=4, video_count=3)
    records = [
        VideoRecord(f"clip{i}", rng.normal(size=(i + 1, 5)).astype(np.float32), [i, 4])
        for i in range(3)
    ]
    write_records(root / "r.flvr", header, records)
    save_codebook(root / "c.flcb", Codebook(rng.normal(size=(3, 4))))
    write_prediction_file(root / "p.txt", [("clip0", [(4, 0.5), (0, 0.25)]), ("clip1", [(1, 0.75)])])
    for kind in ("video_level", "vlad_mlp", "temporal_resnet", "ff_lstm"):
        model = build_model(tiny_spec(kind))
        save_checkpoint(root / f"{kind}.flck", model)
    return root


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", ["container", "prediction_file"])
    def test_failure_midway_keeps_old_file_and_leaves_no_temp(self, writer, tmp_path):
        path = tmp_path / "out"
        write_prediction_file(path, [("old", [(0, 0.5)])])
        before = path.read_bytes()

        def rows():
            yield "new", [(1, 0.25)]
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError, match="disk full"):
            if writer == "container":
                with container.atomic_write(path) as f:
                    f.write(b"partial")
                    raise RuntimeError("disk full")
            else:
                write_prediction_file(path, rows())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out"]

    def test_file_gets_the_mode_of_a_plain_open(self, tmp_path):
        with open(tmp_path / "plain", "wb"):
            pass
        with container.atomic_write(tmp_path / "atomic") as f:
            f.write(b"x")
        assert os.stat(tmp_path / "atomic").st_mode == os.stat(tmp_path / "plain").st_mode


class TestWriterBytes:
    """Each writer's bytes are the ``.tobytes()`` of its arrays at the file's dtype, also
    when the arrays are neither C-ordered nor of that dtype."""

    def test_codebook(self, tmp_path):
        centers = np.asfortranarray(np.random.default_rng(1).normal(size=(3, 5)))
        save_codebook(tmp_path / "c.cb", Codebook(centers))
        want = container.header(vlad._CODEBOOK_MAGIC, vlad._CODEBOOK_VERSION)
        want += struct.pack("<II", 3, 5) + centers.astype("<f8").tobytes()
        assert (tmp_path / "c.cb").read_bytes() == want

    def test_records(self, tmp_path):
        rng = np.random.default_rng(2)
        records = [VideoRecord("a", rng.normal(size=(4, 3)).astype(np.float32), [0, 2]),
                   VideoRecord("b", rng.normal(size=(3, 2)).astype(np.float32).T, [1])]
        assert not records[1].frames.flags.c_contiguous
        header = DatasetHeader(vocab_size=3, visual_dim=2, audio_dim=1, max_frames=4, video_count=2)
        write_records(tmp_path / "r.bin", header, records)
        want = container.header(dataio.MAGIC, dataio.VERSION) + dataio._HEADER_STRUCT.pack(3, 2, 1, 4, 2)
        for r in records:
            want += container.string(r.id) + struct.pack("<HH", len(r.frames), len(r.labels))
            want += struct.pack(f"<{len(r.labels)}I", *r.labels) + r.frames.astype("<f4").tobytes()
        assert (tmp_path / "r.bin").read_bytes() == want

    def test_checkpoint(self, tmp_path):
        model = build_model(tiny_spec("two_stream_lstm"))
        for t in model.tensors.values():
            t.data = np.asfortranarray(t.data)
        save_checkpoint(tmp_path / "m.ckpt", model)
        want = container.header(models._CKPT_MAGIC, models._CKPT_VERSION)
        want += models._spec_to_bytes(model.spec) + struct.pack("<I", len(model.tensors))
        for name, t in model.tensors.items():
            want += container.string(name) + struct.pack(f"<B{t.data.ndim}I", t.data.ndim, *t.data.shape)
            want += t.data.astype("<f8").tobytes()
        assert (tmp_path / "m.ckpt").read_bytes() == want


class TestExplicitFaults:
    @pytest.mark.parametrize("name, read", [
        ("video_level.flck", load_checkpoint),
        ("c.flcb", load_codebook),
    ])
    def test_trailing_bytes_rejected(self, files, tmp_path, name, read):
        path = tmp_path / name
        path.write_bytes((files / name).read_bytes() + b"\0")
        with pytest.raises(CorruptionError, match=r"1 trailing bytes at byte \d+"):
            read(path)

    def test_huge_tensor_dim_is_a_corruption_not_a_memory_error(self, files, tmp_path):
        spec = tiny_spec("video_level")
        data = bytearray((files / "video_level.flck").read_bytes())
        # tensor table: count u32, then name_len u16, name, rank u8, dims u32 each
        first_dim = spec_end(spec) + 4 + 2 + len("head.w1") + 1
        data[first_dim : first_dim + 4] = struct.pack("<I", 0xFFFFFFFF)
        path = tmp_path / "huge.flck"
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError, match=r"byte \d+: tensor 'head.w1' needs"):
            load_checkpoint(path)

    def test_truncated_codebook_names_offset(self, files, tmp_path):
        path = tmp_path / "cut.flcb"
        path.write_bytes((files / "c.flcb").read_bytes()[:-3])
        with pytest.raises(CorruptionError, match=r"byte 16: codebook centers"):
            load_codebook(path)

    def test_huge_codebook_dims_are_a_corruption(self, tmp_path):
        path = tmp_path / "huge.flcb"
        path.write_bytes(container.header(b"FLCB", 1) + struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF))
        with pytest.raises(CorruptionError):
            load_codebook(path)

    def test_non_finite_checkpoint_tensor_is_named(self, tmp_path):
        model = build_model(tiny_spec("video_level"))
        model.tensors["head.b1"].data[0] = np.nan
        save_checkpoint(tmp_path / "nan.flck", model)
        message = (f"{tmp_path / 'nan.flck'}: tensor 'head.b1' before byte 441 must be finite: "
                   "1 of 6 are not, the first nan at index (0,)")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_checkpoint(tmp_path / "nan.flck")

    def test_non_finite_codebook_is_named(self, files, tmp_path):
        data = bytearray((files / "c.flcb").read_bytes())
        data[16:24] = struct.pack("<d", np.inf)
        (tmp_path / "inf.flcb").write_bytes(bytes(data))
        message = (f"{tmp_path / 'inf.flcb'}: codebook centers before byte 112 must be finite: "
                   "1 of 12 are not, the first inf at index (0, 0)")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_codebook(tmp_path / "inf.flcb")

    def test_codebook_rejects_non_finite_centers_by_name(self):
        with pytest.raises(ValidationError) as info:
            Codebook(np.array([[0.0, np.nan]]))
        assert isinstance(info.value, ValueError)

    def test_missing_extra_state_is_a_format_error(self, files, tmp_path):
        data = (files / "temporal_resnet.flck").read_bytes()
        path = tmp_path / "renamed.flck"
        path.write_bytes(data.replace(b"block0.bn1.running_mean", b"block0.bn1.running_MEAN"))
        with pytest.raises(VideoseqError, match="running_mean"):
            load_checkpoint(path)


    @pytest.mark.parametrize("change, message", [
        (lambda t: t.pop("head.b2"), "missing tensor 'head.b2'"),
        (lambda t: t.update(extra=Tensor(np.zeros(1))), "unexpected tensor 'extra'"),
        (lambda t: t.update({"head.b2": Tensor(np.zeros((5, 1)))}),
         r"tensor 'head.b2' has shape \(5, 1\), expected \(5,\)"),
    ])
    def test_table_that_differs_from_the_spec_is_a_format_error(self, tmp_path, change, message):
        model = build_model(tiny_spec("video_level"))
        change(model.tensors)
        save_checkpoint(tmp_path / "m.flck", model)
        with pytest.raises(FormatError, match=message):
            load_checkpoint(tmp_path / "m.flck")


    @pytest.mark.parametrize("change, message, after_head_b2", [
        (lambda t: t.pop("head.b2"), "checkpoint is missing tensor 'head.b2'", False),
        (lambda t: t.update(extra=Tensor(np.zeros(1))), "unexpected tensor 'extra'", True),
        (lambda t: t.update({"head.b2": Tensor(np.zeros((5, 1)))}),
         "tensor 'head.b2' has shape (5, 1), expected (5,)", False),
        (lambda t: t.update({"head.x2": t.pop("head.b2")}), "found tensor 'head.x2' where 'head.b2' belongs",
         False),
    ], ids=["missing", "unexpected", "shape", "name"])
    def test_table_error_names_the_byte_its_tensor_record_starts_at(self, tmp_path, change, message,
                                                                     after_head_b2):
        model = build_model(tiny_spec("video_level"))
        save_checkpoint(tmp_path / "m.flck", model)
        end = os.path.getsize(tmp_path / "m.flck")
        head_b2 = 2 + 7 + 1 + 4 + 5 * 8  # the last record: name length and bytes, rank, shape, 5 float64s
        change(model.tensors)
        save_checkpoint(tmp_path / "m.flck", model)
        at = end if after_head_b2 else end - head_b2
        with pytest.raises(FormatError) as exc:
            load_checkpoint(tmp_path / "m.flck")
        assert str(exc.value) == f"{tmp_path / 'm.flck'}: {message} at byte {at}"


class TestFuzz:
    """Truncate, overwrite one byte, or extend: each read loads or raises a library error."""

    @FUZZ
    @given(data=st.data())
    def test_record_file(self, files, data):
        original = (files / "r.flvr").read_bytes()
        damaged = data.draw(mutations(original))
        loads_or_names_the_fault(load_records, files / "fuzz.flvr", damaged)

    @FUZZ
    @given(data=st.data())
    def test_codebook_file(self, files, data):
        original = (files / "c.flcb").read_bytes()
        damaged = data.draw(mutations(original))
        loads_or_names_the_fault(load_codebook, files / "fuzz.flcb", damaged)

    @FUZZ
    @given(data=st.data())
    def test_prediction_file(self, files, data):
        original = (files / "p.txt").read_bytes()
        damaged = data.draw(mutations(original))
        loads_or_names_the_fault(read_prediction_file, files / "fuzz.txt", damaged)

    @pytest.mark.parametrize("kind", ["video_level", "vlad_mlp", "temporal_resnet"])
    @FUZZ
    @given(data=st.data())
    def test_checkpoint_tensor_table(self, files, kind, data):
        original = (files / f"{kind}.flck").read_bytes()
        damaged = data.draw(mutations(original))
        loads_or_names_the_fault(load_checkpoint, files / f"fuzz_{kind}.flck", damaged)


# every u32 of the spec record after the kind string, in file order (the seed is an i64)
U32_SPEC_FIELDS = ("vocab_size", "visual_dim", "audio_dim", "hidden_size", "depth", "trb_count",
                   "trb_filters", "fc_sizes[0]", "fc_sizes[1]", "vlad_clusters")


def load_peak(path):
    """tracemalloc's peak over one ``load_checkpoint(path)``; a library error counts as a load."""
    def load():
        try:
            load_checkpoint(path)
        except VideoseqError:
            pass

    return traced_peak(load)


@pytest.mark.parametrize("field", U32_SPEC_FIELDS)
@pytest.mark.parametrize("kind", ["temporal_resnet", "ff_lstm", "vlad_mlp"])
def test_huge_spec_field_costs_no_more_memory_than_the_file(files, tmp_path, kind, field):
    data = bytearray((files / f"{kind}.flck").read_bytes())
    at = 8 + 2 + len(kind) + 4 * U32_SPEC_FIELDS.index(field)  # magic, version, kind string
    data[at : at + 4] = struct.pack("<I", 0xFFFFFFFF)
    path = tmp_path / "huge.flck"
    path.write_bytes(bytes(data))
    assert load_peak(path) < len(data) + 2**20


@pytest.mark.parametrize("kind, fields", [
    ("temporal_resnet", dict(visual_dim=64, audio_dim=16, trb_count=2, trb_filters=96)),
    ("vlad_mlp", dict(visual_dim=64, audio_dim=16, vlad_clusters=32, fc_sizes=(128, 5))),
    ("ff_lstm", dict(visual_dim=64, audio_dim=16, hidden_size=64, depth=3)),
])
def test_load_peak_is_close_to_the_file_size(tmp_path, kind, fields):
    path = tmp_path / f"{kind}.flck"
    save_checkpoint(path, build_model(ModelSpec(kind=kind, vocab_size=5, **fields)))
    size = os.path.getsize(path)
    assert size > 2**21
    assert load_peak(path) < 1.25 * size
