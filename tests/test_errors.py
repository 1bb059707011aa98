import dataclasses
from pathlib import Path

import numpy as np
import pytest

import videoseq
from videoseq import ConfigurationError, DimensionError, ModelSpec, Tensor, TimeMask, generate_synthetic
from videoseq.autodiff import batchnorm_time, concat, conv1d_same, linear, masked_mean_time
from videoseq.dataio import DatasetHeader, write_records
from videoseq.errors import ValidationError, check_each, check_int, check_real, check_shape
from videoseq.gradcheck import grad_check, toy_spec
from videoseq.metrics import PredictionSet, gap_at_k, topk_predictions
from videoseq.models import SPEC_FIELDS, build_model
from videoseq.recurrent import attention_pool, attention_table, cell_table, draw_table, run_bidirectional
from videoseq.training import TrainConfig, bce_loss, predict
from videoseq.vlad import Codebook, kmeans_fit, vlad_encode

_SPEC = dict(kind="video_level", vocab_size=5, visual_dim=3, audio_dim=1)


def _spec_field(name):
    def call(value, tmp_path):
        return ModelSpec(**{**_SPEC, name: (value, 5) if name == "fc_sizes" else value})
    return call


def _train_config(name):
    return lambda value, tmp_path: TrainConfig(model=ModelSpec(**_SPEC), **{name: value})


def _gen_data(name):
    sizes = dict(vocab_size=5, video_count=2, seed=0, visual_dim=3, audio_dim=1, max_frames=4)
    return lambda value, tmp_path: generate_synthetic(
        str(tmp_path / "d.bin"), **{"noise_sigma": 0.1, **sizes, name: value})


def _header(name):
    return lambda value, tmp_path: write_records(
        str(tmp_path / "d.bin"), DatasetHeader(**{"vocab_size": 3, name: value}), [])


def _predict(name):
    # the checkpoint does not exist: a setting read after it would end in an OSError
    return lambda value, tmp_path: predict(
        str(tmp_path / "none.ckpt"), str(tmp_path / "none.bin"), str(tmp_path / "p.txt"),
        **{name: value})


_U32 = 2**32 - 1
_FC0 = "fc_sizes[0]"  # the element of fc_sizes that _spec_field sets
# test id -> (the setting as messages name it, call, an out-of-range int, the bound it breaks)
_SURFACES = {
    **{f"ModelSpec.{name}": (_FC0 if name == "fc_sizes" else name, _spec_field(name), least - 1,
                             f">= {least}") for name, (_, least) in SPEC_FIELDS.items()},
    "ModelSpec.hidden_size_above_u32": ("hidden_size", _spec_field("hidden_size"), _U32 + 1,
                                        f"<= {_U32}"),
    **{f"TrainConfig.{name}": (name, _train_config(name), least - 1, f">= {least}")
       for name, least in (("batch_size", 1), ("epochs", 1), ("seed", 0))},
    **{f"generate_synthetic.{name}": (name, _gen_data(name), bad, bound) for name, bad, bound in (
        ("vocab_size", 2, ">= 3"), ("video_count", -1, ">= 0"), ("max_frames", 2**16, "<= 65535"),
        ("visual_dim", _U32 + 1, f"<= {_U32}"), ("audio_dim", -1, ">= 0"), ("seed", -1, ">= 0"),
        ("video_seed", -1, ">= 0"))},
    "grad_check.sample_count": ("sample_count", lambda v, _: grad_check(toy_spec("video_level"), sample_count=v),
                                0, ">= 1"),
    "grad_check.seed": ("seed", lambda v, _: grad_check(toy_spec("video_level"), seed=v), -1, ">= 0"),
    "predict.batch_size": ("batch_size", _predict("batch_size"), 0, ">= 1"),
    "predict.k": ("k", _predict("k"), 0, ">= 1"),
    "TimeMask.batch": ("TimeMask batch", lambda v, _: TimeMask(v, 3, [1]), 0, ">= 1"),
    "TimeMask.max_time": ("TimeMask max_time", lambda v, _: TimeMask(1, v, [1]), 0, ">= 1"),
    "gap_at_k.k": ("k", lambda v, _: gap_at_k(PredictionSet([], {}), k=v), 0, ">= 1"),
    "topk_predictions.k": ("k", lambda v, _: topk_predictions(np.zeros((1, 3)), v, ["a"]), 4, "<= 3"),
    # the ranges the record-file header packs its fields in, u64 for video_count and u32 for the rest
    **{f"DatasetHeader.{name}": (f"header {name}", _header(name), bad, bound) for name, bad, bound in (
        ("vocab_size", -1, ">= 0"), ("visual_dim", _U32 + 1, f"<= {_U32}"), ("audio_dim", -1, ">= 0"),
        ("max_frames", _U32 + 1, f"<= {_U32}"), ("video_count", 2**64, f"<= {2**64 - 1}"))},
}


@pytest.mark.parametrize("value", [2.5, True, "3", "out of range"])
@pytest.mark.parametrize("surface", _SURFACES)
def test_every_integer_setting_is_one_named_configuration_error(tmp_path, surface, value):
    name, call, bad, bound = _SURFACES[surface]
    if value == "out of range":
        value, message = bad, f"{name} must be {bound}, got {bad}"
    else:
        message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ConfigurationError) as exc:
        call(value, tmp_path)
    assert str(exc.value) == message
    assert list(tmp_path.iterdir()) == []  # refused before any file is read or written


# test id -> (the setting as messages name it, call, the bound a finite value must meet)
_REAL_SURFACES = {
    "TrainConfig.learning_rate": ("learning_rate", _train_config("learning_rate"), "> 0"),
    "TrainConfig.clip_norm": ("clip_norm", _train_config("clip_norm"), ">= 0"),
    "generate_synthetic.noise_sigma": ("noise_sigma", _gen_data("noise_sigma"), ">= 0"),
    "grad_check.tolerance": ("tolerance", lambda v, _: grad_check(toy_spec("video_level"), tolerance=v),
                             "> 0"),
}


@pytest.mark.parametrize("surface, value", [
    (surface, value) for surface in _REAL_SURFACES
    for value in ("0.5", None, True, float("nan"), float("inf"), -1.0)
    if not (surface == "TrainConfig.clip_norm" and value is None)  # None picks the depth rule
])
def test_every_float_setting_is_one_named_configuration_error(tmp_path, surface, value):
    name, call, bound = _REAL_SURFACES[surface]
    if isinstance(value, float):
        message = f"{name} must be finite and {bound}, got {value}"
    else:
        message = f"{name} must be a real number, got {value!r}"
    with pytest.raises(ConfigurationError) as exc:
        call(value, tmp_path)
    assert str(exc.value) == message
    assert list(tmp_path.iterdir()) == []


def test_check_real_returns_a_plain_float_and_reads_positive_as_strict():
    assert check_real("x", 0, positive=False) == 0.0
    assert type(check_real("x", np.float32(0.5), positive=True)) is float
    with pytest.raises(ConfigurationError, match=r"^x must be finite and > 0, got 0.0$"):
        check_real("x", 0, positive=True)
    with pytest.raises(ConfigurationError, match=r"^x must be finite and >= 0, got inf$"):
        check_real("x", 10**400, positive=False)  # float() of it overflows


@pytest.mark.parametrize("values, count, first, index", [
    (np.array(-1.0), 1, "-1.0", "()"),
    (np.array([0.5, -2.0, -3.0]), 2, "-2.0", "(1,)"),
    (np.array([[1.0, 2.0], [-0.5, 4.0]]), 1, "-0.5", "(1, 0)"),
])
def test_check_each_names_the_count_the_first_value_and_its_index(values, count, first, index):
    class Refused(Exception):
        pass

    message = f"values must be positive: {count} of {values.size} are not, the first {first} at index {index}"
    with pytest.raises(Refused) as exc:
        check_each("values must be positive", values > 0, values, Refused)
    assert str(exc.value) == message
    with pytest.raises(ValidationError) as exc:
        check_each("values must be positive", values > 0, values)
    assert str(exc.value) == message
    assert check_each("values must be positive", np.abs(values) > 0, values) is None


@pytest.mark.parametrize("value", [2.5, True, "3", None])
def test_an_integer_array_refuses_other_dtypes_by_name(value):
    lengths = np.array([value])  # float64, bool, <U1 and object
    with pytest.raises(ConfigurationError) as exc:
        TimeMask(1, 3, lengths)
    assert str(exc.value) == f"TimeMask valid_lengths must be integers, got dtype {lengths.dtype}"


def test_check_int_returns_a_plain_int_at_either_bound():
    assert check_int("n", np.int64(3), 3, 5) == 3 and type(check_int("n", np.int64(3), 3)) is int
    assert check_int("n", 5, 3, 5) == 5
    config = TrainConfig(model=ModelSpec(**_SPEC), batch_size=np.int64(4), epochs=np.int32(2))
    assert (type(config.batch_size), type(config.epochs)) == (int, int)


@pytest.mark.parametrize("make, name", [
    (lambda: DatasetHeader(vocab_size=3), "vocab_size"),
    (lambda: ModelSpec(**_SPEC), "hidden_size"),
    (lambda: TrainConfig(model=ModelSpec(**_SPEC)), "batch_size"),
], ids=["DatasetHeader", "ModelSpec", "TrainConfig"])
def test_a_checked_settings_object_cannot_be_changed_past_its_checks(make, name):
    # an assigned -1 or 0 would skip the rules and reach struct.pack or the training loop
    settings = make()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(settings, name, 0)
    assert getattr(settings, name) != 0


def test_no_module_but_errors_formats_an_integer_bound():
    package = Path(videoseq.__file__).parent
    offenders = [path.name for path in sorted(package.glob("*.py"))
                 if path.name != "errors.py"
                 and any(rule in path.read_text() for rule in ("must be >=", "must be <="))]
    assert offenders == []  # such a rule belongs in errors.check_int


def test_no_module_but_errors_scans_an_array_for_offenders():
    package = Path(videoseq.__file__).parent
    offenders = [path.name for path in sorted(package.glob("*.py"))
                 if path.name != "errors.py" and "argwhere" in path.read_text()]
    assert offenders == []  # such a scan belongs in errors.check_each


def test_no_module_but_errors_raises_a_dimension_error_by_hand():
    package = Path(videoseq.__file__).parent
    raises = [(path.name, line.strip()) for path in sorted(package.glob("*.py")) if path.name != "errors.py"
              for line in path.read_text().splitlines() if "raise DimensionError" in line]
    assert raises == [  # neither is a shape: every shape check belongs in errors.check_shape
        ("autodiff.py", 'raise DimensionError("concat of an empty list")'),
        ("recurrent.py", 'raise DimensionError(f"run_bidirectional: {prefix}.fwd and {prefix}.bwd '
                         'differ in kind or width")'),
    ]


def test_check_shape_returns_the_shape_and_names_the_rank_it_expects():
    assert check_shape("x", np.zeros((4, 3)).shape, (None, 3)) == (4, 3)
    for shape in ((4, 2), (4, 3, 1), (3,)):
        with pytest.raises(DimensionError) as exc:
            check_shape("x", shape, (None, 3))
        assert str(exc.value) == f"x has shape {shape}, expected [* x 3]"


def _zeros(*shape):
    return Tensor(np.zeros(shape))


def _batchnorm(gamma, beta):
    return batchnorm_time({"bn.gamma": _zeros(gamma), "bn.beta": _zeros(beta), "bn.running_mean": _zeros(2),
                           "bn.running_var": _zeros(2), "bn.initialized": _zeros(1)},
                          "bn", _zeros(2, 2, 4), _MASK, True)


def _attention(h, score):
    table = draw_table(attention_table("attn", 3, 2), np.random.default_rng(0))
    table["attn.score_vector"] = _zeros(score)
    return attention_pool(table, "attn", _zeros(*h), _MASK)


def _forward(visual, audio):
    return build_model(ModelSpec(**_SPEC)).forward(_zeros(*visual), _zeros(*audio), _MASK)


_MASK = TimeMask(2, 4, np.array([4, 1]))
_CELLS = [*cell_table("bi.fwd", "lstm", 3, 2), *cell_table("bi.bwd", "lstm", 3, 2)]
_VLAD = ModelSpec(**{**_SPEC, "kind": "vlad_mlp", "vlad_clusters": 2})
# test id -> (a call with one malformed operand, the DimensionError it raises)
_SHAPE_SURFACES = {
    "linear": (lambda: linear(_zeros(2, 3), _zeros(4, 3), _zeros(3)), "linear b has shape (3,), expected [4]"),
    "concat": (lambda: concat([_zeros(1, 2, 3), _zeros(2, 2, 3)]),
               "concat input 1 has shape (2, 2, 3), expected [1 x * x 3]"),
    "TimeMask.valid_lengths": (lambda: TimeMask(2, 4, np.array([1, 2, 3])),
                               "TimeMask valid_lengths has shape (3,), expected [2]"),
    "TimeMask.check": (lambda: _MASK.check(_zeros(2, 3, 4), "x", 5), "x has shape (2, 3, 4), expected [2 x 5 x 4]"),
    "masked_mean_time": (lambda: masked_mean_time(_zeros(2, 4), _MASK),
                         "masked_mean_time has shape (2, 4), expected [2 x * x 4]"),
    "conv1d_same.x": (lambda: conv1d_same(_zeros(2, 4), _zeros(3, 2, 1), _zeros(3)),
                      "conv1d_same x has shape (2, 4), expected [* x * x *]"),
    "conv1d_same.kernels": (lambda: conv1d_same(_zeros(2, 2, 4), _zeros(3, 5, 1), _zeros(3)),
                            "conv1d_same kernels has shape (3, 5, 1), expected [* x 2 x *]"),
    "conv1d_same.bias": (lambda: conv1d_same(_zeros(2, 2, 4), _zeros(3, 2, 1), _zeros(2)),
                         "conv1d_same bias has shape (2,), expected [3]"),
    "batchnorm_time.gamma": (lambda: _batchnorm(3, 2), "bn.gamma has shape (3,), expected [2]"),
    "batchnorm_time.beta": (lambda: _batchnorm(2, 3), "bn.beta has shape (3,), expected [2]"),
    "forward.visual": (lambda: _forward((2, 1, 4), (2, 1, 4)),
                       "forward (visual) has shape (2, 1, 4), expected [2 x 3 x 4]"),
    "forward.audio": (lambda: _forward((2, 3, 4), (2, 1, 5)),
                      "forward (audio) has shape (2, 1, 5), expected [2 x 1 x 4]"),
    "set_codebook": (lambda: build_model(_VLAD).set_codebook(Codebook(np.zeros((3, 4)))),
                     "codebook centers has shape (3, 4), expected [2 x 4]"),
    "run_bidirectional.cell": (
        lambda: run_bidirectional(draw_table(_CELLS, np.random.default_rng(0)), "bi", _zeros(2, 4, 4), _MASK),
        "bi.fwd input has shape (2, 4, 4), expected [* x 3 x *]"),
    "attention_pool.h": (lambda: _attention((2, 4, 4), 2), "attention_pool has shape (2, 4, 4), expected [2 x 3 x 4]"),
    "attention_pool.score_vector": (lambda: _attention((2, 3, 4), 3), "attn.score_vector has shape (3,), expected [2]"),
    "bce_loss": (lambda: bce_loss(Tensor(np.full((2, 3), 0.5)), np.zeros((2, 4))),
                 "targets has shape (2, 4), expected [2 x 3]"),
    "Codebook": (lambda: Codebook(np.zeros(4)), "codebook centers has shape (4,), expected [* x *]"),
    "kmeans_fit": (lambda: kmeans_fit(np.zeros(4), 1), "kmeans_fit samples has shape (4,), expected [* x *]"),
    "vlad_encode": (lambda: vlad_encode(Codebook(np.zeros((2, 3))), np.zeros((5, 4))),
                    "vlad_encode frames has shape (5, 4), expected [* x 3]"),
    "topk_predictions.rank": (lambda: topk_predictions(np.zeros(3), 1, ["a"]),
                              "probabilities (a row per video id) has shape (3,), expected [1 x *]"),
    "topk_predictions.ids": (lambda: topk_predictions(np.zeros((1, 3)), 1, ["a", "b"]),
                             "probabilities (a row per video id) has shape (1, 3), expected [2 x *]"),
}


@pytest.mark.parametrize("surface", _SHAPE_SURFACES)
def test_every_shape_check_is_one_named_dimension_error(surface):
    call, message = _SHAPE_SURFACES[surface]
    with pytest.raises(DimensionError) as exc:
        call()
    assert str(exc.value) == message
