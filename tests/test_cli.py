import inspect
import re
import subprocess
import sys

import pytest

from videoseq import ConfigurationError, ModelSpec, build_model, cli, save_checkpoint
from videoseq.cli import _build_parser, main, parse_train_config
from videoseq.dataio import generate_synthetic
from videoseq.gradcheck import grad_check, toy_spec
from videoseq.models import MODEL_KINDS
from videoseq.training import TrainConfig, ensemble_average, evaluate, predict


@pytest.fixture()
def workdir(tmp_path):
    data = tmp_path / "data.bin"
    rc = main([
        "gen-data", "--vocab", "6", "--videos", "16", "--seed", "3",
        "--noise", "0.3", "--out", str(data),
        "--max-frames", "8", "--visual-dim", "6", "--audio-dim", "3",
    ])
    assert rc == 0
    config = tmp_path / "train.cfg"
    config.write_text(
        "# tiny run\n"
        "config_version = 1\n"
        "model.kind = video_level\n"
        "model.vocab_size = 6\n"
        "model.visual_dim = 6\n"
        "model.audio_dim = 3\n"
        "model.fc_sizes = 8,6\n"
        "model.seed = 1\n"
        "learning_rate = 0.01\n"
        "batch_size = 8\n"
        "epochs = 2\n"
        "seed = 2\n"
    )
    return tmp_path, data, config


def test_gen_data_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a.bin", tmp_path / "b.bin"
    args = ["gen-data", "--vocab", "4", "--videos", "10", "--seed", "9",
            "--noise", "0.2", "--max-frames", "6", "--visual-dim", "4",
            "--audio-dim", "2"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_train_predict_eval_pipeline(workdir, capsys):
    tmp_path, data, config = workdir
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--config", str(config), "--data", str(data), "--out", str(ckpt)]) == 0
    assert ckpt.exists()
    assert (tmp_path / "model.ckpt.log").exists()

    preds = tmp_path / "preds.txt"
    assert main(["predict", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(preds)]) == 0

    capsys.readouterr()
    assert main(["eval", "--predictions", str(preds), "--data", str(data)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("gap@20 ")


def test_ensemble_of_full_scores(workdir):
    tmp_path, data, config = workdir
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--config", str(config), "--data", str(data), "--out", str(ckpt)]) == 0
    full = tmp_path / "full.txt"
    assert main(["predict", "--checkpoint", str(ckpt), "--data", str(data),
                 "--out", str(full), "--full-scores"]) == 0
    merged = tmp_path / "merged.txt"
    assert main(["ensemble", "--inputs", str(full), str(full), "--out", str(merged)]) == 0
    assert full.read_bytes() == merged.read_bytes()


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--model", "video_level", "--samples", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "head.w1" in out


def test_error_is_one_line_machine_parsable(tmp_path, capsys):
    rc = main(["eval", "--predictions", str(tmp_path / "missing.txt"),
               "--data", str(tmp_path / "missing.bin")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_out_of_memory_keeps_the_one_line_error(tmp_path, capsys, monkeypatch):
    import videoseq.cli

    def exhausted(*args, **kwargs):
        raise MemoryError("cannot allocate 894 GiB")

    monkeypatch.setattr(videoseq.cli, "evaluate", exhausted)
    rc = main(["eval", "--predictions", str(tmp_path / "p.txt"), "--data", str(tmp_path / "d.bin")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: MemoryError: cannot allocate 894 GiB\n"


def _one_line_error(capsys, rc):
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigurationError: ")
    assert err.count("\n") == 1
    return err


@pytest.mark.parametrize("line", ["model.hidden_size = 0", "model.fc_sizes = 0,6"])
def test_zero_width_config_is_a_one_line_error(workdir, capsys, line):
    tmp_path, data, config = workdir
    text = config.read_text().replace("video_level", "two_stream_lstm")
    config.write_text(text.replace("model.fc_sizes = 8,6", line))
    rc = main(["train", "--config", str(config), "--data", str(data),
               "--out", str(tmp_path / "m.ckpt")])
    _one_line_error(capsys, rc)


@pytest.mark.parametrize(
    "line, message",
    [
        ("learning_rate = nan", "learning_rate must be finite and > 0, got nan"),
        ("learning_rate = inf", "learning_rate must be finite and > 0, got inf"),
        ("learning_rate = 1e400", "learning_rate must be finite and > 0, got inf"),
        ("clip_norm = nan", "clip_norm must be finite and >= 0, got nan"),
        ("clip_norm = -1", "clip_norm must be finite and >= 0, got -1.0"),
    ],
)
def test_bad_learning_rate_or_clip_norm_names_field_and_value(workdir, capsys, line, message):
    tmp_path, data, config = workdir
    key = line.split(" =")[0]
    text = "".join(l for l in config.read_text().splitlines(True) if not l.startswith(key))
    config.write_text(text + line + "\n")
    ckpt = tmp_path / "m.ckpt"
    rc = main(["train", "--config", str(config), "--data", str(data), "--out", str(ckpt)])
    assert _one_line_error(capsys, rc) == f"error: ConfigurationError: {config}: {message}\n"
    assert not ckpt.exists()


def test_zero_width_checkpoint_is_a_one_line_error(workdir, capsys):
    tmp_path, data, _ = workdir
    spec = ModelSpec(kind="two_stream_lstm", vocab_size=6, visual_dim=6, audio_dim=3,
                     hidden_size=4, fc_sizes=(8, 6))
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(str(ckpt), build_model(spec))
    raw = bytearray(ckpt.read_bytes())
    at = 8 + 2 + len(spec.kind) + 12  # magic, version, kind string, three dims
    assert raw[at:at + 4] == (4).to_bytes(4, "little")
    raw[at:at + 4] = bytes(4)  # hidden_size = 0
    ckpt.write_bytes(bytes(raw))
    rc = main(["predict", "--checkpoint", str(ckpt), "--data", str(data),
               "--out", str(tmp_path / "p.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: FormatError: {ckpt}: spec at byte {at}: hidden_size must be >= 1, got 0\n"


@pytest.mark.parametrize("batch_size", ["-1", "0"])
def test_predict_batch_size_below_one_names_option_and_value(workdir, capsys, batch_size):
    tmp_path, data, _ = workdir
    spec = ModelSpec(kind="video_level", vocab_size=6, visual_dim=6, audio_dim=3, fc_sizes=(8, 6))
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(str(ckpt), build_model(spec))
    out = tmp_path / "p.txt"
    rc = main(["predict", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out),
               "--batch-size", batch_size])
    err = _one_line_error(capsys, rc)
    assert f"batch_size must be >= 1, got {batch_size}" in err
    assert not out.exists()


def test_predict_k_below_one_is_refused_before_any_file_is_read(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    rc = main(["predict", "--checkpoint", missing, "--data", missing, "--out", missing, "--k", "0"])
    assert _one_line_error(capsys, rc) == "error: ConfigurationError: k must be >= 1, got 0\n"


@pytest.mark.parametrize("option, value, message", [
    ("--vocab", "1", "vocab_size must be >= 3, got 1"),
    # a video draws up to 3 distinct labels; vocab 2 used to crash inside numpy's choice
    ("--vocab", "2", "vocab_size must be >= 3, got 2"),
    ("--vocab", "4294967296", "vocab_size must be <= 4294967295, got 4294967296"),
    ("--videos", "-1", "video_count must be >= 0, got -1"),
    ("--max-frames", "0", "max_frames must be >= 1, got 0"),
    ("--max-frames", "65536", "max_frames must be <= 65535, got 65536"),
    ("--max-frames", "4294967297", "max_frames must be <= 65535, got 4294967297"),
    ("--visual-dim", "4294967296", "visual_dim must be <= 4294967295, got 4294967296"),
    ("--audio-dim", "4294967296", "audio_dim must be <= 4294967295, got 4294967296"),
    ("--visual-dim", "-5", "visual_dim must be >= 0, got -5"),
    ("--audio-dim", "-1", "audio_dim must be >= 0, got -1"),
    ("--visual-dim", "0", "visual_dim + audio_dim must be >= 1, got 0"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
    ("--video-seed", "-3", "video_seed must be >= 0, got -3"),
    ("--noise", "nan", "noise_sigma must be finite and >= 0, got nan"),
    ("--noise", "inf", "noise_sigma must be finite and >= 0, got inf"),
    ("--noise", "-0.5", "noise_sigma must be finite and >= 0, got -0.5"),
], ids=["vocab", "vocab_2", "vocab_above_u32", "videos", "max_frames", "max_frames_above_u16",
        "max_frames_above_u32", "visual_dim_above_u32", "audio_dim_above_u32", "visual_dim",
        "audio_dim", "no_features", "seed", "video_seed", "noise_nan", "noise_inf",
        "noise_negative"])
def test_gen_data_bad_size_names_argument_and_value(tmp_path, capsys, option, value, message):
    out = tmp_path / "d.bin"
    args = {"--vocab": "3", "--videos": "4", "--max-frames": "8", "--visual-dim": "3", "--audio-dim": "0"}
    args[option] = value
    rc = main(["gen-data", "--out", str(out), *(a for kv in args.items() for a in kv)])
    assert _one_line_error(capsys, rc) == f"error: ConfigurationError: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("args, setting", [
    (["gen-data", "--out", "d.bin", "--vocab"], "vocab_size"),
    (["gen-data", "--out", "d.bin", "--videos"], "video_count"),
    (["gen-data", "--out", "d.bin", "--seed"], "seed"),
    (["gen-data", "--out", "d.bin", "--max-frames"], "max_frames"),
    (["gen-data", "--out", "d.bin", "--visual-dim"], "visual_dim"),
    (["gen-data", "--out", "d.bin", "--audio-dim"], "audio_dim"),
    (["gen-data", "--out", "d.bin", "--video-seed"], "video_seed"),
    (["predict", "--checkpoint", "c", "--data", "d", "--out", "p", "--k"], "k"),
    (["predict", "--checkpoint", "c", "--data", "d", "--out", "p", "--batch-size"], "batch_size"),
    (["gradcheck", "--model", "video_level", "--seed"], "seed"),
    (["gradcheck", "--model", "video_level", "--samples"], "sample_count"),
])
def test_non_integer_option_is_a_one_line_error(tmp_path, monkeypatch, capsys, args, setting):
    # argparse's own int() would print its usage block and exit 2
    monkeypatch.chdir(tmp_path)
    rc = main([*args, "2.5"])
    assert _one_line_error(capsys, rc) == f"error: ConfigurationError: {setting} must be an integer, got 2.5\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, message", [
    (["gen-data", "--out", "x.bin", "--noise", "abc"], "noise_sigma must be a real number, got 'abc'"),
    (["gradcheck", "--model", "video_level", "--tolerance", "abc"],
     "tolerance must be a real number, got 'abc'"),
    (["ensemble", "--inputs", "a", "b", "--weights", "1", "x", "--out", "e"],
     "ensemble weight must be a real number, got 'x'"),
], ids=["float_option", "gradcheck_tolerance", "ensemble_weights"])
def test_non_real_option_is_a_one_line_error(tmp_path, monkeypatch, capsys, args, message):
    # the library's check_real names the setting, as for the same value given to it directly
    monkeypatch.chdir(tmp_path)
    assert _one_line_error(capsys, main(args)) == f"error: ConfigurationError: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_a_bad_number_reads_the_same_from_an_option_a_config_key_and_the_library(workdir, capsys):
    tmp_path, data, config = workdir
    with pytest.raises(ConfigurationError) as exc:
        ModelSpec("video_level", vocab_size=2.5)
    assert str(exc.value) == "vocab_size must be an integer, got 2.5"
    rc = main(["gen-data", "--out", str(tmp_path / "d.bin"), "--vocab", "2.5"])
    assert _one_line_error(capsys, rc) == f"error: ConfigurationError: {exc.value}\n"
    config.write_text(config.read_text().replace("model.vocab_size = 6", "model.vocab_size = 2.5"))
    rc = main(["train", "--config", str(config), "--data", str(data), "--out", str(tmp_path / "m.ckpt")])
    assert _one_line_error(capsys, rc) == f"error: ConfigurationError: {config}: model.{exc.value}\n"


@pytest.mark.parametrize("args", [
    ["gradcheck", "--model", "bogus"],
    ["gen-data"],
], ids=["unknown_choice", "missing_required"])
def test_argument_parsing_error_is_a_one_line_error(tmp_path, monkeypatch, capsys, args):
    # argparse's own error() would print its usage block and exit 2
    monkeypatch.chdir(tmp_path)
    err = _one_line_error(capsys, main(args))
    assert err.startswith(f"error: ConfigurationError: videoseq {args[0]}: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["gen-data", "train", "predict", "eval", "ensemble", "gradcheck"])
def test_help_still_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: videoseq {command}")


# every option of each command, then only its required ones
_COMMAND_LINES = {
    "gen-data": (["--vocab", "4", "--videos", "5", "--seed", "1", "--noise", "0.1", "--out", "d.bin",
                  "--max-frames", "8", "--visual-dim", "3", "--audio-dim", "2", "--video-seed", "2"],
                 ["--out", "d.bin"]),
    "train": (["--config", "t.cfg", "--data", "d.bin", "--val", "v.bin", "--out", "m.ckpt"],
              ["--config", "t.cfg"]),
    "predict": (["--checkpoint", "m.ckpt", "--data", "d.bin", "--out", "p.txt", "--k", "3",
                 "--full-scores", "--batch-size", "4"],
                ["--checkpoint", "m.ckpt", "--data", "d.bin", "--out", "p.txt"]),
    "eval": (["--predictions", "p.txt", "--data", "d.bin"], ["--predictions", "p.txt", "--data", "d.bin"]),
    "ensemble": (["--inputs", "a.txt", "b.txt", "--weights", "1", "2", "--out", "e.txt", "--full-scores"],
                 ["--inputs", "a.txt", "b.txt", "--out", "e.txt"]),
    "gradcheck": (["--model", "video_level", "--tolerance", "1e-3", "--seed", "1", "--samples", "2"],
                  ["--model", "video_level"]),
}
_CLI_DEFAULTS = {  # the only defaults the parser states; every other one is the library's
    "gen-data": {"vocab_size": 25, "video_count": 2000, "seed": 0, "noise_sigma": 0.5},
    "gradcheck": {"seed": 0},
}


def _bind_to_library(command, options):
    """Bind ``options`` to the calls ``cli._run`` makes; a name they do not take raises TypeError."""
    options = dict(options)
    if command == "train":
        inspect.signature(parse_train_config).bind(options.pop("path"))
        inspect.signature(TrainConfig).bind(model=None, **options)
    elif command == "gradcheck":
        inspect.signature(toy_spec).bind(options.pop("kind"), seed=options["seed"])
        inspect.signature(grad_check).bind(None, **options)
    else:
        call = {"gen-data": generate_synthetic, "predict": predict, "eval": evaluate,
                "ensemble": ensemble_average}[command]
        inspect.signature(call).bind(**options)


@pytest.mark.parametrize("command", _COMMAND_LINES)
def test_every_option_passes_to_the_library_keyword_it_names(command):
    # a dest that is not the keyword would escape main() as a TypeError traceback
    parser = _build_parser()
    every, required = _COMMAND_LINES[command]
    subparser = next(a for a in parser._actions if a.choices).choices[command]
    options = vars(parser.parse_args([command, *every]))
    assert options.pop("command") == command
    assert set(options) == {a.dest for a in subparser._actions} - {"help"}
    _bind_to_library(command, options)

    options = vars(parser.parse_args([command, *required]))
    del options["command"]
    required_dests = {a.dest for a in subparser._actions if a.required}
    assert {k: v for k, v in options.items() if k not in required_dests} == _CLI_DEFAULTS.get(command, {})
    _bind_to_library(command, options)


def test_no_option_parses_with_bare_int():
    """A ``type=int`` option would answer '2.5' with argparse's usage block and exit 2."""
    subcommands = next(a for a in _build_parser()._actions if a.choices).choices.values()
    assert all(a.type is not int for p in subcommands for a in p._actions)


def test_number_is_the_cli_s_one_text_to_number_step():
    """Every numeric option and config value goes through ``_number``; a second parser would
    word a bad value its own way instead of leaving it to the library's rules."""
    source = inspect.getsource(cli)
    assert not re.search(r"\b(int|float)\(", source.replace(inspect.getsource(cli._number), ""))
    subcommands = next(a for a in _build_parser()._actions if a.choices).choices.values()
    assert {a.type for p in subcommands for a in p._actions} == {None, cli._number}


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_gradcheck_samples_below_one_names_option_and_value(capsys, samples):
    rc = main(["gradcheck", "--model", "video_level", "--samples", samples])
    err = _one_line_error(capsys, rc)
    assert err == f"error: ConfigurationError: sample_count must be >= 1, got {samples}\n"


@pytest.mark.parametrize("tolerance", ["inf", "nan", "-1", "0"])
def test_gradcheck_tolerance_not_finite_and_positive_names_value(capsys, tolerance):
    # inf would pass every block and nan or <= 0 fail every block: neither checks anything
    rc = main(["gradcheck", "--model", "video_level", "--tolerance", tolerance])
    err = _one_line_error(capsys, rc)
    assert err == f"error: ConfigurationError: tolerance must be finite and > 0, got {float(tolerance)}\n"


@pytest.mark.parametrize("line, message", [
    ("model.seed = -1", "seed must be >= 0, got -1"),
    ("seed = -2", "seed must be >= 0, got -2"),
    ("batch_size = 0", "batch_size must be >= 1, got 0"),
    ("epochs = -1", "epochs must be >= 1, got -1"),
    # values the checkpoint's spec record cannot hold, caught before training starts
    ("model.seed = 9223372036854775808", "seed must be <= 9223372036854775807, got 9223372036854775808"),
    ("model.hidden_size = 4294967296", "hidden_size must be <= 4294967295, got 4294967296"),
    ("model.visual_dim = -4", "visual_dim must be >= 0, got -4"),
    ("model.fc_sizes = 8", "fc_sizes must hold 2 integers, got 1"),
    # a rule that joins fields names each as its key; the value given stays as given
    ("model.fc_sizes = 8,7", "fc_sizes[1] must equal model.vocab_size 6, got 7"),
    ("model.kind = seed", f"kind must be one of {MODEL_KINDS}, got 'seed'"),
    ("batch_size = 2.5", "batch_size must be an integer, got 2.5"),
])
def test_bad_seed_batch_size_or_epochs_names_field_and_value(workdir, capsys, line, message):
    tmp_path, data, config = workdir
    key = line.split(" =")[0]
    text = "".join(l for l in config.read_text().splitlines(True) if not l.startswith(key + " "))
    config.write_text(text + line + "\n")
    ckpt = tmp_path / "m.ckpt"
    rc = main(["train", "--config", str(config), "--data", str(data), "--out", str(ckpt)])
    namespace = "model." if key.startswith("model.") else ""
    assert _one_line_error(capsys, rc) == f"error: ConfigurationError: {config}: {namespace}{message}\n"
    assert not ckpt.exists()
    assert not (tmp_path / "m.ckpt.log").exists()


def test_gradcheck_negative_seed_names_value(capsys):
    rc = main(["gradcheck", "--model", "video_level", "--seed", "-1"])
    assert _one_line_error(capsys, rc) == "error: ConfigurationError: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("empty", ["--data", "--val"])
def test_train_on_a_record_file_without_videos_is_a_one_line_error(workdir, capsys, empty):
    tmp_path, data, config = workdir
    none = tmp_path / "none.bin"
    assert main(["gen-data", "--vocab", "6", "--videos", "0", "--out", str(none),
                 "--max-frames", "8", "--visual-dim", "6", "--audio-dim", "3"]) == 0
    paths = {"--data": data, "--val": data, empty: none}
    rc = main(["train", "--config", str(config), "--out", str(tmp_path / "m.ckpt"),
               *(arg for option, path in paths.items() for arg in (option, str(path)))])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: InputError: {none}: record file holds no videos to train or validate on\n"


@pytest.mark.parametrize("line, message", [
    ("model.vocab_size = abc", "ConfigurationError: {}: model.vocab_size must be an integer, got 'abc'"),
    ("learning_rate = fast", "ConfigurationError: {}: learning_rate must be a real number, got 'fast'"),
    ("config_version = x", "FormatError: {}: unsupported config_version x"),
], ids=["model_vocab_size", "learning_rate", "config_version"])
def test_config_value_that_does_not_cast_names_file_key_and_value(workdir, capsys, line, message):
    tmp_path, data, config = workdir
    name = line.split(" =")[0]
    lines = [ln for ln in config.read_text().splitlines() if not ln.startswith(name + " ")]
    config.write_text("\n".join(lines + [line]) + "\n")
    rc = main(["train", "--config", str(config), "--data", str(data),
               "--out", str(tmp_path / "m.ckpt")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message.format(config)}\n"


def test_config_line_that_is_not_utf8_names_file_and_line(workdir, capsys):
    tmp_path, data, config = workdir
    config.write_bytes(config.read_bytes() + b"train_data = \xff.bin\n")
    rc = main(["train", "--config", str(config), "--data", str(data),
               "--out", str(tmp_path / "m.ckpt")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: FormatError: {config}:13: line is not UTF-8\n"


def test_config_parser_rejects_unknown_keys(tmp_path):
    from videoseq import ConfigurationError

    cfg = tmp_path / "bad.cfg"
    cfg.write_text("config_version = 1\nmodel.kind = video_level\n"
                   "model.vocab_size = 5\nturbo = yes\n")
    with pytest.raises(ConfigurationError, match="turbo"):
        parse_train_config(str(cfg))


def test_every_train_config_field_is_a_config_key():
    """A field added to TrainConfig must be added to the parser's table too. ``model`` and
    ``clip_norm`` are parsed on their own; a number's text goes through ``_number``."""
    import dataclasses

    from videoseq.training import TrainConfig

    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    assert set(cli._TRAIN_FIELDS) == fields - {"model", "clip_norm"}
    assert cli._TRAIN_FIELDS == {
        "learning_rate": cli._number, "batch_size": cli._number, "epochs": cli._number,
        "seed": cli._number, "train_data": str, "val_data": str, "checkpoint_path": str, "log_path": str,
    }


def test_config_parser_requires_version(tmp_path):
    from videoseq import FormatError

    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model.kind = video_level\nmodel.vocab_size = 5\n")
    with pytest.raises(FormatError):
        parse_train_config(str(cfg))


def test_config_roundtrip_values(tmp_path):
    cfg = tmp_path / "full.cfg"
    cfg.write_text(
        "config_version = 1\n"
        "model.kind = ff_gru\n"
        "model.vocab_size = 9\n"
        "model.hidden_size = 5\n"
        "model.depth = 4\n"
        "model.fc_sizes = 7,9\n"
        "learning_rate = 0.25\n"
        "clip_norm = none\n"
        "epochs = 3\n"
    )
    config = parse_train_config(str(cfg))
    assert config.model.kind == "ff_gru"
    assert config.model.depth == 4
    assert config.learning_rate == 0.25
    assert config.clip_norm is None
    assert config.resolved_clip_norm() == 5.0  # depth >= 4 rule


def test_config_without_fc_sizes_defaults_them_from_vocab_size(tmp_path):
    # the README's example config: single-valued keys, no model.fc_sizes
    cfg = tmp_path / "readme.cfg"
    cfg.write_text("config_version = 1\nmodel.kind = two_stream_gru\nmodel.vocab_size = 8\n"
                   "model.hidden_size = 64\nlearning_rate = 0.008\nbatch_size = 16\nepochs = 15\nseed = 2\n")
    spec = parse_train_config(str(cfg)).model
    assert (spec.vocab_size, spec.hidden_size, spec.fc_sizes) == (8, 64, (512, 8))


def test_console_entry_point(tmp_path):
    out = tmp_path / "c.bin"
    result = subprocess.run(
        [sys.executable, "-m", "videoseq.cli", "gen-data", "--vocab", "3",
         "--videos", "2", "--out", str(out), "--max-frames", "4",
         "--visual-dim", "2", "--audio-dim", "1"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert out.exists()
