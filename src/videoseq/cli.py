"""Command-line interface: gen-data, train, predict, eval, ensemble, gradcheck.

Exit code 0 on success; on failure a single machine-parsable line
``error: <Type>: <message>`` goes to stderr and the exit code is nonzero.
Each option's ``dest`` is the keyword of the library call it feeds; an option left out
is not passed on, so the library's own default applies. The parser keeps only defaults
the library lacks (gen-data's --vocab, --videos, --seed, --noise) and gradcheck's --seed.
A train config's ``model.*`` keys are the names in ``models.SPEC_FIELDS``. Every number
given as an option or a config value passes through ``_number`` and is checked by the library,
so a bad one reads the same either way; a config adds its file name and the ``model.`` prefix.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
import sys
import typing

from . import container
from .dataio import generate_synthetic
from .errors import ConfigurationError, FormatError, VideoseqError
from .gradcheck import grad_check, toy_spec
from .models import MODEL_KINDS, SPEC_FIELDS, ModelSpec
from .training import TrainConfig, ensemble_average, evaluate, predict, train

CONFIG_VERSION = 1
_SPEC_NAME = re.compile(rf"\b({'|'.join(['kind', *SPEC_FIELDS])})\b")


def _number(text: str):
    """``int(text)``, or else ``float(text)``, or else the text itself, which the library's
    rules (``errors.check_int``, ``errors.check_real``) then refuse in one named line."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


_TRAIN_FIELDS = {  # each TrainConfig key but these two: a number's text goes through _number
    name: _number if hint in (int, float) else str
    for name, hint in typing.get_type_hints(TrainConfig).items() if name not in ("model", "clip_norm")
}


def parse_train_config(path: str) -> TrainConfig:
    """Versioned key/value text file, one `key = value` per line.

    Model fields are namespaced as ``model.<field>``, one key per
    ``SPEC_FIELDS`` entry; a field that packs several values takes them
    comma-separated. ``clip_norm`` accepts ``none``. Errors name the file and each key.
    """
    entries = {}
    for line_no, line in container.text_lines(path):
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise FormatError(f"{path}:{line_no}: duplicate key {key!r}")
        entries[key] = value
    version = entries.pop("config_version", None)
    if version is None:
        raise FormatError(f"{path}: missing config_version")
    if _number(version) != CONFIG_VERSION:
        raise FormatError(f"{path}: unsupported config_version {version}")
    if "model.kind" not in entries or "model.vocab_size" not in entries:
        raise ConfigurationError(f"{path}: model.kind and model.vocab_size are required")

    spec_kwargs = {name: [_number(v) for v in entries.pop(f"model.{name}").split(",")]
                   for name in SPEC_FIELDS if f"model.{name}" in entries}  # _field_value counts them
    spec_kwargs["kind"] = entries.pop("model.kind")
    config_kwargs = {key: cast(entries.pop(key)) for key, cast in _TRAIN_FIELDS.items() if key in entries}
    raw = entries.pop("clip_norm", "none")
    if raw.lower() != "none":
        config_kwargs["clip_norm"] = _number(raw)
    if entries:
        raise ConfigurationError(f"{path}: unknown keys {sorted(entries)}")
    try:
        spec = ModelSpec(**spec_kwargs)
    except ConfigurationError as exc:  # each field the rule names becomes its key, not the value after "got"
        rule, got, value = str(exc).rpartition(", got ")
        rule = _SPEC_NAME.sub(r"model.\g<0>", rule)
        raise ConfigurationError(f"{path}: {rule}{got}{value}") from None
    try:
        return TrainConfig(model=spec, **config_kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ConfigurationError (one ``error:`` line), not usage and exit 2."""

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="videoseq",
        description="Train and evaluate temporal aggregation models on "
        "frame-level video features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    gen = add("gen-data", help="write a seeded synthetic record file")
    gen.add_argument("--vocab", dest="vocab_size", type=_number, default=25)
    gen.add_argument("--videos", dest="video_count", type=_number, default=2000)
    gen.add_argument("--seed", type=_number, default=0)
    gen.add_argument("--noise", dest="noise_sigma", type=_number, default=0.5)
    gen.add_argument("--out", dest="path", required=True)
    gen.add_argument("--max-frames", type=_number)
    gen.add_argument("--visual-dim", type=_number)
    gen.add_argument("--audio-dim", type=_number)
    gen.add_argument("--video-seed", type=_number,
                     help="separate stream for per-video draws; same --seed "
                     "plus a different --video-seed yields a matched "
                     "validation split (shared class prototypes)")

    tr = add("train", help="train a model from a config file")
    tr.add_argument("--config", dest="path", required=True)
    tr.add_argument("--data", dest="train_data", help="override train_data from the config")
    tr.add_argument("--val", dest="val_data", help="override val_data from the config")
    tr.add_argument("--out", dest="checkpoint_path", help="override checkpoint_path from the config")

    pr = add("predict", help="write predictions from a checkpoint")
    pr.add_argument("--checkpoint", dest="checkpoint_path", required=True)
    pr.add_argument("--data", dest="data_path", required=True)
    pr.add_argument("--out", dest="out_path", required=True)
    pr.add_argument("--k", type=_number)
    pr.add_argument("--full-scores", action="store_true",
                    help="emit every class score (input format for ensembling)")
    pr.add_argument("--batch-size", type=_number)

    ev = add("eval", help="GAP@20 of a prediction file against a record file")
    ev.add_argument("--predictions", dest="prediction_path", required=True)
    ev.add_argument("--data", dest="data_path", required=True)

    en = add("ensemble", help="weighted average of full-score prediction files")
    en.add_argument("--inputs", dest="input_paths", nargs="+", required=True)
    en.add_argument("--weights", nargs="+", type=_number)
    en.add_argument("--out", dest="out_path", required=True)
    en.add_argument("--full-scores", action="store_true")

    gc = add("gradcheck", help="finite-difference check of a model kind")
    gc.add_argument("--model", dest="kind", required=True, choices=MODEL_KINDS)
    gc.add_argument("--tolerance", type=_number)
    gc.add_argument("--seed", type=_number, default=0)  # seeds both the toy spec and the check
    gc.add_argument("--samples", dest="sample_count", type=_number)

    return parser


def _run(command: str, **options) -> int:
    if command == "gen-data":
        header = generate_synthetic(**options)
        print(
            f"wrote {options['path']}: {header.video_count} videos, vocab {header.vocab_size}, "
            f"{header.visual_dim}+{header.audio_dim} features"
        )
        return 0

    if command == "train":
        config = parse_train_config(options.pop("path"))
        # an empty --data, --val or --out keeps the config's value
        config = dataclasses.replace(config, **{name: value for name, value in options.items() if value})
        if not config.train_data:
            raise ConfigurationError("no training data given (config train_data or --data)")
        if not config.checkpoint_path:
            raise ConfigurationError("no checkpoint path given (config checkpoint_path or --out)")
        log_path = config.log_path or config.checkpoint_path + ".log"
        result = train(dataclasses.replace(config, log_path=log_path))
        for line in result.log_lines:
            print(line)
        print(f"best gap {result.best_gap:.6f} at epoch {result.best_epoch}")
        return 0

    if command in ("predict", "ensemble"):
        (predict if command == "predict" else ensemble_average)(**options)
        print(f"wrote {options['out_path']}")
        return 0

    if command == "eval":
        result = evaluate(**options)
        print(
            f"gap@20 {result.gap:.6f} pooled_pairs {result.pooled_pairs} "
            f"positives {result.total_positives}"
        )
        return 0

    report = grad_check(toy_spec(options.pop("kind"), seed=options["seed"]), **options)
    for line in report.lines():
        print(line)
    print(f"{'PASS' if report.passed else 'FAIL'} worst {report.worst:.3e}")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    try:
        return _run(**vars(_build_parser().parse_args(argv)))
    except (VideoseqError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
