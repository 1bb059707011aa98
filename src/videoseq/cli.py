"""Command-line interface: gen-data, train, predict, eval, ensemble, gradcheck.

Exit code 0 on success; on failure a single machine-parsable line
``error: <Type>: <message>`` goes to stderr and the exit code is nonzero.
A train config's ``model.*`` keys are the names in ``models.SPEC_FIELDS``.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import container
from .dataio import generate_synthetic
from .errors import ConfigurationError, FormatError, VideoseqError
from .gradcheck import grad_check, toy_spec
from .models import MODEL_KINDS, SPEC_FIELDS, ModelSpec
from .training import TOP_K, TrainConfig, ensemble_average, evaluate, predict, train

CONFIG_VERSION = 1
_SPEC_NAME = re.compile(rf"\b({'|'.join(['kind', *SPEC_FIELDS])})\b")

_TRAIN_FIELDS = {
    "learning_rate": float,
    "batch_size": int,
    "epochs": int,
    "seed": int,
    "train_data": str,
    "val_data": str,
    "checkpoint_path": str,
    "log_path": str,
}


def _cast(path: str, key: str, value: str, cast):
    """``cast(value)``, or a ConfigurationError naming the file, the key and the value."""
    try:
        return cast(value)
    except ValueError:
        raise ConfigurationError(
            f"{path}: {key} = {value!r} is not a valid {cast.__name__}"
        ) from None


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
    if _cast(path, "config_version", version, int) != CONFIG_VERSION:
        raise FormatError(f"{path}: unsupported config_version {version}")
    if "model.kind" not in entries or "model.vocab_size" not in entries:
        raise ConfigurationError(f"{path}: model.kind and model.vocab_size are required")

    spec_kwargs = {"kind": entries.pop("model.kind")}
    for name in SPEC_FIELDS:
        key = f"model.{name}"
        if key in entries:
            values = tuple(_cast(path, key, v, int) for v in entries.pop(key).split(","))
            spec_kwargs[name] = values if len(values) > 1 else values[0]
    config_kwargs = {}
    raw = entries.pop("clip_norm", "none")
    if raw.lower() != "none":
        config_kwargs["clip_norm"] = _cast(path, "clip_norm", raw, float)
    for name, cast in _TRAIN_FIELDS.items():
        if name in entries:
            config_kwargs[name] = _cast(path, name, entries.pop(name), cast)
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


def _integer(text: str):
    """An integer option's value: ``int(text)``, or else the text itself, which the
    library's one integer rule (``errors.check_int``) then refuses in one named line."""
    try:
        return int(text)
    except ValueError:
        return text


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

    gen = sub.add_parser("gen-data", help="write a seeded synthetic record file")
    gen.add_argument("--vocab", type=_integer, default=25)
    gen.add_argument("--videos", type=_integer, default=2000)
    gen.add_argument("--seed", type=_integer, default=0)
    gen.add_argument("--noise", type=float, default=0.5)
    gen.add_argument("--out", required=True)
    gen.add_argument("--max-frames", type=_integer, default=300)
    gen.add_argument("--visual-dim", type=_integer, default=1024)
    gen.add_argument("--audio-dim", type=_integer, default=128)
    gen.add_argument("--video-seed", type=_integer,
                     help="separate stream for per-video draws; same --seed "
                     "plus a different --video-seed yields a matched "
                     "validation split (shared class prototypes)")

    tr = sub.add_parser("train", help="train a model from a config file")
    tr.add_argument("--config", required=True)
    tr.add_argument("--data", help="override train_data from the config")
    tr.add_argument("--val", help="override val_data from the config")
    tr.add_argument("--out", help="override checkpoint_path from the config")

    pr = sub.add_parser("predict", help="write predictions from a checkpoint")
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument("--k", type=_integer, default=TOP_K)
    pr.add_argument("--full-scores", action="store_true",
                    help="emit every class score (input format for ensembling)")
    pr.add_argument("--batch-size", type=_integer, default=32)

    ev = sub.add_parser("eval", help="GAP@20 of a prediction file against a record file")
    ev.add_argument("--predictions", required=True)
    ev.add_argument("--data", required=True)

    en = sub.add_parser("ensemble", help="weighted average of full-score prediction files")
    en.add_argument("--inputs", nargs="+", required=True)
    en.add_argument("--weights", nargs="+", type=float)
    en.add_argument("--out", required=True)
    en.add_argument("--full-scores", action="store_true")

    gc = sub.add_parser("gradcheck", help="finite-difference check of a model kind")
    gc.add_argument("--model", required=True, choices=MODEL_KINDS)
    gc.add_argument("--tolerance", type=float, default=1e-4)
    gc.add_argument("--seed", type=_integer, default=0)
    gc.add_argument("--samples", type=_integer, default=6)

    return parser


def _run(args) -> int:
    if args.command == "gen-data":
        header = generate_synthetic(
            args.out,
            vocab_size=args.vocab,
            video_count=args.videos,
            seed=args.seed,
            noise_sigma=args.noise,
            visual_dim=args.visual_dim,
            audio_dim=args.audio_dim,
            max_frames=args.max_frames,
            video_seed=args.video_seed,
        )
        print(
            f"wrote {args.out}: {header.video_count} videos, vocab {header.vocab_size}, "
            f"{header.visual_dim}+{header.audio_dim} features"
        )
        return 0

    if args.command == "train":
        config = parse_train_config(args.config)
        if args.data:
            config.train_data = args.data
        if args.val:
            config.val_data = args.val
        if args.out:
            config.checkpoint_path = args.out
        if not config.train_data:
            raise ConfigurationError("no training data given (config train_data or --data)")
        if not config.checkpoint_path:
            raise ConfigurationError("no checkpoint path given (config checkpoint_path or --out)")
        config.log_path = config.log_path or config.checkpoint_path + ".log"
        result = train(config)
        for line in result.log_lines:
            print(line)
        print(f"best gap {result.best_gap:.6f} at epoch {result.best_epoch}")
        return 0

    if args.command == "predict":
        predict(
            args.checkpoint,
            args.data,
            args.out,
            k=args.k,
            full_scores=args.full_scores,
            batch_size=args.batch_size,
        )
        print(f"wrote {args.out}")
        return 0

    if args.command == "eval":
        result = evaluate(args.predictions, args.data)
        print(
            f"gap@20 {result.gap:.6f} pooled_pairs {result.pooled_pairs} "
            f"positives {result.total_positives}"
        )
        return 0

    if args.command == "ensemble":
        ensemble_average(
            args.inputs, args.out, weights=args.weights, full_scores=args.full_scores
        )
        print(f"wrote {args.out}")
        return 0

    if args.command == "gradcheck":
        report = grad_check(
            toy_spec(args.model, seed=args.seed),
            sample_count=args.samples,
            tolerance=args.tolerance,
            seed=args.seed,
        )
        for line in report.lines():
            print(line)
        print(f"{'PASS' if report.passed else 'FAIL'} worst {report.worst:.3e}")
        return 0 if report.passed else 1

    raise ConfigurationError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        return _run(_build_parser().parse_args(argv))
    except (VideoseqError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
