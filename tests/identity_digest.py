"""Print one SHA-256 per artefact of a fixed desk-scale run of every model kind.

Run it from a source checkout, before and after a change that must not change
what the library computes, and compare the two outputs line by line:

    python tests/identity_digest.py > after.txt

The first line names the host: numpy's version, its OpenBLAS's version and the
OpenBLAS core picked at run time, which choose the BLAS kernels and so the bits
of every product. ``tests/identity_digests.txt`` is this output on one host,
and ``test_identity.py`` checks every run on a host of the same name against
it. A change that moves a digest on purpose rewrites that file with the
command above.

It imports ``videoseq`` from the ``src/`` next to this file, so a copy of the
script dropped into another checkout measures that checkout. Everything it
writes goes to a temporary directory that is removed on exit.

Per kind it trains at desk scale (depth 4 for the deep stacks, vocab 25 so
top-20 files truncate), then digests the initial and trained checkpoints, the
metric log, the per-step gradient norms, top-20 and full-score prediction
files, GAP read back by ``evaluate`` and the ``grad_check`` report at the
acceptance suite's settings. One ensemble of all full-score files is digested
last. Not a pytest module: its name does not start with ``test_``.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import sys
import tempfile

# one BLAS thread, set before numpy loads, so that sums run in one order
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from videoseq import ModelSpec, build_model, generate_synthetic, save_checkpoint  # noqa: E402
from videoseq.gradcheck import grad_check, toy_spec  # noqa: E402
from videoseq.models import DEEP_STACK_KINDS, MODEL_KINDS  # noqa: E402
from videoseq.training import TrainConfig, ensemble_average, evaluate, predict, train  # noqa: E402

VOCAB = 25
DATA_ARGS = dict(vocab_size=VOCAB, noise_sigma=0.3, visual_dim=24, audio_dim=8, max_frames=40)


def desk_spec(kind: str) -> ModelSpec:
    return ModelSpec(
        kind=kind, vocab_size=VOCAB, visual_dim=24, audio_dim=8, hidden_size=8,
        depth=4 if kind in DEEP_STACK_KINDS else 1, trb_count=2, trb_filters=8,
        fc_sizes=(16, VOCAB), vlad_clusters=4, seed=5,
    )


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return digest(f.read())


def host_fingerprint() -> str:
    """The versions of numpy and its OpenBLAS, and the OpenBLAS core in use."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):  # numpy before 1.26, or a build without that record
        blas = "unknown"
    core = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    if libs:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    return f"host: numpy {np.__version__}, OpenBLAS {blas}, core {core}"


def run(directory: str):
    """Yield (artefact name, SHA-256) in a fixed order."""
    train_data = os.path.join(directory, "train.bin")
    val_data = os.path.join(directory, "val.bin")
    generate_synthetic(train_data, video_count=24, seed=3, video_seed=4, **DATA_ARGS)
    generate_synthetic(val_data, video_count=12, seed=3, video_seed=5, **DATA_ARGS)
    yield "train.bin", file_digest(train_data)
    yield "val.bin", file_digest(val_data)
    full_files = []
    for kind in MODEL_KINDS:
        spec = desk_spec(kind)
        initial = os.path.join(directory, f"{kind}.init.ckpt")
        save_checkpoint(initial, build_model(spec))
        yield f"{kind}.init.ckpt", file_digest(initial)

        checkpoint = os.path.join(directory, f"{kind}.ckpt")
        log = checkpoint + ".log"
        result = train(TrainConfig(
            model=spec, learning_rate=5e-3, batch_size=8, epochs=2, seed=2,
            train_data=train_data, val_data=val_data, checkpoint_path=checkpoint, log_path=log,
        ))
        yield f"{kind}.ckpt", file_digest(checkpoint)
        yield f"{kind}.ckpt.log", file_digest(log)
        yield f"{kind}.grad_norms", digest(repr(result.grad_norms))

        top = os.path.join(directory, f"{kind}.top20.txt")
        full = os.path.join(directory, f"{kind}.full.txt")
        predict(checkpoint, val_data, top)
        predict(checkpoint, val_data, full, full_scores=True)
        full_files.append(full)
        yield f"{kind}.top20.txt", file_digest(top)
        yield f"{kind}.full.txt", file_digest(full)
        yield f"{kind}.gap", digest(repr(evaluate(top, val_data)))

        report = grad_check(toy_spec(kind, 3), 4, 1e-4, 3)
        yield f"{kind}.grad_check", digest(repr([(b.name, b.worst_error) for b in report.blocks]))

    merged = os.path.join(directory, "ensemble.txt")
    ensemble_average(full_files, merged)
    yield "ensemble.txt", file_digest(merged)
    yield "ensemble.gap", digest(repr(evaluate(merged, val_data)))


def main() -> int:
    print(host_fingerprint())
    with tempfile.TemporaryDirectory(prefix="identity_digest_") as directory:
        for name, sha in run(directory):
            print(f"{sha}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
