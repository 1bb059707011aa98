"""One workload in a fresh process: set up, run the pipeline, check outputs.

``run.py`` starts this script; it is not meant to be run by hand. With
``--role setup`` it only generates the inputs and reports how long that took
since the parent started it. With ``--role run`` it then repeats the pipeline
(train -> predict -> eval, plus the ensemble where the workload has one) for
about ``--seconds``, checks every output, and writes a JSON result. Every
library call is timed between two probes of the host's speed (see probe())
and also reported scaled to a reference speed. Between
pipelines it starts ``--role setup`` copies of itself, one at a time, so that
the set-up samples are spread over the run rather than bunched at one end.
With ``--trace 1`` untraced and traced pipelines alternate, so the traced one
can be compared byte for byte with the untraced one and its overhead measured.
"""

from __future__ import annotations

import os


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _pin_blas_threads() -> int:
    """Set every BLAS/OpenMP pool to one thread, whatever the caller's environment says.

    One thread is at most nproc on any machine. On a shared host a second
    BLAS thread waits on another CPU whose speed the process cannot see,
    while probe() measures the CPU the caller runs on. Must run before numpy
    is imported. Returns the thread count.
    """
    threads = 1
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


BLAS_THREADS = _pin_blas_threads()

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from videoseq import ModelSpec, dataio, training  # noqa: E402
from videoseq.metrics import PredictionSet, gap_at_k, read_prediction_file  # noqa: E402

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    HELDOUT_VIDEO_SEED,
    MODEL_SEED,
    TRAIN_SEED,
    TRAIN_VIDEO_SEED,
    WORKLOADS,
)

SETUP_SAMPLES = 20  # set-up processes per untraced run, besides the worker itself
# probe() at the host's usual speed, in seconds: the median of 2000 probes on the
# 2-vCPU Xeon host the benchmark was built on. Timings are scaled to this speed.
PROBE_REFERENCE_S = 0.0100


@functools.cache
def _probe_arrays():
    """Made on first use, so that set-up time does not include them."""
    rng = np.random.default_rng(0)
    weights = rng.random((64, 64))
    rows = [rng.random((16, 64)) for _ in range(400)]  # 3.3 MB in many small arrays
    stream = rng.random(1 << 20)  # 8 MB
    return weights, rows, stream, np.empty_like(stream)


def probe() -> float:
    """Time a fixed mix of the work the library does: bytecode, many small
    numpy calls over a few MB of arrays, and one pass over a large array.

    The shared host's CPUs change speed under the process, in stretches of
    seconds and in phases of minutes. A call timed between two probes is
    scaled by PROBE_REFERENCE_S over their mean, which cancels most of the
    speed the host happened to run at.
    """
    weights, rows, stream, copy = _probe_arrays()
    start = time.perf_counter()
    x = 0
    for i in range(20000):
        x += i * i
    for r in rows:
        np.tanh(r @ weights) * r
    np.copyto(copy, stream)
    return time.perf_counter() - start


class Tally:
    """Attempted and failed operations: library calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def call(self, what: str, fn, *args, **kwargs):
        """Run one library call; a raised error counts as a failed operation."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.messages.append(f"{what} raised")
            traceback.print_exc(file=sys.stderr)
            raise


def setup(workload, seed: int, directory: str):
    """Generate the training and held-out record files for one seed."""
    os.makedirs(directory, exist_ok=True)
    train_path = os.path.join(directory, "train.bin")
    heldout_path = os.path.join(directory, "heldout.bin")
    dataio.generate_synthetic(train_path, video_count=workload.train_videos, seed=seed,
                              video_seed=TRAIN_VIDEO_SEED, **workload.data_args)
    dataio.generate_synthetic(heldout_path, video_count=workload.heldout_videos, seed=seed,
                              video_seed=HELDOUT_VIDEO_SEED, **workload.data_args)
    return train_path, heldout_path


def sample_setup(args, index: int) -> dict:
    """Time set-up in a fresh process of its own, as the worker's was timed."""
    directory = os.path.join(args.workdir, f"setup{index}")
    out = directory + ".json"
    before = probe()
    spawned_at = time.monotonic()
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--role", "setup",
         "--workload", args.workload, "--seed", str(args.seed), "--workdir", directory,
         "--out", out, "--spawned-at", repr(spawned_at)],
        stdout=sys.stderr, check=True, timeout=60,
    )
    with open(out, encoding="utf-8") as f:
        sample = json.load(f)
    shutil.rmtree(directory)
    os.remove(out)
    sample["scaled_s"] = sample["setup_s"] * PROBE_REFERENCE_S * 2 / (before + sample["probe_s"])
    return sample


def inputs_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def pipeline(workload, train_path: str, heldout_path: str, directory: str, tally: Tally):
    """One timed train -> predict -> eval (-> ensemble) pass.

    Returns the wall time of each library call and of the whole pass, the
    prediction files written and, per evaluated file, its path, the
    predictions ``predict``/``ensemble_average`` returned and the GAP that
    ``evaluate`` read back from the file.
    """
    os.makedirs(directory, exist_ok=True)
    calls = {}  # what -> seconds, one entry per library call
    scaled = {}  # what -> seconds at the reference speed
    last_probe = [probe()]

    def timed(what, fn, *args, **kwargs):
        # every call starts with an empty young generation, as in a fresh
        # process; otherwise where the collector's cycle falls moves the time
        gc.collect()
        t = time.perf_counter()
        result = tally.call(what, fn, *args, **kwargs)
        calls[what] = time.perf_counter() - t
        before, last_probe[0] = last_probe[0], probe()
        scaled[what] = calls[what] * PROBE_REFERENCE_S * 2 / (before + last_probe[0])
        return result

    written = []
    start = time.perf_counter()
    for model in workload.models:
        spec = ModelSpec(vocab_size=workload.vocab_size, visual_dim=workload.visual_dim,
                         audio_dim=workload.audio_dim, seed=MODEL_SEED, **model.spec)
        checkpoint = os.path.join(directory, f"{spec.kind}.ckpt")
        config = training.TrainConfig(
            model=spec, learning_rate=model.learning_rate, batch_size=workload.batch_size,
            epochs=workload.epochs, seed=TRAIN_SEED, train_data=train_path,
            val_data=heldout_path, checkpoint_path=checkpoint,
        )
        timed(f"train {spec.kind}", training.train, config)
        out = os.path.join(directory, f"{spec.kind}.txt")
        predictions = timed(f"predict {spec.kind}", training.predict, checkpoint,
                            heldout_path, out, full_scores=workload.ensemble)
        written.append((out, predictions))
    if workload.ensemble:
        out = os.path.join(directory, "ensemble.txt")
        predictions = timed("ensemble", training.ensemble_average,
                            [path for path, _ in written], out)
        evaluated = [(out, predictions)]
    else:
        evaluated = written
    gaps = [timed(f"evaluate {os.path.basename(path)}", training.evaluate, path,
                  heldout_path).gap
            for path, _ in evaluated]
    pipeline_s = time.perf_counter() - start
    return {
        "pipeline_s": pipeline_s,
        "calls": calls,
        "scaled": scaled,
        "files": [path for path, _ in written] + ([evaluated[0][0]] if workload.ensemble else []),
        "evaluated": [(path, preds, gap) for (path, preds), gap in zip(evaluated, gaps)],
    }


def check_outputs(result, heldout, vocab_size: int, tally: Tally):
    """Coverage and class range of each evaluated file; its GAP against in-memory GAP."""
    labels = {r.id: frozenset(r.labels) for r in heldout}
    expected = sorted(labels)
    for path, predictions, file_gap in result["evaluated"]:
        name = os.path.basename(path)
        in_file = read_prediction_file(path)
        tally.check(sorted(vid for vid, _ in in_file) == expected,
                    f"{name}: held-out videos not predicted exactly once")
        tally.check(all(0 <= c < vocab_size for _, items in in_file for c, _ in items),
                    f"{name}: class id outside the vocabulary")
        # the file rounds scores to 6 decimals; rounding in memory the same way
        # makes the two GAPs agree exactly, ties included
        rounded = [(vid, [(c, round(s, 6)) for c, s in items]) for vid, items in predictions]
        memory_gap = gap_at_k(PredictionSet(rounded, labels)).gap
        tally.check(abs(memory_gap - file_gap) <= 1e-12,
                    f"{name}: file GAP {file_gap!r} != in-memory GAP {memory_gap!r}")


def read_files(paths):
    out = {}
    for path in paths:
        with open(path, "rb") as f:
            out[os.path.basename(path)] = f.read()
    return out


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # numpy builds differ in what they report
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def typical(iterations, prefix: str = "", key: str = "scaled") -> float:
    """Sum over the pipeline's calls named ``prefix...`` of each call's median time.

    ``key`` "scaled" takes each call at the reference speed (see probe()),
    "calls" as the wall clock measured it.
    """
    return sum(statistics.median(it[key][what] for it in iterations)
               for what in iterations[0][key] if what.startswith(prefix))


def run(args, workload, tally: Tally) -> dict:
    setup_tracer = tracing.Tracer() if args.trace else None
    setup_dir = os.path.join(args.workdir, "inputs")
    if setup_tracer:
        with setup_tracer.installed():
            train_path, heldout_path = setup(workload, args.seed, setup_dir)
    else:
        train_path, heldout_path = setup(workload, args.seed, setup_dir)
    setup_s = time.monotonic() - args.spawned_at
    digest = inputs_digest([train_path, heldout_path])
    _, heldout = dataio.load_records(heldout_path)

    originals = tracing.snapshot()
    reference = None
    iterations = []  # per pipeline: traced flag and timings
    layer_samples = []
    spans = []
    setups = []
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while True:
        if not args.trace and len(setups) < SETUP_SAMPLES and (
                time.perf_counter() >= start + len(setups) * args.seconds / SETUP_SAMPLES):
            setups.append(sample_setup(args, len(setups)))
        traced = bool(args.trace) and i % 2 == 1
        directory = os.path.join(args.workdir, f"iter{i}")
        if traced:
            tracer = tracing.Tracer()
            with tracer.installed():
                result = pipeline(workload, train_path, heldout_path, directory, tally)
            tally.check(tracing.snapshot() == originals, "tracer left a wrapper installed")
            layer_samples.append(tracer.metrics())
            spans.append(tracer.to_json())
        else:
            result = pipeline(workload, train_path, heldout_path, directory, tally)
        check_outputs(result, heldout, workload.vocab_size, tally)
        files = read_files(result["files"])
        gap = statistics.fmean(g for _, _, g in result["evaluated"])
        if reference is None:
            reference = (files, gap)
        else:
            for name, data in files.items():
                tally.check(data == reference[0].get(name),
                            f"{name}: not byte-identical to the first pipeline's")
            tally.check(gap == reference[1], f"gap {gap!r} != first pipeline's {reference[1]!r}")
        shutil.rmtree(directory)
        if i == 0:
            # set-up plus one pipeline, like one CLI invocation: later pipelines
            # only add allocator growth, which depends on how many fit in the run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        iterations.append({
            "traced": traced,
            "pipeline_s": result["pipeline_s"],
            "calls": result["calls"],
            "scaled": result["scaled"],
            "gap": gap,
        })
        i += 1
        enough = len(iterations) >= 2 and (not args.trace or i % 2 == 0)
        # start another pipeline only if it is likely to end nearer the deadline
        if enough and time.perf_counter() + result["pipeline_s"] / 2 >= deadline:
            break

    untraced = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    train_videos = workload.train_videos * workload.epochs * len(workload.models)
    predict_videos = workload.heldout_videos * len(workload.models)
    out = {
        "setup_s": setup_s,
        "setup_samples": setups,
        "inputs_sha256": digest,
        "gap": reference[1],
        "iterations": iterations,
        "environment": environment(),
    }
    if args.trace:
        metrics = {
            name: statistics.median(sample[name] for sample in layer_samples)
            for name in layer_samples[0]
        }
        metrics["dataio.generate_s"] = sum(
            s[tracing.END] - s[tracing.START] for s in setup_tracer.spans
            if s[tracing.NAME] == "dataio.generate_synthetic"
        )
        metrics["trace_overhead_ratio"] = typical(traced) / typical(untraced)
        out["per_layer"] = metrics
        out["per_layer_samples"] = layer_samples
        out["spans"] = spans
    else:
        out["end_to_end"] = {
            "train_videos_per_s": train_videos / typical(untraced, "train "),
            "predict_videos_per_s": predict_videos / typical(untraced, "predict "),
            "pipeline_s": typical(untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        out["wall_clock"] = {
            "train_videos_per_s": train_videos / typical(untraced, "train ", "calls"),
            "predict_videos_per_s": predict_videos / typical(untraced, "predict ", "calls"),
            "pipeline_s": typical(untraced, key="calls"),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before it started this process")
    parser.add_argument("--out", required=True, help="where to write the JSON result")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    tally = Tally()
    if args.role == "setup":
        paths = setup(workload, args.seed, args.workdir)
        setup_s = time.monotonic() - args.spawned_at
        probe()  # the first probe also makes its arrays and faults their pages in
        result = {"setup_s": setup_s, "probe_s": probe(), "inputs_sha256": inputs_digest(paths)}
    else:
        try:
            result = run(args, workload, tally)
        except Exception:
            if not tally.failed:
                traceback.print_exc(file=sys.stderr)
                tally.failed += 1
                tally.attempted += 1
            result = {}
    result.update(attempted=tally.attempted, failed=tally.failed, failures=tally.messages)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
