"""Benchmark entry point: one workload, one seed, end-to-end or per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload desk_recurrent --seed 1 --seconds 40 --trace 0

The workload runs in a fresh worker process (``worker.py``), so its peak RSS
is its own. With ``--trace 0`` the worker also times setup in further fresh
processes, spread over the run, and the median is reported. Report lines go
to standard output; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record (environment, every
sample and, with ``--trace 1``, every span) is written to ``.perfbench_out/``.
Scratch files live in ``.perfbench_tmp/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import PER_LAYER_UNITS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# name -> unit; the result line carries every one of these with --trace 0
END_TO_END_UNITS = {
    "setup_s": "s",
    "train_videos_per_s": "videos/s",
    "predict_videos_per_s": "videos/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}
# printed in the report; gated through "correct" and "failed", not as bounded metrics
GUARDS = {"gap": "GAP_at_20", "op_failure_rate": "ratio"}
TIME_LIMIT_S = 170.0  # the whole command, worker and its set-up samples together


def spawn(args, workdir: str, out: str, env: dict, deadline: float) -> dict:
    """Run the worker, wait for it (it is killed at the deadline), read its result.

    The worker gets a process group of its own, and the whole group is killed
    on the way out, so a set-up sample the worker started cannot outlive it.
    """
    command = [
        sys.executable, os.path.join(HERE, "worker.py"), "--role", "run",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--out", out,
    ]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(command + ["--spawned-at", repr(spawned_at)], env=env,
                            stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - spawned_at))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the group has already ended
        proc.wait()
    if code:
        raise subprocess.CalledProcessError(code, command)
    with open(out, encoding="utf-8") as f:
        return json.load(f)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long to repeat the pipeline (at least twice)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced pipelines")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    # on SIGTERM, unwind so that the running worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "videoseq", "__init__.py")):
        print(f"error: no videoseq sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = os.path.join(root, ".perfbench_tmp")
    workdir = os.path.join(scratch, f"{run_id}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = spawn(args, workdir, os.path.join(workdir, "result.json"), env, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it

    attempted, failed = result["attempted"], result["failed"]
    failures = list(result["failures"])
    if "environment" not in result:
        print("error: the workload did not complete: " + "; ".join(failures), file=sys.stderr)
        return 1
    setups = result["setup_samples"]
    for sample in setups:
        attempted += 1
        if sample["inputs_sha256"] != result["inputs_sha256"]:
            failed += 1
            failures.append("one seed generated different inputs in two processes")
    if args.trace:
        metrics = result["per_layer"]
        units = PER_LAYER_UNITS
    else:
        metrics = dict(result["end_to_end"])
        metrics["setup_s"] = statistics.median(s["scaled_s"] for s in setups)
        units = END_TO_END_UNITS
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": result["environment"],
        "setup_samples": setups, "worker_setup_s": result["setup_s"],
        "iterations": result["iterations"], "attempted": attempted, "failed": failed,
        "failures": failures, "metrics": metrics, "gap": result["gap"],
    }
    if not args.trace:
        # the same metrics as the wall clock read them, before scaling to the reference speed
        record["wall_clock"] = dict(result["wall_clock"],
                                    setup_s=statistics.median(s["setup_s"] for s in setups))
    for key in ("per_layer_samples", "spans"):
        if key in result:
            record[key] = result[key]
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, run_id + ".json"), "w", encoding="utf-8") as f:
        json.dump(record, f)

    env_info = result["environment"]
    print("# " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"# {args.workload} seed {args.seed}: {len(result['iterations'])} pipelines "
          f"({sum(it['traced'] for it in result['iterations'])} traced)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    guards = {"gap": result["gap"], "op_failure_rate": failed / attempted}
    for name, unit in GUARDS.items():
        print(f"{name} {guards[name]:.6g} {unit}")
    if not args.trace:
        print("# wall clock, unscaled: " + " ".join(
            f"{name}={value:.6g}" for name, value in record["wall_clock"].items()))
    print(f"# {failed} of {attempted} operations and output checks failed")
    for message in failures:
        print(f"# failed: {message}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
