"""Self-tests of the benchmark: metric names and units, exact counts, wrappers.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests

The end-to-end tests run each workload for the shortest run the benchmark
allows (two pipelines), so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, SECOND_SEED, WORKLOADS  # noqa: E402


def bench(workload: str, trace: int, seed: int = 1):
    """Run the benchmark once; returns (report lines, result object)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_pair(request):
    return request.param, bench(request.param, 1), bench(request.param, 1)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    report, result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split()[0]: line.split()[2] for line in report if not line.startswith("#")}
    assert printed == {**run.END_TO_END_UNITS, **run.GUARDS}


def test_every_per_layer_metric_is_printed_with_its_unit(traced_pair):
    _, (report, result), _ = traced_pair
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == tracing.PER_LAYER_UNITS
    printed = {line.split()[0]: line.split()[2] for line in report if not line.startswith("#")}
    assert printed == {**tracing.PER_LAYER_UNITS, **run.GUARDS}


def test_counts_repeat_exactly_on_one_seed(traced_pair):
    workload, (_, first), (_, second) = traced_pair
    first = {name: m["value"] for name, m in first["metrics"].items()}
    second = {name: m["value"] for name, m in second["metrics"].items()}
    for name in tracing.EXACT_COUNTS:
        assert first[name] == second[name], (workload, name)
    assert first["dataio.load_count"] >= 4
    assert first["training.steps"] > 0


def test_seeds_change_the_features_not_the_work(tmp_path):
    import worker
    from videoseq import load_records

    workload = WORKLOADS["desk_recurrent"]
    first = worker.setup(workload, DEFAULT_SEED, str(tmp_path / "a"))
    second = worker.setup(workload, SECOND_SEED, str(tmp_path / "b"))
    assert worker.inputs_digest(first) != worker.inputs_digest(second)
    assert worker.inputs_digest(first) == worker.inputs_digest(
        worker.setup(workload, DEFAULT_SEED, str(tmp_path / "c")))
    for a, b in zip(first, second):
        (_, ra), (_, rb) = load_records(a), load_records(b)
        assert [(r.id, r.frames.shape, r.labels) for r in ra] == [
            (r.id, r.frames.shape, r.labels) for r in rb]


def _tiny_pipeline(tmp_path):
    from videoseq import ModelSpec, generate_synthetic, training

    data = str(tmp_path / "data.bin")
    generate_synthetic(data, vocab_size=4, video_count=8, seed=1, noise_sigma=0.3,
                       visual_dim=5, audio_dim=3, max_frames=6)
    for kind in ("vlad_mlp", "temporal_resnet", "two_stream_gru"):
        spec = ModelSpec(kind=kind, vocab_size=4, visual_dim=5, audio_dim=3, hidden_size=3,
                         trb_count=1, trb_filters=4, fc_sizes=(6, 4), vlad_clusters=2)
        ckpt = str(tmp_path / f"{kind}.ckpt")
        training.train(training.TrainConfig(model=spec, batch_size=4, epochs=1,
                                            train_data=data, checkpoint_path=ckpt))
        training.predict(ckpt, data, str(tmp_path / f"{kind}.txt"))


def test_wrappers_leave_the_library_unchanged(tmp_path):
    before = tracing.snapshot()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tracing.snapshot() != before
        _tiny_pipeline(tmp_path)
    assert tracing.snapshot() == before
    names = {span["name"] for span in tracer.to_json()}
    assert {"autodiff.backward", "recurrent.run_bidirectional", "vlad.kmeans_fit",
            "models.forward_train", "models.forward_eval", "dataio.pad_batch"} <= names

    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("raised inside a traced run")
    assert tracing.snapshot() == before


def test_every_model_kind_has_its_forward_traced():
    from videoseq.models import MODEL_KINDS, ModelSpec, build_model

    for kind in MODEL_KINDS:
        spec = ModelSpec(kind=kind, vocab_size=3, visual_dim=2, audio_dim=2, hidden_size=2,
                         trb_count=1, trb_filters=2, fc_sizes=(4, 3), vlad_clusters=2)
        assert type(build_model(spec)) in tracing.model_classes(), kind


def test_output_checks_reject_a_file_that_leaves_videos_out(tmp_path):
    import worker
    from videoseq import VideoRecord
    from videoseq.metrics import write_prediction_file

    heldout = [VideoRecord(f"v{i}", [[0.0]], [i % 2]) for i in range(4)]
    cases = {
        "one of four": [("v0", [(0, 0.9), (1, 0.1)])],
        "repeated": [(f"v{i}", [(0, 0.5)]) for i in (0, 1, 2, 3, 3)],
        "outside vocab": [(f"v{i}", [(7, 0.5)]) for i in range(4)],
    }
    for label, predictions in cases.items():
        path = str(tmp_path / "p.txt")
        write_prediction_file(path, predictions)
        tally = worker.Tally()
        result = {"evaluated": [(path, predictions, -1.0)]}
        worker.check_outputs(result, heldout, vocab_size=2, tally=tally)
        assert tally.failed >= 2, label  # the case itself, and GAP -1 never matches

    good = [(f"v{i}", [(i % 2, 0.9), (1 - i % 2, 0.1)]) for i in range(4)]
    write_prediction_file(path, good)
    tally = worker.Tally()
    worker.check_outputs({"evaluated": [(path, good, 1.0)]}, heldout, 2, tally)
    assert tally.failed == 0 and tally.attempted == 3
