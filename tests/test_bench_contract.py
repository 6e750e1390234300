"""The benchmark's tracer and report readers still fit this tree's loop.

`perfbench/tracer.py` rebinds streamseg's public functions to timing
wrappers and reads some of their return values, and the benchmark requires
a traced run to match an untraced one bitwise. `perfbench/workloads.py`
checks each unit's `RunReport` and reads its quality metrics from it, and
builds its input streams from `SceneConfig`/`ShiftConfig`. This checks all
three on short streams, reading `perfbench/` without changing it.
"""

import importlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from streamseg import harness, model, stream

from test_harness import tiny_params, tiny_stream
from test_model import toy_features, toy_sequence

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_traced_run_equals_plain_run(tracer):
    frames = tiny_stream(3)
    cfg = harness.AdaptConfig(window=2)   # the last frame has temporal pairs
    plain, plain_state = harness.run_tta(frames, tiny_params(), cfg)
    with tracer.Tracer() as tr:
        traced, traced_state = harness.run_tta(frames, tiny_params(), cfg)

    assert traced.csv_text(include_time=False) == plain.csv_text(include_time=False)
    for name in plain_state.target_params.names():
        assert (traced_state.target_params.tensors[name].tobytes()
                == plain_state.target_params.tensors[name].tobytes()), name
    assert sum(c["spatial.knn_calls"] for c in tr.counts.values()) > 0
    assert sum(c["temporal.pairs"] for c in tr.counts.values()) > 0
    assert tr.spans


def test_traced_pretrain_with_warmup_equals_plain_call(tracer):
    seq = toy_sequence(2, frames=7)
    kwargs = dict(epochs=1, seed=3, feature_fn=toy_features, num_classes=2,
                  head_epochs=1, window=3)
    plain, plain_history = model.pretrain_source([seq], **kwargs)
    with tracer.Tracer() as tr:
        traced, traced_history = model.pretrain_source([seq], **kwargs)

    assert np.array(traced_history).tobytes() == np.array(plain_history).tobytes()
    for name in plain.names():
        assert traced.tensors[name].tobytes() == plain.tensors[name].tobytes(), name
    # 7 supervised steps and one per warm-up pair (frames 3-6 against 0-3)
    steps = len(seq) + (len(seq) - 3)
    assert sum(c["model.adam_steps"] for c in tr.counts.values()) == steps
    assert sum(span[0] == "model.adam_step" for span in tr.spans) == steps


def test_report_check_and_quality_readers_accept_a_run_tta_report(workloads, tmp_path):
    frames = tiny_stream(3)
    report, state = harness.run_tta(frames, tiny_params(), harness.AdaptConfig(window=2))
    unit = workloads.Unit(outputs=(report, state))
    workloads._check_report("golden_adapt", report, frames, unit)
    assert unit.problems == []
    assert unit.fingerprint == report.csv_text(include_time=False).encode()

    golden = workloads.GoldenAdapt(SimpleNamespace(scene_seed=7, seed=0), None, tmp_path)
    quality = golden.quality(unit)
    assert quality["miou_pct"] == (100 * report.cumulative_miou, "%")
    assert quality["source_miou_pct"] == (100 * report.source_cumulative_miou, "%")
    assert quality["improvement_pts"] == (100 * report.improvement, "pts")


def test_ladder_quality_reader_accepts_run_ablation_rows(workloads, tmp_path):
    frames = tiny_stream(3)
    rows = harness.run_ablation(frames, tiny_params(), harness.AdaptConfig(window=2))
    unit = workloads.Unit(outputs=rows)
    for name, report in rows:
        workloads._check_report(name, report, frames, unit)
    assert unit.problems == []

    ladder = workloads.AblationLadder(SimpleNamespace(scene_seed=7, seed=0), None, tmp_path)
    quality = ladder.quality(unit)
    full = dict(rows)["full"]
    assert quality["miou_pct"] == (100 * full.cumulative_miou, "%")
    assert quality["source_miou_pct"] == (100 * full.source_cumulative_miou, "%")
    assert quality["improvement_pts"] == (100 * full.improvement, "pts")
    for name, report in rows[:-1]:
        assert quality[f"improvement_pts.{name.lstrip('+')}"] == (100 * report.improvement, "pts")


def test_benchmark_inputs_build_with_this_trees_configs(workloads):
    # a Frame checks its invariants when it is built, so building the inputs is the check
    golden = workloads.golden_stream(7, 11, 2)
    clean, jittered = workloads.source_sequences(7, 0, 2, 0)
    assert [len(golden), len(clean), len(jittered)] == [2, 2, 2]
    # the golden shift halves the density of the same scene
    assert golden[0].num_points < clean[0].num_points
    for a, b in zip(stream.jittered_copies([clean], workloads.SOURCE_JITTER, 0)[0], jittered):
        assert a.points.tobytes() == b.points.tobytes()
        assert a.gt_labels.tobytes() == b.gt_labels.tobytes()
