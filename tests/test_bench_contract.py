"""The benchmark's tracer still runs this tree's loop unchanged.

`perfbench/tracer.py` rebinds streamseg's public functions to timing
wrappers and reads some of their return values, and the benchmark requires
a traced run to match an untraced one bitwise. This checks both on a short
stream, reading `perfbench/` without changing it.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from streamseg import harness, model

from test_harness import tiny_params, tiny_stream
from test_model import toy_features, toy_sequence

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


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
