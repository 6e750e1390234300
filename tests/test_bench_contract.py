"""The benchmark's tracer still runs this tree's loop unchanged.

`perfbench/tracer.py` rebinds streamseg's public functions to timing
wrappers and reads some of their return values, and the benchmark requires
a traced run to match an untraced one bitwise. This checks both on a short
stream, reading `perfbench/` without changing it.
"""

import importlib
from pathlib import Path

import pytest

from streamseg import harness

from test_harness import tiny_params, tiny_stream

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
