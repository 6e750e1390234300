"""SHA-256 digests of streamseg's bitwise contract, for comparing two trees.

    PYTHONPATH=<tree>/src python tests/bitwise_digest.py CHECKPOINT

Prints one ``<name> <sha256>`` line per output:

- ``golden.csv``, ``golden.params``, ``golden.pred``: ``run_tta`` with the
  default ``AdaptConfig`` from CHECKPOINT over the 40-frame golden-shift
  stream: ``csv_text(include_time=False)``, the final adapted parameters and
  every frame's dumped prediction;
- ``ladder.<row>``: each row's ``csv_text(include_time=False)`` of
  ``run_ablation`` over the 15-frame golden prefix;
- ``pretrain.params``, ``pretrain.history``: a short ``pretrain_source`` run
  on six clean source frames and their jittered copy.

A change that promises bitwise-equal outputs prints the same lines as its
parent when both run with the same CHECKPOINT on the same machine. The
script sets BLAS to one thread unless the environment already chooses.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")   # before numpy loads BLAS

import numpy as np  # noqa: E402

from streamseg import harness, model, stream  # noqa: E402

from test_acceptance import SCENE_SEED, SHIFT  # noqa: E402

GOLDEN_FRAMES = 40
LADDER_FRAMES = 15
PRETRAIN = dict(frames=6, epochs=3, head_epochs=1, window=5, seed=0, num_classes=7)


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _params_bytes(params):
    return b"".join(params.tensors[name].tobytes() for name in params.names())


def _feature_fn(frame):
    return harness.frame_features(frame, 20)[1]


def golden(params):
    frames = stream.generate_sequence(stream.SceneConfig(seed=SCENE_SEED, frames=GOLDEN_FRAMES),
                                      stream.ShiftConfig(**SHIFT))
    with tempfile.TemporaryDirectory() as dump:
        report, state = harness.run_tta(frames, params, harness.AdaptConfig(), dump_dir=dump)
        preds = [Path(dump, f"{f.frame_id:06d}.label").read_bytes() for f in frames]
    yield "golden.csv", _sha(report.csv_text(include_time=False).encode())
    yield "golden.params", _sha(_params_bytes(state.target_params))
    yield "golden.pred", _sha(*preds)

    for name, row in harness.run_ablation(frames[:LADDER_FRAMES], params, harness.AdaptConfig()):
        yield f"ladder.{name}", _sha(row.csv_text(include_time=False).encode())


def pretrain():
    p = PRETRAIN
    clean = stream.generate_sequence(stream.SceneConfig(seed=SCENE_SEED, frames=p["frames"]),
                                     stream.ShiftConfig())
    jittered = stream.jittered_copies([clean], 0.05, 0)[0]
    params, history = model.pretrain_source(
        [clean, jittered], epochs=p["epochs"], seed=p["seed"], feature_fn=_feature_fn,
        num_classes=p["num_classes"], head_epochs=p["head_epochs"], window=p["window"])
    yield "pretrain.params", _sha(_params_bytes(params))
    yield "pretrain.history", _sha(np.asarray(history).tobytes())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkpoint", help="source checkpoint the adaptation runs start from")
    args = parser.parse_args(argv)
    print(f"streamseg from {Path(harness.__file__).parent}", file=sys.stderr)
    params = model.NetworkParams.load(args.checkpoint)
    for outputs in (golden(params), pretrain()):
        for name, digest in outputs:
            print(name, digest, flush=True)


if __name__ == "__main__":
    main()
