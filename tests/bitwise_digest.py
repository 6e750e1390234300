"""SHA-256 digests of streamseg's bitwise contract, for comparing two trees.

    PYTHONPATH=<tree>/src python tests/bitwise_digest.py CHECKPOINT \
        [--keep-pred DIR] [--against DIR]

Prints ``checkpoint <sha256>``, the digest of the CHECKPOINT file, and then
one ``<name> <sha256>`` line per output:

- ``golden.csv``, ``golden.params``, ``golden.pred``: ``run_tta`` with the
  default ``AdaptConfig`` from CHECKPOINT over the 40-frame golden-shift
  stream: ``csv_text(include_time=False)``, the final adapted parameters and
  every frame's dumped prediction;
- ``ladder.<row>``: each row's ``csv_text(include_time=False)`` of
  ``run_ablation`` over the 15-frame golden prefix;
- ``pretrain.params``, ``pretrain.history``: a short ``pretrain_source`` run
  on six clean source frames and their jittered copy;
- ``pretrain.warmup3.params``: the same run with three head epochs, so the
  warm-up also subsamples its views (keep fractions 0.5 and 0.7).

The ``pretrain.*`` runs train in float32, as ``pretrain_source`` does, and
do not read CHECKPOINT.

A change that promises bitwise-equal outputs prints the same lines as its
parent when both run with the same CHECKPOINT on the same machine. For a
change that may move predictions, ``--keep-pred DIR`` keeps one tree's
golden predictions in DIR, and ``--against DIR`` run on the other tree adds
the line ``golden.pred_differ <n>/<points>``: the golden points whose
prediction differs from the one in DIR. The
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
#: Head epochs of the ``pretrain.warmup3`` run: keep fractions 1.0, 0.5 and 0.7.
WARMUP_HEAD_EPOCHS = 3


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _params_bytes(params):
    return b"".join(params.tensors[name].tobytes() for name in params.names())


def _feature_fn(frame):
    return harness.frame_features(frame, 20)[1]


def _labels(blobs):
    return np.concatenate([np.frombuffer(blob, dtype="<u4") for blob in blobs])


def golden(params, keep_pred=None, against=None):
    frames = stream.generate_sequence(stream.SceneConfig(seed=SCENE_SEED, frames=GOLDEN_FRAMES),
                                      stream.ShiftConfig(**SHIFT))
    names = [f"{f.frame_id:06d}.label" for f in frames]
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(keep_pred or tmp)
        report, state = harness.run_tta(frames, params, harness.AdaptConfig(), dump_dir=dump)
        preds = [(dump / name).read_bytes() for name in names]
    yield "golden.csv", _sha(report.csv_text(include_time=False).encode())
    yield "golden.params", _sha(_params_bytes(state.target_params))
    yield "golden.pred", _sha(*preds)
    if against is not None:
        mine = _labels(preds)
        theirs = _labels(Path(against, name).read_bytes() for name in names)
        if len(mine) != len(theirs):
            sys.exit(f"{against} holds {len(theirs)} golden predictions, not {len(mine)}")
        yield "golden.pred_differ", f"{np.count_nonzero(mine != theirs)}/{len(mine)}"

    for name, row in harness.run_ablation(frames[:LADDER_FRAMES], params, harness.AdaptConfig()):
        yield f"ladder.{name}", _sha(row.csv_text(include_time=False).encode())


def pretrain():
    p = PRETRAIN
    clean = stream.generate_sequence(stream.SceneConfig(seed=SCENE_SEED, frames=p["frames"]),
                                     stream.ShiftConfig())
    sequences = [clean, stream.jittered_copies([clean], 0.05, 0)[0]]

    def run(head_epochs):
        return model.pretrain_source(
            sequences, epochs=p["epochs"], seed=p["seed"], feature_fn=_feature_fn,
            num_classes=p["num_classes"], head_epochs=head_epochs, window=p["window"])

    params, history = run(p["head_epochs"])
    yield "pretrain.params", _sha(_params_bytes(params))
    yield "pretrain.history", _sha(np.asarray(history).tobytes())
    params, _ = run(WARMUP_HEAD_EPOCHS)
    yield "pretrain.warmup3.params", _sha(_params_bytes(params))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkpoint", help="source checkpoint the adaptation runs start from")
    parser.add_argument("--keep-pred", metavar="DIR",
                        help="write the golden predictions to DIR as .label files")
    parser.add_argument("--against", metavar="DIR",
                        help="count the golden points whose prediction differs from DIR's")
    args = parser.parse_args(argv)
    print(f"streamseg from {Path(harness.__file__).parent}", file=sys.stderr)
    params = model.NetworkParams.load(args.checkpoint)
    print("checkpoint", _sha(Path(args.checkpoint).read_bytes()), flush=True)
    for outputs in (golden(params, args.keep_pred, args.against), pretrain()):
        for name, digest in outputs:
            print(name, digest, flush=True)


if __name__ == "__main__":
    main()
