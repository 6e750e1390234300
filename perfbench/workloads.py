"""The three benchmark workloads, their inputs, and the source checkpoint.

Every workload is a closed loop in one process: the program pulls its next
input only after it has finished the previous one. A workload is measured
in *units*, each a complete, deterministic call into streamseg on the same
inputs, so every unit of a run must produce bitwise the same outputs.

- ``golden_adapt``: ``harness.run_tta`` (default ``AdaptConfig``, predictions
  dumped as ``streamseg adapt --dump-pred`` does) over a prefix of the
  golden-shift stream.
- ``pretrain``: ``model.pretrain_source`` on a clean source stream plus its
  jittered copy, with fixed epochs and head epochs.
- ``ablation_ladder``: ``harness.run_ablation`` over a shorter golden
  prefix; five passes over the same frames.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from streamseg import harness, model, stream
from streamseg.core import Frame, LabelField

NUM_CLASSES = 7
K_FEAT = 20
GOLDEN_SCENE_SEED = 7
GOLDEN_SHIFT_SEED = 11
GOLDEN_SHIFT = dict(jitter_sigma=0.05, density_factor=0.5,
                    class_dropout=(0.0, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0))
SOURCE_JITTER = 0.05

#: The source checkpoint every adaptation workload starts from: the clean
#: seed-7 source stream plus a jittered copy, pretrained with a fixed seed.
CHECKPOINT_RECIPE = dict(scene_seed=GOLDEN_SCENE_SEED, shift_seed=0, frames=25,
                         jitter_seed=0, epochs=3, head_epochs=2, seed=0)

GOLDEN_FRAMES = 40
LADDER_FRAMES = 15
#: The pretrain unit. The init/shuffle seed is fixed like the checkpoint's;
#: --seed varies only the input stream and its jitter.
PRETRAIN = dict(frames=6, epochs=6, head_epochs=1, window=5, seed=0)

clock = time.perf_counter


def feature_fn(frame):
    return harness.frame_features(frame, K_FEAT)[1]


def source_sequences(scene_seed, shift_seed, frames, jitter_seed):
    """Clean labeled source stream plus a noise-jittered copy of it."""
    clean = stream.generate_sequence(stream.SceneConfig(seed=scene_seed, frames=frames),
                                     stream.ShiftConfig(seed=shift_seed))
    rng = np.random.default_rng([jitter_seed, 0xAA6])
    jittered = [Frame(f.frame_id, f.points + rng.normal(0.0, SOURCE_JITTER, f.points.shape),
                      f.pose, f.gt_labels) for f in clean]
    return [clean, jittered]


def golden_stream(scene_seed, shift_seed, frames):
    return stream.generate_sequence(stream.SceneConfig(seed=scene_seed, frames=frames),
                                    stream.ShiftConfig(seed=shift_seed, **GOLDEN_SHIFT))


# -- source checkpoint ----------------------------------------------------------

def checkpoint_files(root: Path, work: Path):
    """Paths of the checkpoint and its metadata for this tree's code.

    The names carry a hash of ``src/streamseg`` and the recipe, so a
    checkpoint is never reused across code versions.
    """
    digest = hashlib.sha256(json.dumps(CHECKPOINT_RECIPE, sort_keys=True).encode())
    for path in sorted((root / "src" / "streamseg").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    key = digest.hexdigest()[:16]
    return key, work / f"source-{key}.ckpt", work / f"source-{key}.json"


def build_checkpoint(root: Path, work: Path):
    """Pretrain the source model with this tree's code and save it."""
    key, ckpt, meta = checkpoint_files(root, work)
    r = CHECKPOINT_RECIPE
    start = clock()
    sequences = source_sequences(r["scene_seed"], r["shift_seed"], r["frames"], r["jitter_seed"])
    params, history = model.pretrain_source(
        sequences, epochs=r["epochs"], seed=r["seed"], feature_fn=feature_fn,
        num_classes=NUM_CLASSES, head_epochs=r["head_epochs"])
    info = {"key": key, "prep_s": clock() - start, "loss_history": history,
            "recipe": CHECKPOINT_RECIPE}
    work.mkdir(parents=True, exist_ok=True)
    tmp = ckpt.with_suffix(f".tmp{os.getpid()}")
    params.save(tmp)
    os.replace(tmp, ckpt)
    meta.write_text(json.dumps(info))


def source_checkpoint(root: Path, work: Path):
    """Path of the source checkpoint built by this tree's own code.

    A missing checkpoint is built by ``checkpoint.py`` in a process of its
    own, so the measuring process's peak RSS covers only its set-up and
    units. Returns (path, info) where info holds the preparation time and
    loss history.
    """
    _, ckpt, meta = checkpoint_files(root, work)
    cached = ckpt.exists() and meta.exists()
    if not cached:
        subprocess.run([sys.executable, str(Path(__file__).with_name("checkpoint.py"))],
                       check=True, timeout=600)
    info = json.loads(meta.read_text())
    info["cached"] = cached
    return ckpt, info


# -- measurement plumbing ---------------------------------------------------------

class TimedFrames:
    """Re-iterable frame source that stamps every pull from outside.

    The latency of a frame is the time from its pull to the next pull, that
    is, everything the program does with it. When a tracer is attached, each
    pull also sets the frame id (the position in the stream) that new spans
    are tagged with, so every pass over frame i charges frame i.
    """

    def __init__(self, frames, tracer=None):
        self.frames = frames
        self.tracer = tracer
        self.passes = []
        self.pulled = 0

    def __iter__(self):
        stamps = []
        self.passes.append(stamps)
        for i, frame in enumerate(self.frames):
            if self.tracer is not None:
                self.tracer.frame = i
            self.pulled += 1
            stamps.append(clock())
            yield frame
        if self.tracer is not None:
            self.tracer.frame = -1
        stamps.append(clock())

    def latencies(self):
        """Per-frame latency (s), summed over all passes over the stream."""
        return np.sum([np.diff(stamps) for stamps in self.passes], axis=0).tolist()


@dataclass
class Unit:
    """Outcome of one unit: timing, counts, outputs and check results."""

    wall_s: float = 0.0
    latencies: list = field(default_factory=list)   # seconds per item
    items: int = 0          # frames; ladder frames (all five rows); Adam steps
    attempted: int = 0      # frames, frame-rows or Adam steps started
    failed: int = 0
    outputs: tuple = ()
    fingerprint: bytes = b""
    problems: list = field(default_factory=list)


def _params_bytes(params):
    return b"".join(params.tensors[name].tobytes() for name in params.names())


def _timed_call(source, fn, *args, **kwargs):
    """Run one unit over a TimedFrames source; an exception fails its frame."""
    out = Unit()
    start = clock()
    try:
        out.outputs = fn(source, *args, **kwargs)
    except Exception as exc:  # counted and reported; the run then stops
        out.attempted, out.failed = source.pulled, 1
        out.problems.append(f"{fn.__name__} raised {exc!r}")
        return out
    out.wall_s = clock() - start
    out.latencies = source.latencies()
    out.items = len(out.latencies)
    out.attempted = source.pulled
    return out


def _check_report(name, report, frames, unit: Unit):
    unit.fingerprint += report.csv_text(include_time=False).encode()
    if len(report.frame_ids) != len(frames):
        unit.problems.append(f"{name}: report does not hold one row per frame")
    if not np.all(np.isfinite(report.per_frame_miou)):
        unit.problems.append(f"{name}: non-finite per-frame mIoU")


# -- workloads ---------------------------------------------------------------------

class GoldenAdapt:
    name = "golden_adapt"
    frames_in_stream = GOLDEN_FRAMES

    def __init__(self, args, ckpt, work):
        self.scene_seed = args.scene_seed
        self.shift_seed = GOLDEN_SHIFT_SEED + args.seed
        self.ckpt = ckpt
        self.dump_dir = work / f"dump-{self.name}"

    def generate(self):
        return golden_stream(self.scene_seed, self.shift_seed, self.frames_in_stream)

    def load(self):
        self.params = model.NetworkParams.load(self.ckpt)

    def points_per_frame(self):
        return float(np.mean([f.num_points for f in self.frames]))

    def warmup(self):
        harness.run_tta(self.frames[:2], self.params, harness.AdaptConfig())

    def unit(self, tracer=None):
        # the check reads only what this unit writes
        shutil.rmtree(self.dump_dir, ignore_errors=True)
        self.dump_dir.mkdir(parents=True)
        return _timed_call(TimedFrames(self.frames, tracer), harness.run_tta, self.params,
                           harness.AdaptConfig(), dump_dir=self.dump_dir)

    def check(self, unit: Unit):
        report, state = unit.outputs
        _check_report(self.name, report, self.frames, unit)
        unit.fingerprint += _params_bytes(state.target_params)
        # one in-range prediction per point for every frame, read back from disk
        for frame in self.frames:
            pred = stream.read_label_file(self.dump_dir / f"{frame.frame_id:06d}.label")
            if len(pred) != frame.num_points or pred.min() < 0 or pred.max() >= NUM_CLASSES:
                unit.failed += 1
                unit.problems.append(f"frame {frame.frame_id}: {len(pred)} predictions "
                                     f"for {frame.num_points} points")
            unit.fingerprint += pred.tobytes()

    def quality(self, unit: Unit):
        report, _ = unit.outputs
        if not report.improvement > 0:
            unit.problems.append(
                f"improvement {100 * report.improvement:+.2f} pts is not positive")
        return {
            "miou_pct": (100 * report.cumulative_miou, "%"),
            "source_miou_pct": (100 * report.source_cumulative_miou, "%"),
            "improvement_pts": (100 * report.improvement, "pts"),
        }


class AblationLadder(GoldenAdapt):
    name = "ablation_ladder"
    frames_in_stream = LADDER_FRAMES

    def unit(self, tracer=None):
        return _timed_call(TimedFrames(self.frames, tracer), harness.run_ablation,
                           self.params, harness.AdaptConfig())

    def check(self, unit: Unit):
        rows = unit.outputs
        if [name for name, _ in rows] != [name for name, _ in harness.ABLATION_LADDER]:
            unit.problems.append("ladder rows differ from ABLATION_LADDER")
        for name, report in rows:
            _check_report(name, report, self.frames, unit)

    def quality(self, unit: Unit):
        rows = unit.outputs
        full = dict(rows)["full"]
        if not full.improvement > 0:
            unit.problems.append(
                f"full row improvement {100 * full.improvement:+.2f} pts is not positive")
        out = {
            "miou_pct": (100 * full.cumulative_miou, "%"),
            "source_miou_pct": (100 * full.source_cumulative_miou, "%"),
            "improvement_pts": (100 * full.improvement, "pts"),
        }
        for name, report in rows[:-1]:
            out[f"improvement_pts.{name.lstrip('+')}"] = (100 * report.improvement, "pts")
        return out


class Pretrain:
    name = "pretrain"

    def __init__(self, args, ckpt, work):
        self.scene_seed = args.scene_seed
        self.shift_seed = args.seed
        self.jitter_seed = args.seed
        p = PRETRAIN
        # one Adam step per frame per epoch, plus one per head warm-up pair
        self.steps = 2 * p["frames"] * p["epochs"] + 2 * p["head_epochs"] * (p["frames"] - p["window"])

    def generate(self):
        return source_sequences(self.scene_seed, self.shift_seed, PRETRAIN["frames"],
                                self.jitter_seed)

    def load(self):
        pass

    def points_per_frame(self):
        return float(np.mean([f.num_points for seq in self.frames for f in seq]))

    def warmup(self):
        model.pretrain_source([self.frames[0][:2]], epochs=1, seed=PRETRAIN["seed"],
                              feature_fn=feature_fn, num_classes=NUM_CLASSES, head_epochs=0)

    def unit(self, tracer=None):
        p = PRETRAIN
        out = Unit(attempted=self.steps)
        start = clock()
        try:
            out.outputs = model.pretrain_source(
                self.frames, epochs=p["epochs"], seed=p["seed"], feature_fn=feature_fn,
                num_classes=NUM_CLASSES, head_epochs=p["head_epochs"], window=p["window"])
        except Exception as exc:  # the call's steps produced no model
            out.failed = self.steps
            out.problems.append(f"pretrain_source raised {exc!r}")
            return out
        out.wall_s = clock() - start
        out.latencies = [out.wall_s / self.steps]
        out.items = self.steps
        return out

    def check(self, unit: Unit):
        params, history = unit.outputs
        unit.fingerprint = _params_bytes(params) + np.asarray(history).tobytes()
        if not np.all(np.isfinite(history)):
            unit.failed = self.steps
            unit.problems.append(f"non-finite epoch loss in {history}")
        if not all(np.all(np.isfinite(v)) for v in params.tensors.values()):
            unit.problems.append("non-finite trained parameters")

    def quality(self, unit: Unit):
        params, history = unit.outputs
        return {
            "miou_pct": (100 * self._train_miou(params), "%"),
            "pretrain_loss": (history[-1], "loss"),
        }

    def _train_miou(self, params):
        """mIoU of the trained model on its clean training frames."""
        total = None
        for frame in self.frames[0]:
            probs, _, _ = model.forward(params, feature_fn(frame))
            cm = harness.confusion_matrix(LabelField(np.argmax(probs.values, axis=1)),
                                          LabelField(frame.gt_labels), NUM_CLASSES)
            total = cm if total is None else (total[0] + cm[0], total[1] + cm[1])
        return harness.iou_from_confusion(total)[1]


WORKLOADS = {w.name: w for w in (GoldenAdapt, Pretrain, AblationLadder)}
