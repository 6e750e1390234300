"""Frames, label fields, class maps and their validation."""

import ctypes
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from streamseg.core import (
    CANONICAL_CLASSES,
    IGNORE,
    ClassMap,
    ConfidenceField,
    Frame,
    LabelField,
    ProbabilityField,
    SelectionMask,
    remap_labels,
    retain_freed_memory,
)
from streamseg.errors import (
    ConfigInvalid,
    EmptyFrame,
    InvalidPose,
    LengthMismatch,
    NonFiniteCoordinate,
    UnknownRawId,
)


def make_frame(n=10, seed=0):
    rng = np.random.default_rng(seed)
    return Frame(0, rng.normal(size=(n, 3)), np.eye(4), np.zeros(n, dtype=np.int64))


class TestFrame:
    def test_arrays_are_frozen(self):
        f = make_frame()
        with pytest.raises(ValueError):
            f.points[0, 0] = 1.0

    def test_num_points(self):
        assert make_frame(17).num_points == 17

    def test_empty_frame_rejected(self):
        with pytest.raises(EmptyFrame, match=r"^frame 0: expected non-empty N x 3 points, "
                                             r"got \(0, 3\)$"):
            Frame(0, np.empty((0, 3)), np.eye(4), None)

    @pytest.mark.parametrize("points", [np.zeros(3), np.zeros((2, 2)), np.zeros((2, 3, 1))],
                             ids=["vector", "two-columns", "rank-3"])
    def test_wrong_rank_rejected(self, points):
        with pytest.raises(EmptyFrame, match=rf"^frame 4: expected non-empty N x 3 points, "
                                             rf"got {re.escape(str(points.shape))}$"):
            Frame(4, points, np.eye(4), None)

    def test_nan_coordinate_rejected(self):
        pts = np.zeros((3, 3))
        pts[1, 2] = np.nan
        with pytest.raises(NonFiniteCoordinate, match="^frame 0: non-finite coordinate$"):
            Frame(0, pts, np.eye(4), None)

    @pytest.mark.parametrize("pose", [np.full((4, 4), np.nan), np.eye(3), np.eye(4)[:3],
                                      np.where(np.eye(4) == 1, np.inf, 0.0)],
                             ids=["nan", "3x3", "3x4", "inf"])
    def test_non_finite_or_misshapen_pose_rejected(self, pose):
        with pytest.raises(InvalidPose, match="^frame 2: pose must be a finite 4x4 matrix$"):
            Frame(2, np.zeros((2, 3)), pose, None)

    def test_pose_last_row(self):
        pose = np.eye(4)
        pose[3, 0] = 0.5
        with pytest.raises(InvalidPose, match=r"^frame 0: last pose row must be \[0,0,0,1\]$"):
            Frame(0, np.zeros((2, 3)), pose, None)

    # the last-row check keeps np.allclose(row, [0, 0, 0, 1], atol=1e-9)'s tolerances:
    # |row - [0, 0, 0, 1]| <= 1e-9 + 1e-5 * [0, 0, 0, 1]
    @pytest.mark.parametrize("col, value, ok", [
        (3, 1 + 5e-6, True),
        (3, 1 + 2e-5, False),
        (0, 5e-10, True),
        (0, 2e-9, False),
    ], ids=["last-within-rtol", "last-past-rtol", "first-within-atol", "first-past-atol"])
    def test_pose_last_row_tolerance(self, col, value, ok):
        pose = np.eye(4)
        pose[3, col] = value
        assert np.allclose(pose[3], [0.0, 0.0, 0.0, 1.0], atol=1e-9) == ok
        if ok:
            Frame(0, np.zeros((2, 3)), pose, None)
        else:
            with pytest.raises(InvalidPose, match="last pose row"):
                Frame(0, np.zeros((2, 3)), pose, None)

    def test_pose_must_be_rotation(self):
        pose = np.eye(4)
        pose[:3, :3] *= 2.0  # not orthonormal
        with pytest.raises(InvalidPose, match="^frame 0: rotation block is not orthonormal$"):
            Frame(0, np.zeros((2, 3)), pose, None)

    def test_reflection_rejected(self):
        pose = np.eye(4)
        pose[0, 0] = -1.0  # det < 0
        with pytest.raises(InvalidPose,
                           match=r"^frame 0: rotation block is not proper \(det <= 0\)$"):
            Frame(0, np.zeros((2, 3)), pose, None)

    def test_proper_rotation_check_agrees_with_linalg_det(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))  # orthonormal, det +1 or -1
            pose = np.eye(4)
            pose[:3, :3] = q
            if np.linalg.det(q) > 0:
                Frame(0, np.zeros((2, 3)), pose, None)
            else:
                with pytest.raises(InvalidPose, match="not proper"):
                    Frame(0, np.zeros((2, 3)), pose, None)

    def test_valid_frame_passes(self):
        theta = 0.3
        pose = np.eye(4)
        pose[:2, :2] = [[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]]
        pose[:3, 3] = [1.0, 2.0, 3.0]
        Frame(0, np.ones((4, 3)), pose, None)

    def test_gt_length_mismatch(self):
        with pytest.raises(LengthMismatch, match="^frame 0: gt label count != point count$"):
            Frame(0, np.zeros((3, 3)), np.eye(4), np.zeros(2, dtype=np.int64))

    def test_gt_labels_must_be_a_vector(self):
        with pytest.raises(LengthMismatch, match="^frame 0: gt label count != point count$"):
            Frame(0, np.zeros((3, 3)), np.eye(4), np.zeros((3, 1), dtype=np.int64))


class TestFields:
    def test_probability_rows_must_sum_to_one(self):
        bad = np.full((2, 4), 0.3)
        with pytest.raises(ValueError):
            ProbabilityField(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_probability_rejects_non_finite(self, bad):
        # every comparison with NaN is false, so the range and sum checks pass it
        p = np.full((2, 3), 1 / 3)
        p[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            ProbabilityField(p)
        with pytest.raises(ValueError, match="finite"):
            ProbabilityField(np.full((2, 3), np.nan))

    def test_probability_accepts_valid(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(5), size=20)
        assert ProbabilityField(p).values.shape == (20, 5)

    def test_confidence_range(self):
        with pytest.raises(ValueError):
            ConfidenceField(np.array([0.5, 1.2]))
        with pytest.raises(ValueError):
            ConfidenceField(np.array([-0.1]))

    def test_selection_mask_bool(self):
        m = SelectionMask(np.array([True, False]))
        assert m.values.dtype == np.bool_

    def test_label_field_len(self):
        assert len(LabelField(np.array([1, 2, IGNORE]))) == 3

    @pytest.mark.parametrize("field, wrong_rank, message", [
        (ProbabilityField, np.full(3, 1 / 3), r"^probabilities must be N x C, got shape \(3,\)$"),
        (LabelField, np.zeros((2, 2)), r"^labels must be a vector, got shape \(2, 2\)$"),
        (ConfidenceField, np.zeros((2, 1)), r"^confidences must be a vector, got shape \(2, 1\)$"),
        (SelectionMask, np.array(True), r"^mask must be a vector, got shape \(\)$"),
    ], ids=["probability", "label", "confidence", "mask"])
    def test_wrong_rank_message(self, field, wrong_rank, message):
        with pytest.raises(LengthMismatch, match=message):
            field(wrong_rank)

    @pytest.mark.parametrize("field, values, dtype", [
        (ProbabilityField, [[1, 0], [0, 1]], np.float64),
        (LabelField, [0.0, IGNORE], np.int64),
        (ConfidenceField, [0, 1], np.float64),
        (SelectionMask, [1, 0], np.bool_),
    ], ids=["probability", "label", "confidence", "mask"])
    def test_values_converted_and_frozen(self, field, values, dtype):
        f = field(values)
        assert f.values.dtype == dtype and len(f) == 2
        with pytest.raises(ValueError):
            f.values[0] = f.values[1]


SEMANTIC_KITTI = Path(__file__).resolve().parents[1] / "class_maps" / "semantic_kitti.txt"
SEMANTIC_KITTI_RAW = SEMANTIC_KITTI.with_name("semantic_kitti_raw.txt")
#: SemanticKITTI's learning_map: raw .label id -> 0-19 training id.
SEMANTIC_KITTI_LEARNING_MAP = {
    0: 0, 1: 0, 10: 1, 11: 2, 13: 5, 15: 3, 16: 5, 18: 4, 20: 5, 30: 6, 31: 7, 32: 8,
    40: 9, 44: 10, 48: 11, 49: 12, 50: 13, 51: 14, 52: 0, 60: 9, 70: 15, 71: 16,
    72: 17, 80: 18, 81: 19, 99: 0, 252: 1, 253: 7, 254: 6, 255: 8, 256: 5, 257: 5,
    258: 4, 259: 5,
}


class TestClassMap:
    def test_canonical_has_seven_classes(self):
        cm = ClassMap.canonical()
        assert cm.num_classes == 7
        assert cm.canonical_names == CANONICAL_CLASSES

    def test_semantic_kitti_examples(self):
        table = ClassMap.from_file(SEMANTIC_KITTI).raw_to_canonical
        assert table[1] == 0           # car -> vehicle
        assert table[0] == IGNORE      # unlabelled
        assert table[9] == 2           # road
        assert table[15] == 6          # vegetation
        assert table[14] == 5          # fence -> manmade

    def test_remap_vectorized(self):
        cm = ClassMap.from_file(SEMANTIC_KITTI)
        raw = np.array([1, 9, 0, 6], dtype=np.int64)
        out = remap_labels(raw, cm)
        assert out.values.tolist() == [0, 2, IGNORE, 1]

    def test_semantic_kitti_raw_ids(self):
        cm = ClassMap.from_file(SEMANTIC_KITTI_RAW)
        raw = np.array([10, 40, 48, 252, 254, 60, 99], dtype=np.int64)
        assert remap_labels(raw, cm).values.tolist() == [0, 2, 3, 0, 1, 2, IGNORE]
        # every raw id, mapped as the training-id table maps its learning-map class
        training = ClassMap.from_file(SEMANTIC_KITTI).raw_to_canonical
        assert cm.raw_to_canonical == {raw_id: training[train_id] for raw_id, train_id
                                       in SEMANTIC_KITTI_LEARNING_MAP.items()}

    def test_remap_unknown_raises(self):
        cm = ClassMap.canonical()
        with pytest.raises(UnknownRawId):
            remap_labels(np.array([999]), cm)

    def test_from_file_roundtrip(self, tmp_path):
        p = tmp_path / "map.txt"
        p.write_text("# raw -> canonical\n10 0\n44 2\n99 -1\n")
        cm = ClassMap.from_file(p)
        assert cm.raw_to_canonical == {10: 0, 44: 2, 99: IGNORE}

    @pytest.mark.parametrize("table", ["1 2 3\n", "a 1\n", "1 1.5\n", "4 0\n4 1\n", "0 7\n"],
                             ids=["malformed", "non-integer", "float", "duplicate", "out-of-range"])
    def test_from_file_rejects_malformed_table(self, tmp_path, table):
        p = tmp_path / "map.txt"
        p.write_text(table)
        with pytest.raises(ConfigInvalid):
            ClassMap.from_file(p)

    def test_identity_map(self):
        cm = ClassMap.identity(7)
        assert cm.raw_to_canonical[3] == 3
        assert cm.num_classes == 7


TESTS = Path(__file__).resolve().parent

#: A frame-like allocation loop run after `setup` in a fresh interpreter: one
#: round to grow the heap, then 20 rounds of four 4 MiB float64 arrays alive
#: together and freed, counting the minor page faults of those 20 rounds.
FAULT_PROBE = """
import resource
import numpy as np
import streamseg
{setup}
def allocate():
    arrays = [np.ones(1 << 19) for _ in range(4)]
    del arrays
allocate()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    allocate()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def probe_faults(setup=""):
    # glibc's defaults: no malloc tuning inherited from the environment
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    env["PYTHONPATH"] = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE.format(setup=setup)], env=env,
                         capture_output=True, text=True, check=True)
    return int(out.stdout.split()[-1])


on_glibc = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                              reason="the allocator setting applies to glibc only")


class TestRetainFreedMemory:
    @on_glibc
    def test_import_sets_nothing(self):
        # the premise: with glibc's defaults the loop maps and trims its arrays every round
        assert probe_faults() > 10_000

    @on_glibc
    @pytest.mark.parametrize("setup", [
        "from streamseg import harness\n"
        "from test_harness import tiny_params, tiny_stream\n"
        "harness.run_tta(tiny_stream(3), tiny_params(), harness.AdaptConfig(window=2))",
        "from streamseg import model\n"
        "from test_model import toy_features, toy_sequence\n"
        "model.pretrain_source([toy_sequence(0, frames=3)], epochs=1, seed=0,\n"
        "                      feature_fn=toy_features, num_classes=2, head_epochs=0)",
    ], ids=["run_tta", "pretrain_source"])
    def test_loops_keep_freed_memory(self, setup):
        assert probe_faults(setup) < 1_000

    def test_other_c_libraries_are_untouched(self, monkeypatch):
        def no_libc(*args, **kwargs):
            raise AssertionError("loaded a C library")

        monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: ("", ""))
        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        assert retain_freed_memory() is None
