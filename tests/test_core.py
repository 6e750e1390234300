"""Frames, label fields, class maps and their validation."""

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
    validate_frame,
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
        f = Frame(0, np.empty((0, 3)), np.eye(4), None)
        with pytest.raises(EmptyFrame):
            validate_frame(f)

    def test_nan_coordinate_rejected(self):
        pts = np.zeros((3, 3))
        pts[1, 2] = np.nan
        with pytest.raises(NonFiniteCoordinate):
            validate_frame(Frame(0, pts, np.eye(4), None))

    def test_pose_last_row(self):
        pose = np.eye(4)
        pose[3, 0] = 0.5
        with pytest.raises(InvalidPose):
            validate_frame(Frame(0, np.zeros((2, 3)), pose, None))

    def test_pose_must_be_rotation(self):
        pose = np.eye(4)
        pose[:3, :3] *= 2.0  # not orthonormal
        with pytest.raises(InvalidPose):
            validate_frame(Frame(0, np.zeros((2, 3)), pose, None))

    def test_reflection_rejected(self):
        pose = np.eye(4)
        pose[0, 0] = -1.0  # det < 0
        with pytest.raises(InvalidPose):
            validate_frame(Frame(0, np.zeros((2, 3)), pose, None))

    def test_valid_frame_passes(self):
        theta = 0.3
        pose = np.eye(4)
        pose[:2, :2] = [[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]]
        pose[:3, 3] = [1.0, 2.0, 3.0]
        validate_frame(Frame(0, np.ones((4, 3)), pose, None))

    def test_gt_length_mismatch(self):
        f = Frame(0, np.zeros((3, 3)), np.eye(4), np.zeros(2, dtype=np.int64))
        with pytest.raises(LengthMismatch):
            validate_frame(f)


class TestFields:
    def test_probability_rows_must_sum_to_one(self):
        bad = np.full((2, 4), 0.3)
        with pytest.raises(ValueError):
            ProbabilityField(bad)

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
