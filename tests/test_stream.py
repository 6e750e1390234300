"""Synthetic stream generation, shifts, configs, and sequence round-trips."""

import re
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from streamseg.core import CANONICAL_CLASSES, Frame
from streamseg.errors import (ConfigInvalid, InvalidPose, IoFailure, MalformedRecord,
                              PoseCountMismatch)
from streamseg import harness, stream
from streamseg.spatial import match_correspondences


SMALL = dict(seed=0, frames=5)


class TestSceneConfig:
    def test_defaults_validate(self):
        stream.SceneConfig()

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigInvalid):
            stream.SceneConfig(frames=0)
        with pytest.raises(ConfigInvalid):
            stream.SceneConfig(point_density=0.0)
        with pytest.raises(ConfigInvalid):
            stream.SceneConfig(vehicle_spacing=1000.0)

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "scene.cfg"
        p.write_text("# comment\nseed = 3\nframes=7\nego_step = 0.25\n")
        cfg = stream.load_scene_config(p)
        assert cfg.seed == 3 and cfg.frames == 7
        assert cfg.ego_step == pytest.approx(0.25)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "scene.cfg"
        p.write_text("bogus=1\n")
        with pytest.raises(ConfigInvalid):
            stream.load_scene_config(p)

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "scene.cfg"
        p.write_text("frames 7\n")
        with pytest.raises(ConfigInvalid):
            stream.load_scene_config(p)

    def test_repeated_key_rejected(self, tmp_path):
        p = tmp_path / "scene.cfg"
        p.write_text("seed=1\nframes=7\nseed=2\n")
        with pytest.raises(ConfigInvalid, match=rf"^{re.escape(str(p))}:3: key 'seed' repeats "
                                                rf"{re.escape(str(p))}:1$"):
            stream.load_scene_config(p)


FLOAT_FIELDS = [(config, f.name) for config in (stream.SceneConfig, stream.ShiftConfig)
                for f in fields(config) if isinstance(f.default, float)]


@pytest.mark.parametrize("config, name", FLOAT_FIELDS, ids=[name for _, name in FLOAT_FIELDS])
def test_nan_field_rejected(config, name):
    with pytest.raises(ConfigInvalid, match=f"^{name} must be .*, got nan$"):
        config(**{name: float("nan")})


CONFIGS = [(stream.SceneConfig, "frames", 0), (stream.ShiftConfig, "density_factor", 0.0),
           (harness.AdaptConfig, "window", 0)]


@pytest.mark.parametrize("config, name, bad", CONFIGS, ids=[c.__name__ for c, _, _ in CONFIGS])
def test_config_checks_itself_when_built(config, name, bad):
    with pytest.raises(ConfigInvalid, match=f"^{name} must be "):
        config(**{name: bad})


@pytest.mark.parametrize("config, name, bad", CONFIGS, ids=[c.__name__ for c, _, _ in CONFIGS])
def test_built_config_is_frozen(config, name, bad):
    cfg = config()
    with pytest.raises(FrozenInstanceError):
        setattr(cfg, name, bad)


class TestShiftConfig:
    def test_dropout_length_checked(self):
        with pytest.raises(ConfigInvalid):
            stream.ShiftConfig(class_dropout=(0.5, 0.5))
        with pytest.raises(ConfigInvalid):
            stream.ShiftConfig(class_dropout=(1.0,) + (0.0,) * 6)
        with pytest.raises(ConfigInvalid):
            stream.ShiftConfig(class_dropout=(float("nan"),) + (0.0,) * 6)

    def test_load_named_dropout(self, tmp_path):
        p = tmp_path / "shift.cfg"
        p.write_text("jitter_sigma=0.05\ndropout_pedestrian=0.3\nseed=11\n")
        cfg = stream.load_shift_config(p)
        assert cfg.jitter_sigma == pytest.approx(0.05)
        ped = CANONICAL_CLASSES.index("pedestrian")
        assert cfg.class_dropout[ped] == pytest.approx(0.3)
        assert cfg.seed == 11

    def test_load_dropout_vector(self, tmp_path):
        p = tmp_path / "shift.cfg"
        p.write_text("dropout=0,0.1,0,0,0,0,0\n")
        assert stream.load_shift_config(p).class_dropout[1] == pytest.approx(0.1)

    def test_unknown_class_rejected(self, tmp_path):
        p = tmp_path / "shift.cfg"
        p.write_text("dropout_dragon=0.5\n")
        with pytest.raises(ConfigInvalid):
            stream.load_shift_config(p)

    @pytest.mark.parametrize("lines, second", [
        (["dropout_pedestrian=0.3", "dropout=0,0,0,0,0,0,0"], "'dropout' conflicts with "
                                                             "'dropout_pedestrian'"),
        (["dropout=0,0.1,0,0,0,0,0", "dropout_vehicle=0.2"], "'dropout_vehicle' conflicts with "
                                                             "'dropout'"),
    ], ids=["list-after-named", "named-after-list"])
    def test_dropout_list_and_named_dropout_rejected_together(self, tmp_path, lines, second):
        # the later form would silently overwrite what the earlier one set
        p = tmp_path / "shift.cfg"
        p.write_text("seed=3\n" + "\n".join(lines) + "\n")
        with pytest.raises(ConfigInvalid,
                           match=rf"^{re.escape(str(p))}:3: {second} at {re.escape(str(p))}:2;"):
            stream.load_shift_config(p)


class TestGeneration:
    def test_deterministic(self):
        a = stream.generate_sequence(stream.SceneConfig(**SMALL), stream.ShiftConfig())
        b = stream.generate_sequence(stream.SceneConfig(**SMALL), stream.ShiftConfig())
        assert len(a) == len(b) == 5
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.points, fb.points)
            np.testing.assert_array_equal(fa.gt_labels, fb.gt_labels)
            np.testing.assert_array_equal(fa.pose, fb.pose)

    def test_frames_are_valid(self):
        # a Frame checks its invariants when it is built, so generating is the check
        frames = stream.generate_sequence(stream.SceneConfig(**SMALL), stream.ShiftConfig())
        assert [f.frame_id for f in frames] == list(range(SMALL["frames"]))

    def test_every_class_present_per_frame(self):
        frames = stream.generate_sequence(stream.SceneConfig(**SMALL),
                                          stream.ShiftConfig())
        for f in frames:
            assert len(np.unique(f.gt_labels)) == len(CANONICAL_CLASSES)

    def test_scene_seed_changes_world(self):
        a = stream.generate_sequence(stream.SceneConfig(**SMALL), stream.ShiftConfig())
        b = stream.generate_sequence(stream.SceneConfig(seed=1, frames=5),
                                     stream.ShiftConfig())
        assert a[0].num_points != b[0].num_points or \
            not np.array_equal(a[0].points, b[0].points)

    def test_ego_moves_forward(self):
        frames = stream.generate_sequence(stream.SceneConfig(**SMALL),
                                          stream.ShiftConfig())
        xs = [f.pose[0, 3] for f in frames]
        assert np.all(np.diff(xs) > 0)

    def test_yaw_step_turns_the_sensor(self):
        frames = stream.generate_sequence(stream.SceneConfig(seed=7, frames=2, yaw_step=0.05),
                                          stream.ShiftConfig())
        c, s = np.cos(0.05), np.sin(0.05)
        np.testing.assert_array_equal(frames[1].pose[:3, :3],
                                      [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        # the turned scan sees the same world through the turned pose
        pairs = match_correspondences(frames[1], frames[0], 1e-6)
        assert len(pairs.idx_prev) > 0.99 * frames[0].num_points
        assert pairs.dist.max() < 1e-14

    def test_sensor_height_offset_raises_every_pose(self):
        scene = stream.SceneConfig(seed=7, frames=2)
        frames = stream.generate_sequence(scene, stream.ShiftConfig(sensor_height_offset=0.5))
        assert [f.pose[2, 3] for f in frames] == [scene.sensor_height + 0.5] * 2

    def test_density_factor_thins_points(self):
        full = stream.generate_sequence(stream.SceneConfig(**SMALL), stream.ShiftConfig())
        thin = stream.generate_sequence(stream.SceneConfig(**SMALL),
                                        stream.ShiftConfig(density_factor=0.5))
        assert thin[0].num_points < 0.7 * full[0].num_points

    def test_class_dropout_reduces_one_class(self):
        base = stream.generate_sequence(stream.SceneConfig(**SMALL), stream.ShiftConfig())
        drop = stream.generate_sequence(
            stream.SceneConfig(**SMALL),
            stream.ShiftConfig(class_dropout=(0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0)))
        ped = CANONICAL_CLASSES.index("pedestrian")
        road = CANONICAL_CLASSES.index("road")
        n_base = (base[0].gt_labels == ped).sum()
        n_drop = (drop[0].gt_labels == ped).sum()
        assert n_drop < 0.75 * n_base
        assert (drop[0].gt_labels == road).sum() == (base[0].gt_labels == road).sum()

    def test_jitter_perturbs_coordinates(self):
        clean = stream.generate_sequence(stream.SceneConfig(**SMALL), stream.ShiftConfig())
        noisy = stream.generate_sequence(stream.SceneConfig(**SMALL),
                                         stream.ShiftConfig(jitter_sigma=0.05))
        delta = noisy[0].points - clean[0].points
        assert 0.03 < np.std(delta) < 0.08
        np.testing.assert_array_equal(noisy[0].gt_labels, clean[0].gt_labels)

    def test_jittered_copies(self):
        clean = stream.generate_sequence(stream.SceneConfig(**SMALL), stream.ShiftConfig())
        a, b = stream.jittered_copies([clean, clean[:1]], 0.05, seed=3)
        assert len(a) == len(clean) and len(b) == 1
        for copy, frame in zip(a, clean):
            assert 0.03 < np.std(copy.points - frame.points) < 0.08
            np.testing.assert_array_equal(copy.gt_labels, frame.gt_labels)
            np.testing.assert_array_equal(copy.pose, frame.pose)
        # one generator serves the sequences in order, so the second copy differs
        assert not np.array_equal(b[0].points, a[0].points)
        again, _ = stream.jittered_copies([clean, clean[:1]], 0.05, seed=3)
        np.testing.assert_array_equal(again[0].points, a[0].points)


class TestJitter:
    @staticmethod
    def frame(n, labels=True):
        rng = np.random.default_rng(0)
        return Frame(4, rng.uniform(-5, 5, (n, 3)), np.eye(4),
                     np.arange(n) % 7 if labels else None)

    def test_without_subsampling_draws_only_the_noise(self):
        frame = self.frame(50)
        rng, twin = np.random.default_rng(1), np.random.default_rng(1)
        out = stream.jitter(frame, rng, 0.05)
        noise = twin.normal(0.0, 0.05, frame.points.shape)
        assert rng.bit_generator.state == twin.bit_generator.state
        np.testing.assert_array_equal(out.points, frame.points + noise)
        np.testing.assert_array_equal(out.gt_labels, frame.gt_labels)
        assert out.frame_id == frame.frame_id
        np.testing.assert_array_equal(out.pose, frame.pose)

    @pytest.mark.parametrize("labels", [True, False], ids=["labeled", "unlabeled"])
    def test_subsampling_draws_the_mask_after_the_noise(self, labels):
        frame = self.frame(200, labels)
        rng, twin = np.random.default_rng(2), np.random.default_rng(2)
        out = stream.jitter(frame, rng, 0.05, keep_frac=0.5)
        noise = twin.normal(0.0, 0.05, frame.points.shape)
        keep = twin.uniform(size=frame.num_points) < 0.5
        assert rng.bit_generator.state == twin.bit_generator.state
        assert 32 <= keep.sum() < frame.num_points
        np.testing.assert_array_equal(out.points, (frame.points + noise)[keep])
        if labels:
            np.testing.assert_array_equal(out.gt_labels, frame.gt_labels[keep])
        else:
            assert out.gt_labels is None

    def test_keeps_every_point_when_fewer_than_32_would_stay(self):
        frame = self.frame(40)
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        out = stream.jitter(frame, rng, 0.05, keep_frac=0.5)
        noise = twin.normal(0.0, 0.05, frame.points.shape)
        assert (twin.uniform(size=frame.num_points) < 0.5).sum() < 32
        np.testing.assert_array_equal(out.points, frame.points + noise)
        np.testing.assert_array_equal(out.gt_labels, frame.gt_labels)


class TestSequenceIo:
    def test_round_trip(self, tmp_path):
        frames = stream.generate_sequence(stream.SceneConfig(seed=2, frames=3),
                                          stream.ShiftConfig())
        stream.write_sequence(frames, tmp_path / "seq")
        back = stream.read_sequence(tmp_path / "seq")
        assert len(back) == 3
        for orig, rt in zip(frames, back):
            # coordinates survive the float32 on-disk format
            np.testing.assert_allclose(rt.points, orig.points, atol=1e-5)
            np.testing.assert_array_equal(rt.gt_labels, orig.gt_labels)
            np.testing.assert_allclose(rt.pose, orig.pose, atol=1e-15)

    def test_labels_optional(self, tmp_path):
        frame = Frame(0, np.random.default_rng(0).normal(size=(10, 3)), np.eye(4), None)
        stream.write_sequence([frame], tmp_path / "seq")
        back = stream.read_sequence(tmp_path / "seq")
        assert back[0].gt_labels is None

    def test_label_file_masks_upper_bits(self, tmp_path):
        path = tmp_path / "x.label"
        np.array([0x0001_0005], dtype="<u4").tofile(path)
        assert stream.read_label_file(path).tolist() == [5]

    def test_label_range_checked(self, tmp_path):
        with pytest.raises(ValueError):
            stream.write_label_file(tmp_path / "x.label", np.array([-1]))
        with pytest.raises(ValueError):
            stream.write_label_file(tmp_path / "x.label", np.array([0x1_0000]))

    def test_pose_count_mismatch(self, tmp_path):
        frames = stream.generate_sequence(stream.SceneConfig(seed=0, frames=2),
                                          stream.ShiftConfig())
        stream.write_sequence(frames, tmp_path / "seq")
        poses = (tmp_path / "seq" / "poses.txt")
        poses.write_text(poses.read_text().splitlines()[0] + "\n")
        with pytest.raises(PoseCountMismatch):
            stream.read_sequence(tmp_path / "seq")

    def test_truncated_bin_rejected(self, tmp_path):
        frames = stream.generate_sequence(stream.SceneConfig(seed=0, frames=1),
                                          stream.ShiftConfig())
        stream.write_sequence(frames, tmp_path / "seq")
        bin_path = tmp_path / "seq" / "000000.bin"
        bin_path.write_bytes(bin_path.read_bytes()[:-3])
        with pytest.raises(MalformedRecord):
            stream.read_sequence(tmp_path / "seq")

    def test_label_count_mismatch(self, tmp_path):
        frames = stream.generate_sequence(stream.SceneConfig(seed=0, frames=1),
                                          stream.ShiftConfig())
        stream.write_sequence(frames, tmp_path / "seq")
        lbl = tmp_path / "seq" / "000000.label"
        lbl.write_bytes(lbl.read_bytes()[:-4])
        with pytest.raises(MalformedRecord):
            stream.read_sequence(tmp_path / "seq")

    def test_frame_ids_are_the_file_numbers(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = [Frame(100 + i, rng.normal(size=(20, 3)), np.eye(4)) for i in range(3)]
        stream.write_sequence(frames, tmp_path / "seq")
        assert sorted(p.name for p in (tmp_path / "seq").glob("*.bin")) == [
            "000100.bin", "000101.bin", "000102.bin"]
        back = stream.read_sequence(tmp_path / "seq")
        assert [f.frame_id for f in back] == [100, 101, 102]
        for orig, rt in zip(frames, back):
            np.testing.assert_allclose(rt.points, orig.points, atol=1e-5)

    @pytest.mark.parametrize("ids", [(0, 0), (-1,)], ids=["repeated", "negative"])
    def test_ids_that_cannot_name_a_file_rejected_before_writing(self, tmp_path, ids):
        frames = [Frame(i, np.ones((4, 3)), np.eye(4)) for i in ids]
        with pytest.raises(ValueError, match="frame ids name the files"):
            stream.write_sequence(frames, tmp_path / "seq")
        assert not (tmp_path / "seq").exists()

    def test_frames_come_in_number_order(self, tmp_path):
        # "10" sorts before "9" as a string; poses.txt lists frame 9 first
        rng = np.random.default_rng(0)
        seq = tmp_path / "seq"
        pose = np.eye(4)
        pose[:3, 3] = [5.0, 0.0, 0.0]
        stream.write_sequence([Frame(0, rng.normal(size=(20, 3)), np.eye(4)),
                               Frame(1, rng.normal(size=(30, 3)), pose)], seq)
        (seq / "000000.bin").rename(seq / "9.bin")
        (seq / "000001.bin").rename(seq / "10.bin")
        back = stream.read_sequence(seq)
        assert [(f.frame_id, f.num_points, f.pose[0, 3]) for f in back] == [
            (9, 20, 0.0), (10, 30, 5.0)]

    @pytest.mark.parametrize("name", ["scan.bin", "-00001.bin", "1e3.bin", "٣.bin"])
    def test_scan_not_named_by_a_number_rejected(self, tmp_path, name):
        frames = [Frame(0, np.ones((4, 3)), np.eye(4))]
        stream.write_sequence(frames, tmp_path / "seq")
        (tmp_path / "seq" / "000000.bin").rename(tmp_path / "seq" / name)
        with pytest.raises(MalformedRecord, match=rf"{re.escape(name)}: file name is not a "
                                                  "frame number$"):
            stream.read_sequence(tmp_path / "seq")

    def test_repeated_frame_number_rejected(self, tmp_path):
        frames = [Frame(i, np.ones((4, 3)), np.eye(4)) for i in range(2)]
        stream.write_sequence(frames, tmp_path / "seq")
        (tmp_path / "seq" / "000001.bin").rename(tmp_path / "seq" / "0.bin")
        with pytest.raises(MalformedRecord,
                           match=r"/000000\.bin: frame number 0 repeats 0\.bin$"):
            stream.read_sequence(tmp_path / "seq")

    def test_nan_pose_is_rejected_when_read(self, tmp_path):
        frames = stream.generate_sequence(stream.SceneConfig(seed=0, frames=3),
                                          stream.ShiftConfig())
        stream.write_sequence(frames, tmp_path / "seq")
        poses = tmp_path / "seq" / "poses.txt"
        lines = poses.read_text().splitlines()
        lines[1] = " ".join(["nan"] * 12)
        poses.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidPose, match="^frame 1: pose must be a finite 4x4 matrix$"):
            stream.read_sequence(tmp_path / "seq")

    def test_missing_label_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            stream.read_label_file(tmp_path / "none.label")

    def test_pose_error_names_the_line_as_numbered_in_the_file(self, tmp_path):
        frames = [Frame(i, np.ones((4, 3)), np.eye(4)) for i in range(3)]
        stream.write_sequence(frames, tmp_path / "seq")
        poses = tmp_path / "seq" / "poses.txt"
        first, second, third = poses.read_text().splitlines()
        poses.write_text("\n".join([first, "", "  ", second, third.rsplit(" ", 1)[0]]) + "\n")
        with pytest.raises(MalformedRecord, match=r"poses\.txt: line 5 must hold 12 numbers$"):
            stream.read_sequence(tmp_path / "seq")

    def test_scans_of_other_frames_refused_before_writing(self, tmp_path):
        seq = tmp_path / "seq"
        stream.write_sequence(stream.generate_sequence(stream.SceneConfig(seed=2, frames=5),
                                                       stream.ShiftConfig()), seq)
        before = stream.read_sequence(seq)
        shorter = stream.generate_sequence(stream.SceneConfig(seed=3, frames=3),
                                           stream.ShiftConfig())
        with pytest.raises(ConfigInvalid, match=r"/000003\.bin: not one of the 3 frames"):
            stream.write_sequence(shorter, seq)
        after = stream.read_sequence(seq)
        assert len(after) == 5
        for a, b in zip(before, after):
            assert a.points.tobytes() == b.points.tobytes()
            assert a.pose.tobytes() == b.pose.tobytes()

    def test_rewriting_the_same_frames(self, tmp_path):
        seq = tmp_path / "seq"
        stream.write_sequence(stream.generate_sequence(stream.SceneConfig(seed=2, frames=3),
                                                       stream.ShiftConfig()), seq)
        frames = stream.generate_sequence(stream.SceneConfig(seed=3, frames=3),
                                          stream.ShiftConfig())
        stream.write_sequence(frames, seq)
        back = stream.read_sequence(seq)
        assert len(back) == 3
        for orig, rt in zip(frames, back):
            assert rt.points.tobytes() == orig.points.astype("<f4").astype(np.float64).tobytes()
            np.testing.assert_array_equal(rt.gt_labels, orig.gt_labels)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(IoFailure):
            stream.read_sequence(tmp_path / "nope")
