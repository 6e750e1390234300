"""Synthetic LiDAR streams with ground truth and ego-motion, plus sequence I/O.

The scene is a static corridor world sampled once per sequence: a ground
plane (road) flanked by raised sidewalks, undulating terrain, and walls,
populated with boxes (vehicles), thin cylinders (pedestrians), and isotropic
blobs (vegetation). The sensor drives along the corridor; each frame is the
world subset within sensor range, expressed in sensor coordinates. Domain
shift is injected via coordinate jitter, density scaling, per-class dropout,
and a sensor height offset.

On-disk layout mirrors KITTI odometry conventions: NNNNNN.bin (float32
x, y, z, intensity), NNNNNN.label (uint32, lower 16 bits = raw class id),
poses.txt (row-major upper 3x4 of the sensor-to-world pose per line, in
frame order). NNNNNN is the frame id.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from .core import CANONICAL_CLASSES, Frame, read_text
from .errors import ConfigInvalid, IoFailure, MalformedRecord, PoseCountMismatch

_NUM_CLASSES = len(CANONICAL_CLASSES)
VEHICLE, PEDESTRIAN, ROAD, SIDEWALK, TERRAIN, MANMADE, VEGETATION = range(_NUM_CLASSES)


@dataclass(frozen=True)
class SceneConfig:
    """Static world layout and ego motion."""

    seed: int = 0
    frames: int = 100
    ego_step: float = 0.5          # forward translation per frame (m)
    yaw_step: float = 0.0          # yaw increment per frame (rad)
    sensor_range: float = 30.0
    sensor_height: float = 1.6
    road_half_width: float = 3.5
    sidewalk_width: float = 2.0
    terrain_width: float = 8.0
    wall_height: float = 4.5
    vehicle_spacing: float = 14.0
    pedestrian_spacing: float = 9.0
    vegetation_spacing: float = 10.0
    point_density: float = 4.0     # road points per square meter

    def __post_init__(self):
        spacings = ("vehicle_spacing", "pedestrian_spacing", "vegetation_spacing")
        positive = ("sensor_range", "road_half_width", "sidewalk_width", "terrain_width",
                    "wall_height", "point_density") + spacings
        checks = [("seed", self.seed >= 0, ">= 0"),
                  ("frames", self.frames >= 1, ">= 1"),
                  ("ego_step", 0 <= self.ego_step < np.inf, "finite and >= 0"),
                  ("yaw_step", np.isfinite(self.yaw_step), "finite"),
                  ("sensor_height", np.isfinite(self.sensor_height), "finite")]
        checks += [(name, 0 < getattr(self, name) < np.inf, "finite and > 0")
                   for name in positive]
        ConfigInvalid.check(vars(self), checks)
        if not max(getattr(self, name) for name in spacings) <= 2 * self.sensor_range:
            raise ConfigInvalid("instance spacing exceeds sensor coverage; "
                                "some classes would vanish from frames")


@dataclass(frozen=True)
class ShiftConfig:
    """Injectable target-domain shift."""

    jitter_sigma: float = 0.0
    density_factor: float = 1.0
    class_dropout: tuple = (0.0,) * _NUM_CLASSES
    sensor_height_offset: float = 0.0
    seed: int = 0

    def __post_init__(self):
        checks = (("seed", self.seed >= 0, ">= 0"),
                  ("jitter_sigma", 0 <= self.jitter_sigma < np.inf, "finite and >= 0"),
                  ("density_factor", 0 < self.density_factor < np.inf, "finite and > 0"),
                  ("sensor_height_offset", np.isfinite(self.sensor_height_offset), "finite"))
        ConfigInvalid.check(vars(self), checks)
        d = np.asarray(self.class_dropout, dtype=np.float64)
        if not (d.shape == (_NUM_CLASSES,) and np.all((0 <= d) & (d < 1))):
            raise ConfigInvalid(f"class_dropout must be {_NUM_CLASSES} probabilities in [0, 1)")


def _parse_kv_file(path):
    """{key: (value, "path:line")} of a key=value file; a repeated key is ConfigInvalid."""
    pairs = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigInvalid(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in pairs:
            raise ConfigInvalid(f"{path}:{lineno}: key '{key}' repeats {pairs[key][1]}")
        pairs[key] = (value, f"{path}:{lineno}")
    return pairs


def _number(kind, value, where):
    try:
        return kind(value)
    except ValueError:
        raise ConfigInvalid(f"{where}: expected {kind.__name__}, got {value!r}") from None


def load_scene_config(path) -> SceneConfig:
    """Read a SceneConfig from a plain-text key=value file."""
    pairs = _parse_kv_file(path)
    kwargs = {}
    types = {f.name: f.type for f in dc_fields(SceneConfig)}
    for key, (value, where) in pairs.items():
        if key not in types:
            raise ConfigInvalid(f"{where}: unknown scene key '{key}'")
        kwargs[key] = _number(int if key in ("seed", "frames") else float, value, where)
    return SceneConfig(**kwargs)


def load_shift_config(path) -> ShiftConfig:
    """Read a ShiftConfig from a plain-text key=value file.

    Dropout accepts either dropout=p0,...,p6 or dropout_<class_name>=p, not
    both in one file.
    """
    pairs = _parse_kv_file(path)
    dropout = [0.0] * _NUM_CLASSES
    kwargs = {}
    first_dropout = None
    for key, (value, where) in pairs.items():
        if key == "dropout" or key.startswith("dropout_"):
            first_dropout = first_dropout or (key, where)
            if (key == "dropout") != (first_dropout[0] == "dropout"):
                raise ConfigInvalid(f"{where}: '{key}' conflicts with '{first_dropout[0]}' "
                                    f"at {first_dropout[1]}; use dropout= or "
                                    "dropout_<class>= keys, not both")
        if key == "dropout":
            probs = [_number(float, v, where) for v in value.split(",")]
            if len(probs) != _NUM_CLASSES:
                raise ConfigInvalid(f"{where}: dropout needs {_NUM_CLASSES} values")
            dropout = probs
        elif key.startswith("dropout_"):
            name = key[len("dropout_"):]
            if name not in CANONICAL_CLASSES:
                raise ConfigInvalid(f"{where}: unknown class '{name}'")
            dropout[CANONICAL_CLASSES.index(name)] = _number(float, value, where)
        elif key in ("jitter_sigma", "density_factor", "sensor_height_offset"):
            kwargs[key] = _number(float, value, where)
        elif key == "seed":
            kwargs[key] = _number(int, value, where)
        else:
            raise ConfigInvalid(f"{where}: unknown shift key '{key}'")
    return ShiftConfig(class_dropout=tuple(dropout), **kwargs)


# Fixed layout details of the corridor world. Instance shapes and surface
# densities are deliberately chosen so every class carries a distinctive
# geometric signature for the feature extractor.
_SIDEWALK_DENSITY = 1.6    # sampling factor relative to point_density
_TERRAIN_DENSITY = 0.5
_TERRAIN_BASE = 0.8
_TERRAIN_AMP = 0.3
_TERRAIN_NOISE = 0.06
_WALL_GAP = 2.0            # clearance between terrain edge and walls
_VEHICLE_POINTS = 400
_VEHICLE_CLEARANCE = 0.45  # box side panels start above the ground
_PED_POINTS = 140
_PED_RADIUS = 0.10
_PED_Z = (0.6, 1.9)
_VEG_POINTS = 130
_VEG_CENTER_Z = 2.4
_VEG_SIGMA = 0.6


def _sample_world(scene: SceneConfig, shift: ShiftConfig):
    """Sample the static world point cloud once per sequence."""
    layout = np.random.default_rng(scene.seed)
    rng = np.random.default_rng([scene.seed, shift.seed])
    df = shift.density_factor
    x_lo = -scene.sensor_range - 5.0
    x_hi = scene.frames * scene.ego_step + scene.sensor_range + 5.0
    span = x_hi - x_lo
    rhw = scene.road_half_width
    sw_lo, sw_hi = rhw + 0.5, rhw + 0.5 + scene.sidewalk_width
    tr_lo, tr_hi = sw_hi + 0.5, sw_hi + 0.5 + scene.terrain_width
    wall_y = tr_hi + _WALL_GAP

    pts = []
    lab = []

    def emit(xyz, cls):
        pts.append(xyz)
        lab.append(np.full(len(xyz), cls, dtype=np.int64))

    def plane(n, y_lo, y_hi, z_fn, cls, sides=True):
        n = max(int(round(n * df)), 1)
        halves = [(y_lo, y_hi), (-y_hi, -y_lo)] if sides else [(y_lo, y_hi)]
        for lo, hi in halves:
            x = rng.uniform(x_lo, x_hi, n)
            y = rng.uniform(lo, hi, n)
            emit(np.column_stack([x, y, z_fn(x, y)]), cls)

    plane(int(span * 2 * rhw * scene.point_density), -rhw, rhw,
          lambda x, y: np.zeros_like(x), ROAD, sides=False)
    plane(int(span * scene.sidewalk_width * scene.point_density * _SIDEWALK_DENSITY),
          sw_lo, sw_hi, lambda x, y: np.full_like(x, 0.3), SIDEWALK)
    plane(int(span * scene.terrain_width * scene.point_density * _TERRAIN_DENSITY),
          tr_lo, tr_hi,
          lambda x, y: _TERRAIN_BASE + _TERRAIN_AMP * np.sin(0.5 * x) * np.cos(0.45 * y)
          + rng.normal(0.0, _TERRAIN_NOISE, len(x)), TERRAIN)

    # walls: vertical planes flanking the corridor
    n_wall = max(int(round(span * scene.wall_height * scene.point_density * 0.5 * df)), 1)
    for side in (wall_y, -wall_y):
        x = rng.uniform(x_lo, x_hi, n_wall)
        z = rng.uniform(0.0, scene.wall_height, n_wall)
        emit(np.column_stack([x, np.full(n_wall, side), z]), MANMADE)

    def instance_positions(spacing):
        xs = np.arange(x_lo + spacing / 2, x_hi, spacing)
        return xs + layout.uniform(-0.25 * spacing, 0.25 * spacing, len(xs))

    # vehicles: boxes parked near the road edge, alternating sides
    dims = np.array([4.2, 1.8, 1.5])
    for i, cx in enumerate(instance_positions(scene.vehicle_spacing)):
        cy = (rhw - 1.4) * (1 if i % 2 == 0 else -1)
        n = max(int(round(_VEHICLE_POINTS * df)), 8)
        u = rng.uniform(-0.5, 0.5, (n, 2))
        face = rng.integers(0, 5, n)
        box = np.empty((n, 3))
        top = face == 0
        box[top] = np.column_stack([u[top, 0] * dims[0], u[top, 1] * dims[1],
                                    np.full(top.sum(), dims[2])])
        for f, axis, sign in ((1, 0, 1), (2, 0, -1), (3, 1, 1), (4, 1, -1)):
            m = face == f
            width = dims[1 - axis]
            side = np.empty((m.sum(), 3))
            side[:, axis] = sign * dims[axis] / 2
            side[:, 1 - axis] = u[m, 0] * width
            # side panels start above the ground clearance
            side[:, 2] = _VEHICLE_CLEARANCE + (u[m, 1] + 0.5) * (dims[2] - _VEHICLE_CLEARANCE)
            box[m] = side
        emit(box + np.array([cx, cy, 0.0]), VEHICLE)

    # pedestrians: thin vertical cylinders on the sidewalks
    for i, cx in enumerate(instance_positions(scene.pedestrian_spacing)):
        cy = (sw_lo + sw_hi) / 2 * (1 if i % 2 == 0 else -1)
        n = max(int(round(_PED_POINTS * df)), 6)
        theta = rng.uniform(0, 2 * np.pi, n)
        emit(np.column_stack([cx + _PED_RADIUS * np.cos(theta), cy + _PED_RADIUS * np.sin(theta),
                              rng.uniform(*_PED_Z, n)]), PEDESTRIAN)

    # vegetation: isotropic blobs above the terrain strip
    for i, cx in enumerate(instance_positions(scene.vegetation_spacing)):
        cy = (tr_lo + tr_hi) / 2 * (1 if i % 2 == 0 else -1)
        n = max(int(round(_VEG_POINTS * df)), 10)
        emit(np.array([cx, cy, _VEG_CENTER_Z]) + rng.normal(0.0, _VEG_SIGMA, (n, 3)), VEGETATION)

    points = np.vstack(pts)
    labels = np.concatenate(lab)

    # per-class dropout applied once to the world cloud
    dropout = np.asarray(shift.class_dropout, dtype=np.float64)
    if np.any(dropout > 0):
        drop_rng = np.random.default_rng([shift.seed, 0x5EED])
        keep = drop_rng.uniform(size=len(points)) >= dropout[labels]
        points, labels = points[keep], labels[keep]
    return points, labels


def _pose(scene: SceneConfig, shift: ShiftConfig, t: int) -> np.ndarray:
    yaw = t * scene.yaw_step
    c, s = np.cos(yaw), np.sin(yaw)
    pose = np.eye(4)
    pose[:3, :3] = [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
    pose[:3, 3] = [t * scene.ego_step, 0.0, scene.sensor_height + shift.sensor_height_offset]
    return pose


def generate_sequence(scene: SceneConfig, shift: ShiftConfig):
    """Generate a deterministic stream of frames with ground truth and poses."""
    world, world_labels = _sample_world(scene, shift)
    frames = []
    for t in range(scene.frames):
        pose = _pose(scene, shift, t)
        rot, pos = pose[:3, :3], pose[:3, 3]
        dist = np.linalg.norm(world - pos, axis=1)
        visible = dist <= scene.sensor_range
        local = (world[visible] - pos) @ rot
        labels = world_labels[visible]
        if shift.jitter_sigma > 0:
            noise_rng = np.random.default_rng([shift.seed, 0x7177E4, t])
            local = local + noise_rng.normal(0.0, shift.jitter_sigma, local.shape)
        missing = [CANONICAL_CLASSES[c] for c in range(_NUM_CLASSES)
                   if not np.any(labels == c)]
        if missing:
            raise ConfigInvalid(f"frame {t} lost classes {missing}; "
                                "adjust spacings/range or dropout")
        frames.append(Frame(frame_id=t, points=local, pose=pose, gt_labels=labels))
    return frames


def jitter(frame: Frame, rng, sigma: float, keep_frac: float = 1.0) -> Frame:
    """`frame` with N(0, sigma) noise on every coordinate, each point kept with odds `keep_frac`.

    `rng` draws the noise first, and the keep mask only when `keep_frac` < 1;
    every point stays if fewer than 32 would. The ground truth, if any, is
    subsampled with the points.
    """
    points = frame.points + rng.normal(0.0, sigma, frame.points.shape)
    labels = frame.gt_labels
    if keep_frac < 1.0:
        keep = rng.uniform(size=len(points)) < keep_frac
        if keep.sum() < 32:
            keep[:] = True
        points = points[keep]
        labels = None if labels is None else labels[keep]
    return Frame(frame.frame_id, points, frame.pose, labels)


def jittered_copies(sequences, sigma: float, seed: int):
    """A copy of each sequence with N(0, sigma) noise on every coordinate, seeded by `seed`."""
    ConfigInvalid.check({"jitter sigma": sigma, "seed": seed},
                        (("jitter sigma", sigma >= 0, ">= 0"), ("seed", seed >= 0, ">= 0")))
    rng = np.random.default_rng([seed, 0xAA6])
    return [[jitter(f, rng, sigma) for f in seq] for seq in sequences]


# -- sequence I/O ------------------------------------------------------------

def write_label_file(path, labels) -> None:
    """Write a .label file: little-endian uint32, lower 16 bits = class id."""
    labels = np.asarray(labels, dtype=np.int64)
    if np.any(labels < 0) or np.any(labels > 0xFFFF):
        raise ValueError("label ids must fit in 16 unsigned bits")
    try:
        labels.astype("<u4").tofile(path)
    except OSError as e:
        raise IoFailure(str(e)) from e


def read_label_file(path) -> np.ndarray:
    """Read a .label file; a size that is not a whole number of records is malformed."""
    try:
        blob = Path(path).read_bytes()
    except OSError as e:
        raise IoFailure(str(e)) from e
    if len(blob) % 4 != 0:
        raise MalformedRecord(f"{path}: size {len(blob)} not divisible by 4")
    return (np.frombuffer(blob, dtype="<u4") & 0xFFFF).astype(np.int64)


def write_sequence(frames, directory) -> None:
    """Write frames in KITTI layout: NNNNNN.bin/.label named by frame id, plus poses.txt."""
    frames = list(frames)
    ids = [frame.frame_id for frame in frames]
    if min(ids, default=0) < 0 or len(set(ids)) != len(ids):
        raise ValueError("frame ids name the files, so they must be distinct and >= 0")
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        pose_lines = []
        for frame in frames:
            stem = directory / f"{frame.frame_id:06d}"
            record = np.zeros((frame.num_points, 4), dtype="<f4")
            record[:, :3] = frame.points.astype("<f4")
            record.tofile(stem.with_suffix(".bin"))
            if frame.gt_labels is not None:
                write_label_file(stem.with_suffix(".label"), frame.gt_labels)
            pose_lines.append(" ".join(f"{v:.17g}" for v in frame.pose[:3].ravel()))
        (directory / "poses.txt").write_text("\n".join(pose_lines) + "\n")
    except OSError as e:
        raise IoFailure(str(e)) from e


def numbered_files(directory, suffix: str) -> dict:
    """{frame number: path} of the directory's `suffix` files, in frame order.

    Each must be named by its frame number; `1.bin` and `000001.bin` together are malformed.
    """
    files = {}
    for path in sorted(Path(directory).glob(f"*{suffix}")):
        if not (path.stem.isascii() and path.stem.isdigit()):
            raise MalformedRecord(f"{path}: file name is not a frame number")
        first = files.setdefault(int(path.stem), path)
        if first != path:
            raise MalformedRecord(f"{path}: frame number {int(path.stem)} repeats {first.name}")
    return dict(sorted(files.items()))


def read_sequence(directory):
    """Read a KITTI-layout sequence back into frames.

    Each scan's frame id is the number its file is named by, and the frames
    come in that order, line i of poses.txt holding the pose of the i-th.
    The intensity channel is parsed but discarded; labels are attached when
    a matching .label file exists.
    """
    directory = Path(directory)
    scans = numbered_files(directory, ".bin")
    if not scans:
        raise IoFailure(f"{directory}: no .bin files")
    pose_path = directory / "poses.txt"
    pose_rows = [line for line in read_text(pose_path).splitlines() if line.strip()]
    if len(pose_rows) != len(scans):
        raise PoseCountMismatch(
            f"{directory}: {len(pose_rows)} poses for {len(scans)} frames")

    frames = []
    for i, (frame_id, bin_path) in enumerate(scans.items()):
        try:
            blob = bin_path.read_bytes()
        except OSError as e:
            raise IoFailure(str(e)) from e
        if len(blob) % 16 != 0:
            raise MalformedRecord(f"{bin_path}: size {len(blob)} not divisible by 16")
        record = np.frombuffer(blob, dtype="<f4").reshape(-1, 4)
        points = record[:, :3].astype(np.float64)

        try:
            values = [float(v) for v in pose_rows[i].split()]
        except ValueError:
            values = []
        if len(values) != 12:
            raise MalformedRecord(f"{pose_path}: line {i + 1} must hold 12 numbers")
        pose = np.vstack([np.array(values).reshape(3, 4), [0.0, 0.0, 0.0, 1.0]])

        labels = None
        label_path = bin_path.with_suffix(".label")
        if label_path.exists():
            labels = read_label_file(label_path)
            if len(labels) != len(points):
                raise MalformedRecord(f"{label_path}: label count != point count")
        frames.append(Frame(frame_id=frame_id, points=points, pose=pose, gt_labels=labels))
    return frames
