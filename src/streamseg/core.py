"""Domain types, label taxonomy, validation and the row scatter shared by all modules.

All container types are immutable after construction (backing arrays are
marked read-only) and therefore safe to share across threads. The loops'
process-wide allocator setting (`retain_freed_memory`) lives here too.
"""

from __future__ import annotations

import ctypes
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigInvalid,
    EmptyFrame,
    InvalidPose,
    IoFailure,
    LengthMismatch,
    NonFiniteCoordinate,
    UnknownRawId,
)

#: Sentinel for "no label"; never a valid class id and excluded from C.
IGNORE = -1

_LAST_POSE_ROW = np.array([0.0, 0.0, 0.0, 1.0])
_EYE3 = np.eye(3)

#: Canonical 7-class taxonomy used by the default benchmark streams.
CANONICAL_CLASSES = (
    "vehicle",
    "pedestrian",
    "road",
    "sidewalk",
    "terrain",
    "manmade",
    "vegetation",
)


def read_text(path) -> str:
    """The contents of a UTF-8 text file; one that cannot be read or decoded is an IoFailure."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise IoFailure(str(e)) from e
    except UnicodeDecodeError as e:
        raise IoFailure(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from e


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


#: glibc's `mallopt` parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def retain_freed_memory() -> None:
    """Keep freed heap memory in the process instead of returning it to the OS.

    The loops allocate and free MB-sized temporaries every frame. By default
    glibc serves each from its own mapping or trims the heap top back after
    it, so the next frame faults the same pages in again; how much it does so
    depends on which array was freed last (glibc's dynamic mmap threshold).
    This sets glibc's own ceilings for the whole process: the mmap threshold
    to 32 MiB (its dynamic maximum on 64-bit) and the trim threshold to
    twice that, as its dynamic rule keeps them. Both are set, because setting
    either stops the dynamic adjustment. Arrays above 32 MiB still get their
    own mapping. No arithmetic changes. On a C library other than glibc it
    does nothing. `run_tta`, `run_ablation` and `pretrain_source` call it
    when they start; importing the package sets nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # a rejected threshold (above 32-bit glibc's ceiling) leaves the dynamic rule on
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def scatter_add_rows(idx, rows, num_rows: int) -> np.ndarray:
    """`np.add.at(np.zeros((num_rows, D)), idx, rows)` for `idx` in [0, num_rows), byte for byte.

    One `np.bincount` per column; like `np.add.at`, it adds each target's
    rows in pair order, starting from 0.0. The sums are taken in float64 and
    returned in the rows' dtype, so float64 rows match `np.add.at` exactly.
    """
    out = np.zeros((num_rows, rows.shape[1]), dtype=rows.dtype)
    for j, col in enumerate(np.ascontiguousarray(rows.T)):
        out[:, j] = np.bincount(idx, weights=col, minlength=num_rows)
    return out


@dataclass(frozen=True)
class Frame:
    """One time-step of a point cloud stream.

    points are N x 3 sensor-frame coordinates in meters, pose is the 4 x 4
    rigid sensor-to-world transform, gt_labels (optional) holds class ids
    or IGNORE. Building a frame checks all of this; an error names the frame.
    """

    frame_id: int
    points: np.ndarray
    pose: np.ndarray
    gt_labels: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", _freeze(np.asarray(self.points, dtype=np.float64)))
        object.__setattr__(self, "pose", _freeze(np.asarray(self.pose, dtype=np.float64)))
        if self.gt_labels is not None:
            object.__setattr__(self, "gt_labels", _freeze(np.asarray(self.gt_labels, dtype=np.int64)))
        where, pts, pose = f"frame {self.frame_id}", self.points, self.pose
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise EmptyFrame(f"{where}: expected non-empty N x 3 points, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise NonFiniteCoordinate(f"{where}: non-finite coordinate")
        if pose.shape != (4, 4) or not np.isfinite(pose).all():
            raise InvalidPose(f"{where}: pose must be a finite 4x4 matrix")
        # np.allclose(pose[3], _LAST_POSE_ROW, atol=1e-9) with its default rtol, without its overhead
        if not (np.abs(pose[3] - _LAST_POSE_ROW) <= 1e-9 + 1e-5 * _LAST_POSE_ROW).all():
            raise InvalidPose(f"{where}: last pose row must be [0,0,0,1]")
        rot = pose[:3, :3]
        if np.abs(rot.T @ rot - _EYE3).max() >= 1e-6:
            raise InvalidPose(f"{where}: rotation block is not orthonormal")
        # det(rot) by cofactors, a fraction of np.linalg.det's cost; it is +-1 here
        (a, b, c), (d, e, f), (g, h, i) = rot.tolist()
        if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) <= 0:
            raise InvalidPose(f"{where}: rotation block is not proper (det <= 0)")
        if self.gt_labels is not None and self.gt_labels.shape != (pts.shape[0],):
            raise LengthMismatch(f"{where}: gt label count != point count")

    @property
    def num_points(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class _PointField:
    """Per-point values converted to `_dtype`, checked for rank `_ndim` and frozen."""

    values: np.ndarray
    _dtype, _ndim, _noun = np.float64, 1, "values"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=self._dtype)
        if v.ndim != self._ndim:
            rank = "N x C" if self._ndim == 2 else "a vector"
            raise LengthMismatch(f"{self._noun} must be {rank}, got shape {v.shape}")
        self._check_domain(v)
        object.__setattr__(self, "values", _freeze(v))

    @staticmethod
    def _check_domain(v):
        pass

    def __len__(self):
        return self.values.shape[0]


class ProbabilityField(_PointField):
    """Per-point class probabilities: N x C rows on the simplex."""

    _ndim, _noun = 2, "probabilities"

    @staticmethod
    def _check_domain(v):
        if not np.isfinite(v).all():
            raise ValueError("probability entries must be finite")
        if np.any(v < -1e-12) or np.any(v > 1 + 1e-12):
            raise ValueError("probability entries must lie in [0, 1]")
        if np.max(np.abs(v.sum(axis=1) - 1.0)) > 1e-6:
            raise ValueError("probability rows must sum to 1 within 1e-6")


class LabelField(_PointField):
    """Per-point discrete labels in {0,...,C-1} or IGNORE."""

    _dtype, _noun = np.int64, "labels"

    @staticmethod
    def _check_domain(v):
        if np.any(v < IGNORE):
            raise ValueError("labels must be class ids or the IGNORE sentinel")


class ConfidenceField(_PointField):
    """Per-point scalar confidences in [0, 1]."""

    _noun = "confidences"

    @staticmethod
    def _check_domain(v):
        if np.any(v < 0) or np.any(v > 1) or not np.all(np.isfinite(v)):
            raise ValueError("confidences must lie in [0, 1]")


class SelectionMask(_PointField):
    """Boolean per-point selection mask."""

    _dtype, _noun = bool, "mask"


@dataclass(frozen=True)
class ClassMap:
    """Mapping from raw dataset label ids to a dense canonical taxonomy."""

    canonical_names: tuple
    raw_to_canonical: dict

    def __post_init__(self):
        object.__setattr__(self, "canonical_names", tuple(self.canonical_names))
        c = self.num_classes
        for raw, canon in self.raw_to_canonical.items():
            if canon != IGNORE and not (0 <= canon < c):
                raise ConfigInvalid(f"raw id {raw} maps to out-of-range canonical id {canon}")

    @property
    def num_classes(self) -> int:
        return len(self.canonical_names)

    @classmethod
    def identity(cls, num_classes: int) -> "ClassMap":
        """Identity map over classes named class0, class1, ..."""
        return cls(tuple(f"class{i}" for i in range(num_classes)),
                   {i: i for i in range(num_classes)})

    @classmethod
    def canonical(cls) -> "ClassMap":
        """Identity map over the default 7-class taxonomy."""
        return cls(CANONICAL_CLASSES, {i: i for i in range(len(CANONICAL_CLASSES))})

    @classmethod
    def from_file(cls, path) -> "ClassMap":
        """Load a plain-text two-column table "raw_id canonical_id".

        IGNORE is spelled as -1; lines starting with '#' are comments. A
        malformed table raises ConfigInvalid naming the line.
        """
        table = {}
        for lineno, line in enumerate(read_text(path).splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                raw, canon = map(int, line.split())
            except ValueError:
                raise ConfigInvalid(f"{path}:{lineno}: expected 'raw_id canonical_id', "
                                    f"got {line!r}") from None
            if raw in table:
                raise ConfigInvalid(f"{path}:{lineno}: raw id {raw} mapped twice")
            table[raw] = canon
        return cls(CANONICAL_CLASSES, table)


def remap_labels(raw, class_map: ClassMap) -> LabelField:
    """Replace raw dataset ids by canonical ids (or IGNORE)."""
    raw = np.asarray(raw, dtype=np.int64)
    present = np.unique(raw)
    unknown = [int(r) for r in present if int(r) not in class_map.raw_to_canonical]
    if unknown:
        raise UnknownRawId(f"raw ids {unknown} absent from the class map")
    lut_size = int(present.max()) + 1 if present.size else 1
    lut = np.full(lut_size, IGNORE, dtype=np.int64)
    for r, c in class_map.raw_to_canonical.items():
        if 0 <= r < lut_size:
            lut[r] = c
    if np.any(raw < 0):
        raise UnknownRawId("negative raw ids are not mappable")
    return LabelField(lut[raw])
