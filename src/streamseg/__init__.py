"""Streaming test-time adaptation for 3D point-cloud semantic segmentation."""

from .core import (
    CANONICAL_CLASSES,
    IGNORE,
    ClassMap,
    ConfidenceField,
    Frame,
    LabelField,
    ProbabilityField,
    SelectionMask,
    remap_labels,
)
from .harness import AdaptConfig, AdaptationState, RunReport, run_tta
from .model import NetworkParams, OptimizerState
from .prototypes import PrototypeBank
from .spatial import SpatialIndex, build_index, match_correspondences
from .stream import SceneConfig, ShiftConfig, generate_sequence, read_sequence, write_sequence

__all__ = [
    "CANONICAL_CLASSES", "IGNORE", "ClassMap", "ConfidenceField", "Frame",
    "LabelField", "ProbabilityField", "SelectionMask", "remap_labels",
    "AdaptConfig", "AdaptationState", "RunReport", "run_tta",
    "NetworkParams", "OptimizerState",
    "PrototypeBank", "SpatialIndex", "build_index",
    "match_correspondences", "SceneConfig", "ShiftConfig", "generate_sequence",
    "read_sequence", "write_sequence",
]

__version__ = "0.1.0"
