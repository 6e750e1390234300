"""Per-class EMA prototypes over target-model embeddings and label fusion.

Prototypes are the centroids of selected points' embeddings, blended across
frames with an exponential moving average; each point then takes the label
of its cosine-nearest prototype, and local labels are kept only where the
prototype label agrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import IGNORE, LabelField, SelectionMask, scatter_add_rows
from .errors import LengthMismatch, NoSeenClasses

_NORM_EPS = 1e-12


@dataclass
class PrototypeBank:
    """C x D embedding centroids plus per-class "ever observed" flags."""

    prototypes: np.ndarray
    seen: np.ndarray

    @classmethod
    def empty(cls, num_classes: int, dim: int) -> "PrototypeBank":
        return cls(np.zeros((num_classes, dim)), np.zeros(num_classes, dtype=bool))

    def copy(self) -> "PrototypeBank":
        return PrototypeBank(self.prototypes.copy(), self.seen.copy())


def build_prototypes(z, labels: LabelField, selected: SelectionMask, num_classes: int):
    """Arithmetic mean of the selected embeddings per class.

    Returns (C x D centroids, per-class counts); classes without selected
    points have count 0 and a zero centroid.
    """
    z = np.asarray(z, dtype=np.float64)
    if len(labels) != z.shape[0] or len(selected) != z.shape[0]:
        raise LengthMismatch("labels/selection must match the embedding rows")
    centroids = np.zeros((num_classes, z.shape[1]))
    counts = np.zeros(num_classes, dtype=np.int64)
    keep = selected.values & (labels.values != IGNORE)
    if keep.any():
        lab = labels.values[keep]
        centroids = scatter_add_rows(lab, z[keep], num_classes)
        counts = np.bincount(lab, minlength=num_classes)
        nonzero = counts > 0
        centroids[nonzero] /= counts[nonzero, None]
    return centroids, counts


def ema_update(bank: PrototypeBank, fresh_centroids, counts, alpha: float) -> PrototypeBank:
    """Blend fresh centroids into the bank: rho <- alpha*rho + (1-alpha)*fresh.

    First observation of a class adopts the fresh centroid directly; classes
    absent from this frame keep their previous value.
    """
    if not 0 <= alpha < 1:
        raise ValueError("alpha must lie in [0, 1)")
    out = bank.copy()
    fresh_centroids = np.asarray(fresh_centroids, dtype=np.float64)
    present = np.asarray(counts) > 0
    first = present & ~out.seen
    cont = present & out.seen
    out.prototypes[first] = fresh_centroids[first]
    out.prototypes[cont] = alpha * out.prototypes[cont] + (1 - alpha) * fresh_centroids[cont]
    out.seen = out.seen | present
    return out


def global_pseudo_labels(z, bank: PrototypeBank) -> LabelField:
    """Label each point with its cosine-nearest seen prototype.

    Zero-norm embeddings or prototypes cannot enter the cosine and yield /
    are excluded as IGNORE; ties go to the smallest class id.
    """
    if not bank.seen.any():
        raise NoSeenClasses("the prototype bank has no observed class")
    z = np.asarray(z, dtype=np.float64)
    zn = np.linalg.norm(z, axis=1)
    pn = np.linalg.norm(bank.prototypes, axis=1)
    usable = bank.seen & (pn > _NORM_EPS)
    if not usable.any():
        raise NoSeenClasses("all seen prototypes are degenerate")
    sim = (z @ bank.prototypes.T) / np.outer(np.maximum(zn, _NORM_EPS), np.maximum(pn, _NORM_EPS))
    sim[:, ~usable] = -np.inf
    labels = np.argmax(sim, axis=1)
    labels[zn <= _NORM_EPS] = IGNORE
    return LabelField(labels)


def fuse_local_global(local_all: LabelField, global_labels: LabelField) -> LabelField:
    """Keep the local label only where the prototype label agrees."""
    if len(local_all) != len(global_labels):
        raise LengthMismatch("local and global labels must have equal length")
    a = local_all.values
    b = global_labels.values
    return LabelField(np.where((a == b) & (a != IGNORE), a, IGNORE))
