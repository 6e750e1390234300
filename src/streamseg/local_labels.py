"""Local pseudo-label generation from the frozen source model's predictions.

Pipeline: distance-weighted K-NN aggregation of class probabilities, argmax
pseudo-labels, confidence = prediction certainty x geometric purity, and a
per-class percentile selection of reliable points.
"""

from __future__ import annotations

import numpy as np

from .core import ConfidenceField, LabelField, ProbabilityField, SelectionMask
from .errors import LengthMismatch
from .spatial import SpatialIndex


def aggregate_predictions(probs: ProbabilityField, index: SpatialIndex, k: int) -> ProbabilityField:
    """Distance-weighted average of each point's K+1 neighborhood predictions.

    Weights are exp(-distance) with distance in meters; the point itself
    participates with weight 1.
    """
    idx, dist = index.neighbors(k + 1)
    w = np.exp(-dist)
    agg = np.einsum("nk,nkc->nc", w, probs.values[idx]) / w.sum(axis=1, keepdims=True)
    agg = np.clip(agg, 0.0, 1.0)
    return ProbabilityField(agg / agg.sum(axis=1, keepdims=True))


def local_pseudo_labels(probs: ProbabilityField) -> LabelField:
    """Row-wise argmax; ties go to the smallest class id."""
    return LabelField(np.argmax(probs.values, axis=1))


def _normalized_anti_entropy(rows, num_classes: int) -> np.ndarray:
    """1 - H(row)/log(C) with 0*log(0) = 0, clamped to [0, 1]."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(rows > 0, rows * np.log(rows), 0.0)
    h = -terms.sum(axis=1)
    return np.clip(1.0 - h / np.log(num_classes), 0.0, 1.0)


def prediction_certainty(probs: ProbabilityField, num_classes: int) -> ConfidenceField:
    """One minus the normalized Shannon entropy of each probability row."""
    if num_classes < 2:
        raise ValueError("certainty needs at least 2 classes")
    return ConfidenceField(_normalized_anti_entropy(probs.values, num_classes))


def geometric_purity(labels: LabelField, index: SpatialIndex, k: int,
                     num_classes: int) -> ConfidenceField:
    """Anti-entropy of the label histogram inside each K+1 neighborhood."""
    idx, _ = index.neighbors(k + 1)
    n, m = idx.shape
    neigh_labels = labels.values[idx]
    flat = np.arange(n).repeat(m) * num_classes + neigh_labels.ravel()
    hist = np.bincount(flat, minlength=n * num_classes).reshape(n, num_classes) / m
    return ConfidenceField(_normalized_anti_entropy(hist, num_classes))


def confidence_scores(certainty: ConfidenceField, purity: ConfidenceField) -> ConfidenceField:
    """Elementwise product of certainty and purity."""
    if len(certainty) != len(purity):
        raise LengthMismatch("certainty and purity must have equal length")
    return ConfidenceField(certainty.values * purity.values)


def select_per_class(labels: LabelField, scores: ConfidenceField,
                     lam: float) -> SelectionMask:
    """Keep, per class, the points strictly above the lam-th percentile.

    The threshold is the nearest-rank percentile of that class's scores;
    single-member classes are kept only when lam == 0.
    """
    if not 0 <= lam < 100:
        raise ValueError("lam must lie in [0, 100)")
    if len(labels) != len(scores):
        raise LengthMismatch("labels and scores must have equal length")
    lab = labels.values
    s = scores.values
    selected = np.zeros(len(lab), dtype=bool)
    for c in np.unique(lab):
        if c < 0:
            continue
        members = np.nonzero(lab == c)[0]
        m = len(members)
        if m == 1:
            selected[members] = lam == 0
            continue
        ordered = np.sort(s[members])
        rank = max(int(np.ceil(lam / 100.0 * m)), 1) - 1
        threshold = ordered[rank]
        selected[members] = s[members] > threshold
    return SelectionMask(selected)


def run_lgl(source_probs: ProbabilityField, index: SpatialIndex, k: int, lam: float,
            num_classes: int):
    """Full local pseudo-labeling pass over the points of one frame's index.

    Returns (labels over all points, confidence scores, selection mask).
    """
    aggregated = aggregate_predictions(source_probs, index, k)
    labels = local_pseudo_labels(aggregated)
    certainty = prediction_certainty(aggregated, num_classes)
    purity = geometric_purity(labels, index, k, num_classes)
    scores = confidence_scores(certainty, purity)
    selected = select_per_class(labels, scores, lam)
    return labels, scores, selected
