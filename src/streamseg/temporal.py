"""Cross-frame feature consistency with stop-gradient, on head outputs.

Corresponding points of frames t and t-w have passed through the encoder
and predictor heads, which `model` runs; the predictor output of one frame
is pulled toward the (detached) encoder output of the other, weighted by
the *other* frame's cached confidence so low-confidence features align to
high-confidence ones. Only this objective and its gradient live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import scatter_add_rows

_NORM_EPS = 1e-12


@dataclass
class TemporalBatch:
    """Inputs for the cross-frame consistency term of the total loss.

    `s_t` and `s_prev` weight each pair by the other frame's confidence;
    arrays of ones give the unweighted term.
    """

    features_prev: np.ndarray
    idx_t: np.ndarray
    idx_prev: np.ndarray
    s_t: np.ndarray
    s_prev: np.ndarray


def _unit_rows(a, idx):
    """(a[idx] with each non-degenerate row divided by its norm, the norms as a column)."""
    rows = a[idx]
    norm = np.linalg.norm(rows, axis=1, keepdims=True)
    return np.divide(rows, norm, out=rows, where=norm > _NORM_EPS), norm


def _predictor_grad(g_qn, qn, norm, idx, num_rows):
    """d/d(predictor output) from d/d(its gathered, normalized rows `qn`).

    The rows are scattered as `np.add.at` would, so a repeated index sums.
    """
    return scatter_add_rows(idx, (g_qn - (g_qn * qn).sum(axis=1, keepdims=True) * qn) / norm,
                            num_rows)


def temporal_term(heads_t, heads_prev, batch: TemporalBatch):
    """Symmetric consistency loss between two frames' head outputs.

    `heads_t` and `heads_prev` carry the encoder outputs `e` and predictor
    outputs `q` of frames t and t-w. Returns None when no pair is usable;
    degenerate pairs are skipped. Otherwise returns (loss, d loss / d q_t,
    d loss / d q_prev). Gradients flow only through the predictor branch of
    each direction; the encoder branch is detached. The loss and gradients
    hold the head outputs' dtype.
    """
    rows = [_unit_rows(heads_t.q, batch.idx_t), _unit_rows(heads_prev.q, batch.idx_prev),
            _unit_rows(heads_prev.e, batch.idx_prev), _unit_rows(heads_t.e, batch.idx_t)]
    keep = np.logical_and.reduce([norm[:, 0] > _NORM_EPS for _, norm in rows])
    if not keep.any():
        return None
    idx_t, idx_prev = batch.idx_t, batch.idx_prev
    if not keep.all():   # drop the degenerate pairs
        idx_t, idx_prev = idx_t[keep], idx_prev[keep]
        rows = [(unit[keep], norm[keep]) for unit, norm in rows]
    (qn_t, norm_t), (qn_prev, norm_prev), (zn_prev, _), (zn_t, _) = rows
    # the weights enter in the heads' dtype, so a float32 model's gradients stay float32
    w_fwd = batch.s_prev[idx_prev].astype(heads_t.q.dtype, copy=False)   # the z^{t-w} side
    w_bwd = batch.s_t[idx_t].astype(heads_t.q.dtype, copy=False)         # the z^t side

    fwd = w_fwd * np.einsum("nd,nd->n", qn_t, zn_prev)
    bwd = w_bwd * np.einsum("nd,nd->n", qn_prev, zn_t)
    loss = -((fwd + bwd) * 0.5).mean()

    # d loss / d (fwd + bwd): the mean's gradient, then the 0.5 scale, rounded in that order
    g = (-1.0 / len(idx_t)) * 0.5
    g_q_t = _predictor_grad((g * w_fwd)[:, None] * zn_prev, qn_t, norm_t, idx_t,
                            len(heads_t.q))
    g_q_prev = _predictor_grad((g * w_bwd)[:, None] * zn_t, qn_prev, norm_prev, idx_prev,
                               len(heads_prev.q))
    return loss, g_q_t, g_q_prev
