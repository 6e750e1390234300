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

_NORM_EPS = 1e-12


@dataclass
class TemporalBatch:
    """Inputs for the cross-frame consistency term of the total loss."""

    features_prev: np.ndarray
    idx_t: np.ndarray
    idx_prev: np.ndarray
    s_t: np.ndarray
    s_prev: np.ndarray
    confidence_weighted: bool = True


def _valid_pair_mask(e_t, q_t, e_prev, q_prev, idx_t, idx_prev):
    """Pairs whose encoder/predictor outputs are all normalizable."""
    def ok(x):
        return np.linalg.norm(x, axis=1) > _NORM_EPS

    return (ok(e_t[idx_t]) & ok(q_t[idx_t]) & ok(e_prev[idx_prev]) & ok(q_prev[idx_prev]))


def _normalize_rows(a):
    """(a / ||a||, ||a||) row-wise; the caller guarantees non-degenerate rows."""
    n = np.linalg.norm(a, axis=1, keepdims=True)
    return a / n, n


def _predictor_grad(g_qn, qn, norm, idx, num_rows):
    """d/d(predictor output) from d/d(its gathered, normalized rows `qn`).

    The rows are scattered with `np.add.at`, so a repeated index sums.
    """
    g_q = np.zeros((num_rows, qn.shape[1]))
    np.add.at(g_q, idx, (g_qn - (g_qn * qn).sum(axis=1, keepdims=True) * qn) / norm)
    return g_q


def temporal_term(heads_t, heads_prev, batch: TemporalBatch):
    """Symmetric consistency loss between two frames' head outputs.

    `heads_t` and `heads_prev` carry the encoder outputs `e` and predictor
    outputs `q` of frames t and t-w. Returns None when no pair is usable;
    degenerate pairs are skipped. Otherwise returns (loss, d loss / d q_t,
    d loss / d q_prev). Gradients flow only through the predictor branch of
    each direction; the encoder branch is detached.
    """
    keep = _valid_pair_mask(heads_t.e, heads_t.q, heads_prev.e, heads_prev.q,
                            batch.idx_t, batch.idx_prev)
    idx_t = batch.idx_t[keep]
    idx_prev = batch.idx_prev[keep]
    if len(idx_t) == 0:
        return None

    if batch.confidence_weighted:
        w_fwd = batch.s_prev[idx_prev]   # weight of the z^{t-w} side
        w_bwd = batch.s_t[idx_t]         # weight of the z^t side
    else:
        w_fwd = np.ones(len(idx_t))
        w_bwd = np.ones(len(idx_t))

    qn_t, norm_t = _normalize_rows(heads_t.q[idx_t])
    qn_prev, norm_prev = _normalize_rows(heads_prev.q[idx_prev])
    zn_prev, _ = _normalize_rows(heads_prev.e[idx_prev])
    zn_t, _ = _normalize_rows(heads_t.e[idx_t])

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
