"""Cross-frame feature consistency with stop-gradient.

Corresponding points of frames t and t-w are pushed through the encoder and
predictor heads; the predictor output of one frame is pulled toward the
(detached) encoder output of the other, weighted by the *other* frame's
cached confidence so low-confidence features align to high-confidence ones.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from .model import TemporalBatch

_NORM_EPS = 1e-12


def _valid_pair_mask(e_t, q_t, e_prev, q_prev, idx_t, idx_prev):
    """Pairs whose encoder/predictor outputs are all normalizable."""
    def ok(x):
        return np.linalg.norm(x, axis=1) > _NORM_EPS

    return (ok(e_t[idx_t]) & ok(q_t[idx_t]) & ok(e_prev[idx_prev]) & ok(q_prev[idx_prev]))


def temporal_term(leaves, z_t, batch: TemporalBatch):
    """Graph-level symmetric consistency loss; None when no usable pair.

    Gradients flow only through the predictor branch of each direction; the
    encoder branch is detached. Degenerate pairs are skipped.
    """
    e_t, q_t = model_mod.heads_graph(leaves, z_t)
    _, z_prev, _ = model_mod.forward_graph(leaves, batch.features_prev)
    e_prev, q_prev = model_mod.heads_graph(leaves, z_prev)

    keep = _valid_pair_mask(e_t.value, q_t.value, e_prev.value, q_prev.value,
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

    qn_t = ad.l2_normalize_rows(ad.gather_rows(q_t, idx_t))
    qn_prev = ad.l2_normalize_rows(ad.gather_rows(q_prev, idx_prev))
    zn_prev = ad.stop_gradient(ad.l2_normalize_rows(ad.gather_rows(e_prev, idx_prev)))
    zn_t = ad.stop_gradient(ad.l2_normalize_rows(ad.gather_rows(e_t, idx_t)))

    fwd = ad.mul(ad.Tensor(w_fwd), ad.rows_dot(qn_t, zn_prev))
    bwd = ad.mul(ad.Tensor(w_bwd), ad.rows_dot(qn_prev, zn_t))
    return ad.neg(ad.mean_all(ad.scale(ad.add(fwd, bwd), 0.5)))
