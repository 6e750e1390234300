"""The segmenter and its loss built on the reverse-mode tape of `streamseg.autodiff`.

This is the oracle of the hand-derived forward and backward in
`streamseg.model` and `streamseg.temporal`: the same network, Dice term and
temporal term, assembled op by op from generic tape nodes, with gradients
from `autodiff.backward`.
"""

import numpy as np

from streamseg import autodiff as ad
from streamseg import model

#: Rows with a norm at or below this are degenerate: their pair is skipped.
NORM_EPS = 1e-12


def make_leaves(params):
    return {name: ad.Tensor(params.tensors[name]) for name in params.names()}


def _dense(leaves, name, x):
    return ad.add(ad.matmul(x, leaves[f"{name}_w"]), leaves[f"{name}_b"])


def forward_graph(leaves, features):
    """Build the classification graph; returns (probs, z, logits) tensors."""
    x = ad.Tensor(features)
    h = ad.relu(_dense(leaves, "backbone1", x))
    h = ad.relu(_dense(leaves, "backbone2", h))
    z = _dense(leaves, "embed", h)
    logits = _dense(leaves, "classifier", z)
    return ad.softmax_rows(logits), z, logits


def heads_graph(leaves, z):
    """Encoder/predictor heads on embeddings; returns (encoded, predicted)."""
    e = _dense(leaves, "enc2", ad.relu(_dense(leaves, "enc1", z)))
    q = _dense(leaves, "pred2", ad.relu(_dense(leaves, "pred1", e)))
    return e, q


def dice_term(probs_t, targets, s, beta_hat):
    """Graph-level soft Dice term on built probabilities; None when all IGNORE."""
    t, mask = model.smooth_targets(targets, s, beta_hat, probs_t.value.shape[1])
    sup = np.nonzero(mask)[0]
    if len(sup) == 0:
        return None
    dots = ad.rows_dot(ad.gather_rows(probs_t, sup), ad.Tensor(t[sup]))
    return ad.sub(ad.Tensor(1.0), ad.mean_all(dots))


def temporal_term(leaves, z_t, batch):
    """Graph-level symmetric consistency loss; None when no usable pair."""
    e_t, q_t = heads_graph(leaves, z_t)
    _, z_prev, _ = forward_graph(leaves, batch.features_prev)
    e_prev, q_prev = heads_graph(leaves, z_prev)

    keep = np.ones(len(batch.idx_t), dtype=bool)
    for x, idx in ((e_t, batch.idx_t), (q_t, batch.idx_t),
                   (e_prev, batch.idx_prev), (q_prev, batch.idx_prev)):
        keep &= np.linalg.norm(x.value[idx], axis=1) > NORM_EPS
    idx_t = batch.idx_t[keep]
    idx_prev = batch.idx_prev[keep]
    if len(idx_t) == 0:
        return None

    w_fwd = batch.s_prev[idx_prev]
    w_bwd = batch.s_t[idx_t]

    qn_t = ad.l2_normalize_rows(ad.gather_rows(q_t, idx_t))
    qn_prev = ad.l2_normalize_rows(ad.gather_rows(q_prev, idx_prev))
    zn_prev = ad.stop_gradient(ad.l2_normalize_rows(ad.gather_rows(e_prev, idx_prev)))
    zn_t = ad.stop_gradient(ad.l2_normalize_rows(ad.gather_rows(e_t, idx_t)))

    fwd = ad.mul(ad.Tensor(w_fwd), ad.rows_dot(qn_t, zn_prev))
    bwd = ad.mul(ad.Tensor(w_bwd), ad.rows_dot(qn_prev, zn_t))
    return ad.neg(ad.mean_all(ad.scale(ad.add(fwd, bwd), 0.5)))


def total_loss_and_grad(params, features, targets, s, beta_hat=0.3, temporal=None):
    """(loss, grads, (dice, reg)) of `model.total_loss_and_grad`, through the tape."""
    leaves = make_leaves(params)
    probs_t, z_t, _ = forward_graph(leaves, features)
    terms = []
    dice_value = reg_value = 0.0

    loss_t = dice_term(probs_t, targets, s, beta_hat)
    if loss_t is not None:
        terms.append(loss_t)
        dice_value = float(loss_t.value)

    if temporal is not None and len(temporal.idx_t):
        reg_t = temporal_term(leaves, z_t, temporal)
        if reg_t is not None:
            terms.append(reg_t)
            reg_value = float(reg_t.value)

    grads = {name: np.zeros_like(leaf.value) for name, leaf in leaves.items()}
    if not terms:
        return 0.0, grads, (0.0, 0.0)
    total = terms[0]
    for extra in terms[1:]:
        total = ad.add(total, extra)
    ad.backward(total)
    for name in grads:
        if leaves[name].grad is not None:
            grads[name] = leaves[name].grad
    return float(total.value), grads, (dice_value, reg_value)
