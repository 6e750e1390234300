"""Cross-frame consistency loss: values, stop-gradient, gradcheck."""

from types import SimpleNamespace

import numpy as np
import pytest

from streamseg.core import IGNORE, ConfidenceField, LabelField
from streamseg import model, temporal
from streamseg.spatial import CorrespondenceSet


def negative_cosine(q, z, s_weight=1.0):
    """Scalar reference: confidence-weighted negative cosine of two vectors."""
    q = np.asarray(q, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    nq = np.linalg.norm(q)
    nz = np.linalg.norm(z)
    if nq <= 1e-12 or nz <= 1e-12:
        raise ValueError("cannot normalize a (near-)zero vector")
    return float(-s_weight * np.dot(q / nq, z / nz))


def make_pairs(n):
    idx = np.arange(n, dtype=np.int64)
    return CorrespondenceSet(idx, idx, np.zeros(n))


def consistency_loss(params, feats_t, feats_prev, pairs, s_t, s_prev):
    """The consistency term alone: the total loss with all-IGNORE targets."""
    n = len(feats_t)
    batch = model.TemporalBatch(features_prev=feats_prev, idx_t=pairs.idx_t,
                                idx_prev=pairs.idx_prev, s_t=s_t, s_prev=s_prev)
    return model.total_loss_and_grad(params, feats_t, LabelField(np.full(n, IGNORE)),
                                     ConfidenceField(np.ones(n)), temporal=batch)


def setup_case(seed=0, n=16, num_classes=4):
    rng = np.random.default_rng(seed)
    params = model.NetworkParams.init(9, num_classes, seed=seed)
    feats_t = rng.normal(size=(n, 9))
    feats_prev = feats_t + rng.normal(0, 0.05, size=(n, 9))
    s = rng.random(n)
    return params, feats_t, feats_prev, s


class TestNegativeCosine:
    def test_aligned_vectors(self):
        assert negative_cosine([2.0, 0], [5.0, 0]) == pytest.approx(-1.0)

    def test_orthogonal_vectors(self):
        assert negative_cosine([1.0, 0], [0, 3.0]) == pytest.approx(0.0)

    def test_weight_scales_linearly(self):
        base = negative_cosine([1.0, 1.0], [1.0, 0.0])
        assert negative_cosine([1.0, 1.0], [1.0, 0.0], 0.25) == pytest.approx(base * 0.25)
        assert base == pytest.approx(-np.sqrt(0.5))

    def test_zero_vector_raises(self):
        with pytest.raises(ValueError):
            negative_cosine([0.0, 0.0], [1.0, 0.0])


class TestTemporalLoss:
    def test_empty_pairs_zero(self):
        params, feats_t, feats_prev, s = setup_case()
        loss, grads, _ = consistency_loss(
            params, feats_t, feats_prev, make_pairs(0), s, s)
        assert loss == 0.0
        assert all(np.all(g == 0) for g in grads.values())

    def test_value_matches_scalar_reference(self):
        # identical frames, unit weights: loss = -mean(cos(q_i, z_i))
        params, feats_t, _, _ = setup_case(seed=1)
        ones = np.ones(len(feats_t))
        loss, _, _ = consistency_loss(params, feats_t, feats_t,
                                      make_pairs(len(feats_t)), ones, ones)
        _, z, _ = model.forward(params, feats_t)
        h = model.heads(params, z)
        e, q = h.e, h.q
        ref = np.mean([negative_cosine(q[i], e[i]) for i in range(len(q))])
        assert loss == pytest.approx(ref, abs=1e-12)

    def test_confidence_weighting_scales(self):
        params, feats_t, _, _ = setup_case(seed=2)
        n = len(feats_t)
        half = np.full(n, 0.5)
        ones = np.ones(n)
        la, _, _ = consistency_loss(params, feats_t, feats_t, make_pairs(n),
                                    ones, ones)
        lb, _, _ = consistency_loss(params, feats_t, feats_t, make_pairs(n),
                                    half, half)
        assert lb == pytest.approx(0.5 * la, abs=1e-12)

    def test_zero_confidence_means_zero_grads(self):
        params, feats_t, feats_prev, _ = setup_case(seed=3)
        n = len(feats_t)
        zero = np.zeros(n)
        loss, grads, _ = consistency_loss(params, feats_t, feats_prev,
                                          make_pairs(n), zero, zero)
        assert loss == 0.0
        assert all(np.allclose(g, 0.0) for g in grads.values())

    def test_classifier_gets_no_gradient(self):
        params, feats_t, feats_prev, s = setup_case(seed=4)
        _, grads, _ = consistency_loss(params, feats_t, feats_prev,
                                       make_pairs(len(feats_t)), s, s)
        np.testing.assert_array_equal(grads["classifier_w"], 0.0)
        np.testing.assert_array_equal(grads["classifier_b"], 0.0)
        # but the trunk does receive gradient through the predictor branch
        assert np.abs(grads["backbone1_w"]).max() > 0

    def test_predictor_gradcheck_fd(self):
        # the detached encoder branch never involves the predictor weights,
        # so plain finite differences are exact for them
        params, feats_t, feats_prev, s = setup_case(seed=5, n=10)
        pairs = make_pairs(10)
        _, grads, _ = consistency_loss(params, feats_t, feats_prev, pairs, s, s)
        eps = 1e-6
        rng = np.random.default_rng(0)
        for name in ("pred1_w", "pred2_w", "pred1_b", "pred2_b"):
            flat = params.tensors[name].reshape(-1)
            for j in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                orig = flat[j]
                flat[j] = orig + eps
                up, _, _ = consistency_loss(params, feats_t, feats_prev, pairs, s, s)
                flat[j] = orig - eps
                dn, _, _ = consistency_loss(params, feats_t, feats_prev, pairs, s, s)
                flat[j] = orig
                fd = (up - dn) / (2 * eps)
                assert grads[name].reshape(-1)[j] == pytest.approx(fd, abs=2e-6), name

    def test_stop_gradient_breaks_symmetry_with_naive_fd(self):
        # for encoder weights the detached branch makes the analytic gradient
        # differ from the naive finite difference of the value
        params, feats_t, feats_prev, s = setup_case(seed=6, n=10)
        pairs = make_pairs(10)
        _, grads, _ = consistency_loss(params, feats_t, feats_prev, pairs, s, s)
        name = "enc2_w"
        flat = params.tensors[name].reshape(-1)
        eps = 1e-6
        mismatches = 0
        for j in range(8):
            orig = flat[j]
            flat[j] = orig + eps
            up, _, _ = consistency_loss(params, feats_t, feats_prev, pairs, s, s)
            flat[j] = orig - eps
            dn, _, _ = consistency_loss(params, feats_t, feats_prev, pairs, s, s)
            flat[j] = orig
            fd = (up - dn) / (2 * eps)
            if abs(grads[name].reshape(-1)[j] - fd) > 1e-7:
                mismatches += 1
        assert mismatches > 0

    def test_loss_bounded_by_weights(self):
        params, feats_t, feats_prev, s = setup_case(seed=7)
        n = len(feats_t)
        loss, _, _ = consistency_loss(params, feats_t, feats_prev,
                                      make_pairs(n), s, s)
        # each direction is a weighted cosine in [-1, 1]
        assert abs(loss) <= 1.0 + 1e-12

    def test_total_loss_combines_both_terms(self):
        params, feats_t, feats_prev, s = setup_case(seed=8)
        n = len(feats_t)
        labels = LabelField(np.random.default_rng(9).integers(0, 4, size=n))
        conf = ConfidenceField(np.ones(n))
        batch = model.TemporalBatch(features_prev=feats_prev,
                                    idx_t=np.arange(n), idx_prev=np.arange(n),
                                    s_t=s, s_prev=s)
        loss, _, (dice, reg) = model.total_loss_and_grad(params, feats_t, labels,
                                                         conf, temporal=batch)
        assert loss == pytest.approx(dice + reg, abs=1e-12)
        assert dice > 0
        assert reg != 0

    def test_degenerate_pair_is_dropped(self):
        # a zero predictor row cannot be normalized: the term equals the one
        # over the other pairs, byte for byte, and the row gets no gradient
        rng = np.random.default_rng(10)
        heads_t = SimpleNamespace(e=rng.normal(size=(6, 4)), q=rng.normal(size=(6, 4)))
        heads_prev = SimpleNamespace(e=rng.normal(size=(5, 4)), q=rng.normal(size=(5, 4)))
        heads_t.q[2] = 0.0
        idx_t, idx_prev = np.array([0, 2, 5, 3]), np.array([4, 1, 0, 2])
        s_t, s_prev = rng.random(6), rng.random(5)
        got = temporal.temporal_term(heads_t, heads_prev,
                                     model.TemporalBatch(None, idx_t, idx_prev, s_t, s_prev))
        keep = idx_t != 2
        want = temporal.temporal_term(heads_t, heads_prev, model.TemporalBatch(
            None, idx_t[keep], idx_prev[keep], s_t, s_prev))
        for a, b in zip(got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert not got[1][2].any() and not got[2][1].any()
