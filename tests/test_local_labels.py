"""Pseudo-label aggregation, confidence scoring, per-class selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamseg.core import ConfidenceField, LabelField, ProbabilityField
from streamseg.errors import KTooLarge, LengthMismatch
from streamseg import local_labels as ll
from streamseg.spatial import build_index


class TestAggregation:
    def test_two_point_hand_oracle(self):
        # unit spacing: self weight 1, neighbor weight e^-1
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        probs = ProbabilityField(np.array([[0.9, 0.1], [0.2, 0.8]]))
        agg = ll.aggregate_predictions(probs, build_index(pts), k=1)
        np.testing.assert_allclose(agg.values[0], [0.71174101, 0.28825899], atol=1e-8)
        np.testing.assert_allclose(agg.values[1], [0.38825899, 0.61174101], atol=1e-8)

    def test_identical_rows_are_fixed_point(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 3))
        row = rng.dirichlet(np.ones(5))
        probs = ProbabilityField(np.tile(row, (40, 1)))
        agg = ll.aggregate_predictions(probs, build_index(pts), k=6)
        np.testing.assert_allclose(agg.values, probs.values, atol=1e-12)

    def test_rows_stay_normalized(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(60, 3)) * 3
        probs = ProbabilityField(rng.dirichlet(np.ones(7), size=60))
        agg = ll.aggregate_predictions(probs, build_index(pts), k=10)
        np.testing.assert_allclose(agg.values.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(agg.values >= 0)

    def test_k_plus_one_exceeding_n_raises(self):
        pts = np.zeros((3, 3))
        probs = ProbabilityField(np.full((3, 2), 0.5))
        with pytest.raises(KTooLarge):
            ll.aggregate_predictions(probs, build_index(pts), k=3)


class TestLabelsAndConfidence:
    def test_argmax_tie_smallest_class(self):
        probs = ProbabilityField(np.array([[0.4, 0.4, 0.2], [0.2, 0.4, 0.4]]))
        labels = ll.local_pseudo_labels(probs)
        assert labels.values.tolist() == [0, 1]

    def test_certainty_extremes(self):
        probs = ProbabilityField(np.array([[1.0, 0.0, 0.0],
                                           [1 / 3, 1 / 3, 1 / 3]]))
        cert = ll.prediction_certainty(probs, 3)
        assert cert.values[0] == pytest.approx(1.0)
        assert cert.values[1] == pytest.approx(0.0, abs=1e-12)

    def test_certainty_hand_oracle(self):
        probs = ProbabilityField(np.array([[0.7, 0.2, 0.1]]))
        cert = ll.prediction_certainty(probs, 3)
        assert cert.values[0] == pytest.approx(0.27015330083790257)

    def test_certainty_rejects_single_class(self):
        with pytest.raises(ValueError):
            ll.prediction_certainty(ProbabilityField(np.ones((2, 1))), 1)

    def test_purity_uniform_neighborhood(self):
        pts = np.random.default_rng(2).normal(size=(20, 3))
        labels = LabelField(np.full(20, 3))
        pur = ll.geometric_purity(labels, build_index(pts), 5, 7)
        np.testing.assert_allclose(pur.values, 1.0)

    def test_purity_hand_oracle(self):
        # 5 coincident-cluster points labeled [0,0,0,1,2] -> hist (3,1,1)/5
        pts = np.arange(5)[:, None] * np.array([1e-4, 0, 0])
        labels = LabelField(np.array([0, 0, 0, 1, 2]))
        pur = ll.geometric_purity(labels, build_index(pts), 4, 3)
        np.testing.assert_allclose(pur.values, 0.1350264792820728, atol=1e-12)

    def test_confidence_is_product(self):
        c = ConfidenceField(np.array([0.5, 1.0]))
        p = ConfidenceField(np.array([0.4, 0.9]))
        np.testing.assert_allclose(ll.confidence_scores(c, p).values, [0.2, 0.9])

    def test_confidence_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ll.confidence_scores(ConfidenceField(np.zeros(2)),
                                 ConfidenceField(np.zeros(3)))


class TestSelection:
    def test_nearest_rank_percentile(self):
        # 10 members, lam=60: threshold is the 6th smallest score (0.6),
        # strictly-above keeps the top 4
        labels = LabelField(np.zeros(10, dtype=np.int64))
        scores = ConfidenceField(np.arange(1, 11) / 10.0)
        mask = ll.select_per_class(labels, scores, 60.0)
        assert mask.values.sum() == 4
        assert mask.values[6:].all()

    def test_lam_zero_drops_only_the_minimum(self):
        labels = LabelField(np.zeros(5, dtype=np.int64))
        scores = ConfidenceField(np.array([0.1, 0.5, 0.9, 0.3, 0.7]))
        mask = ll.select_per_class(labels, scores, 0.0)
        assert mask.values.tolist() == [False, True, True, True, True]

    def test_thresholds_are_per_class(self):
        # class 1 scores all above class 0's: per-class thresholds must not mix
        labels = LabelField(np.array([0, 0, 0, 0, 1, 1, 1, 1]))
        scores = ConfidenceField(np.array([0.1, 0.2, 0.3, 0.4,
                                           0.6, 0.7, 0.8, 0.9]))
        mask = ll.select_per_class(labels, scores, 50.0)
        assert mask.values[:4].sum() == mask.values[4:].sum() == 2

    def test_singleton_class(self):
        labels = LabelField(np.array([0, 1, 1, 1]))
        scores = ConfidenceField(np.array([0.2, 0.5, 0.6, 0.7]))
        assert not ll.select_per_class(labels, scores, 50.0).values[0]
        assert ll.select_per_class(labels, scores, 0.0).values[0]

    def test_ignore_labels_never_selected(self):
        labels = LabelField(np.array([-1, -1, 0, 0]))
        scores = ConfidenceField(np.array([0.9, 0.9, 0.1, 0.8]))
        mask = ll.select_per_class(labels, scores, 0.0)
        assert not mask.values[:2].any()

    def test_lam_out_of_range(self):
        labels = LabelField(np.zeros(3, dtype=np.int64))
        scores = ConfidenceField(np.zeros(3))
        for bad in (-1.0, 100.0, 120.0):
            with pytest.raises(ValueError):
                ll.select_per_class(labels, scores, bad)

    @given(st.integers(min_value=2, max_value=200),
           st.floats(min_value=0.0, max_value=99.9),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_selected_fraction_bound(self, m, lam, seed):
        # with distinct scores exactly m - ceil(lam/100 * m) (floored at m-1)
        rng = np.random.default_rng(seed)
        scores = ConfidenceField(rng.permutation(m) / m + 1e-9)
        labels = LabelField(np.zeros(m, dtype=np.int64))
        kept = ll.select_per_class(labels, scores, lam).values.sum()
        assert kept == m - max(int(np.ceil(lam / 100.0 * m)), 1)


class TestRunLgl:
    def test_denoises_two_clusters(self):
        # two tight clusters; 20% of per-point predictions are flipped, and
        # neighborhood aggregation must vote the noise away
        rng = np.random.default_rng(9)
        a = rng.normal(size=(50, 3)) * 0.1
        b = rng.normal(size=(50, 3)) * 0.1 + 10.0
        pts = np.vstack([a, b])
        true = np.repeat([0, 1], 50)
        noisy = true.copy()
        flip = rng.random(100) < 0.2
        noisy[flip] = 1 - noisy[flip]
        probs = np.full((100, 2), 0.2)
        probs[np.arange(100), noisy] = 0.8
        labels, scores, mask = ll.run_lgl(ProbabilityField(probs), build_index(pts),
                                          k=12, lam=10.0, num_classes=2)
        np.testing.assert_array_equal(labels.values, true)
        assert 0 < mask.values.sum() < 100
        assert np.all((scores.values >= 0) & (scores.values <= 1))
