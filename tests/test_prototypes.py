"""Prototype banks: construction, EMA blending, cosine labels, fusion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamseg.core import IGNORE, LabelField, SelectionMask
from streamseg.errors import LengthMismatch, NoSeenClasses
from streamseg import prototypes as pr


def bank_with(rows, seen):
    return pr.PrototypeBank(np.asarray(rows, dtype=np.float64),
                            np.asarray(seen, dtype=bool))


class TestBuildPrototypes:
    def test_means_per_class(self):
        z = np.array([[1.0, 0], [3.0, 0], [0, 2.0], [0, 4.0]])
        labels = LabelField(np.array([0, 0, 1, 1]))
        sel = SelectionMask(np.ones(4, dtype=bool))
        cent, counts = pr.build_prototypes(z, labels, sel, 3)
        np.testing.assert_allclose(cent[0], [2.0, 0])
        np.testing.assert_allclose(cent[1], [0, 3.0])
        np.testing.assert_allclose(cent[2], 0.0)
        assert counts.tolist() == [2, 2, 0]

    def test_selection_mask_filters(self):
        z = np.array([[1.0, 0], [100.0, 0]])
        labels = LabelField(np.array([0, 0]))
        sel = SelectionMask(np.array([True, False]))
        cent, counts = pr.build_prototypes(z, labels, sel, 1)
        np.testing.assert_allclose(cent[0], [1.0, 0])
        assert counts[0] == 1

    def test_ignore_labels_excluded(self):
        z = np.ones((3, 2))
        labels = LabelField(np.array([IGNORE, IGNORE, 0]))
        sel = SelectionMask(np.ones(3, dtype=bool))
        _, counts = pr.build_prototypes(z, labels, sel, 2)
        assert counts.tolist() == [1, 0]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pr.build_prototypes(np.ones((3, 2)), LabelField(np.zeros(2, dtype=np.int64)),
                                SelectionMask(np.ones(3, dtype=bool)), 2)


class TestEmaUpdate:
    def test_first_observation_adopts(self):
        bank = pr.PrototypeBank.empty(2, 3)
        fresh = np.array([[1.0, 2, 3], [0, 0, 0]])
        out = pr.ema_update(bank, fresh, np.array([5, 0]), alpha=0.9)
        np.testing.assert_allclose(out.prototypes[0], [1, 2, 3])
        assert out.seen.tolist() == [True, False]

    def test_blend_arithmetic(self):
        bank = bank_with([[1.0, 0.0]], [True])
        out = pr.ema_update(bank, np.array([[3.0, 4.0]]), np.array([1]), alpha=0.75)
        np.testing.assert_allclose(out.prototypes[0], [1.5, 1.0])

    def test_absent_class_untouched(self):
        bank = bank_with([[5.0, 5.0]], [True])
        out = pr.ema_update(bank, np.zeros((1, 2)), np.array([0]), alpha=0.5)
        np.testing.assert_allclose(out.prototypes[0], [5.0, 5.0])
        assert out.seen[0]

    def test_input_bank_not_mutated(self):
        bank = bank_with([[1.0, 1.0]], [True])
        pr.ema_update(bank, np.array([[9.0, 9.0]]), np.array([3]), alpha=0.5)
        np.testing.assert_allclose(bank.prototypes[0], [1.0, 1.0])

    def test_alpha_range(self):
        bank = pr.PrototypeBank.empty(1, 2)
        for bad in (-0.1, 1.0):
            with pytest.raises(ValueError):
                pr.ema_update(bank, np.zeros((1, 2)), np.array([1]), alpha=bad)

    @given(st.floats(min_value=0.0, max_value=0.999),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_blend_stays_on_segment(self, alpha, seed):
        rng = np.random.default_rng(seed)
        old = rng.normal(size=(1, 4))
        fresh = rng.normal(size=(1, 4))
        out = pr.ema_update(bank_with(old, [True]), fresh, np.array([2]), alpha)
        # result is the convex combination itself
        np.testing.assert_allclose(out.prototypes, alpha * old + (1 - alpha) * fresh,
                                   atol=1e-12)


class TestGlobalLabels:
    def test_cosine_nearest(self):
        bank = bank_with([[1.0, 0], [0, 1.0]], [True, True])
        z = np.array([[10.0, 1.0], [0.1, 5.0], [-1.0, 0.0]])
        labels = pr.global_pseudo_labels(z, bank)
        assert labels.values.tolist() == [0, 1, 1]  # [-1,0] is closer to +y than -x? no:
        # cos([-1,0],[1,0]) = -1, cos([-1,0],[0,1]) = 0 -> class 1 wins

    def test_scale_invariance(self):
        bank = bank_with([[2.0, 1.0], [-1.0, 3.0]], [True, True])
        rng = np.random.default_rng(4)
        z = rng.normal(size=(30, 2))
        a = pr.global_pseudo_labels(z, bank)
        b = pr.global_pseudo_labels(z * 17.0, bank)
        np.testing.assert_array_equal(a.values, b.values)

    def test_unseen_class_never_assigned(self):
        bank = bank_with([[1.0, 0], [0, 1.0]], [True, False])
        z = np.array([[0.0, 9.0]])  # perfectly aligned with the unseen class
        assert pr.global_pseudo_labels(z, bank).values[0] == 0

    def test_zero_embedding_is_ignore(self):
        bank = bank_with([[1.0, 0]], [True])
        z = np.array([[0.0, 0.0], [1.0, 0.0]])
        labels = pr.global_pseudo_labels(z, bank)
        assert labels.values.tolist() == [IGNORE, 0]

    def test_empty_bank_raises(self):
        with pytest.raises(NoSeenClasses):
            pr.global_pseudo_labels(np.ones((2, 3)), pr.PrototypeBank.empty(4, 3))

    def test_degenerate_prototypes_raise(self):
        bank = bank_with([[0.0, 0.0]], [True])
        with pytest.raises(NoSeenClasses):
            pr.global_pseudo_labels(np.ones((2, 2)), bank)


class TestFusion:
    def test_agreement_kept_disagreement_ignored(self):
        local = LabelField(np.array([0, 1, 2, IGNORE]))
        glob = LabelField(np.array([0, 2, 2, 0]))
        fused = pr.fuse_local_global(local, glob)
        assert fused.values.tolist() == [0, IGNORE, 2, IGNORE]

    def test_ignore_never_resurrected(self):
        local = LabelField(np.array([IGNORE]))
        glob = LabelField(np.array([IGNORE]))
        assert pr.fuse_local_global(local, glob).values[0] == IGNORE

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pr.fuse_local_global(LabelField(np.zeros(2, dtype=np.int64)),
                                 LabelField(np.zeros(3, dtype=np.int64)))
