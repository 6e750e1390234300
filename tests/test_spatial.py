"""K-NN queries against a brute-force oracle, correspondences, features."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamseg.core import Frame
from streamseg.errors import ConfigInvalid, EmptyInput, KTooLarge
from streamseg import spatial


def brute_force_knn(points, queries, k):
    """O(N*M) reference: ties broken toward the smaller point index."""
    out_idx = np.empty((len(queries), k), dtype=np.int64)
    out_dist = np.empty((len(queries), k))
    for qi, q in enumerate(queries):
        d = np.linalg.norm(points - q, axis=1)
        order = np.lexsort((np.arange(len(points)), d))[:k]
        out_idx[qi] = order
        out_dist[qi] = d[order]
    return out_idx, out_dist


class TestKnn:
    def test_matches_brute_force_on_random_clouds(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n = int(rng.integers(5, 400))
            k = int(rng.integers(1, min(n, 12) + 1))
            pts = rng.normal(size=(n, 3))
            queries = rng.normal(size=(30, 3))
            index = spatial.build_index(pts)
            idx, dist = spatial.knn_batch(index, queries, k)
            ref_idx, ref_dist = brute_force_knn(pts, queries, k)
            np.testing.assert_array_equal(idx, ref_idx)
            # distances agree to the ulp (summation order differs)
            np.testing.assert_allclose(dist, ref_dist, rtol=1e-12)

    def test_tie_break_prefers_smaller_index(self):
        # four copies of the same point: ties must resolve by index order
        pts = np.zeros((4, 3))
        index = spatial.build_index(pts)
        idx, dist = spatial.knn_batch(index, np.zeros((1, 3)), 3)
        assert idx[0].tolist() == [0, 1, 2]
        assert np.all(dist == 0)

    def test_duplicate_points_on_grid(self):
        # quantized coordinates generate many exact ties
        rng = np.random.default_rng(3)
        pts = np.round(rng.normal(size=(200, 3)) * 2) / 2
        queries = np.round(rng.normal(size=(40, 3)) * 2) / 2
        index = spatial.build_index(pts)
        idx, _ = spatial.knn_batch(index, queries, 8)
        ref_idx, _ = brute_force_knn(pts, queries, 8)
        np.testing.assert_array_equal(idx, ref_idx)

    def test_single_query_wrapper(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
        index = spatial.build_index(pts)
        idx, dist = spatial.knn_batch(index, np.array([0.9, 0, 0]), 2)
        result = list(zip(idx[0].tolist(), dist[0].tolist()))
        assert [i for i, _ in result] == [1, 0]
        assert result[0][1] == pytest.approx(0.1)

    def test_k_too_large(self):
        index = spatial.build_index(np.zeros((3, 3)))
        with pytest.raises(KTooLarge):
            spatial.knn_batch(index, np.zeros((1, 3)), 4)

    def test_empty_cloud_rejected(self):
        with pytest.raises(EmptyInput):
            spatial.build_index(np.empty((0, 3)))

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_knn_property_random_seeds(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(50, 3))
        index = spatial.build_index(pts)
        idx, dist = spatial.knn_batch(index, pts[:10], 5)
        # self is always the nearest neighbor of itself
        assert np.array_equal(idx[:, 0], np.arange(10))
        # distances are sorted
        assert np.all(np.diff(dist, axis=1) >= 0)


def _self_query_clouds():
    rng = np.random.default_rng(21)
    # random points, and criterion 1's integer grid with its exact ties
    return [rng.normal(size=(300, 3)) * 4,
            rng.integers(0, 12, size=(400, 3)).astype(float)]


class TestSelfNeighbors:
    @staticmethod
    def _count_queries(monkeypatch):
        calls = []
        direct = spatial.knn_batch

        def counted(*args, **kwargs):
            calls.append(args[2])
            return direct(*args, **kwargs)

        monkeypatch.setattr(spatial, "knn_batch", counted)
        return calls, direct

    @pytest.mark.parametrize("cloud", range(2))
    def test_narrow_request_is_prefix_of_wide_query(self, monkeypatch, cloud):
        pts = _self_query_clouds()[cloud]
        calls, direct = self._count_queries(monkeypatch)
        index = spatial.build_index(pts)
        index.neighbors(20)
        for k in (1, 11, 20):
            idx, dist = index.neighbors(k)
            ref_idx, ref_dist = direct(index, pts, k)
            np.testing.assert_array_equal(idx, ref_idx)
            np.testing.assert_array_equal(dist, ref_dist)
        assert calls == [20]

    @pytest.mark.parametrize("cloud", range(2))
    def test_wider_request_queries_again(self, monkeypatch, cloud):
        pts = _self_query_clouds()[cloud]
        calls, direct = self._count_queries(monkeypatch)
        index = spatial.build_index(pts)
        index.neighbors(5)
        idx, dist = index.neighbors(12)
        ref_idx, ref_dist = direct(index, pts, 12)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(dist, ref_dist)
        index.neighbors(12)
        assert calls == [5, 12]

    def test_result_is_read_only(self):
        idx, dist = spatial.build_index(_self_query_clouds()[0]).neighbors(4)
        assert not idx.flags.writeable and not dist.flags.writeable

    def test_k_out_of_range(self):
        index = spatial.build_index(np.zeros((3, 3)))
        index.neighbors(3)
        for k in (0, 4):
            with pytest.raises(KTooLarge):
                index.neighbors(k)


class TestRelativeTransform:
    def test_inverse_composition(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            if np.linalg.det(q) < 0:
                q[:, 0] *= -1
            pose_a = np.eye(4)
            pose_a[:3, :3] = q
            pose_a[:3, 3] = rng.normal(size=3)
            pose_b = np.eye(4)
            pose_b[:3, 3] = rng.normal(size=3)
            rel = spatial.relative_transform(pose_a, pose_b)
            np.testing.assert_allclose(pose_a @ rel, pose_b, atol=1e-12)

    def test_identity_poses(self):
        rel = spatial.relative_transform(np.eye(4), np.eye(4))
        np.testing.assert_allclose(rel, np.eye(4), atol=0)


class TestCorrespondences:
    def _frames(self, shift=(1.0, 0.0, 0.0)):
        rng = np.random.default_rng(7)
        world = rng.normal(size=(120, 3)) * 5
        pose_prev = np.eye(4)
        pose_t = np.eye(4)
        pose_t[:3, 3] = shift
        prev = Frame(0, world, pose_prev, None)
        t = Frame(1, world - np.asarray(shift), pose_t, None)
        return t, prev

    def test_perfect_overlap_matches_everything(self):
        t, prev = self._frames()
        pairs = spatial.match_correspondences(t, prev, tau=0.05)
        assert len(pairs) == 120
        np.testing.assert_array_equal(pairs.idx_t, pairs.idx_prev)
        assert np.all(pairs.dist < 1e-9)

    def test_threshold_is_strict(self):
        pts_t = np.array([[0.0, 0, 0]])
        pts_prev = np.array([[0.2, 0, 0]])
        t = Frame(1, pts_t, np.eye(4), None)
        prev = Frame(0, pts_prev, np.eye(4), None)
        # residual exactly tau must be rejected (strict <)
        assert len(spatial.match_correspondences(t, prev, tau=0.2)) == 0
        assert len(spatial.match_correspondences(t, prev, tau=0.2000001)) == 1

    def test_invalid_tau(self):
        t, prev = self._frames()
        with pytest.raises(ValueError):
            spatial.match_correspondences(t, prev, tau=0.0)


class TestGeometricFeatures:
    def test_planar_patch(self):
        rng = np.random.default_rng(11)
        pts = np.column_stack([rng.uniform(-1, 1, 300),
                               rng.uniform(-1, 1, 300),
                               np.zeros(300)])
        feats = spatial.local_geometric_features(spatial.build_index(pts), 12)
        # rank-2 covariance: linearity + planarity -> 1, scattering -> 0
        assert np.all(feats[:, 5] + feats[:, 6] > 1 - 1e-9)
        assert np.all(feats[:, 7] < 1e-9)

    def test_linear_patch(self):
        pts = np.column_stack([np.linspace(0, 5, 200), np.zeros(200), np.zeros(200)])
        feats = spatial.local_geometric_features(spatial.build_index(pts), 8)
        assert np.all(feats[:, 5] > 1 - 1e-9)

    def test_k_feat_below_three_is_a_config_error(self):
        index = spatial.build_index(np.random.default_rng(0).normal(size=(10, 3)))
        with pytest.raises(ConfigInvalid, match="^k_feat must be >= 3, got 2"):
            spatial.local_geometric_features(index, 2)

    def test_degenerate_neighborhood_emits_zeros(self):
        pts = np.zeros((10, 3))  # all identical -> lambda_1 == 0
        feats = spatial.local_geometric_features(spatial.build_index(pts), 5)
        np.testing.assert_array_equal(feats[:, 5:8], 0.0)

    def test_rotation_invariance_of_eigenfeatures(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(250, 3))
        theta = 0.77
        rot = np.array([[np.cos(theta), -np.sin(theta), 0],
                        [np.sin(theta), np.cos(theta), 0],
                        [0, 0, 1.0]])
        f_a = spatial.local_geometric_features(spatial.build_index(pts), 10)
        rotated = pts @ rot.T
        f_b = spatial.local_geometric_features(spatial.build_index(rotated), 10)
        np.testing.assert_allclose(f_a[:, 5:8], f_b[:, 5:8], atol=1e-6)
        # density uses neighborhood radius only -> also invariant
        np.testing.assert_allclose(f_a[:, 8], f_b[:, 8], rtol=1e-6)

    def test_first_five_columns_are_coordinates(self):
        pts = np.array([[1.0, 2.0, 2.0]] * 4 + [[0.0, 0.1, 0.2]] * 4)
        feats = spatial.local_geometric_features(spatial.build_index(pts), 3)
        np.testing.assert_allclose(feats[0, :3], [1, 2, 2])
        assert feats[0, 3] == pytest.approx(3.0)   # range
        assert feats[0, 4] == pytest.approx(2.0)   # height
