"""The fast kernels against the formulas they replaced, compared by bytes.

Each reference below is the earlier form of a kernel: the 3-d covariance
einsum, the re-rank that sorts every row, `np.add.at` and the ReLU that
allocates. The fast forms must reproduce them byte for byte. The K-NN
slack must change only the speed: any slack gives the brute-force result.
"""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from streamseg import model, spatial, stream
from streamseg.core import scatter_add_rows

from test_acceptance import SCENE_SEED, SHIFT


def reference_covariance(neigh):
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    return np.einsum("nkd,nke->nde", centered, centered) / neigh.shape[1]


def reference_rerank(points, queries, cand_idx):
    diff = points[cand_idx] - queries[:, None, :]
    d = np.sqrt(np.einsum("qkd,qkd->qk", diff, diff))
    order = np.lexsort((cand_idx, d), axis=1)
    return np.take_along_axis(cand_idx, order, axis=1), np.take_along_axis(d, order, axis=1)


def reference_scatter(idx, rows, num_rows):
    out = np.zeros((num_rows, rows.shape[1]))
    np.add.at(out, idx, rows)
    return out


def golden_frame():
    return stream.generate_sequence(stream.SceneConfig(seed=SCENE_SEED, frames=1),
                                    stream.ShiftConfig(**SHIFT))[0]


def integer_grid(n=400, seed=21):
    # criterion 1's grid: squared distances are exact, so ties are exact
    return np.random.default_rng(seed).integers(0, 12, size=(n, 3)).astype(float)


def brute_force(points, queries, k):
    """Stable argsort of the full distance row, and the exact-distance arithmetic on it."""
    ref = np.argsort(cdist(queries, points), axis=1, kind="stable")[:, :k]
    diff = points[ref] - queries[:, None, :]
    return ref, np.sqrt(np.einsum("qkd,qkd->qk", diff, diff))


def _assert_bytes_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestCovariance:
    @pytest.mark.parametrize("cloud", ["golden", "grid", "collinear"])
    def test_covariance_and_eigenvalues_equal_the_3d_einsum(self, cloud):
        if cloud == "golden":
            points = golden_frame().points
        elif cloud == "grid":
            points = integer_grid()
        else:
            points = np.column_stack([np.linspace(0, 5, 200), 2 * np.linspace(0, 5, 200),
                                      np.full(200, 0.3)])
        idx, _ = spatial.build_index(points).neighbors(20)
        neigh = points[idx]
        cov, ref = spatial._covariance(neigh), reference_covariance(neigh)
        _assert_bytes_equal(cov, ref)
        _assert_bytes_equal(np.linalg.eigvalsh(cov), np.linalg.eigvalsh(ref))


class TestRerank:
    def test_tied_rows_are_sorted_like_the_full_lexsort(self):
        # a tie-heavy grid and, far from it, a generic cloud
        rng = np.random.default_rng(6)
        points = np.vstack([integer_grid(), 50 + rng.normal(size=(400, 3))])
        queries = np.vstack([integer_grid(30, seed=5), 50 + rng.normal(size=(30, 3))])
        _, cand = spatial.build_index(points)._tree.query(queries, k=12)
        want_idx, want_d = reference_rerank(points, queries, cand)
        got_idx, got_d = spatial._exact_rerank(points, queries, cand.copy())
        _assert_bytes_equal(got_idx, want_idx)
        _assert_bytes_equal(got_d, want_d)
        # the case holds rows the fast path keeps and tied rows that need the sort
        tied = ~(want_d[:, 1:] > want_d[:, :-1]).all(axis=1)
        assert tied[:30].all() and not tied[30:].any()
        assert (want_idx[:30] != cand[:30]).any()

    def test_row_with_equal_distances_in_descending_index_order(self):
        points = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [0, 0, 0.5]])
        cand = np.array([[3, 2, 1, 0]])
        got_idx, got_d = spatial._exact_rerank(points, np.zeros((1, 3)), cand.copy())
        assert got_idx.tolist() == [[3, 0, 1, 2]]
        _assert_bytes_equal(got_d, reference_rerank(points, np.zeros((1, 3)), cand)[1])


class TestScatter:
    @pytest.mark.parametrize("idx", [
        [0, 3, 3, 1, 0, 3],          # repeated
        [2, 0, 2, 5, 0],             # repeated, never next to each other
        [0, 2, 5, 6],                # strictly increasing
        [4, 1, 6, 0],                # unique, unsorted
        [],                          # empty
    ], ids=["repeated", "repeated-apart", "increasing", "unsorted-unique", "empty"])
    def test_equals_add_at(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        rows = np.random.default_rng(len(idx)).normal(size=(len(idx), 5)) * 1e3
        _assert_bytes_equal(scatter_add_rows(idx, rows, 7), reference_scatter(idx, rows, 7))

    @pytest.mark.parametrize("idx", [[1, 2], [2, 1], [1, 1]])
    def test_negative_zero_rows(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        rows = np.array([[-0.0, 1.0], [-0.0, -0.0]])
        got = scatter_add_rows(idx, rows, 3)
        _assert_bytes_equal(got, reference_scatter(idx, rows, 3))
        assert not np.signbit(got).any()   # 0.0 + -0.0 is 0.0

    def test_cancellation_follows_pair_order(self):
        idx = np.zeros(3, dtype=np.int64)
        rows = np.array([[1e16], [1.0], [-1e16]])
        _assert_bytes_equal(scatter_add_rows(idx, rows, 1), reference_scatter(idx, rows, 1))


class TestRelu:
    def test_in_place_form_equals_the_product(self):
        s = np.array([[-2.0, -0.0, 0.0, 1.5, -1e-300, np.inf]])
        want = s * (s > 0)
        got, mask = model._relu(s)
        assert got is s
        _assert_bytes_equal(got, want)
        assert mask.tolist() == [[False, False, False, True, False, True]]


@pytest.mark.parametrize("slack", [0, 1, 2, 8])
class TestSlack:
    @staticmethod
    def _clouds():
        rng = np.random.default_rng(4)
        return [(integer_grid(500, seed=9), integer_grid(40, seed=10)),
                (rng.normal(size=(500, 3)) * 4, rng.normal(size=(40, 3)) * 4)]

    @pytest.mark.parametrize("k", [1, 5, 16])
    def test_knn_batch_is_exact_at_any_slack(self, monkeypatch, slack, k):
        monkeypatch.setattr(spatial, "_SLACK", slack)
        for points, queries in self._clouds():
            idx, dist = spatial.knn_batch(spatial.build_index(points), queries, k)
            ref_idx, ref_dist = brute_force(points, queries, k)
            _assert_bytes_equal(idx, ref_idx)
            _assert_bytes_equal(dist, ref_dist)

    def test_neighbors_is_exact_at_any_slack(self, monkeypatch, slack):
        monkeypatch.setattr(spatial, "_SLACK", slack)
        for points, _ in self._clouds():
            idx, dist = spatial.build_index(points).neighbors(20)
            ref_idx, ref_dist = brute_force(points, points, 20)
            _assert_bytes_equal(idx, ref_idx)
            _assert_bytes_equal(dist, ref_dist)


def test_slack_zero_sends_every_row_to_the_ball_query(monkeypatch):
    """At slack 0 no row is safe; a ball query of its own finishes each one."""
    monkeypatch.setattr(spatial, "_SLACK", 0)
    calls = []
    direct = spatial._exact_rerank

    def counted(points, queries, cand_idx):
        calls.append(len(queries))
        return direct(points, queries, cand_idx)

    monkeypatch.setattr(spatial, "_exact_rerank", counted)
    points, queries = TestSlack._clouds()[0]
    idx, _ = spatial.knn_batch(spatial.build_index(points), queries, 10)
    assert calls == [40] + [1] * 40     # the batched query, then one ball query per row
    _assert_bytes_equal(idx, brute_force(points, queries, 10)[0])
