"""Reverse-mode tape vs central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamseg import autodiff as ad


def sum_all(a):
    """Sum of every entry: the scalar root the checks differentiate."""
    a = ad.as_tensor(a)
    return ad.Tensor(a.value.sum(), (a,),
                     lambda g: (np.broadcast_to(g, a.value.shape).copy(),))


def fd_grad(f, x, eps=1e-6):
    """Central finite-difference gradient of a scalar function of one array."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp = x.copy(); xp[i] += eps
        xm = x.copy(); xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return g


def check(build, *arrays, atol=1e-6):
    """Run the tape on `arrays` and compare each input grad to FD."""
    tensors = [ad.Tensor(a) for a in arrays]
    out = build(*tensors)
    ad.backward(out)
    for j, t in enumerate(tensors):
        def scalar(x, j=j):
            args = [ad.Tensor(a) for a in arrays]
            args[j] = ad.Tensor(x)
            return float(build(*args).value.sum())
        np.testing.assert_allclose(t.grad, fd_grad(scalar, arrays[j]), atol=atol)


class TestOpGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_add_broadcast(self):
        check(lambda a, b: sum_all(ad.add(a, b)),
              self.rng.normal(size=(4, 3)), self.rng.normal(size=(1, 3)))

    def test_sub(self):
        check(lambda a, b: sum_all(ad.mul(ad.sub(a, b), ad.sub(a, b))),
              self.rng.normal(size=(3, 2)), self.rng.normal(size=(3, 2)))

    def test_mul_broadcast_column(self):
        check(lambda a, b: sum_all(ad.mul(a, b)),
              self.rng.normal(size=(5, 4)), self.rng.normal(size=(5, 1)))

    def test_neg_scale(self):
        check(lambda a: sum_all(ad.scale(ad.neg(a), 2.5)),
              self.rng.normal(size=(6,)))

    def test_matmul(self):
        check(lambda a, b: sum_all(ad.matmul(a, b)),
              self.rng.normal(size=(4, 3)), self.rng.normal(size=(3, 5)))

    def test_relu(self):
        # keep values away from the kink
        x = self.rng.normal(size=(20,))
        x[np.abs(x) < 0.05] = 0.1
        check(lambda a: sum_all(ad.mul(ad.relu(a), a)), x)

    def test_softmax_rows(self):
        w = self.rng.normal(size=(3, 4))
        check(lambda a: sum_all(ad.mul(ad.Tensor(w), ad.softmax_rows(a))),
              self.rng.normal(size=(3, 4)))

    def test_l2_normalize_rows(self):
        x = self.rng.normal(size=(4, 6)) + 3.0  # well away from zero norm
        w = self.rng.normal(size=(4, 6))
        check(lambda a: sum_all(ad.mul(ad.Tensor(w), ad.l2_normalize_rows(a))), x)

    def test_rows_dot(self):
        check(lambda a, b: sum_all(ad.rows_dot(a, b)),
              self.rng.normal(size=(7, 3)), self.rng.normal(size=(7, 3)))

    def test_gather_rows_accumulates_duplicates(self):
        idx = np.array([0, 2, 2, 1, 2])
        check(lambda a: sum_all(ad.mul(ad.gather_rows(a, idx),
                                       ad.gather_rows(a, idx))),
              self.rng.normal(size=(4, 3)))

    def test_mean_all(self):
        check(lambda a: ad.mean_all(ad.mul(a, a)), self.rng.normal(size=(3, 3)))


class TestTapeMechanics:
    def test_diamond_reuse_accumulates(self):
        # y = x*x + x*x reuses the same node twice
        x = ad.Tensor(np.array([2.0]))
        sq = ad.mul(x, x)
        out = sum_all(ad.add(sq, sq))
        ad.backward(out)
        np.testing.assert_allclose(x.grad, [8.0])

    def test_stop_gradient_blocks_flow(self):
        x = ad.Tensor(np.array([3.0]))
        out = sum_all(ad.mul(x, ad.stop_gradient(x)))
        ad.backward(out)
        # d/dx of x * const(x) is const(x), not 2x
        np.testing.assert_allclose(x.grad, [3.0])

    def test_stop_gradient_value_passthrough(self):
        x = ad.Tensor(np.array([1.0, -2.0]))
        np.testing.assert_array_equal(ad.stop_gradient(x).value, x.value)

    def test_backward_seeds_with_ones(self):
        x = ad.Tensor(np.array([1.0, 2.0, 3.0]))
        y = ad.scale(x, 4.0)
        ad.backward(y)
        np.testing.assert_allclose(x.grad, [4.0, 4.0, 4.0])

    def test_constants_keep_none_grad(self):
        x = ad.Tensor(np.ones(2))
        c = ad.stop_gradient(ad.Tensor(np.ones(2)))
        out = sum_all(ad.add(x, c))
        ad.backward(out)
        assert c.grad is not None  # leaf of the add still receives a grad
        assert x.grad is not None

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        p = ad.softmax_rows(ad.Tensor(rng.normal(size=(10, 5)) * 10))
        np.testing.assert_allclose(p.value.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_overflow_safe(self):
        p = ad.softmax_rows(ad.Tensor(np.array([[1000.0, 0.0]])))
        assert np.all(np.isfinite(p.value))

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_chain_matches_fd(self, seed):
        rng = np.random.default_rng(seed)
        w1 = rng.normal(size=(3, 4))
        w2 = rng.normal(size=(4, 2))
        x = rng.normal(size=(5, 3))

        def net(w1t):
            h = ad.relu(ad.matmul(ad.Tensor(x), w1t))
            return ad.mean_all(ad.softmax_rows(ad.matmul(h, ad.Tensor(w2))))

        t = ad.Tensor(w1)
        ad.backward(net(t))
        np.testing.assert_allclose(
            t.grad, fd_grad(lambda w: float(net(ad.Tensor(w)).value), w1), atol=1e-6)
