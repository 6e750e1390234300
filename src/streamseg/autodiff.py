"""Minimal reverse-mode automatic differentiation over numpy arrays.

Only the handful of ops the segmenter needs. Each op records its parents and
a closure mapping the upstream gradient to per-parent gradients; backward()
runs the tape in reverse topological order.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("value", "grad", "parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self._backward = backward


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def stop_gradient(t: Tensor) -> Tensor:
    """Detach: same value, no gradient flow."""
    return Tensor(as_tensor(t).value)


def _unbroadcast(g, shape):
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(a.value + b.value, (a, b),
                  lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(a.value - b.value, (a, b),
                  lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(a.value * b.value, (a, b),
                  lambda g: (_unbroadcast(g * b.value, a.value.shape),
                             _unbroadcast(g * a.value, b.value.shape)))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(-a.value, (a,), lambda g: (-g,))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(a.value @ b.value, (a, b),
                  lambda g: (g @ b.value.T, a.value.T @ g))


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.value > 0
    return Tensor(a.value * mask, (a,), lambda g: (g * mask,))


def softmax_rows(a) -> Tensor:
    """Row-wise softmax of an N x C matrix."""
    a = as_tensor(a)
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    return Tensor(p, (a,),
                  lambda g: ((g - (g * p).sum(axis=1, keepdims=True)) * p,))


def l2_normalize_rows(a) -> Tensor:
    """Row-wise x / ||x||_2; caller guarantees non-degenerate rows."""
    a = as_tensor(a)
    n = np.linalg.norm(a.value, axis=1, keepdims=True)
    y = a.value / n

    def bw(g):
        return ((g - (g * y).sum(axis=1, keepdims=True) * y) / n,)

    return Tensor(y, (a,), bw)


def rows_dot(a, b) -> Tensor:
    """Per-row dot product of two N x D matrices, giving an N-vector."""
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(np.einsum("nd,nd->n", a.value, b.value), (a, b),
                  lambda g: (g[:, None] * b.value, g[:, None] * a.value))


def gather_rows(a, idx) -> Tensor:
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)

    def bw(g):
        out = np.zeros_like(a.value)
        np.add.at(out, idx, g)
        return (out,)

    return Tensor(a.value[idx], (a,), bw)


def mean_all(a) -> Tensor:
    a = as_tensor(a)
    n = a.value.size
    return Tensor(a.value.mean(), (a,),
                  lambda g: (np.broadcast_to(g / n, a.value.shape).copy(),))


def scale(a, s: float) -> Tensor:
    a = as_tensor(a)
    return Tensor(a.value * s, (a,), lambda g: (g * s,))


def backward(root: Tensor) -> None:
    """Accumulate gradients of `root` (summed to a scalar seed) into .grad."""
    topo = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))

    root.grad = np.ones_like(root.value)
    for node in reversed(topo):
        if node._backward is None or node.grad is None:
            continue
        for parent, g in zip(node.parents, node._backward(node.grad)):
            if g is None:
                continue
            if parent.grad is None:
                parent.grad = g.copy()
            else:
                parent.grad = parent.grad + g
