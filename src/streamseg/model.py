"""Differentiable per-point segmenter, losses, and the Adam optimizer.

The network is a small fully connected stack applied pointwise:

    features (F) -> 64 -> 64 (ReLU)           backbone
                 -> 32                        embedding z
                 -> C + softmax               classifier
    z -> 32 -> 32 (ReLU hidden)               encoder head
    encoder out -> 16 -> 32 (ReLU hidden)     predictor head

The model computes in its parameters' dtype: float64 parameters give
float64 activations, gradients and Adam moments, and float32 parameters
float32 ones. There is no global switch. `NetworkParams.init` and `load`
are float64; pretraining trains a float32 copy of its init and adaptation a
float32 copy of the source model (`astype`), and checkpoints are float64 on
disk whatever the parameters' dtype.
Forward/backward are pure given a parameter snapshot. This is the only
module that knows the layers; `temporal` sees only head outputs. The
backward is derived by hand, layer by layer, and reproduces the arithmetic
of the reverse-mode tape in `autodiff` op for op, so at float64 its
gradients equal the tape's bitwise. Checkpoints are flat binary records
with magic "HGL1".
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import spatial, stream
from .core import IGNORE, ConfidenceField, LabelField, ProbabilityField, retain_freed_memory
from .errors import ConfigInvalid, IoFailure, MalformedRecord, NoGroundTruth, ShapeMismatch
from .temporal import TemporalBatch, temporal_term

_MAGIC = b"HGL1"

_HIDDEN = 64
_EMBED = 32
_ENC = 32
_PRED_HIDDEN = 16


def _layer_specs(feature_dim: int, num_classes: int):
    """(name, fan_in, fan_out) in fixed checkpoint order."""
    return [
        ("backbone1", feature_dim, _HIDDEN),
        ("backbone2", _HIDDEN, _HIDDEN),
        ("embed", _HIDDEN, _EMBED),
        ("classifier", _EMBED, num_classes),
        ("enc1", _EMBED, _ENC),
        ("enc2", _ENC, _ENC),
        ("pred1", _ENC, _PRED_HIDDEN),
        ("pred2", _PRED_HIDDEN, _ENC),
    ]


@dataclass
class NetworkParams:
    """Named weight/bias arrays of the segmenter, in fixed topological order."""

    tensors: dict

    @classmethod
    def init(cls, feature_dim: int, num_classes: int, seed: int = 0) -> "NetworkParams":
        """Glorot-uniform weights, zero biases, fixed seed."""
        rng = np.random.default_rng(seed)
        tensors = {}
        for name, fan_in, fan_out in _layer_specs(feature_dim, num_classes):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            tensors[f"{name}_w"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            tensors[f"{name}_b"] = np.zeros(fan_out)
        return cls(tensors)

    @property
    def feature_dim(self) -> int:
        return self.tensors["backbone1_w"].shape[0]

    @property
    def num_classes(self) -> int:
        return self.tensors["classifier_w"].shape[1]

    @property
    def embed_dim(self) -> int:
        return self.tensors["classifier_w"].shape[0]

    @property
    def dtype(self) -> np.dtype:
        """The dtype the model computes in."""
        return self.tensors["backbone1_w"].dtype

    def names(self):
        return [f"{n}_{s}" for n, _, _ in _layer_specs(self.feature_dim, self.num_classes)
                for s in ("w", "b")]

    def copy(self) -> "NetworkParams":
        return NetworkParams({k: v.copy() for k, v in self.tensors.items()})

    def astype(self, dtype) -> "NetworkParams":
        """A copy whose tensors hold `dtype`, so the model computes in it."""
        return NetworkParams({k: v.astype(dtype) for k, v in self.tensors.items()})

    def save(self, path) -> None:
        try:
            with open(path, "wb") as f:
                f.write(_MAGIC)
                for name in self.names():
                    arr = np.ascontiguousarray(self.tensors[name], dtype=np.float64)
                    f.write(struct.pack("<I", arr.ndim))
                    f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                    f.write(arr.tobytes())
        except OSError as e:
            raise IoFailure(str(e)) from e

    @classmethod
    def load(cls, path) -> "NetworkParams":
        try:
            blob = Path(path).read_bytes()
        except OSError as e:
            raise IoFailure(str(e)) from e
        if blob[:4] != _MAGIC:
            raise MalformedRecord(f"{path}: bad checkpoint magic")
        off = 4
        raw = []
        while off < len(blob):
            if off + 4 > len(blob):
                raise MalformedRecord(f"{path}: truncated tensor header")
            (rank,) = struct.unpack_from("<I", blob, off)
            off += 4
            if rank < 1 or rank > 2 or off + 4 * rank > len(blob):
                raise MalformedRecord(f"{path}: bad tensor rank {rank}")
            dims = struct.unpack_from(f"<{rank}I", blob, off)
            off += 4 * rank
            count = int(np.prod(dims))
            if off + 8 * count > len(blob):
                raise MalformedRecord(f"{path}: truncated tensor payload")
            raw.append(np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(dims).copy())
            off += 8 * count
        if len(raw) != 16:
            raise MalformedRecord(f"{path}: expected 16 tensors, found {len(raw)}")
        # every tensor has a first dimension; the shape check below rejects a wrong rank
        feature_dim = raw[0].shape[0]
        num_classes = raw[7].shape[0]
        expected = _layer_specs(feature_dim, num_classes)
        tensors = {}
        for (name, fan_in, fan_out), w, b in zip(expected, raw[0::2], raw[1::2]):
            if w.shape != (fan_in, fan_out) or b.shape != (fan_out,):
                raise MalformedRecord(f"{path}: inconsistent shapes for layer {name}")
            tensors[f"{name}_w"] = w
            tensors[f"{name}_b"] = b
        if num_classes < 2:   # the bound pretrain_source applies
            raise MalformedRecord(f"{path}: checkpoint has {num_classes} classes, needs >= 2")
        for name, value in tensors.items():
            if not np.isfinite(value).all():
                raise MalformedRecord(f"{path}: tensor {name} holds a non-finite value")
        return cls(tensors)


#: Fixed per-feature input scaling applied ahead of the backbone. The last
#: column (local density) is log-compressed; the rest are divided by typical
#: scene extents so activations start well-conditioned.
_FEATURE_SCALE = np.array([25.0, 8.0, 2.0, 25.0, 2.0, 1.0, 1.0, 1.0, 1.0])


def normalize_features(features) -> np.ndarray:
    """Condition raw 9-dim geometric features for the network input."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != 9:
        raise ShapeMismatch(f"expected N x 9 features, got {features.shape}")
    out = features / _FEATURE_SCALE
    out[:, 8] = np.log1p(features[:, 8]) / 1.5
    return out


@dataclass
class ForwardPass:
    """Activations of one pointwise forward pass, kept for its backward.

    `logits` and `probs` (the unclipped softmax) are None when the pass
    skipped the classifier.
    """

    x: np.ndarray           # network input: backbone1's input
    h1: np.ndarray          # backbone2's input
    m1: np.ndarray          # ReLU mask of backbone1
    h2: np.ndarray          # embed's input
    m2: np.ndarray          # ReLU mask of backbone2
    z: np.ndarray           # embedding: the classifier's and the encoder's input
    logits: np.ndarray | None
    probs: np.ndarray | None


@dataclass
class HeadsPass:
    """Activations of the encoder and predictor heads on embeddings `z`."""

    z: np.ndarray           # enc1's input
    h_enc: np.ndarray       # enc2's input
    m_enc: np.ndarray       # ReLU mask of enc1
    e: np.ndarray           # encoder output: pred1's input
    h_pred: np.ndarray      # pred2's input
    m_pred: np.ndarray      # ReLU mask of pred1
    q: np.ndarray           # predictor output


def _dense(params: NetworkParams, name: str, x):
    out = x @ params.tensors[f"{name}_w"]
    out += params.tensors[f"{name}_b"]
    return out


def _relu(s):
    """(s with its negatives zeroed in place, mask).

    Multiplying by the mask in place keeps the sign of zeros, as `s * mask`
    does: a negative entry becomes -0.0.
    """
    mask = s > 0
    s *= mask
    return s, mask


def forward_pass(params: NetworkParams, features, classify: bool = True) -> ForwardPass:
    """The network's one forward pass; `classify=False` stops at the embedding.

    The features are cast to the parameters' dtype unless they hold it.
    """
    x = np.asarray(features, dtype=params.dtype)
    h1, m1 = _relu(_dense(params, "backbone1", x))
    h2, m2 = _relu(_dense(params, "backbone2", h1))
    z = _dense(params, "embed", h2)
    logits = probs = None
    if classify:
        logits = _dense(params, "classifier", z)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
    return ForwardPass(x, h1, m1, h2, m2, z, logits, probs)


def heads(params: NetworkParams, z) -> HeadsPass:
    """Encoder/predictor heads on embeddings."""
    h_enc, m_enc = _relu(_dense(params, "enc1", z))
    e = _dense(params, "enc2", h_enc)
    h_pred, m_pred = _relu(_dense(params, "pred1", e))
    return HeadsPass(z, h_enc, m_enc, e, h_pred, m_pred, _dense(params, "pred2", h_pred))


def _dense_backward(params: NetworkParams, name: str, x, g, grads: dict, input_grad=True):
    """Add a dense layer's weight and bias gradients to `grads`; return its input's.

    A tensor gets at most two contributions, one per frame's pass, and a
    two-term float sum does not depend on its order.
    """
    for key, contribution in ((f"{name}_w", x.T @ g), (f"{name}_b", g.sum(axis=0))):
        grads[key] = contribution if key not in grads else grads[key] + contribution
    return g @ params.tensors[f"{name}_w"].T if input_grad else None


def heads_backward(params: NetworkParams, h: HeadsPass, g_q, grads: dict):
    """Backward from the predictor output to the embedding; returns d/dz."""
    g = _dense_backward(params, "pred2", h.h_pred, g_q, grads)
    g *= h.m_pred
    g = _dense_backward(params, "pred1", h.e, g, grads)
    g = _dense_backward(params, "enc2", h.h_enc, g, grads)
    g *= h.m_enc
    return _dense_backward(params, "enc1", h.z, g, grads)


def backbone_backward(params: NetworkParams, fp: ForwardPass, g_z, grads: dict) -> None:
    """Backward from the embedding to the first layer; the input gets no gradient."""
    g = _dense_backward(params, "embed", fp.h2, g_z, grads)
    g *= fp.m2
    g = _dense_backward(params, "backbone2", fp.h1, g, grads)
    g *= fp.m1
    _dense_backward(params, "backbone1", fp.x, g, grads, input_grad=False)


def forward(params: NetworkParams, features):
    """Pointwise forward pass; returns (ProbabilityField, z, logits)."""
    features = np.asarray(features)
    if features.ndim != 2 or features.shape[1] != params.feature_dim:
        raise ShapeMismatch(
            f"expected N x {params.feature_dim} features, got {features.shape}")
    fp = forward_pass(params, features)
    return ProbabilityField(np.clip(fp.probs, 0.0, 1.0)), fp.z, fp.logits


def smooth_targets(targets: LabelField, s: ConfidenceField, beta_hat: float, num_classes: int):
    """Adaptive label smoothing: beta_i = beta_hat * (1 - S_i).

    Returns (smoothed N x C rows, supervised mask). Rows sum to 1 exactly;
    IGNORE rows are zeroed and masked out.
    """
    labels = targets.values
    mask = labels != IGNORE
    beta = beta_hat * (1.0 - s.values)
    out = np.zeros((len(labels), num_classes))
    sup = np.nonzero(mask)[0]
    out[sup] = (beta[sup] / num_classes)[:, None]
    out[sup, labels[sup]] += 1.0 - beta[sup]
    return out, mask


@dataclass
class OptimizerState:
    """Adam first/second moments per parameter plus the step counter."""

    m: dict
    v: dict
    step: int = 0

    @classmethod
    def init(cls, params: NetworkParams) -> "OptimizerState":
        return cls(m={k: np.zeros_like(x) for k, x in params.tensors.items()},
                   v={k: np.zeros_like(x) for k, x in params.tensors.items()})


#: Adam's moment decay rates.
_BETA1 = 0.9
_BETA2 = 0.999


def adam_step(params: NetworkParams, grads: dict, state: OptimizerState,
              lr: float = 1e-3, wd: float = 1e-5, eps: float = 1e-8):
    """One bias-corrected Adam step with decoupled weight decay, in the parameters' dtype."""
    # as Python floats: a NumPy float64 scalar would promote float32 tensors to float64
    lr, wd, eps = float(lr), float(wd), float(eps)
    state.step += 1
    t = state.step
    for name, p in params.tensors.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        if g.shape != p.shape:
            raise ShapeMismatch(f"gradient shape mismatch for {name}")
        state.m[name] = _BETA1 * state.m[name] + (1 - _BETA1) * g
        state.v[name] = _BETA2 * state.v[name] + (1 - _BETA2) * g * g
        m_hat = state.m[name] / (1 - _BETA1 ** t)
        v_hat = state.v[name] / (1 - _BETA2 ** t)
        update = lr * m_hat / (np.sqrt(v_hat) + eps) + lr * wd * p
        params.tensors[name] = p - update
    return params, state


def loss_and_grad(params: NetworkParams, fp: ForwardPass, targets: LabelField,
                  s: ConfidenceField, beta_hat: float, temporal: TemporalBatch | None):
    """L_final = L_dice + L_reg on a forward pass, with gradients for every tensor.

    `fp` is `forward_pass(params, features)`. IGNORE targets and an absent
    temporal batch contribute exactly zero. Returns (loss, grads dict,
    (dice value, regularization value)).
    """
    grads = {}
    loss = None
    dice_value = reg_value = 0.0
    g_z = None

    t, mask = smooth_targets(targets, s, beta_hat, fp.probs.shape[1])
    sup = np.nonzero(mask)[0]
    if len(sup):
        # soft Dice: 1 - mean over the supervised rows of <p, t>
        t_sup = t[sup]
        loss = 1.0 - np.einsum("nd,nd->n", fp.probs[sup], t_sup).mean()
        dice_value = float(loss)
        g_probs = np.zeros_like(fp.probs)
        g_probs[sup] += (-1.0 / len(sup)) * t_sup  # sup is unique
        g_logits = (g_probs - (g_probs * fp.probs).sum(axis=1, keepdims=True)) * fp.probs
        g_z = _dense_backward(params, "classifier", fp.z, g_logits, grads)

    if temporal is not None and len(temporal.idx_t):
        heads_t = heads(params, fp.z)
        prev = forward_pass(params, temporal.features_prev, classify=False)
        heads_prev = heads(params, prev.z)
        term = temporal_term(heads_t, heads_prev, temporal)
        if term is not None:
            reg, g_q_t, g_q_prev = term
            g_z_prev = heads_backward(params, heads_prev, g_q_prev, grads)
            term = g_q_prev = heads_prev = None   # frame t-w's heads are done
            backbone_backward(params, prev, g_z_prev, grads)
            prev = g_z_prev = None   # and so is its pass, before frame t's backward runs
            g_z_reg = heads_backward(params, heads_t, g_q_t, grads)
            reg_value = float(reg)
            loss = reg if loss is None else loss + reg
            g_z = g_z_reg if g_z is None else g_z + g_z_reg  # two terms: order-free
        del heads_t, prev, heads_prev, term  # nothing outlives its backward

    if g_z is not None:
        backbone_backward(params, fp, g_z, grads)
    grads = {name: grads[name] if name in grads else np.zeros_like(params.tensors[name])
             for name in params.names()}
    return (0.0 if loss is None else float(loss)), grads, (dice_value, reg_value)


def total_loss_and_grad(params: NetworkParams, features, targets: LabelField,
                        s: ConfidenceField, beta_hat: float = 0.3,
                        temporal: TemporalBatch | None = None):
    """`loss_and_grad` on a fresh forward pass of `params` over `features`."""
    return loss_and_grad(params, forward_pass(params, features), targets, s, beta_hat,
                         temporal)


_WARMUP_JITTER = 0.05
#: Correspondence distance threshold (m) of the head warm-up pairs.
_WARMUP_TAU = 0.2


def pretrain_source(sequences, epochs: int, seed: int, feature_fn,
                    num_classes: int, lr: float = 1e-3, wd: float = 1e-5,
                    head_epochs: int = 2, window: int = 5):
    """Fit the source model on labeled sequences with the soft Dice loss.

    `sequences` is a list of frame lists carrying ground truth; `feature_fn`
    maps a frame to the (already normalized) network input. The targets are
    the one-hot ground truth, without label smoothing. Shuffling is fixed by
    `seed`, so the result is deterministic. Training runs in float32, the
    dtype adaptation runs in: the parameters are a float32 copy of
    `NetworkParams.init`, and each frame's and view's features are cast to
    float32 once. Returns (float32 params, per-epoch mean losses); `save`
    widens them to float64 on disk. Like the adaptation loops, it sets the
    process's glibc malloc thresholds first (`core.retain_freed_memory`).

    The encoder/predictor heads receive no gradient from the Dice loss, so
    a short warm-up follows: with the backbone and classifier frozen, the
    heads alone are trained on the cross-frame consistency term over pairs
    of jittered source frames (`stream.jitter`) `window` apart; a view is
    featurized and embedded when a pair first needs it. Skipped when
    head_epochs is 0 or no sequence is long enough to form a pair.
    """
    # num_classes >= 2: adaptation's certainty score divides by log(num_classes)
    ConfigInvalid.check(dict(epochs=epochs, num_classes=num_classes, lr=lr, wd=wd,
                             head_epochs=head_epochs, window=window, seed=seed),
                        (("epochs", epochs >= 1, ">= 1"),
                         ("num_classes", num_classes >= 2, ">= 2"),
                         ("lr", 0 <= lr < np.inf, "finite and >= 0"),
                         ("wd", 0 <= wd < np.inf, "finite and >= 0"),
                         ("head_epochs", head_epochs >= 0, ">= 0"),
                         ("window", window >= 1, ">= 1"),
                         ("seed", seed >= 0, ">= 0")))
    frames = [f for seq in sequences for f in seq]
    if not frames:
        raise NoGroundTruth("no frames to pretrain on")
    for f in frames:
        if f.gt_labels is None:
            raise NoGroundTruth(f"frame {f.frame_id} carries no ground truth")
        known = f.gt_labels[f.gt_labels != IGNORE]
        bad = known[(known < 0) | (known >= num_classes)]
        if len(bad):
            raise ConfigInvalid(f"frame {f.frame_id}: ground-truth label {bad[0]} "
                                f"is outside [0, {num_classes})")

    retain_freed_memory()
    cache = [feature_fn(f) for f in frames]
    params = NetworkParams.init(cache[0].shape[1], num_classes, seed=seed).astype(np.float32)
    for i, x in enumerate(cache):   # cast once, in place: each step's forward pass reads x as is
        cache[i] = np.asarray(x, dtype=params.dtype)
    state = OptimizerState.init(params)
    rng = np.random.default_rng(seed)
    history = []
    for _ in range(epochs):
        order = rng.permutation(len(frames))
        losses = []
        for i in order:
            frame = frames[i]
            labels = LabelField(frame.gt_labels)
            ones = ConfidenceField(np.ones(frame.num_points))
            loss, grads, _ = total_loss_and_grad(params, cache[i], labels, ones, 0.0)
            params, state = adam_step(params, grads, state, lr=lr, wd=wd)
            losses.append(loss)
        history.append(float(np.mean(losses)))

    if head_epochs > 0:
        rng = np.random.default_rng([seed, 0xA11])
        head_state = OptimizerState.init(params)
        for epoch in range(head_epochs):
            for seq in sequences:
                # noise + sparsity augmentation: the heads meet realistic frame-to-frame
                # discrepancies before they steer the shared trunk at adaptation time
                views = [stream.jitter(f, rng, _WARMUP_JITTER, (1.0, 0.5, 0.7)[epoch % 3])
                         for f in seq]
                # the trunk is frozen here: Adam leaves a tensor with zero gradient and
                # zero decay bitwise as it is, so a view's features and embedding, made
                # when a pair first needs the view, serve the epoch
                feats, z = {}, {}
                for t in range(window, len(seq)):
                    frame_t, frame_prev = views[t], views[t - window]
                    pairs = spatial.match_correspondences(frame_t, frame_prev, _WARMUP_TAU)
                    if not len(pairs.idx_t):
                        continue
                    for i in (t, t - window):
                        if i not in z:
                            feats[i] = np.asarray(feature_fn(views[i]), dtype=params.dtype)
                            z[i] = forward_pass(params, feats[i], classify=False).z
                    batch = TemporalBatch(
                        features_prev=feats[t - window],
                        idx_t=pairs.idx_t, idx_prev=pairs.idx_prev,
                        s_t=np.ones(frame_t.num_points),
                        s_prev=np.ones(frame_prev.num_points))
                    heads_t, heads_prev = heads(params, z[t]), heads(params, z[t - window])
                    term = temporal_term(heads_t, heads_prev, batch)
                    grads = {}   # the heads' only: adam_step treats the rest as zero
                    if term is not None:
                        heads_backward(params, heads_prev, term[2], grads)
                        heads_backward(params, heads_t, term[1], grads)
                    del heads_t, heads_prev, term   # nothing outlives its pair's backward
                    params, head_state = adam_step(params, grads, head_state,
                                                   lr=lr, wd=0.0)
    return params, history
