"""Network forward/backward, losses, Adam, checkpoints, pretraining."""

import struct

import numpy as np
import pytest

from streamseg.core import ConfidenceField, Frame, IGNORE, LabelField, ProbabilityField
from streamseg.errors import (ConfigInvalid, InvalidPose, MalformedRecord, NoGroundTruth,
                              ShapeMismatch)
from streamseg import model
from streamseg.spatial import build_index, local_geometric_features


def random_params(seed=0, feature_dim=9, num_classes=4):
    return model.NetworkParams.init(feature_dim, num_classes, seed=seed)


def save_tensors(path, arrays):
    """Write `arrays` in checkpoint layout, in order, whatever their shapes."""
    with open(path, "wb") as f:
        f.write(b"HGL1")
        for a in arrays:
            f.write(struct.pack(f"<{1 + a.ndim}I", a.ndim, *a.shape) + a.astype("<f8").tobytes())


def soft_dice_loss(probs, targets, s, beta_hat=0.3):
    """Numpy reference of the per-point soft Dice against smoothed targets.

    Both the softmax row and the smoothed target sum to 1, so the per-point
    loss reduces to 1 - <p, t>. Returns (mean loss over supervised points,
    gradient w.r.t. the logits); IGNORE points contribute nothing.
    """
    p = probs.values
    n, c = p.shape
    if len(targets) != n or len(s) != n:
        raise ShapeMismatch("targets/confidences must match the probability field")
    t, mask = model.smooth_targets(targets, s, beta_hat, c)
    m = int(mask.sum())
    grad = np.zeros((n, c))
    if m == 0:
        return 0.0, grad
    dots = np.einsum("nc,nc->n", p, t)
    loss = float(np.mean(1.0 - dots[mask]))
    # d(mean(1 - p.t))/dp = -t/m on supervised rows, chained through softmax
    gp = np.where(mask[:, None], -t / m, 0.0)
    grad = (gp - np.einsum("nc,nc->n", gp, p)[:, None]) * p
    return loss, grad


def fd_loss(params, features, targets, s, beta_hat=0.3):
    loss, _, _ = model.total_loss_and_grad(params, features, targets, s, beta_hat)
    return loss


class TestForward:
    def test_prob_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        params = random_params()
        probs, z, logits = model.forward(params, rng.normal(size=(30, 9)))
        np.testing.assert_allclose(probs.values.sum(axis=1), 1.0, atol=1e-9)
        assert z.shape == (30, 32)
        assert logits.shape == (30, 4)

    def test_feature_dim_checked(self):
        with pytest.raises(ShapeMismatch):
            model.forward(random_params(), np.zeros((5, 7)))

    def test_forward_is_pure(self):
        rng = np.random.default_rng(1)
        params = random_params()
        x = rng.normal(size=(10, 9))
        a, _, _ = model.forward(params, x)
        b, _, _ = model.forward(params, x)
        np.testing.assert_array_equal(a.values, b.values)

    def test_heads_shapes(self):
        params = random_params()
        z = np.random.default_rng(2).normal(size=(8, 32))
        h = model.heads(params, z)
        assert h.e.shape == (8, 32)
        assert h.q.shape == (8, 32)


class TestNormalizeFeatures:
    def test_density_is_log_compressed(self):
        f = np.zeros((2, 9))
        f[:, 8] = [0.0, np.e ** 1.5 - 1]
        out = model.normalize_features(f)
        np.testing.assert_allclose(out[:, 8], [0.0, 1.0])

    def test_other_columns_divided_by_scale(self):
        f = np.ones((1, 9))
        out = model.normalize_features(f)
        np.testing.assert_allclose(out[0, :8], 1.0 / model._FEATURE_SCALE[:8])

    def test_shape_checked(self):
        with pytest.raises(ShapeMismatch):
            model.normalize_features(np.zeros((3, 5)))


class TestSmoothTargets:
    def test_hand_oracle(self):
        t, mask = model.smooth_targets(LabelField(np.array([2])),
                                       ConfidenceField(np.array([0.5])),
                                       beta_hat=0.3, num_classes=4)
        # beta = 0.3 * 0.5 = 0.15
        np.testing.assert_allclose(t[0], [0.0375, 0.0375, 0.8875, 0.0375])
        assert mask.tolist() == [True]

    def test_full_confidence_is_one_hot(self):
        t, _ = model.smooth_targets(LabelField(np.array([1])),
                                    ConfidenceField(np.array([1.0])), 0.3, 3)
        np.testing.assert_array_equal(t[0], [0, 1, 0])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        labels = LabelField(rng.integers(0, 5, size=50))
        s = ConfidenceField(rng.random(50))
        t, _ = model.smooth_targets(labels, s, 0.3, 5)
        np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)

    def test_ignore_rows_zeroed(self):
        t, mask = model.smooth_targets(LabelField(np.array([IGNORE, 0])),
                                       ConfidenceField(np.array([1.0, 1.0])), 0.3, 2)
        np.testing.assert_array_equal(t[0], 0.0)
        assert mask.tolist() == [False, True]


class TestSoftDice:
    def test_two_class_hand_oracle(self):
        probs = ProbabilityField(np.array([[0.6, 0.4]]))
        loss, grad = soft_dice_loss(probs, LabelField(np.array([0])),
                                    ConfidenceField(np.array([1.0])))
        assert loss == pytest.approx(0.4)
        np.testing.assert_allclose(grad[0], [-0.24, 0.24], atol=1e-12)

    def test_perfect_prediction_zero_loss(self):
        probs = ProbabilityField(np.array([[1.0, 0.0]]))
        loss, grad = soft_dice_loss(probs, LabelField(np.array([0])),
                                    ConfidenceField(np.array([1.0])))
        assert loss == pytest.approx(0.0)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_all_ignore_zero_everything(self):
        probs = ProbabilityField(np.full((3, 2), 0.5))
        loss, grad = soft_dice_loss(probs, LabelField(np.full(3, IGNORE)),
                                    ConfidenceField(np.ones(3)))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)


class TestTotalLossGradcheck:
    def test_dice_gradient_matches_fd(self):
        # spot-check 5 random coordinates of every parameter tensor
        rng = np.random.default_rng(4)
        params = random_params(seed=1)
        x = rng.normal(size=(12, 9))
        labels = LabelField(rng.integers(0, 4, size=12))
        s = ConfidenceField(rng.random(12))
        _, grads, _ = model.total_loss_and_grad(params, x, labels, s)
        eps = 1e-6
        for name, arr in params.tensors.items():
            flat = arr.reshape(-1)
            for j in rng.choice(flat.size, size=min(5, flat.size), replace=False):
                orig = flat[j]
                flat[j] = orig + eps
                up = fd_loss(params, x, labels, s)
                flat[j] = orig - eps
                dn = fd_loss(params, x, labels, s)
                flat[j] = orig
                fd = (up - dn) / (2 * eps)
                assert grads[name].reshape(-1)[j] == pytest.approx(fd, abs=2e-6), name

    def test_graph_and_closed_form_dice_agree(self):
        rng = np.random.default_rng(5)
        params = random_params(seed=2)
        x = rng.normal(size=(20, 9))
        labels = LabelField(rng.integers(0, 4, size=20))
        s = ConfidenceField(rng.random(20))
        loss, _, (dice, reg) = model.total_loss_and_grad(params, x, labels, s)
        probs, _, _ = model.forward(params, x)
        ref, _ = soft_dice_loss(probs, labels, s)
        assert loss == pytest.approx(ref, abs=1e-12)
        assert dice == pytest.approx(ref, abs=1e-12)
        assert reg == 0.0

    def test_dice_off_gives_zero(self):
        rng = np.random.default_rng(6)
        params = random_params()
        loss, grads, parts = model.total_loss_and_grad(
            params, rng.normal(size=(5, 9)), LabelField(np.full(5, IGNORE)),
            ConfidenceField(np.ones(5)))
        assert loss == 0.0 and parts == (0.0, 0.0)
        assert all(np.all(g == 0) for g in grads.values())


class TestAdam:
    def test_first_step_closed_form(self):
        params = random_params(seed=3)
        before = params.copy()
        grads = {k: np.random.default_rng(7).normal(size=v.shape)
                 for k, v in params.tensors.items()}
        state = model.OptimizerState.init(params)
        lr, wd, eps = 1e-3, 1e-5, 1e-8
        params, state = model.adam_step(params, grads, state, lr=lr, wd=wd, eps=eps)
        assert state.step == 1
        for name, p0 in before.tensors.items():
            g = grads[name]
            # bias correction makes m_hat = g and v_hat = g*g at step 1
            expect = p0 - lr * g / (np.abs(g) + eps) - lr * wd * p0
            np.testing.assert_allclose(params.tensors[name], expect, atol=1e-12)

    def test_missing_grads_only_decay(self):
        params = random_params(seed=4)
        before = params.copy()
        state = model.OptimizerState.init(params)
        params, _ = model.adam_step(params, {}, state, lr=1e-2, wd=1e-3)
        for name, p0 in before.tensors.items():
            np.testing.assert_allclose(params.tensors[name], p0 * (1 - 1e-2 * 1e-3),
                                       atol=1e-15)

    def test_shape_mismatch_rejected(self):
        params = random_params()
        state = model.OptimizerState.init(params)
        with pytest.raises(ShapeMismatch):
            model.adam_step(params, {"embed_w": np.zeros(3)}, state)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = random_params(seed=6, num_classes=7)
        path = tmp_path / "ckpt.bin"
        params.save(path)
        back = model.NetworkParams.load(path)
        assert back.feature_dim == 9 and back.num_classes == 7
        for name in params.names():
            np.testing.assert_array_equal(back.tensors[name], params.tensors[name])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(MalformedRecord):
            model.NetworkParams.load(path)

    def test_truncated_payload(self, tmp_path):
        params = random_params()
        path = tmp_path / "ckpt.bin"
        params.save(path)
        path.write_bytes(path.read_bytes()[:-17])
        with pytest.raises(MalformedRecord):
            model.NetworkParams.load(path)

    def test_missing_tensors(self, tmp_path):
        params = random_params()
        path = tmp_path / "ckpt.bin"
        params.save(path)
        blob = path.read_bytes()
        # drop the final tensor (1-d bias of 32 float64 + 8-byte header)
        path.write_bytes(blob[:-(8 + 8 * 32)])
        with pytest.raises(MalformedRecord):
            model.NetworkParams.load(path)


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tensor_names_file_and_tensor(self, tmp_path, bad):
        params = random_params()
        params.tensors["embed_w"][3, 1] = bad
        path = tmp_path / "ckpt.bin"
        params.save(path)
        with pytest.raises(MalformedRecord, match=f"{path}: tensor embed_w holds a non-finite"):
            model.NetworkParams.load(path)

    def test_rank_one_classifier_weight_is_malformed(self, tmp_path):
        params = random_params()
        tensors = [params.tensors[name] for name in params.names()]
        tensors[6] = tensors[6].ravel()   # classifier_w
        path = tmp_path / "ckpt.bin"
        save_tensors(path, tensors)
        with pytest.raises(MalformedRecord, match=f"{path}: inconsistent shapes .* classifier$"):
            model.NetworkParams.load(path)

    @pytest.mark.parametrize("num_classes", [0, 1])
    def test_fewer_than_two_classes_is_malformed(self, tmp_path, num_classes):
        # adaptation's certainty score divides by log(num_classes)
        path = tmp_path / "ckpt.bin"
        random_params(num_classes=num_classes).save(path)
        with pytest.raises(MalformedRecord,
                           match=f"{path}: checkpoint has {num_classes} classes, needs >= 2"):
            model.NetworkParams.load(path)


#: The encoder and predictor heads: the only tensors the head warm-up trains.
HEAD_NAMES = ("enc1_w", "enc1_b", "enc2_w", "enc2_b",
              "pred1_w", "pred1_b", "pred2_w", "pred2_b")


def toy_sequence(seed, frames=8, n=60):
    """Short labeled sequence of two separable clusters."""
    rng = np.random.default_rng(seed)
    out = []
    for t in range(frames):
        a = rng.normal(size=(n // 2, 3)) * 0.3
        b = rng.normal(size=(n // 2, 3)) * 0.3 + [4.0, 0, 0]
        pts = np.vstack([a, b])
        gt = np.repeat([0, 1], n // 2)
        out.append(Frame(t, pts, np.eye(4), gt))
    return out


def toy_features(frame):
    feats = local_geometric_features(build_index(frame.points), 8)
    return model.normalize_features(feats)


class TestPretrain:
    def test_deterministic(self):
        seq = toy_sequence(0)
        a, ha = model.pretrain_source([seq], epochs=2, seed=5, feature_fn=toy_features,
                                      num_classes=2, head_epochs=0)
        b, hb = model.pretrain_source([seq], epochs=2, seed=5, feature_fn=toy_features,
                                      num_classes=2, head_epochs=0)
        assert ha == hb
        for name in a.names():
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])

    def test_loss_decreases(self):
        seq = toy_sequence(1)
        _, hist = model.pretrain_source([seq], epochs=6, seed=0, feature_fn=toy_features,
                                        num_classes=2, head_epochs=0)
        assert hist[-1] < hist[0]

    def test_head_warmup_touches_only_heads(self):
        seq = toy_sequence(2, frames=7)
        base, _ = model.pretrain_source([seq], epochs=1, seed=3, feature_fn=toy_features,
                                        num_classes=2, head_epochs=0)
        warm, _ = model.pretrain_source([seq], epochs=1, seed=3, feature_fn=toy_features,
                                        num_classes=2, head_epochs=1, window=3)
        for name in base.names():
            same = np.array_equal(base.tensors[name], warm.tensors[name])
            if name in HEAD_NAMES:
                assert not same, f"{name} should move during warm-up"
            else:
                assert same, f"{name} must stay frozen during warm-up"

    def test_head_warmup_runs_no_trunk_backward(self, monkeypatch):
        calls = []
        original = model.backbone_backward

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(model, "backbone_backward", counted)
        seq = toy_sequence(2, frames=7)
        counts = []
        for head_epochs in (0, 1):
            calls.clear()
            model.pretrain_source([seq], epochs=1, seed=3, feature_fn=toy_features,
                                  num_classes=2, head_epochs=head_epochs, window=3)
            counts.append(len(calls))
        assert counts == [7, 7]   # one per supervised step, none for the 4 warm-up pairs

    def test_requires_ground_truth(self):
        with pytest.raises(NoGroundTruth):
            model.pretrain_source([[]], epochs=1, seed=0, feature_fn=toy_features,
                                  num_classes=2)
        frame = Frame(0, np.zeros((4, 3)), np.eye(4), None)
        with pytest.raises(NoGroundTruth):
            model.pretrain_source([[frame]], epochs=1, seed=0, feature_fn=toy_features,
                                  num_classes=2)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("num_classes", 1), ("lr", -1.0), ("wd", -1e-5), ("head_epochs", -1),
        ("window", 0), ("lr", np.inf), ("wd", np.inf),
    ])
    def test_invalid_value_rejected_before_any_work(self, field, value):
        def no_features(frame):
            raise AssertionError("features computed before the inputs were checked")

        kwargs = dict(epochs=1, seed=0, feature_fn=no_features, num_classes=2)
        with pytest.raises(ConfigInvalid, match=f"^{field} must be"):
            model.pretrain_source([toy_sequence(0, frames=2)], **{**kwargs, field: value})

    @pytest.mark.parametrize("pose, message", [
        (np.full((4, 4), np.nan), "pose must be a finite 4x4 matrix"),
        (np.diag([2.0, 1.0, 1.0, 1.0]), "rotation block is not orthonormal"),
    ], ids=["nan", "scaled"])
    def test_invalid_pose_rejected_before_any_work(self, pose, message):
        def no_features(frame):
            raise AssertionError("features computed before the frames were checked")

        seq = toy_sequence(0, frames=3)
        seq[1] = Frame(1, seq[1].points, pose, seq[1].gt_labels)
        with pytest.raises(InvalidPose, match=f"^frame 1: {message}"):
            model.pretrain_source([seq], epochs=1, seed=0, feature_fn=no_features,
                                  num_classes=2)

    @pytest.mark.parametrize("label", [2, -3])
    def test_label_outside_the_classes_names_frame_and_label(self, label):
        seq = toy_sequence(0, frames=3)
        gt = seq[1].gt_labels.copy()
        gt[5] = label
        seq[1] = Frame(1, seq[1].points, seq[1].pose, gt)
        with pytest.raises(ConfigInvalid, match=rf"^frame 1: ground-truth label {label} "):
            model.pretrain_source([seq], epochs=1, seed=0, feature_fn=toy_features,
                                  num_classes=2)

    def test_ignore_labels_are_allowed(self):
        seq = toy_sequence(0, frames=3)
        gt = seq[0].gt_labels.copy()
        gt[:4] = IGNORE
        seq[0] = Frame(0, seq[0].points, seq[0].pose, gt)
        model.pretrain_source([seq], epochs=1, seed=0, feature_fn=toy_features,
                              num_classes=2, head_epochs=0)
