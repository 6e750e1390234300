"""The hand-derived forward and backward equal the autodiff tape, byte for byte."""

import numpy as np
import pytest

from streamseg import autodiff as ad
from streamseg import harness, model
from streamseg.core import IGNORE, ConfidenceField, LabelField

import tape_graph
from test_harness import tiny_stream
from test_model import HEAD_NAMES, toy_features, toy_sequence

N_T, N_PREV, NUM_CLASSES = 40, 30, 5


def case(seed, ignore_frac=0.3, pairs=20):
    """Random parameters, features, targets and a temporal batch."""
    rng = np.random.default_rng(seed)
    params = model.NetworkParams.init(9, NUM_CLASSES, seed=seed)
    for name, arr in params.tensors.items():
        if name.endswith("_b"):   # non-zero biases exercise the bias gradients
            arr[...] = rng.normal(0, 0.1, size=arr.shape)
    feats = rng.normal(size=(N_T, 9))
    labels = rng.integers(0, NUM_CLASSES, size=N_T)
    labels[rng.random(N_T) < ignore_frac] = IGNORE
    s = rng.random(N_T)
    batch = model.TemporalBatch(
        features_prev=rng.normal(size=(N_PREV, 9)),
        idx_t=rng.choice(N_T, size=pairs, replace=False),
        idx_prev=rng.choice(N_PREV, size=pairs, replace=False),
        s_t=s, s_prev=rng.random(N_PREV))
    return params, feats, LabelField(labels), ConfidenceField(s), batch


def assert_bitwise(got, want):
    loss, grads, parts = got
    ref_loss, ref_grads, ref_parts = want
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert np.array(parts).tobytes() == np.array(ref_parts).tobytes()
    assert list(grads) == list(ref_grads)
    for name, ref in ref_grads.items():
        assert grads[name].shape == ref.shape, name
        assert grads[name].tobytes() == ref.tobytes(), name


def both(params, feats, labels, s, temporal, beta_hat=0.3):
    args = (params, feats, labels, s, beta_hat, temporal)
    return model.total_loss_and_grad(*args), tape_graph.total_loss_and_grad(*args)


SEEDS = [0, 1, 2]


class TestForward:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_forward_pass_equals_graph(self, seed):
        params, feats, _, _, _ = case(seed)
        fp = model.forward_pass(params, feats)
        probs, z, logits = tape_graph.forward_graph(tape_graph.make_leaves(params), feats)
        assert fp.probs.tobytes() == probs.value.tobytes()
        assert fp.z.tobytes() == z.value.tobytes()
        assert fp.logits.tobytes() == logits.value.tobytes()

    def test_relu_keeps_negative_zeros(self):
        s = np.array([[-2.0, -0.0, 0.0, 1.5, -1e-300]])
        ref = ad.relu(ad.Tensor(s.copy())).value   # before _relu rectifies s in place
        out, mask = model._relu(s)
        assert out.tobytes() == ref.tobytes()
        assert np.signbit(out).tolist() == [[True, True, False, False, True]]
        assert mask.tolist() == [[False, False, False, True, False]]

    def test_embedding_only_pass_skips_the_classifier(self):
        params, feats, _, _, _ = case(0)
        fp = model.forward_pass(params, feats, classify=False)
        assert fp.logits is None and fp.probs is None
        assert fp.z.tobytes() == model.forward_pass(params, feats).z.tobytes()

    def test_heads_equal_graph(self):
        params, feats, _, _, _ = case(1)
        z = model.forward_pass(params, feats).z
        h = model.heads(params, z)
        e, q = tape_graph.heads_graph(tape_graph.make_leaves(params), ad.Tensor(z))
        assert h.e.tobytes() == e.value.tobytes()
        assert h.q.tobytes() == q.value.tobytes()


class TestLossAndGradEqualsTape:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_dice_only(self, seed):
        params, feats, labels, s, _ = case(seed)
        got, want = both(params, feats, labels, s, None)
        assert want[2][0] > 0 and want[2][1] == 0.0
        assert_bitwise(got, want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_temporal_only(self, seed):
        params, feats, _, s, batch = case(seed)
        got, want = both(params, feats, LabelField(np.full(N_T, IGNORE)), s, batch)
        assert want[2][0] == 0.0 and want[2][1] != 0.0
        assert_bitwise(got, want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_dice_and_temporal(self, seed):
        params, feats, labels, s, batch = case(seed)
        got, want = both(params, feats, labels, s, batch)
        assert want[2][0] > 0 and want[2][1] != 0.0
        assert_bitwise(got, want)

    def test_all_ignore_without_batch_is_zero(self):
        params, feats, _, s, _ = case(3)
        got, want = both(params, feats, LabelField(np.full(N_T, IGNORE)), s, None)
        assert got[0] == 0.0 and got[2] == (0.0, 0.0)
        assert all(not g.any() for g in got[1].values())
        assert_bitwise(got, want)

    def test_repeated_target_indices(self):
        # several frame t-w points matched to one frame t point: the
        # gradients of the repeated rows must add up
        params, feats, labels, s, batch = case(4)
        batch.idx_t = np.array([3, 3, 3, 7, 7, 0, 12, 3], dtype=np.int64)
        batch.idx_prev = np.arange(8, dtype=np.int64)
        got, want = both(params, feats, labels, s, batch)
        assert_bitwise(got, want)

    def test_unweighted_pairs(self):
        # unit weights: the batch `target_stage` builds when use_cw is off
        params, feats, labels, s, batch = case(5)
        batch.s_t, batch.s_prev = np.ones(N_T), np.ones(N_PREV)
        got, want = both(params, feats, labels, s, batch)
        assert_bitwise(got, want)

    def test_all_pairs_degenerate_gives_zero_reg(self):
        params, feats, labels, s, batch = case(6)
        # a zero encoder output cannot be normalized, so every pair is skipped
        params.tensors["enc2_w"][...] = 0.0
        params.tensors["enc2_b"][...] = 0.0
        got, want = both(params, feats, labels, s, batch)
        assert got[2][1] == 0.0
        assert not got[1]["pred1_w"].any()
        assert_bitwise(got, want)

    def test_full_confidence_rows(self):
        # s = 1 gives beta = 0: exact zeros in the smoothed targets, whose
        # products with the negative Dice gradient are signed zeros
        params, feats, labels, _, batch = case(7, ignore_frac=0.0)
        ones = ConfidenceField(np.ones(N_T))
        batch.s_t = ones.values
        got, want = both(params, feats, labels, ones, batch)
        assert_bitwise(got, want)

    def test_single_supervised_row(self):
        params, feats, _, s, batch = case(8)
        labels = np.full(N_T, IGNORE)
        labels[11] = 2
        got, want = both(params, feats, LabelField(labels), s, batch)
        assert_bitwise(got, want)


#: Largest float32 deviation from float64 allowed in the loss, its parts and
#: every gradient, relative to the float64 value (for a gradient, relative to
#: its tensor's largest entry). The three cases deviate by at most 3.3e-7,
#: the first warm-up pair by 2.5e-7 and the first supervised step by 1.7e-6.
FLOAT32_RTOL = 1e-5


class TestHeadWarmupEqualsTape:
    def test_warmup_gradient_is_the_tapes_on_the_heads_only(self, monkeypatch):
        # record the first warm-up pair: its two embedding-only passes, its
        # temporal batch, and the parameters and gradient handed to Adam
        passes, batches, steps = [], [], []
        forward_pass, temporal_term, adam_step = (model.forward_pass, model.temporal_term,
                                                  model.adam_step)

        def record_pass(params, features, classify=True):
            if not classify:
                passes.append(features)
            return forward_pass(params, features, classify)

        def record_term(heads_t, heads_prev, batch):
            batches.append(batch)
            return temporal_term(heads_t, heads_prev, batch)

        def record_step(params, grads, state, **kwargs):
            steps.append((params.copy(), grads))
            return adam_step(params, grads, state, **kwargs)

        monkeypatch.setattr(model, "forward_pass", record_pass)
        monkeypatch.setattr(model, "temporal_term", record_term)
        monkeypatch.setattr(model, "adam_step", record_step)
        seq = toy_sequence(2, frames=7)
        model.pretrain_source([seq], epochs=1, seed=3, feature_fn=toy_features,
                              num_classes=2, head_epochs=1, window=3)

        params, grads = steps[len(seq)]          # the first step after the supervised epoch
        feats_t, feats_prev = passes[:2]
        batch = batches[0]
        assert batch.features_prev is feats_prev and len(batch.idx_t)
        n = len(feats_t)
        # the hand backward on the same float32 inputs, then the float64 tape
        args = (feats_t, LabelField(np.full(n, IGNORE)), ConfidenceField(np.ones(n)))
        _, want, (_, reg) = model.total_loss_and_grad(params, *args, temporal=batch)
        _, tape, _ = tape_graph.total_loss_and_grad(params.astype(np.float64), *args,
                                                    temporal=batch)
        assert reg != 0.0
        assert sorted(grads) == sorted(HEAD_NAMES)
        for name in HEAD_NAMES:
            assert grads[name].tobytes() == want[name].tobytes(), name
            deviation = np.abs(grads[name] - tape[name]).max()
            assert deviation <= FLOAT32_RTOL * np.abs(tape[name]).max(), name


class TestPretrainStepEqualsTape:
    def test_first_supervised_gradient_is_float32_and_the_tapes(self, monkeypatch):
        steps = []
        adam_step = model.adam_step

        def record_step(params, grads, state, **kwargs):
            steps.append((params.copy(), grads))
            return adam_step(params, grads, state, **kwargs)

        monkeypatch.setattr(model, "adam_step", record_step)
        # a corridor frame, as pretraining sees: on the two-cluster toy frames
        # the first step's embed_b gradient nearly cancels (about 5e-5), and
        # float32 rounding is then a larger share of it than FLOAT32_RTOL
        frame = tiny_stream(1)[0]

        def feature_fn(f):
            return harness.frame_features(f, 20)[1]

        model.pretrain_source([[frame]], epochs=1, seed=4, feature_fn=feature_fn,
                              num_classes=7, head_epochs=0)

        (params, grads), = steps
        init = model.NetworkParams.init(9, 7, seed=4).astype(np.float32)
        for name in params.names():
            assert params.tensors[name].tobytes() == init.tensors[name].tobytes(), name
        # one-hot targets, as pretraining supervises: full confidence, no smoothing
        args = (feature_fn(frame).astype(np.float32), LabelField(frame.gt_labels),
                ConfidenceField(np.ones(frame.num_points)), 0.0)
        _, want, _ = model.total_loss_and_grad(params, *args)
        _, tape, _ = tape_graph.total_loss_and_grad(params.astype(np.float64), *args)
        assert list(grads) == params.names()
        for name in params.names():
            assert grads[name].dtype == np.float32, name
            assert grads[name].tobytes() == want[name].tobytes(), name
            deviation = np.abs(grads[name] - tape[name]).max()
            assert deviation <= FLOAT32_RTOL * np.abs(tape[name]).max(), name


class TestFloat32:
    """The same hand backward in single precision, against itself in double."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("temporal", [False, True], ids=["dice", "dice+temporal"])
    def test_loss_and_grad_keep_the_parameters_dtype(self, dtype, temporal):
        params, feats, labels, s, batch = case(0)
        loss, grads, parts = model.total_loss_and_grad(
            params.astype(dtype), feats, labels, s, 0.3, batch if temporal else None)
        assert type(loss) is float and all(type(v) is float for v in parts)
        assert (parts[1] != 0.0) == temporal
        assert list(grads) == params.names()
        for name, g in grads.items():
            assert g.dtype == dtype, name

    @pytest.mark.parametrize("seed", SEEDS)
    def test_float32_matches_float64(self, seed):
        params, feats, labels, s, batch = case(seed)
        loss, grads, parts = model.total_loss_and_grad(params, feats, labels, s, 0.3, batch)
        loss32, grads32, parts32 = model.total_loss_and_grad(
            params.astype(np.float32), feats, labels, s, 0.3, batch)
        np.testing.assert_allclose(loss32, loss, rtol=FLOAT32_RTOL)
        np.testing.assert_allclose(parts32, parts, rtol=FLOAT32_RTOL)
        for name, g in grads.items():
            assert np.abs(grads32[name] - g).max() <= FLOAT32_RTOL * np.abs(g).max(), name
