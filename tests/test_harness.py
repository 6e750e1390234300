"""Metrics, the evaluation protocol, and the adaptation loop plumbing."""

import dataclasses
import sys
from dataclasses import replace

import numpy as np
import pytest

from streamseg.core import ClassMap, IGNORE, LabelField
from streamseg.errors import CheckpointMismatch, ConfigInvalid, LabelOutOfRange, LengthMismatch
from streamseg import harness, model, spatial, stream


def tiny_stream(frames=8, seed=3):
    scene = stream.SceneConfig(seed=seed, frames=frames, point_density=1.0,
                               sensor_range=20.0, vehicle_spacing=10.0,
                               pedestrian_spacing=8.0, vegetation_spacing=9.0)
    return stream.generate_sequence(scene, stream.ShiftConfig())


def tiny_params(seed=0):
    return model.NetworkParams.init(9, 7, seed=seed)


def evaluate_iou(pred, gt, num_classes):
    """Per-class IoU and mIoU of one frame."""
    return harness.iou_from_confusion(harness.confusion_matrix(pred, gt, num_classes))


def step_frame(source_params, state, history, frame):
    """One frame through the source stage and the target stage, as `run_tta` runs it.

    `history` is the caller's list of source stages, newest last; it gains
    this frame's and keeps the last `window`. Returns (eval_pred, source_pred):
    the adapted model's prediction made before the update, and the frozen
    source model's.
    """
    cfg = state.config
    partner = history[0] if cfg.use_tgr and len(history) == cfg.window else None
    source = harness.source_stage(source_params, frame, cfg, partner)
    eval_pred = harness.target_stage(state, source, partner)
    history.append(source)
    del history[:-cfg.window]
    return eval_pred, source.source_pred


def calls_per_frame(monkeypatch, frames, run):
    """K-NN queries and forward passes made while each frame is current.

    `run(source)` is called with a re-iterable source over `frames`.
    """
    calls = []

    def count(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        # rebind every module that imported the function by name too
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("streamseg")
                    and vars(module).get(fn.__name__) is fn):
                monkeypatch.setattr(module, fn.__name__, wrapped)

    count("knn", spatial.knn_batch)
    count("forward", model.forward_pass)
    per_frame = []

    class Frames:
        def __iter__(self):
            for f in frames:
                calls.clear()
                yield f
                per_frame.append(list(calls))

    run(Frames())
    return per_frame


def handed_batch(monkeypatch, cfg):
    """Frames 0 and 1 of a tiny stream through the source stage, then frame 1's target stage.

    `cfg.window` must be 1. Returns (the TemporalBatch `target_stage` hands
    to `loss_and_grad`, frame 1's source stage, frame 0's).
    """
    frames = tiny_stream(2)
    params = tiny_params()
    partner = harness.source_stage(params, frames[0], cfg, None)
    source = harness.source_stage(params, frames[1], cfg, partner)
    batches = []
    real = harness.loss_and_grad

    def record(*args):
        batches.append(args[-1])
        return real(*args)

    monkeypatch.setattr(harness, "loss_and_grad", record)
    harness.target_stage(harness.AdaptationState.init(params, cfg), source, partner)
    [batch] = batches
    return batch, source, partner


class TestIouMetrics:
    def test_hand_oracle(self):
        #        gt:   0 0 0 1 1 2
        #        pred: 0 0 1 1 1 0
        gt = LabelField(np.array([0, 0, 0, 1, 1, 2]))
        pred = LabelField(np.array([0, 0, 1, 1, 1, 0]))
        iou, miou = evaluate_iou(pred, gt, 3)
        # class0: tp=2 fp=1 fn=1 -> 1/2; class1: tp=2 fp=1 fn=0 -> 2/3
        # class2: tp=0 fn=1 -> 0
        np.testing.assert_allclose(iou, [0.5, 2 / 3, 0.0])
        assert miou == pytest.approx((0.5 + 2 / 3 + 0.0) / 3)

    def test_perfect_prediction(self):
        gt = LabelField(np.array([0, 1, 2, 1]))
        iou, miou = evaluate_iou(gt, gt, 3)
        np.testing.assert_allclose(iou, 1.0)
        assert miou == pytest.approx(1.0)

    def test_absent_class_is_nan_and_excluded(self):
        gt = LabelField(np.array([0, 0]))
        pred = LabelField(np.array([0, 0]))
        iou, miou = evaluate_iou(pred, gt, 3)
        assert iou[0] == pytest.approx(1.0)
        assert np.isnan(iou[1]) and np.isnan(iou[2])
        assert miou == pytest.approx(1.0)

    def test_gt_ignore_excluded(self):
        gt = LabelField(np.array([IGNORE, 0]))
        pred = LabelField(np.array([1, 0]))  # wrong on the ignored point
        iou, miou = evaluate_iou(pred, gt, 2)
        assert iou[0] == pytest.approx(1.0)
        assert miou == pytest.approx(1.0)

    def test_ignore_prediction_counts_as_miss(self):
        gt = LabelField(np.array([0, 0]))
        pred = LabelField(np.array([0, IGNORE]))
        iou, _ = evaluate_iou(pred, gt, 2)
        # tp=1, fn=1 (the abstained point) -> 1/2
        assert iou[0] == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            evaluate_iou(LabelField(np.zeros(2, dtype=np.int64)),
                         LabelField(np.zeros(3, dtype=np.int64)), 2)
        with pytest.raises(LengthMismatch, match="3 labels.*5"):
            harness.confusion_matrix(LabelField(np.zeros(3, dtype=np.int64)),
                                     LabelField(np.zeros(5, dtype=np.int64)), 2)

    @pytest.mark.parametrize("pred, gt", [(7, 0), (9, 6), (7, IGNORE)],
                             ids=["booked-as-next-class", "past-the-matrix", "on-ignored-gt"])
    def test_out_of_range_prediction_is_rejected(self, pred, gt):
        # C = 7: g*C + p would book (0, 7) as (1, 0), and (6, 9) past the matrix
        with pytest.raises(LabelOutOfRange, match=f"^predicted class id {pred} .*\\[0, 7\\)"):
            harness.confusion_matrix(LabelField(np.array([0, pred])),
                                     LabelField(np.array([0, gt])), 7)

    def test_confusion_accumulates_over_frames(self):
        gt = LabelField(np.array([0, 1]))
        pred = LabelField(np.array([0, 0]))
        rep = harness.RunReport(("a", "b"))
        for frame_id in range(2):
            rep.record(frame_id, pred, gt, 0.0)
        iou, _ = harness.iou_from_confusion(rep.confusion)
        np.testing.assert_allclose(iou, [2 / 4, 0.0])
        one = harness.confusion_matrix(pred, gt, 2)
        np.testing.assert_array_equal(rep.confusion[0], 2 * one[0])
        # each frame's scores come from that frame's counts alone
        np.testing.assert_array_equal(rep.per_frame_iou[-1], harness.iou_from_confusion(one)[0])


class TestAdaptConfig:
    @pytest.mark.parametrize("field, value", [
        ("window", 0), ("k", -1), ("k_feat", 2), ("lam", 100.0), ("tau", 0.0), ("eps", 0.0),
        ("alpha", 1.0), ("alpha", -0.1), ("beta_hat", 3.0), ("beta_hat", -0.1),
        ("lr", -1.0), ("wd", -1e-5), ("lr", np.inf), ("wd", np.inf), ("lr", np.nan),
        ("eps", np.inf), ("eps", np.nan),
    ])
    def test_invalid_value_rejected_up_front(self, field, value):
        with pytest.raises(ConfigInvalid, match=f"^{field} "):
            harness.AdaptConfig(**{field: value})

    def test_boundary_values_accepted(self):
        harness.AdaptConfig(window=1, k=0, k_feat=3, lam=0.0)
        harness.AdaptConfig(alpha=0.0, beta_hat=0.0, lr=0.0, wd=0.0)
        harness.AdaptConfig(beta_hat=1.0)


class TestAdaptFrame:
    def test_eval_happens_before_update(self):
        frames = tiny_stream(2)
        params = tiny_params()
        state = harness.AdaptationState.init(params, harness.AdaptConfig())
        probs, _, _ = model.forward(params, harness.frame_features(frames[0], 20)[1])
        expected = np.argmax(probs.values, axis=1)
        pred, source_pred = step_frame(params, state, [], frames[0])
        # the returned predictions are the pre-update model's and the source's,
        # which start out equal
        np.testing.assert_array_equal(pred.values, expected)
        np.testing.assert_array_equal(source_pred.values, expected)
        # and the update really happened
        assert not np.array_equal(state.target_params.tensors["embed_w"],
                                  params.tensors["embed_w"])

    def test_source_params_never_move(self):
        frames = tiny_stream(4)
        params = tiny_params()
        source_params = params.copy()
        state = harness.AdaptationState.init(source_params, harness.AdaptConfig())
        history = []
        for f in frames:
            step_frame(source_params, state, history, f)
        for name in params.names():
            np.testing.assert_array_equal(source_params.tensors[name],
                                          params.tensors[name])

    def test_history_bounded_by_window(self):
        frames = tiny_stream(8)
        params = tiny_params()
        cfg = harness.AdaptConfig(window=3)
        state = harness.AdaptationState.init(params, cfg)
        history = []
        for f in frames:
            step_frame(params, state, history, f)
            assert len(history) <= 3
        assert history[-1].frame.frame_id == frames[-1].frame_id


class TestSourceStage:
    def test_no_partner_means_one_query_and_no_temporal_term(self, monkeypatch):
        frames = tiny_stream(1)
        cfg = harness.AdaptConfig()
        sources = []
        per_frame = calls_per_frame(monkeypatch, frames, lambda source: sources.extend(
            harness.source_stage(tiny_params(), f, cfg, None) for f in source))
        assert per_frame[0].count("knn") == 1
        assert sources[0].pairs is None

    def test_partner_arrays_are_shared_not_copied(self, monkeypatch):
        batch, source, partner = handed_batch(monkeypatch, harness.AdaptConfig(window=1))
        assert len(source.pairs)
        assert batch.features_prev is partner.features
        assert batch.s_t is source.scores.values
        assert batch.s_prev is partner.scores.values
        assert batch.idx_t is source.pairs.idx_t
        assert batch.idx_prev is source.pairs.idx_prev

    def test_unweighted_batch_has_unit_weights(self, monkeypatch):
        batch, source, partner = handed_batch(monkeypatch,
                                              harness.AdaptConfig(window=1, use_cw=False))
        np.testing.assert_array_equal(batch.s_t, np.ones(source.frame.num_points))
        np.testing.assert_array_equal(batch.s_prev, np.ones(partner.frame.num_points))

    def test_stored_stage_holds_only_its_own_frame(self, monkeypatch):
        # the history keeps each source stage as returned, and no stage
        # refers to an array of another frame
        def arrays_of(obj):
            if isinstance(obj, np.ndarray):
                return [obj]
            if dataclasses.is_dataclass(obj):
                return [a for f in dataclasses.fields(obj)
                        for a in arrays_of(getattr(obj, f.name))]
            return []

        sources, partners = [], []
        source_stage, target_stage = harness.source_stage, harness.target_stage

        def record_source(*args):
            sources.append(source_stage(*args))
            return sources[-1]

        def record_target(state, source, partner):
            partners.append(partner)
            return target_stage(state, source, partner)

        monkeypatch.setattr(harness, "source_stage", record_source)
        monkeypatch.setattr(harness, "target_stage", record_target)
        harness.run_tta(tiny_stream(6), tiny_params(), harness.AdaptConfig(window=2))
        assert partners[:2] == [None, None]
        assert all(p is s for p, s in zip(partners[2:], sources))
        assert all(s.pairs is not None for s in sources[2:])
        for i, source in enumerate(sources):
            for other in sources[:i] + sources[i + 1:]:
                for a in arrays_of(source):
                    assert not any(np.shares_memory(a, b) for b in arrays_of(other))


class TestFiniteGuard:
    @pytest.mark.parametrize("poison", ["loss", "grad"])
    def test_non_finite_update_is_skipped(self, monkeypatch, poison):
        frames = tiny_stream(2)
        params = tiny_params()
        state = harness.AdaptationState.init(params, harness.AdaptConfig())
        real = harness.loss_and_grad

        def poisoned(*args):
            loss, grads, parts = real(*args)
            if poison == "loss":
                return float("nan"), grads, parts
            grads["embed_w"] = grads["embed_w"].copy()
            grads["embed_w"][0, 0] = np.nan
            return loss, grads, parts

        monkeypatch.setattr(harness, "loss_and_grad", poisoned)
        before = state.target_params.copy()
        moments = [{k: v.copy() for k, v in d.items()}
                   for d in (state.optimizer.m, state.optimizer.v)]
        pred, _ = step_frame(params, state, [], frames[0])
        assert len(pred) == frames[0].num_points
        assert state.optimizer.step == 0
        for name in before.names():
            assert state.target_params.tensors[name].tobytes() == before.tensors[name].tobytes()
            assert state.optimizer.m[name].tobytes() == moments[0][name].tobytes()
            assert state.optimizer.v[name].tobytes() == moments[1][name].tobytes()


class TestRunTta:
    def test_deterministic(self):
        frames = tiny_stream(5)
        params = tiny_params()
        a, _ = harness.run_tta(frames, params, harness.AdaptConfig())
        b, _ = harness.run_tta(frames, params, harness.AdaptConfig())
        assert a.cumulative_miou == b.cumulative_miou
        assert a.per_frame_miou == b.per_frame_miou

    def test_report_shape(self):
        frames = tiny_stream(4)
        rep, state = harness.run_tta(frames, tiny_params(), harness.AdaptConfig())
        assert rep.frame_ids == [f.frame_id for f in frames]
        assert len(rep.per_frame_iou) == len(rep.per_frame_miou) == 4
        assert np.isfinite(rep.cumulative_miou)
        assert rep.improvement == pytest.approx(
            rep.cumulative_miou - rep.source_cumulative_miou)

    def test_continuation_resumes_state(self):
        frames = tiny_stream(6)
        params = tiny_params()
        whole, _ = harness.run_tta(frames, params, harness.AdaptConfig())
        first, state = harness.run_tta(frames[:3], params, harness.AdaptConfig())
        second, _ = harness.run_tta(frames[3:], params, harness.AdaptConfig(), state=state)
        np.testing.assert_allclose(first.per_frame_miou + second.per_frame_miou,
                                   whole.per_frame_miou, atol=1e-12)

    def test_continuation_takes_the_new_config(self):
        frames = tiny_stream(6)
        params = tiny_params()
        cfg = harness.AdaptConfig(window=3)
        _, state = harness.run_tta(frames[:4], params, cfg)
        before = {name: state.target_params.tensors[name].copy() for name in params.names()}
        _, state = harness.run_tta(frames[4:], params, replace(cfg, lr=0.0, window=2),
                                   state=state)
        # lr = 0 (which also zeroes the decoupled decay) leaves every weight as is
        for name in params.names():
            np.testing.assert_array_equal(state.target_params.tensors[name], before[name])

    def test_continuation_matches_frames_only_within_its_stream(self, monkeypatch):
        params = tiny_params()
        cfg = harness.AdaptConfig(window=3)
        _, state = harness.run_tta(tiny_stream(4, seed=3), params, cfg)
        scene_b = tiny_stream(5, seed=4)
        per_frame = calls_per_frame(monkeypatch, scene_b, lambda source: (
            harness.run_tta(source, params, cfg),
            harness.run_tta(source, params, cfg, state=state)))
        knn = [calls.count("knn") for calls in per_frame]
        # fresh, then continued: the first `window` frames of scene B have no frame w back
        assert knn[:5] == knn[5:] == [1, 1, 1, 2, 2]

    def test_one_self_query_and_one_forward_per_model_per_frame(self, monkeypatch):
        frames = tiny_stream(3)
        cfg = harness.AdaptConfig(window=2)
        per_frame = calls_per_frame(monkeypatch, frames,
                                    lambda source: harness.run_tta(source, tiny_params(), cfg))
        # the last frame has temporal pairs: one self-query plus one match;
        # source, target (eval, prototypes and loss) and previous-frame forwards
        assert per_frame[-1].count("knn") == 2
        assert per_frame[-1].count("forward") == 3

    def test_class_count_mismatch(self):
        frames = tiny_stream(2)
        with pytest.raises(CheckpointMismatch):
            harness.run_tta(frames, tiny_params(), harness.AdaptConfig(),
                            class_map=ClassMap.identity(4))

    def test_dump_dir_writes_labels(self, tmp_path):
        frames = tiny_stream(3)
        harness.run_tta(frames, tiny_params(), harness.AdaptConfig(),
                        dump_dir=tmp_path / "pred")
        dumped = sorted(p.name for p in (tmp_path / "pred").glob("*.label"))
        assert dumped == ["000000.label", "000001.label", "000002.label"]

    def test_csv_text_determinism_columns(self):
        frames = tiny_stream(3)
        rep, _ = harness.run_tta(frames, tiny_params(), harness.AdaptConfig())
        with_time = rep.csv_text(include_time=True)
        without = rep.csv_text(include_time=False)
        assert "time_s" in with_time.splitlines()[0]
        assert "time_s" not in without.splitlines()[0]
        # timing aside, the metric columns are identical
        strip = ["," .join(line.split(",")[:-1]) for line in with_time.splitlines()]
        assert strip == without.splitlines()

    def test_cumulative_scores_derive_from_the_confusion(self, tmp_path):
        frames = tiny_stream(4)
        rep, _ = harness.run_tta(frames, tiny_params(), harness.AdaptConfig(),
                                 dump_dir=tmp_path)
        # the running confusion is the sum over the dumped predictions
        frame_counts = [
            harness.confusion_matrix(
                LabelField(stream.read_label_file(tmp_path / f"{f.frame_id:06d}.label")),
                LabelField(f.gt_labels), 7)
            for f in frames]
        total = [sum(counts[i] for counts in frame_counts) for i in (0, 1)]
        for counts, expected in zip(rep.confusion, total):
            np.testing.assert_array_equal(counts, expected)
        _, miou = harness.iou_from_confusion(rep.confusion)
        assert rep.cumulative_miou == miou
        assert rep.improvement == miou - rep.source_cumulative_miou
        header, classes = rep.table_text().split("\n\n")
        assert classes == harness.class_table(rep.class_names, rep.confusion)
        assert header.splitlines()[1] == f"cumulative mIoU: {100 * miou:.2f}%"

    def test_source_score_is_a_report_of_the_source_argmax(self):
        frames = tiny_stream(4)
        params, config = tiny_params(), harness.AdaptConfig()
        rep, _ = harness.run_tta(frames, params, config)
        source = harness.RunReport(rep.class_names)
        for f in frames:
            probs, _, _ = model.forward(params, harness.frame_features(f, config.k_feat)[1])
            source.record(f.frame_id, LabelField(np.argmax(probs.values, axis=1)),
                          LabelField(f.gt_labels), 0.0)
        assert rep.source_cumulative_miou == source.cumulative_miou

    def test_source_score_is_a_report_of_the_float32_source_argmax(self):
        # the run scores the float32 copy it adapts from, on features in its dtype
        frames = tiny_stream(4)
        params, config = tiny_params().astype(np.float32), harness.AdaptConfig()
        rep, _ = harness.run_tta(frames, tiny_params(), config)
        source = harness.RunReport(rep.class_names)
        for f in frames:
            feats = harness.frame_features(f, config.k_feat)[1].astype(np.float32)
            probs, _, _ = model.forward(params, feats)
            source.record(f.frame_id, LabelField(np.argmax(probs.values, axis=1)),
                          LabelField(f.gt_labels), 0.0)
        assert rep.source_cumulative_miou == source.cumulative_miou

    def test_record_without_ground_truth_leaves_the_confusion(self):
        rep = harness.RunReport(("a", "b"))
        pred = LabelField(np.array([0, 1, 1]))
        rep.record(5, pred, LabelField(np.array([0, 1, 0])), 0.1)
        before = [counts.copy() for counts in rep.confusion]
        rep.record(6, pred, None, 0.2)
        assert rep.frame_ids == [5, 6] and rep.per_frame_time == [0.1, 0.2]
        assert np.isnan(rep.per_frame_miou[1]) and np.isnan(rep.per_frame_iou[1]).all()
        for counts, expected in zip(rep.confusion, before):
            np.testing.assert_array_equal(counts, expected)
        # class a: tp=1 fn=1; class b: tp=1 fp=1
        assert rep.cumulative_miou == rep.per_frame_miou[0] == pytest.approx(0.5)

    def test_table_text_mentions_improvement(self):
        frames = tiny_stream(2)
        rep, _ = harness.run_tta(frames, tiny_params(), harness.AdaptConfig())
        text = rep.table_text()
        assert "improvement" in text
        assert "cumulative mIoU" in text


def assert_float32_state(state):
    for name in state.target_params.names():
        assert state.target_params.tensors[name].dtype == np.float32, name
        assert state.optimizer.m[name].dtype == state.optimizer.v[name].dtype == np.float32, name
    assert state.optimizer.step > 0
    assert state.bank.prototypes.dtype == np.float64


class TestFloat32Adaptation:
    """Runs adapt a float32 copy of the source model; the caller's stays float64."""

    def test_run_tta_adapts_in_float32_and_leaves_the_source(self):
        params = tiny_params()
        before = params.copy()
        _, state = harness.run_tta(tiny_stream(4), params, harness.AdaptConfig(window=2))
        assert_float32_state(state)
        for name in params.names():
            assert params.tensors[name].dtype == np.float64
            assert params.tensors[name].tobytes() == before.tensors[name].tobytes(), name

    def test_continued_run_stays_float32(self):
        frames = tiny_stream(6)
        params = tiny_params()
        before = params.copy()
        _, state = harness.run_tta(frames[:3], params, harness.AdaptConfig(window=2))
        _, state = harness.run_tta(frames[3:], params, harness.AdaptConfig(window=2),
                                   state=state)
        assert_float32_state(state)
        for name in params.names():
            assert params.tensors[name].tobytes() == before.tensors[name].tobytes(), name

    def test_every_ablation_row_adapts_in_float32(self, monkeypatch):
        states, sources = {}, []
        source_stage, target_stage = harness.source_stage, harness.target_stage

        def record_source(source_params, frame, config, partner):
            sources.append(source_stage(source_params, frame, config, partner))
            return sources[-1]

        def record_target(state, source, partner):
            states[id(state)] = state
            return target_stage(state, source, partner)

        monkeypatch.setattr(harness, "source_stage", record_source)
        monkeypatch.setattr(harness, "target_stage", record_target)
        params = tiny_params()
        before = params.copy()
        harness.run_ablation(tiny_stream(4), params, harness.AdaptConfig(window=2))
        assert len(states) == len(harness.ABLATION_LADDER)
        for state in states.values():
            assert_float32_state(state)
        # the frame's features are cast once, in the source stage
        assert all(source.features.dtype == np.float32 for source in sources)
        for name in params.names():
            assert params.tensors[name].tobytes() == before.tensors[name].tobytes(), name

    def test_pretrained_checkpoint_round_trip_loses_nothing(self, tmp_path):
        # pretrain, save and adapt from the file: the same run as from memory
        trained, _ = model.pretrain_source(
            [tiny_stream(4)], epochs=1, seed=0, num_classes=7, head_epochs=1, window=2,
            feature_fn=lambda frame: harness.frame_features(frame, 20)[1])
        trained.save(tmp_path / "source.ckpt")
        loaded = model.NetworkParams.load(tmp_path / "source.ckpt")
        assert loaded.dtype == np.float64
        for name in trained.names():
            assert trained.tensors[name].dtype == np.float32, name
            assert loaded.tensors[name].astype(np.float32).tobytes() == \
                trained.tensors[name].tobytes(), name
        frames = tiny_stream(4, seed=5)
        cfg = harness.AdaptConfig(window=2)
        (report_file, state_file), (report_mem, state_mem) = (
            harness.run_tta(frames, params, cfg) for params in (loaded, trained))
        assert report_file.csv_text(include_time=False) == report_mem.csv_text(include_time=False)
        for name in trained.names():
            assert state_file.target_params.tensors[name].tobytes() == \
                state_mem.target_params.tensors[name].tobytes(), name


class TestAblation:
    def test_ladder_rows_accumulate_toggles(self):
        names = [name for name, _ in harness.ABLATION_LADDER]
        assert names == ["local", "+temporal", "+prototypes", "+conf-weight", "full"]
        on = [sum(toggles.values()) for _, toggles in harness.ABLATION_LADDER]
        assert on == [0, 1, 2, 3, 4]

    def test_run_ablation_reports_all_rows(self):
        frames = tiny_stream(4)
        rows = harness.run_ablation(frames, tiny_params(), harness.AdaptConfig())
        assert [name for name, _ in rows] == [name for name, _ in harness.ABLATION_LADDER]
        for _, rep in rows:
            assert np.isfinite(rep.cumulative_miou)

    def test_rows_equal_separate_runs(self):
        frames = tiny_stream(4)
        params = tiny_params()
        cfg = harness.AdaptConfig(window=2)
        rows = dict(harness.run_ablation(frames, params, cfg))
        for name, toggles in harness.ABLATION_LADDER:
            alone, _ = harness.run_tta(frames, params, replace(cfg, **toggles))
            assert rows[name].csv_text(include_time=False) == alone.csv_text(include_time=False)
            assert rows[name].source_cumulative_miou == alone.source_cumulative_miou

    def test_one_pass_iterable_feeds_every_row(self):
        frames = tiny_stream(4)
        rows = harness.run_ablation((f for f in frames), tiny_params(), harness.AdaptConfig())
        for _, rep in rows:
            assert rep.frame_ids == [f.frame_id for f in frames]

    def test_one_pass_iterable_matches_list(self):
        frames = tiny_stream(4)
        params = tiny_params()
        from_list = harness.run_ablation(frames, params, harness.AdaptConfig())
        from_generator = harness.run_ablation(iter(frames), params, harness.AdaptConfig())
        for (name_a, a), (name_b, b) in zip(from_list, from_generator):
            assert name_a == name_b
            assert a.csv_text(include_time=False) == b.csv_text(include_time=False)
            assert a.source_cumulative_miou == b.source_cumulative_miou

    def test_one_source_pass_per_frame(self, monkeypatch):
        frames = tiny_stream(3)
        cfg = harness.AdaptConfig(window=2)
        per_frame = calls_per_frame(
            monkeypatch, frames, lambda source: harness.run_ablation(source, tiny_params(), cfg))
        # the last frame: one self-query and one shared match; one source
        # forward, five target forwards and the previous frame's forward for
        # each of the four rows with the temporal term
        assert per_frame[-1].count("knn") == 2
        assert per_frame[-1].count("forward") == 10
