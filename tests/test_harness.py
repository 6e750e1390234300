"""Metrics, the evaluation protocol, and the adaptation loop plumbing."""

import sys
from dataclasses import replace

import numpy as np
import pytest

from streamseg.core import ClassMap, IGNORE, LabelField
from streamseg.errors import CheckpointMismatch, ConfigInvalid, LengthMismatch
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


def calls_per_frame(monkeypatch, frames, run):
    """K-NN queries and forward graphs made while each frame is current.

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
    count("forward", model.forward_graph)
    per_frame = []

    class Frames:
        def __iter__(self):
            for f in frames:
                calls.clear()
                yield f
                per_frame.append(list(calls))

    run(Frames())
    return per_frame


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

    def test_confusion_accumulates_over_frames(self):
        gt = LabelField(np.array([0, 1]))
        pred = LabelField(np.array([0, 0]))
        total = harness.empty_confusion(2)
        for _ in range(2):
            total, one = harness.accumulate_confusion(total, pred, gt)
        iou, _ = harness.iou_from_confusion(total)
        np.testing.assert_allclose(iou, [2 / 4, 0.0])
        np.testing.assert_array_equal(one[0], harness.confusion_matrix(pred, gt, 2)[0])


class TestAdaptConfig:
    @pytest.mark.parametrize("field, value", [
        ("window", 0), ("k", -1), ("k_feat", 2), ("lam", 100.0), ("tau", 0.0), ("eps", 0.0),
    ])
    def test_invalid_value_rejected_up_front(self, field, value):
        with pytest.raises(ConfigInvalid, match=f"^{field} "):
            harness.AdaptConfig(**{field: value})

    def test_boundary_values_accepted(self):
        harness.AdaptConfig(window=1, k=0, k_feat=3, lam=0.0)


class TestAdaptFrame:
    def test_eval_happens_before_update(self):
        frames = tiny_stream(2)
        params = tiny_params()
        state = harness.AdaptationState.init(params, harness.AdaptConfig())
        probs, _, _ = model.forward(params, harness.frame_features(frames[0], 20)[1])
        expected = np.argmax(probs.values, axis=1)
        pred, source_pred, state = harness.adapt_frame(state, frames[0])
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
        state = harness.AdaptationState.init(params, harness.AdaptConfig())
        for f in frames:
            _, _, state = harness.adapt_frame(state, f)
        for name in params.names():
            np.testing.assert_array_equal(state.source_params.tensors[name],
                                          params.tensors[name])

    def test_ring_buffer_bounded_by_window(self):
        frames = tiny_stream(8)
        cfg = harness.AdaptConfig(window=3)
        state = harness.AdaptationState.init(tiny_params(), cfg)
        for f in frames:
            _, _, state = harness.adapt_frame(state, f)
            assert len(state.ring_buffer) <= 3
        assert state.ring_buffer[-1].frame.frame_id == frames[-1].frame_id


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
        assert len(state.ring_buffer) == 2

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

    def test_table_text_mentions_improvement(self):
        frames = tiny_stream(2)
        rep, _ = harness.run_tta(frames, tiny_params(), harness.AdaptConfig())
        text = rep.table_text()
        assert "improvement" in text
        assert "cumulative mIoU" in text


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
            assert rows[name].config == alone.config

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
