"""Online adaptation loop, evaluation protocol, metrics, and ablation grid.

Each incoming frame goes through two stages. The source stage depends only
on the frame, the frozen source model and the window history: geometric
features, the source prediction, local pseudo-labels and the correspondences
to the frame w steps back. The target stage first evaluates the model
adapted up to the previous frame, then takes one self-supervised update:
prototype fine-tuning on the live target model, temporal consistency, and a
single optimizer step on the combined objective.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, asdict, replace
from pathlib import Path

import numpy as np

from . import local_labels, prototypes, spatial
from .core import (IGNORE, ClassMap, ConfidenceField, Frame, LabelField, SelectionMask,
                   remap_labels, validate_frame)
from .errors import CheckpointMismatch, ConfigInvalid, LengthMismatch
from .model import (
    NetworkParams,
    OptimizerState,
    TemporalBatch,
    adam_step,
    forward,
    forward_graph,
    loss_and_grad,
    make_leaves,
    normalize_features,
)
from .stream import write_label_file


@dataclass
class AdaptConfig:
    """Hyper-parameters and ablation toggles of the adaptation loop."""

    k: int = 10                 # K-NN size for pseudo-label aggregation
    lam: float = 70.0           # per-class percentile for selection
    alpha: float = 0.99         # prototype EMA factor
    window: int = 5             # temporal gap w (frames)
    tau: float = 0.2            # correspondence distance threshold (m)
    lr: float = 1e-3
    wd: float = 1e-5
    eps: float = 3e-3           # Adam denominator floor; damps near-zero-gradient drift
    beta_hat: float = 0.3       # label smoothing ceiling
    k_feat: int = 20            # neighborhood size for geometric features
    use_ggf: bool = True
    use_tgr: bool = True
    use_cw: bool = True
    use_alg: bool = True

    def __post_init__(self):
        checks = (("window", self.window >= 1, ">= 1"),
                  ("k", self.k >= 0, ">= 0"),
                  ("k_feat", self.k_feat >= 3, ">= 3"),
                  ("lam", 0 <= self.lam < 100, "in [0, 100)"),
                  ("tau", self.tau > 0, "> 0"),
                  ("eps", self.eps > 0, "> 0"))
        for name, ok, bound in checks:
            if not ok:
                raise ConfigInvalid(f"{name} must be {bound}, got {getattr(self, name)}")


@dataclass
class _BufferEntry:
    frame: Frame
    features: np.ndarray        # normalized network inputs
    scores: np.ndarray          # cached confidence S


@dataclass
class AdaptationState:
    """Mutable state threaded through the sequential adaptation loop."""

    source_params: NetworkParams
    target_params: NetworkParams
    optimizer: OptimizerState
    bank: prototypes.PrototypeBank
    ring_buffer: list
    config: AdaptConfig

    @classmethod
    def init(cls, source_params: NetworkParams, config: AdaptConfig) -> "AdaptationState":
        target = source_params.copy()
        return cls(
            source_params=source_params.copy(),
            target_params=target,
            optimizer=OptimizerState.init(target),
            bank=prototypes.PrototypeBank.empty(source_params.num_classes, 32),
            ring_buffer=[],
            config=config,
        )


def confusion_matrix(pred: LabelField, gt: LabelField, num_classes: int) -> np.ndarray:
    if len(pred) != len(gt):
        raise LengthMismatch(
            f"prediction has {len(pred)} labels, ground truth has {len(gt)}")
    keep = gt.values != IGNORE
    g = gt.values[keep]
    p = pred.values[keep]
    valid = p != IGNORE
    flat = g[valid] * num_classes + p[valid]
    conf = np.bincount(flat, minlength=num_classes ** 2).reshape(num_classes, num_classes)
    # IGNORE predictions still count as misses for their gt class
    miss = np.bincount(g[~valid], minlength=num_classes)
    return conf, miss


def empty_confusion(num_classes: int):
    """Zero (conf, miss) counts: the start of a running total."""
    return (np.zeros((num_classes, num_classes), dtype=np.int64),
            np.zeros(num_classes, dtype=np.int64))


def accumulate_confusion(total, pred: LabelField, gt: LabelField):
    """(total plus one frame's (conf, miss) counts, the frame's counts)."""
    frame = confusion_matrix(pred, gt, total[0].shape[0])
    return (total[0] + frame[0], total[1] + frame[1]), frame


def iou_from_confusion(conf_miss):
    conf, miss = conf_miss
    num_classes = conf.shape[0]
    tp = np.diag(conf).astype(np.float64)
    fp = conf.sum(axis=0) - tp
    fn = conf.sum(axis=1) - tp + miss
    union = tp + fp + fn
    with np.errstate(invalid="ignore", divide="ignore"):
        iou = np.where(union > 0, tp / union, np.nan)
    present = union > 0
    miou = float(np.mean(iou[present])) if present.any() else float("nan")
    return iou, miou


def frame_features(frame: Frame, k_feat: int):
    """Spatial index plus normalized network inputs for one frame."""
    index = spatial.build_index(frame.points)
    feats = normalize_features(spatial.local_geometric_features(index, k_feat))
    return index, feats


@dataclass
class SourceFrame:
    """What the frozen source model yields for one frame.

    Nothing here depends on live weights or on a run's module switches, so
    one source stage serves every run that adapts on the frame.
    """

    frame: Frame
    features: np.ndarray        # normalized network inputs
    source_pred: LabelField     # the source model's argmax
    labels: LabelField          # local pseudo-labels over all points
    scores: ConfidenceField
    selected: SelectionMask
    temporal: TemporalBatch | None  # pairs to frame t - window, if any


def source_stage(source_params: NetworkParams, frame: Frame, config: AdaptConfig,
                 history: list, match: bool) -> SourceFrame:
    """Features, source forward, local labels and, if `match`, correspondences.

    `history` holds the previous frames' entries, newest last; frame
    t - window is `window` back. The frame's spatial index, with its cached
    neighbourhood, dies when this returns, before any target-model work.
    """
    validate_frame(frame)
    index, feats = frame_features(frame, config.k_feat)

    # k = 0 switches the local module off: plain argmax with entropy-only ranking
    source_probs, _, _ = forward(source_params, feats)
    source_pred = LabelField(np.argmax(source_probs.values, axis=1))
    labels, scores, selected = local_labels.run_lgl(
        source_probs, index, config.k, config.lam, source_params.num_classes)

    temporal = None
    if match and len(history) >= config.window:
        oldest = history[-config.window]
        pairs = spatial.match_correspondences(frame, oldest.frame, config.tau, index_t=index)
        if len(pairs):
            temporal = TemporalBatch(oldest.features, pairs.idx_t, pairs.idx_prev,
                                     scores.values, oldest.scores)
    return SourceFrame(frame, feats, source_pred, labels, scores, selected, temporal)


def target_stage(state: AdaptationState, source: SourceFrame) -> LabelField:
    """Evaluate the adapted model on the frame, then take one Adam step.

    Returns the prediction made before the update, so the evaluation protocol
    always scores the model adapted to the previous frame.
    """
    cfg = state.config
    num_classes = state.source_params.num_classes

    # one graph of the target model serves the evaluation, the prototypes and the loss
    leaves = make_leaves(state.target_params)
    outputs = forward_graph(leaves, source.features)
    eval_pred = LabelField(np.argmax(outputs[0].value, axis=1))
    z_target = outputs[1].value

    supervision = LabelField(np.where(source.selected.values, source.labels.values, IGNORE))
    if cfg.use_ggf:
        centroids, counts = prototypes.build_prototypes(
            z_target, source.labels, source.selected, num_classes)
        state.bank = prototypes.ema_update(state.bank, centroids, counts, cfg.alpha)
        if state.bank.seen.any():
            global_labels = prototypes.global_pseudo_labels(z_target, state.bank)
            supervision = prototypes.fuse_local_global(
                source.labels if cfg.use_alg else supervision, global_labels)

    temporal_batch = None
    if cfg.use_tgr and source.temporal is not None:
        temporal_batch = replace(source.temporal, confidence_weighted=cfg.use_cw)

    _, grads, _ = loss_and_grad(leaves, outputs, supervision, source.scores, cfg.beta_hat,
                                temporal_batch)
    state.target_params, state.optimizer = adam_step(
        state.target_params, grads, state.optimizer, lr=cfg.lr, wd=cfg.wd,
        eps=cfg.eps)
    return eval_pred


def _remember(history: list, source: SourceFrame, window: int):
    """Append the frame to the window history and trim it to `window` entries."""
    history.append(_BufferEntry(source.frame, source.features, source.scores.values))
    while len(history) > window:
        history.pop(0)


def adapt_frame(state: AdaptationState, frame: Frame):
    """Evaluate the incoming frame, then run one adaptation update.

    The source stage followed by the target stage. Returns (eval_pred,
    source_pred, state): the adapted model's prediction made before the
    update, and the frozen source model's prediction.
    """
    source = source_stage(state.source_params, frame, state.config, state.ring_buffer,
                          match=state.config.use_tgr)
    eval_pred = target_stage(state, source)
    _remember(state.ring_buffer, source, state.config.window)
    return eval_pred, source.source_pred, state


@dataclass
class RunReport:
    """Per-frame metrics of one adaptation run."""

    class_names: tuple
    frame_ids: list
    per_frame_iou: list          # arrays with NaN for absent classes
    per_frame_miou: list
    cumulative_miou: float
    source_cumulative_miou: float
    improvement: float           # percentage points over the source-only run
    per_frame_time: list
    config: dict

    def csv_text(self, include_time: bool = True) -> str:
        cols = ["frame"] + [f"class{i}_iou" for i in range(len(self.class_names))] + ["mIoU"]
        if include_time:
            cols.append("time_s")
        lines = [",".join(cols)]
        for i, fid in enumerate(self.frame_ids):
            row = [str(fid)]
            row += ["" if np.isnan(v) else f"{v:.6f}" for v in self.per_frame_iou[i]]
            row.append(f"{self.per_frame_miou[i]:.6f}")
            if include_time:
                row.append(f"{self.per_frame_time[i]:.4f}")
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def table_text(self) -> str:
        width = max(len(n) for n in self.class_names)
        lines = [
            f"frames: {len(self.frame_ids)}",
            f"cumulative mIoU: {100 * self.cumulative_miou:.2f}%",
            f"source-only mIoU: {100 * self.source_cumulative_miou:.2f}%",
            f"improvement: {100 * self.improvement:+.2f} points",
            f"mean frame time: {np.mean(self.per_frame_time):.3f} s",
            "",
            f"{'class'.ljust(width)}  mean IoU",
        ]
        per_class = np.nanmean(np.vstack(self.per_frame_iou), axis=0)
        for name, value in zip(self.class_names, per_class):
            shown = "   -" if np.isnan(value) else f"{100 * value:6.2f}%"
            lines.append(f"{name.ljust(width)}  {shown}")
        return "\n".join(lines) + "\n"


class _Row:
    """One run inside a pass over a stream: its state and its per-frame record."""

    def __init__(self, state: AdaptationState, num_classes: int, dump_dir=None):
        self.state = state
        self.dump_dir = dump_dir
        self.total = empty_confusion(num_classes)
        self.frame_ids, self.per_iou, self.per_miou, self.times = [], [], [], []

    def record(self, frame: Frame, pred: LabelField, gt: LabelField | None, seconds: float):
        if self.dump_dir is not None:
            write_label_file(Path(self.dump_dir) / f"{frame.frame_id:06d}.label", pred.values)
        if gt is not None:
            self.total, frame_counts = accumulate_confusion(self.total, pred, gt)
            iou, miou = iou_from_confusion(frame_counts)
        else:
            iou, miou = np.full(len(self.total[1]), np.nan), float("nan")
        self.frame_ids.append(frame.frame_id)
        self.per_iou.append(iou)
        self.per_miou.append(miou)
        self.times.append(seconds)

    def report(self, class_names, source_cumulative: float) -> RunReport:
        _, cumulative = iou_from_confusion(self.total)
        return RunReport(
            class_names=class_names,
            frame_ids=self.frame_ids,
            per_frame_iou=self.per_iou,
            per_frame_miou=self.per_miou,
            cumulative_miou=cumulative,
            source_cumulative_miou=source_cumulative,
            improvement=cumulative - source_cumulative,
            per_frame_time=self.times,
            config=asdict(self.state.config),
        )


def _run_rows(frames, rows: list, history: list, class_map: ClassMap) -> list:
    """One pass over `frames`: per frame, one source stage, then each row's target stage.

    The rows differ only in their module switches, so they share the source
    stage, the window `history` and the source-only score. A row's frame time
    is the source stage plus its own target stage. Returns one RunReport per row.
    """
    first = rows[0].state
    match = any(row.state.config.use_tgr for row in rows)
    source_total = empty_confusion(class_map.num_classes)
    for frame in frames:
        gt = None
        if frame.gt_labels is not None:
            gt = remap_labels(frame.gt_labels, class_map)

        start = time.perf_counter()
        source = source_stage(first.source_params, frame, first.config, history, match)
        source_time = time.perf_counter() - start
        for row in rows:
            start = time.perf_counter()
            eval_pred = target_stage(row.state, source)
            row.record(frame, eval_pred, gt, source_time + time.perf_counter() - start)
        _remember(history, source, first.config.window)

        if gt is not None:
            source_total, _ = accumulate_confusion(source_total, source.source_pred, gt)

    _, source_cumulative = iou_from_confusion(source_total)
    return [row.report(class_map.canonical_names, source_cumulative) for row in rows]


def _checked_class_map(class_map: ClassMap | None, source_params: NetworkParams) -> ClassMap:
    if class_map is None:
        class_map = ClassMap.identity(source_params.num_classes)
    if class_map.num_classes != source_params.num_classes:
        raise CheckpointMismatch(
            f"checkpoint has {source_params.num_classes} classes, "
            f"map has {class_map.num_classes}")
    return class_map


def run_tta(frames, source_params: NetworkParams, config: AdaptConfig,
            class_map: ClassMap | None = None, dump_dir=None,
            state: AdaptationState | None = None):
    """Single sequential pass over a frame stream.

    Returns (RunReport, final state). The frozen source model's predictions
    are scored alongside to report the improvement. `state` may be supplied
    to continue a previous run (continual mode); `config` then replaces its
    config for every stage. `dump_dir` writes predictions in .label format.
    """
    class_map = _checked_class_map(class_map, source_params)
    if state is None:
        state = AdaptationState.init(source_params, config)
    state.config = config
    if dump_dir is not None:
        Path(dump_dir).mkdir(parents=True, exist_ok=True)
    row = _Row(state, class_map.num_classes, dump_dir)
    [report] = _run_rows(frames, [row], state.ring_buffer, class_map)
    return report, state


#: Cumulative build-up of the ablation grid: each row enables one more piece.
ABLATION_LADDER = (
    ("local", dict(use_tgr=False, use_ggf=False, use_cw=False, use_alg=False)),
    ("+temporal", dict(use_tgr=True, use_ggf=False, use_cw=False, use_alg=False)),
    ("+prototypes", dict(use_tgr=True, use_ggf=True, use_cw=False, use_alg=False)),
    ("+conf-weight", dict(use_tgr=True, use_ggf=True, use_cw=True, use_alg=False)),
    ("full", dict(use_tgr=True, use_ggf=True, use_cw=True, use_alg=True)),
)


def run_ablation(frames, source_params: NetworkParams, config: AdaptConfig,
                 class_map: ClassMap | None = None):
    """Run the cumulative ablation ladder; returns [(name, RunReport)].

    One pass over `frames`: each frame's source stage runs once and every row
    adapts its own state on it, so `frames` may be a one-pass iterable.
    """
    class_map = _checked_class_map(class_map, source_params)
    rows = [_Row(AdaptationState.init(source_params, replace(config, **toggles)),
                 class_map.num_classes)
            for _, toggles in ABLATION_LADDER]
    reports = _run_rows(frames, rows, [], class_map)
    return [(name, report) for (name, _), report in zip(ABLATION_LADDER, reports)]
