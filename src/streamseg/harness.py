"""Online adaptation loop, evaluation protocol, metrics, and ablation grid.

Each incoming frame goes through two stages. The source stage depends only
on the frame, the frozen source model and the source stage of the frame w
steps back: geometric features, the source prediction, local pseudo-labels
and the correspondences to that frame. The target stage first evaluates the
model adapted up to the previous frame, then takes one self-supervised
update: prototype fine-tuning on the live target model, temporal
consistency, and a single optimizer step on the combined objective.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import local_labels, prototypes, spatial
from .core import (IGNORE, ClassMap, ConfidenceField, Frame, LabelField, SelectionMask,
                   remap_labels, validate_frame)
from .errors import CheckpointMismatch, ConfigInvalid, LabelOutOfRange, LengthMismatch
from .model import (
    NetworkParams,
    OptimizerState,
    TemporalBatch,
    adam_step,
    forward,
    forward_pass,
    loss_and_grad,
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
                  ("eps", self.eps > 0, "> 0"),
                  ("alpha", 0 <= self.alpha < 1, "in [0, 1)"),
                  ("beta_hat", 0 <= self.beta_hat <= 1, "in [0, 1]"),
                  ("lr", 0 <= self.lr < np.inf, "finite and >= 0"),
                  ("wd", 0 <= self.wd < np.inf, "finite and >= 0"))
        ConfigInvalid.check(self, checks)


@dataclass
class AdaptationState:
    """The adapted model: what a continued run carries over from the last one."""

    target_params: NetworkParams
    optimizer: OptimizerState
    bank: prototypes.PrototypeBank
    config: AdaptConfig

    @classmethod
    def init(cls, source_params: NetworkParams, config: AdaptConfig) -> "AdaptationState":
        target = source_params.copy()
        return cls(
            target_params=target,
            optimizer=OptimizerState.init(target),
            bank=prototypes.PrototypeBank.empty(source_params.num_classes, source_params.embed_dim),
            config=config,
        )


def confusion_matrix(pred: LabelField, gt: LabelField, num_classes: int) -> np.ndarray:
    if len(pred) != len(gt):
        raise LengthMismatch(
            f"prediction has {len(pred)} labels, ground truth has {len(gt)}")
    bad = pred.values[pred.values >= num_classes]   # LabelField rules out ids below IGNORE
    if len(bad):
        raise LabelOutOfRange(f"predicted class id {bad[0]} is outside [0, {num_classes})")
    keep = gt.values != IGNORE
    g = gt.values[keep]
    p = pred.values[keep]
    valid = p != IGNORE
    flat = g[valid] * num_classes + p[valid]
    conf = np.bincount(flat, minlength=num_classes ** 2).reshape(num_classes, num_classes)
    # IGNORE predictions still count as misses for their gt class
    miss = np.bincount(g[~valid], minlength=num_classes)
    return conf, miss


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
    pairs: spatial.CorrespondenceSet | None  # to frame t - window, if any


def source_stage(source_params: NetworkParams, frame: Frame, config: AdaptConfig,
                 partner: SourceFrame | None) -> SourceFrame:
    """Features, source forward, local labels and correspondences to `partner`.

    `partner` is frame t - window's source stage, or None when the frame gets
    no temporal term. The frame's spatial index, with its cached
    neighbourhood, dies when this returns, before any target-model work.
    """
    validate_frame(frame)
    index, feats = frame_features(frame, config.k_feat)

    # k = 0 switches the local module off: plain argmax with entropy-only ranking
    source_probs, _, _ = forward(source_params, feats)
    source_pred = LabelField(np.argmax(source_probs.values, axis=1))
    labels, scores, selected = local_labels.run_lgl(
        source_probs, index, config.k, config.lam, source_params.num_classes)

    pairs = (None if partner is None
             else spatial.match_correspondences(frame, partner.frame, config.tau, index_t=index))
    return SourceFrame(frame, feats, source_pred, labels, scores, selected, pairs)


def target_stage(state: AdaptationState, source: SourceFrame,
                 partner: SourceFrame | None) -> LabelField:
    """Evaluate the adapted model on the frame, then take one Adam step.

    `partner` is the source stage `source.pairs` match into. Returns the
    prediction made before the update, so the evaluation protocol always
    scores the model adapted to the previous frame.
    """
    cfg = state.config
    num_classes = state.target_params.num_classes

    # one forward pass of the target model serves the evaluation, the prototypes and the loss
    fp = forward_pass(state.target_params, source.features)
    eval_pred = LabelField(np.argmax(fp.probs, axis=1))
    z_target = fp.z

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
    if cfg.use_tgr and source.pairs is not None:
        if cfg.use_cw:
            s_t, s_prev = source.scores.values, partner.scores.values
        else:
            s_t, s_prev = np.ones(len(source.features)), np.ones(len(partner.features))
        temporal_batch = TemporalBatch(partner.features, source.pairs.idx_t,
                                       source.pairs.idx_prev, s_t, s_prev)

    loss, grads, _ = loss_and_grad(state.target_params, fp, supervision, source.scores,
                                   cfg.beta_hat, temporal_batch)
    # a non-finite loss or gradient would poison the Adam moments: skip the step
    if np.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values()):
        state.target_params, state.optimizer = adam_step(
            state.target_params, grads, state.optimizer, lr=cfg.lr, wd=cfg.wd,
            eps=cfg.eps)
    return eval_pred


def class_table(class_names, confusion) -> str:
    """Per-class IoU lines and the mIoU line of a running (conf, miss) total."""
    iou, miou = iou_from_confusion(confusion)
    width = max(len(n) for n in class_names)
    lines = [f"{name.ljust(width)}  {'   -' if np.isnan(v) else f'{100 * v:6.2f}%'}"
             for name, v in zip(class_names, iou)]
    lines.append(f"{'mIoU'.ljust(width)}  {100 * miou:6.2f}%")
    return "\n".join(lines) + "\n"


@dataclass
class RunReport:
    """Per-frame metrics of one model's predictions; `record` keeps the only running total."""

    class_names: tuple
    source_cumulative_miou: float = float("nan")   # set when the pass ends
    frame_ids: list = field(default_factory=list)
    per_frame_iou: list = field(default_factory=list)   # arrays with NaN for absent classes
    per_frame_miou: list = field(default_factory=list)
    per_frame_time: list = field(default_factory=list)
    confusion: tuple = field(init=False)   # running (conf, miss) over the scored frames

    def __post_init__(self):
        num_classes = len(self.class_names)
        self.confusion = (np.zeros((num_classes, num_classes), dtype=np.int64),
                          np.zeros(num_classes, dtype=np.int64))

    def record(self, frame_id: int, pred: LabelField, gt: LabelField | None, seconds: float):
        """Add one frame; a frame without ground truth gets NaN scores."""
        if gt is not None:
            conf, miss = confusion_matrix(pred, gt, len(self.class_names))
            self.confusion = (self.confusion[0] + conf, self.confusion[1] + miss)
            iou, miou = iou_from_confusion((conf, miss))
        else:
            iou, miou = np.full(len(self.class_names), np.nan), float("nan")
        self.frame_ids.append(frame_id)
        self.per_frame_iou.append(iou)
        self.per_frame_miou.append(miou)
        self.per_frame_time.append(seconds)

    @property
    def cumulative_miou(self) -> float:
        return iou_from_confusion(self.confusion)[1]

    @property
    def improvement(self) -> float:
        """Cumulative mIoU minus the source-only run's."""
        return self.cumulative_miou - self.source_cumulative_miou

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
        lines = [
            f"frames: {len(self.frame_ids)}",
            f"cumulative mIoU: {100 * self.cumulative_miou:.2f}%",
            f"source-only mIoU: {100 * self.source_cumulative_miou:.2f}%",
            f"improvement: {100 * self.improvement:+.2f} points",
            f"mean frame time: {np.mean(self.per_frame_time):.3f} s",
        ]
        return "\n".join(lines) + "\n\n" + class_table(self.class_names, self.confusion)


def _run_rows(frames, source_params: NetworkParams, states: list, class_map: ClassMap,
              dump_dir=None) -> list:
    """One pass over one stream: per frame, one source stage, then each state's target stage.

    The states differ only in their module switches, so they share the source
    stage, the window history and the source-only score. The history starts
    empty: frames are matched only within this stream. A state's frame time
    is the source stage plus its own target stage; the `dump_dir` write (one
    state only) comes after it. Returns one RunReport per state.
    """
    config = states[0].config
    match = any(state.config.use_tgr for state in states)
    history = deque(maxlen=config.window)
    reports = [RunReport(class_map.canonical_names) for _ in states]
    source_report = RunReport(class_map.canonical_names)
    for frame in frames:
        gt = None
        if frame.gt_labels is not None:
            gt = remap_labels(frame.gt_labels, class_map)

        start = time.perf_counter()
        partner = history[0] if match and len(history) == config.window else None
        source = source_stage(source_params, frame, config, partner)
        source_time = time.perf_counter() - start
        for state, report in zip(states, reports):
            start = time.perf_counter()
            eval_pred = target_stage(state, source, partner)
            report.record(frame.frame_id, eval_pred, gt, source_time + time.perf_counter() - start)
            if dump_dir is not None:
                write_label_file(Path(dump_dir) / f"{frame.frame_id:06d}.label", eval_pred.values)
        source_report.record(frame.frame_id, source.source_pred, gt, source_time)
        history.append(source)

    for report in reports:
        report.source_cumulative_miou = source_report.cumulative_miou
    return reports


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
    to continue a previous run (continual mode): the adapted model carries
    over, the window history starts empty, and `config` replaces its config
    for every stage. `dump_dir` writes predictions in .label format.
    """
    class_map = _checked_class_map(class_map, source_params)
    if state is None:
        state = AdaptationState.init(source_params, config)
    state.config = config
    if dump_dir is not None:
        Path(dump_dir).mkdir(parents=True, exist_ok=True)
    [report] = _run_rows(frames, source_params, [state], class_map, dump_dir)
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
    states = [AdaptationState.init(source_params, replace(config, **toggles))
              for _, toggles in ABLATION_LADDER]
    reports = _run_rows(frames, source_params, states, class_map)
    return [(name, report) for (name, _), report in zip(ABLATION_LADDER, reports)]
