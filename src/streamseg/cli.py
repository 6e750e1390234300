"""Command-line interface: generate / pretrain / adapt / eval / ablate."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import harness, model, spatial, stream
from .core import ClassMap, LabelField, remap_labels
from .errors import LengthMismatch, StreamSegError


def _add_adapt_flags(p: argparse.ArgumentParser):
    p.add_argument("--k", type=int, default=10, help="K-NN size for label aggregation")
    p.add_argument("--lambda", dest="lam", type=float, default=70.0,
                   help="per-class selection percentile")
    p.add_argument("--alpha", type=float, default=0.99, help="prototype EMA factor")
    p.add_argument("--window", type=int, default=5, help="temporal gap w in frames")
    p.add_argument("--tau", type=float, default=0.2, help="correspondence threshold (m)")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--wd", type=float, default=1e-5)
    p.add_argument("--eps", type=float, default=3e-3,
                   help="Adam denominator floor during adaptation")
    p.add_argument("--beta-hat", type=float, default=0.3, help="label smoothing ceiling")
    p.add_argument("--k-feat", type=int, default=20, help="feature neighborhood size")
    p.add_argument("--no-lgl", action="store_true", help="disable local label aggregation")
    p.add_argument("--no-ggf", action="store_true", help="disable prototype fine-tuning")
    p.add_argument("--no-tgr", action="store_true", help="disable temporal consistency")
    p.add_argument("--no-cw", action="store_true", help="unweighted temporal loss")
    p.add_argument("--no-alg", action="store_true", help="fuse only the selected subset")


def _config_from_args(args) -> harness.AdaptConfig:
    return harness.AdaptConfig(
        k=args.k, lam=args.lam, alpha=args.alpha, window=args.window, tau=args.tau,
        lr=args.lr, wd=args.wd, eps=args.eps, beta_hat=args.beta_hat, k_feat=args.k_feat,
        use_lgl=not args.no_lgl, use_ggf=not args.no_ggf, use_tgr=not args.no_tgr,
        use_cw=not args.no_cw, use_alg=not args.no_alg,
    )


def _load_class_map(path) -> ClassMap | None:
    return ClassMap.from_file(path) if path else None


def cmd_generate(args) -> int:
    scene = stream.load_scene_config(args.scene) if args.scene else stream.SceneConfig()
    shift = stream.load_shift_config(args.shift) if args.shift else stream.ShiftConfig()
    frames = stream.generate_sequence(scene, shift)
    stream.write_sequence(frames, args.out)
    sizes = [f.num_points for f in frames]
    print(f"wrote {len(frames)} frames to {args.out} "
          f"({min(sizes)}-{max(sizes)} points per frame)")
    return 0


def cmd_pretrain(args) -> int:
    sequences = [stream.read_sequence(d) for d in args.sequences]
    if args.jitter_aug > 0:
        from .core import Frame
        rng = np.random.default_rng([args.seed, 0xAA6])
        sequences += [[Frame(f.frame_id,
                             f.points + rng.normal(0, args.jitter_aug, f.points.shape),
                             f.pose, f.gt_labels) for f in seq]
                      for seq in sequences]

    def feature_fn(frame):
        return harness.frame_features(frame, args.k_feat)[1]

    params, history = model.pretrain_source(
        sequences, epochs=args.epochs, seed=args.seed, feature_fn=feature_fn,
        num_classes=args.classes, lr=args.lr, wd=args.wd,
        head_epochs=args.head_epochs)
    params.save(args.out)
    print(f"saved checkpoint to {args.out}; "
          f"epoch losses {history[0]:.4f} -> {history[-1]:.4f}")
    return 0


def cmd_adapt(args) -> int:
    params = model.NetworkParams.load(args.checkpoint)
    config = _config_from_args(args)
    class_map = _load_class_map(args.class_map)

    state = None
    reports = []
    for seq_dir in args.sequences:
        frames = stream.read_sequence(seq_dir)
        dump = Path(args.dump_pred) / Path(seq_dir).name if args.dump_pred else None
        report, state = harness.run_tta(frames, params, config,
                                        class_map=class_map, dump_dir=dump,
                                        state=state if args.continual else None)
        reports.append((seq_dir, report))
        if not args.continual:
            state = None

    for seq_dir, report in reports:
        print(f"== {seq_dir} ==")
        print(report.table_text())
        if args.report:
            out = Path(args.report)
            if len(reports) > 1:
                out = out.with_name(f"{out.stem}_{Path(seq_dir).name}{out.suffix}")
            out.write_text(report.csv_text())
            print(f"report written to {out}")
    return 0


def cmd_eval(args) -> int:
    class_map = _load_class_map(args.class_map)
    pred_files = {p.stem: p for p in Path(args.pred).glob("*.label")}
    gt_files = {p.stem: p for p in Path(args.gt).glob("*.label")}
    unpaired = sorted(pred_files.keys() ^ gt_files.keys())
    for stem in unpaired:
        missing = "ground truth" if stem in pred_files else "prediction"
        print(f"frame {stem} has no {missing} file", file=sys.stderr)
    if unpaired:
        return 1
    if class_map is None:
        class_map = ClassMap.canonical()
    num_classes = class_map.num_classes
    total = (np.zeros((num_classes, num_classes), dtype=np.int64),
             np.zeros(num_classes, dtype=np.int64))
    for stem in sorted(pred_files):
        pred = LabelField(stream.read_label_file(pred_files[stem]))
        gt = remap_labels(stream.read_label_file(gt_files[stem]), class_map)
        try:
            cm = harness.confusion_matrix(pred, gt, num_classes)
        except LengthMismatch as e:
            raise LengthMismatch(f"frame {stem}: {e}") from e
        total = harness._accumulate(total, cm)
    iou, miou = harness.iou_from_confusion(total)
    width = max(len(n) for n in class_map.canonical_names)
    for name, value in zip(class_map.canonical_names, iou):
        shown = "   -" if np.isnan(value) else f"{100 * value:6.2f}%"
        print(f"{name.ljust(width)}  {shown}")
    print(f"{'mIoU'.ljust(width)}  {100 * miou:6.2f}%")
    return 0


def cmd_ablate(args) -> int:
    params = model.NetworkParams.load(args.checkpoint)
    config = _config_from_args(args)
    frames = stream.read_sequence(args.sequence)
    results = harness.run_ablation(frames, params, config,
                                   class_map=_load_class_map(args.class_map))
    print(f"{'configuration':<14} {'mIoU':>8} {'improvement':>12}")
    for name, report in results:
        print(f"{name:<14} {100 * report.cumulative_miou:7.2f}% "
              f"{100 * report.improvement:+11.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamseg",
        description="Streaming test-time adaptation for point-cloud segmentation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic sequence")
    p.add_argument("out", help="output sequence directory")
    p.add_argument("--scene", help="scene config file (key=value)")
    p.add_argument("--shift", help="shift config file (key=value)")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("pretrain", help="train the source model on labeled sequences")
    p.add_argument("sequences", nargs="+", help="labeled sequence directories")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--classes", type=int, default=7)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--wd", type=float, default=1e-5)
    p.add_argument("--k-feat", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--head-epochs", type=int, default=2,
                   help="heads-only warmup epochs before full training")
    p.add_argument("--jitter-aug", type=float, default=0.0, metavar="SIGMA",
                   help="also train on a noise-jittered copy of each sequence")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("adapt", help="run online adaptation over a target stream")
    p.add_argument("sequences", nargs="+", help="target sequence directories")
    p.add_argument("--checkpoint", required=True, help="source model checkpoint")
    p.add_argument("--class-map", help="raw->canonical label map file")
    p.add_argument("--report", help="CSV report output path")
    p.add_argument("--dump-pred", help="directory for per-frame .label predictions")
    p.add_argument("--continual", action="store_true",
                   help="carry state across sequences without reset")
    _add_adapt_flags(p)
    p.set_defaults(fn=cmd_adapt)

    p = sub.add_parser("eval", help="score dumped predictions against ground truth")
    p.add_argument("pred", help="directory of predicted .label files")
    p.add_argument("gt", help="directory of ground-truth .label files")
    p.add_argument("--class-map", help="raw->canonical label map file")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run the component ablation ladder")
    p.add_argument("sequence", help="target sequence directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--class-map", help="raw->canonical label map file")
    _add_adapt_flags(p)
    p.set_defaults(fn=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except StreamSegError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
