"""Command-line interface: generate / pretrain / adapt / eval / ablate."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import harness, model, stream
from .core import ClassMap, LabelField, remap_labels
from .errors import ConfigInvalid, EmptyInput, LabelOutOfRange, LengthMismatch, StreamSegError


def _add_adapt_flags(p: argparse.ArgumentParser):
    defaults = harness.AdaptConfig
    p.add_argument("--k", type=int, default=defaults.k,
                   help="K-NN size for label aggregation (0 disables it)")
    p.add_argument("--lambda", dest="lam", type=float, default=defaults.lam,
                   help="per-class selection percentile")
    p.add_argument("--alpha", type=float, default=defaults.alpha, help="prototype EMA factor")
    p.add_argument("--window", type=int, default=defaults.window,
                   help="temporal gap w in frames")
    p.add_argument("--tau", type=float, default=defaults.tau,
                   help="correspondence threshold (m)")
    p.add_argument("--lr", type=float, default=defaults.lr)
    p.add_argument("--wd", type=float, default=defaults.wd)
    p.add_argument("--eps", type=float, default=defaults.eps,
                   help="Adam denominator floor during adaptation")
    p.add_argument("--beta-hat", type=float, default=defaults.beta_hat,
                   help="label smoothing ceiling")
    p.add_argument("--k-feat", type=int, default=defaults.k_feat,
                   help="feature neighborhood size")


def _add_module_switches(p: argparse.ArgumentParser):
    p.add_argument("--no-ggf", dest="use_ggf", action="store_false",
                   help="disable prototype fine-tuning")
    p.add_argument("--no-tgr", dest="use_tgr", action="store_false",
                   help="disable temporal consistency")
    p.add_argument("--no-cw", dest="use_cw", action="store_false",
                   help="unweighted temporal loss")
    p.add_argument("--no-alg", dest="use_alg", action="store_false",
                   help="fuse only the selected subset")


def _config_from_args(args) -> harness.AdaptConfig:
    """AdaptConfig from the parsed flags, whose dests are its field names."""
    return harness.AdaptConfig(**{f.name: getattr(args, f.name)
                                  for f in fields(harness.AdaptConfig) if f.name in args})


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
    if args.jitter_aug != 0:   # 0 means no augmentation; a negative sigma is an error
        sequences += stream.jittered_copies(sequences, args.jitter_aug, args.seed)

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
    if args.dump_pred or args.report:
        # each sequence's dump directory and report file are named after its base name
        names = [Path(seq_dir).name for seq_dir in args.sequences]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ConfigInvalid(f"sequences {args.sequences[names.index(name)]} and "
                                    f"{args.sequences[i]} share the name '{name}', "
                                    "so their outputs would overwrite each other")
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
    pred_files = stream.numbered_files(args.pred, ".label")
    gt_files = stream.numbered_files(args.gt, ".label")
    unpaired = sorted(pred_files.keys() ^ gt_files.keys())
    for key in unpaired:
        if key in pred_files:
            print(f"frame {pred_files[key].stem} has no ground truth file", file=sys.stderr)
        else:
            print(f"frame {gt_files[key].stem} has no prediction file", file=sys.stderr)
    if unpaired:
        return 1
    if not pred_files:
        raise EmptyInput(f"no .label file in {args.pred} or in {args.gt}")
    if class_map is None:
        class_map = ClassMap.canonical()
    report = harness.RunReport(class_map.canonical_names)
    for key, pred_path in pred_files.items():
        stem = pred_path.stem
        pred = LabelField(stream.read_label_file(pred_path))
        gt = remap_labels(stream.read_label_file(gt_files[key]), class_map)
        try:
            report.record(stem, pred, gt, 0.0)
        except (LengthMismatch, LabelOutOfRange) as e:
            raise type(e)(f"frame {stem}: {e}") from e
    print(harness.class_table(report.class_names, report.confusion), end="")
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
    p.add_argument("--k-feat", type=int, default=harness.AdaptConfig.k_feat,
                   help="feature neighborhood size; adapt must use the same")
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
                   help="carry the adapted model across sequences without reset")
    _add_adapt_flags(p)
    _add_module_switches(p)
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
