"""Component ablation: switch the adaptation pieces on one at a time.

Reproduces the cumulative build-up study on a mid-size shifted stream:
local pseudo-labels only, then + temporal consistency, + prototype fusion,
+ confidence weighting, and the full configuration. Each row reports the
cumulative mIoU and the improvement over the frozen source model.

Runtime: ~10 minutes on one core (five full adaptation runs).
"""

from streamseg import harness, model, stream

FRAMES = 100


def main():
    scene = stream.SceneConfig(seed=7, frames=25)
    source = stream.generate_sequence(scene, stream.ShiftConfig())
    sequences = [source] + stream.jittered_copies([source], 0.05, seed=0)
    print("pretraining source model...")
    params, _ = model.pretrain_source(
        sequences, epochs=20, seed=0,
        feature_fn=lambda f: harness.frame_features(f, 20)[1],
        num_classes=7, head_epochs=9)

    shift = stream.ShiftConfig(jitter_sigma=0.05, density_factor=0.5,
                               class_dropout=(0, 0.3, 0, 0, 0, 0, 0), seed=11)
    target = stream.generate_sequence(stream.SceneConfig(seed=7, frames=FRAMES), shift)

    print(f"running the ablation ladder over {FRAMES} frames...\n")
    print(f"{'configuration':<14} {'mIoU':>8} {'improvement':>12}")
    for name, report in harness.run_ablation(target, params, harness.AdaptConfig()):
        print(f"{name:<14} {100 * report.cumulative_miou:7.2f}% "
              f"{100 * report.improvement:+11.2f}")


if __name__ == "__main__":
    main()
