"""Quickstart: pretrain on a clean stream, adapt on a shifted one.

Generates a small synthetic corridor scene, fits the source segmenter on a
labeled clean sequence, then replays a shifted version of the same world
(noisier sensor, half the point density, a third of the pedestrians gone)
while adapting online. Prints the per-class report of both runs.

Runtime: a few minutes on one core.
"""

from streamseg import harness, model, stream

SCENE_SEED = 7
SOURCE_FRAMES = 25
TARGET_FRAMES = 60


def feature_fn(frame):
    return harness.frame_features(frame, 20)[1]


def main():
    print("generating source stream...")
    scene = stream.SceneConfig(seed=SCENE_SEED, frames=SOURCE_FRAMES)
    source = stream.generate_sequence(scene, stream.ShiftConfig())

    # a jittered copy of the training pass makes the backbone tolerant to
    # the sensor noise it will meet at test time
    sequences = [source] + stream.jittered_copies([source], 0.05, seed=0)

    print("pretraining source model (20 epochs)...")
    params, history = model.pretrain_source(
        sequences, epochs=20, seed=0, feature_fn=feature_fn,
        num_classes=7, head_epochs=9)
    print(f"  epoch loss {history[0]:.4f} -> {history[-1]:.4f}")

    print("generating shifted target stream...")
    target_scene = stream.SceneConfig(seed=SCENE_SEED, frames=TARGET_FRAMES)
    shift = stream.ShiftConfig(jitter_sigma=0.05, density_factor=0.5,
                               class_dropout=(0, 0.3, 0, 0, 0, 0, 0), seed=11)
    target = stream.generate_sequence(target_scene, shift)

    print("running online adaptation...")
    adapted, _ = harness.run_tta(target, params, harness.AdaptConfig())
    print()
    print(adapted.table_text())


if __name__ == "__main__":
    main()
