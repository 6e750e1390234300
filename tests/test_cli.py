"""End-to-end command-line pipeline on a miniature scene."""

import argparse
import dataclasses
import shutil

import numpy as np
import pytest

from streamseg import cli, harness, model, stream
from streamseg.core import Frame
from test_model import save_tensors


TINY_SCENE = """\
seed = 4
frames = 6
point_density = 1.0
sensor_range = 20
vehicle_spacing = 10
pedestrian_spacing = 8
vegetation_spacing = 9
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """generate -> pretrain once for the whole module."""
    root = tmp_path_factory.mktemp("cli")
    scene = root / "scene.cfg"
    scene.write_text(TINY_SCENE)
    assert cli.main(["generate", str(root / "seq"), "--scene", str(scene)]) == 0
    assert cli.main(["pretrain", str(root / "seq"), "--out", str(root / "ckpt.bin"),
                     "--epochs", "2"]) == 0
    return root


class TestFlagPlumbing:
    def parse(self, *extra):
        return cli.build_parser().parse_args(
            ["adapt", "seq", "--checkpoint", "x"] + list(extra))

    def test_defaults_match_adapt_config(self):
        cfg = cli._config_from_args(self.parse())
        assert cfg == harness.AdaptConfig()

    def test_pretrain_k_feat_default_follows_adapt_config(self, monkeypatch):
        # a checkpoint is only valid on features of the k_feat it was trained with
        monkeypatch.setattr(harness.AdaptConfig, "k_feat", 12)
        args = cli.build_parser().parse_args(["pretrain", "seq", "--out", "x"])
        assert args.k_feat == 12

    def test_lambda_maps_to_lam(self):
        cfg = cli._config_from_args(self.parse("--lambda", "55"))
        assert cfg.lam == pytest.approx(55.0)

    def test_ablate_takes_no_module_switches(self, capsys):
        # every ladder row sets the module switches itself
        for switch in ("--no-ggf", "--no-tgr", "--no-cw", "--no-alg", "--no-lgl"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["ablate", "seq", "--checkpoint", "x", switch])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {switch}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["adapt", "ablate"])
    def test_every_flag_is_a_config_field_or_io(self, command):
        # `_config_from_args` drops any dest that is not an AdaptConfig field
        io = {"sequences", "sequence", "checkpoint", "class_map", "report", "dump_pred",
              "continual"}
        fields = {f.name for f in dataclasses.fields(harness.AdaptConfig)}
        [sub] = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        dests = {a.dest for a in sub.choices[command]._actions
                 if not isinstance(a, argparse._HelpAction)}
        assert dests <= fields | io, dests - fields - io
        if command == "adapt":
            assert fields <= dests, fields - dests

    def test_ablation_toggles(self):
        cfg = cli._config_from_args(self.parse("--no-tgr", "--no-alg"))
        assert not cfg.use_tgr and not cfg.use_alg
        assert cfg.use_ggf and cfg.use_cw
        # the local module has no switch: --k 0 turns it off
        assert cli._config_from_args(self.parse("--k", "0")).k == 0
        with pytest.raises(SystemExit):
            self.parse("--no-lgl")


class TestPipeline:
    def test_generate_layout(self, pipeline):
        seq = pipeline / "seq"
        assert len(list(seq.glob("*.bin"))) == 6
        assert len(list(seq.glob("*.label"))) == 6
        assert (seq / "poses.txt").exists()

    def test_adapt_writes_report_and_predictions(self, pipeline):
        rc = cli.main(["adapt", str(pipeline / "seq"),
                       "--checkpoint", str(pipeline / "ckpt.bin"),
                       "--report", str(pipeline / "report.csv"),
                       "--dump-pred", str(pipeline / "pred")])
        assert rc == 0
        report = (pipeline / "report.csv").read_text()
        assert report.splitlines()[0].startswith("frame,")
        assert len(report.splitlines()) == 7  # header + 6 frames
        dumped = list((pipeline / "pred" / "seq").glob("*.label"))
        assert len(dumped) == 6

    def test_eval_scores_dumped_predictions(self, pipeline, tmp_path, capsys):
        assert cli.main(["adapt", str(pipeline / "seq"),
                         "--checkpoint", str(pipeline / "ckpt.bin"),
                         "--dump-pred", str(tmp_path / "pred")]) == 0
        # identity mapping: canonical ids on both sides
        cmap = tmp_path / "map.txt"
        cmap.write_text("\n".join(f"{i} {i}" for i in range(7)) + "\n")
        rc = cli.main(["eval", str(tmp_path / "pred" / "seq"), str(pipeline / "seq"),
                       "--class-map", str(cmap)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mIoU" in out

    def test_adapt_table_and_eval_print_the_same_scores(self, pipeline, tmp_path, capsys):
        assert cli.main(["adapt", str(pipeline / "seq"),
                         "--checkpoint", str(pipeline / "ckpt.bin"),
                         "--dump-pred", str(tmp_path / "pred")]) == 0
        adapt_out = capsys.readouterr().out
        cmap = tmp_path / "map.txt"
        cmap.write_text("\n".join(f"{i} {i}" for i in range(7)) + "\n")
        assert cli.main(["eval", str(tmp_path / "pred" / "seq"), str(pipeline / "seq"),
                         "--class-map", str(cmap)]) == 0
        eval_out = capsys.readouterr().out
        # adapt names the classes class0.. and eval the canonical names; the values agree
        adapt_lines = adapt_out.split("\n\n", 1)[1].strip().splitlines()
        eval_lines = eval_out.strip().splitlines()
        assert len(adapt_lines) == len(eval_lines) == 8
        assert adapt_lines[-1].startswith("mIoU") and eval_lines[-1].startswith("mIoU")
        assert ([line.split()[-1] for line in adapt_lines]
                == [line.split()[-1] for line in eval_lines])

    def test_ablate_prints_ladder(self, pipeline, capsys):
        rc = cli.main(["ablate", str(pipeline / "seq"),
                       "--checkpoint", str(pipeline / "ckpt.bin")])
        assert rc == 0
        out = capsys.readouterr().out
        for name, _ in harness.ABLATION_LADDER:
            assert name in out

    def test_continual_flag_runs(self, pipeline):
        rc = cli.main(["adapt", str(pipeline / "seq"), str(pipeline / "seq"),
                       "--checkpoint", str(pipeline / "ckpt.bin"), "--continual"])
        assert rc == 0

    @pytest.mark.parametrize("option", ["--dump-pred", "--report"])
    def test_outputs_of_two_sequences_with_one_name_are_an_error_line(
            self, pipeline, tmp_path, capsys, monkeypatch, option):
        seqs = [tmp_path / parent / "seq" for parent in ("a", "b")]
        for seq in seqs:
            shutil.copytree(pipeline / "seq", seq)
        monkeypatch.setattr(harness, "run_tta", None)   # no sequence may be adapted
        out = tmp_path / "out"
        rc = cli.main(["adapt", *map(str, seqs), "--checkpoint", str(pipeline / "ckpt.bin"),
                       option, str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(seqs[0]) in err and str(seqs[1]) in err
        assert list(tmp_path.glob("out*")) == []

    def test_invalid_config_is_an_error_line(self, pipeline, capsys):
        rc = cli.main(["adapt", str(pipeline / "seq"),
                       "--checkpoint", str(pipeline / "ckpt.bin"), "--window", "0"])
        assert rc == 1
        assert "error: window" in capsys.readouterr().err

    def test_alpha_of_one_is_an_error_line(self, pipeline, capsys):
        rc = cli.main(["adapt", str(pipeline / "seq"),
                       "--checkpoint", str(pipeline / "ckpt.bin"), "--alpha", "1.0"])
        assert rc == 1
        assert "error: alpha" in capsys.readouterr().err

    def test_zero_epochs_is_an_error_line_and_writes_no_checkpoint(self, pipeline, tmp_path,
                                                                   capsys):
        ckpt = tmp_path / "ckpt.bin"
        rc = cli.main(["pretrain", str(pipeline / "seq"), "--out", str(ckpt), "--epochs", "0"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: epochs")
        assert not ckpt.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--classes", "3", "error: frame 0: ground-truth label "),
        ("--classes", "0", "error: num_classes "),
        ("--lr", "-1", "error: lr "),
        ("--lr", "inf", "error: lr must be finite"),
        ("--wd", "inf", "error: wd must be finite"),
        ("--head-epochs", "-1", "error: head_epochs "),
        ("--k-feat", "2", "error: k_feat "),
        ("--seed", "-1", "error: seed "),
        ("--jitter-aug", "-0.5", "error: jitter sigma "),
    ], ids=["labels-outside-classes", "no-classes", "negative-lr", "infinite-lr",
            "infinite-wd", "negative-head-epochs", "small-k-feat", "negative-seed",
            "negative-jitter"])
    def test_invalid_pretrain_input_is_an_error_line_and_writes_no_checkpoint(
            self, pipeline, tmp_path, capsys, flag, value, message):
        ckpt = tmp_path / "ckpt.bin"
        rc = cli.main(["pretrain", str(pipeline / "seq"), "--out", str(ckpt), flag, value])
        assert rc == 1
        assert capsys.readouterr().err.startswith(message)
        assert not ckpt.exists()


    @pytest.mark.parametrize("pose, message", [
        ("nan " * 12, "error: frame 2: pose must be a finite 4x4 matrix"),
        ("2 0 0 0 0 1 0 0 0 0 1 0", "error: frame 2: rotation block is not orthonormal"),
    ], ids=["nan", "scaled"])
    def test_invalid_pose_in_pretrain_is_an_error_line_and_writes_no_checkpoint(
            self, pipeline, tmp_path, capsys, pose, message):
        seq = tmp_path / "seq"
        shutil.copytree(pipeline / "seq", seq)
        poses = (seq / "poses.txt").read_text().splitlines()
        poses[2] = pose
        (seq / "poses.txt").write_text("\n".join(poses) + "\n")
        ckpt = tmp_path / "ckpt.bin"
        assert cli.main(["pretrain", str(seq), "--out", str(ckpt)]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not ckpt.exists()

    def test_negative_seed_with_jitter_is_an_error_line_and_writes_no_checkpoint(
            self, pipeline, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.bin"
        rc = cli.main(["pretrain", str(pipeline / "seq"), "--out", str(ckpt),
                       "--jitter-aug", "0.05", "--seed", "-1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: seed ")
        assert not ckpt.exists()

    @pytest.mark.parametrize("command", ["adapt", "ablate"])
    def test_non_finite_checkpoint_is_an_error_line(self, pipeline, tmp_path, capsys,
                                                    command):
        params = model.NetworkParams.load(pipeline / "ckpt.bin")
        params.tensors["embed_w"][0, 0] = np.nan
        ckpt = tmp_path / "nan.bin"
        params.save(ckpt)
        assert cli.main([command, str(pipeline / "seq"), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: tensor embed_w ")

    @pytest.mark.parametrize("classifier, message", [
        ((np.zeros(32 * 7), np.zeros(7)), "inconsistent shapes for layer classifier"),
        ((np.zeros((32, 1)), np.zeros(1)), "checkpoint has 1 classes"),
    ], ids=["rank-one-weight", "one-class"])
    def test_malformed_checkpoint_in_adapt_is_an_error_line(self, pipeline, tmp_path, capsys,
                                                            classifier, message):
        params = model.NetworkParams.load(pipeline / "ckpt.bin")
        tensors = [params.tensors[name] for name in params.names()]
        tensors[6:8] = classifier
        ckpt = tmp_path / "bad.bin"
        save_tensors(ckpt, tensors)
        assert cli.main(["adapt", str(pipeline / "seq"), "--checkpoint", str(ckpt)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {ckpt}: {message}")


class TestErrorPaths:
    def test_missing_sequence_dir(self, tmp_path, capsys):
        ckpt = tmp_path / "none.bin"
        assert cli.main(["adapt", str(tmp_path / "nope"),
                         "--checkpoint", str(ckpt)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_scene_config(self, tmp_path, capsys):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text("frames=0\n")
        assert cli.main(["generate", str(tmp_path / "seq"), "--scene", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_count_mismatch(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        stream.write_label_file(a / "000000.label", np.zeros(3, dtype=np.int64))
        assert cli.main(["eval", str(a), str(b)]) == 1

    def test_eval_length_mismatch_names_the_frame(self, tmp_path, capsys):
        pred = tmp_path / "pred"
        gt = tmp_path / "gt"
        pred.mkdir(), gt.mkdir()
        stream.write_label_file(pred / "000004.label", np.zeros(3, dtype=np.int64))
        stream.write_label_file(gt / "000004.label", np.zeros(5, dtype=np.int64))
        assert cli.main(["eval", str(pred), str(gt)]) == 1
        assert "error: frame 000004" in capsys.readouterr().err

    def test_eval_out_of_range_prediction_names_the_frame(self, tmp_path, capsys):
        pred = tmp_path / "pred"
        gt = tmp_path / "gt"
        pred.mkdir(), gt.mkdir()
        for stem, ids in (("000001", [0, 1, 2]), ("000002", [0, 9, 2])):
            stream.write_label_file(pred / f"{stem}.label", np.array(ids))
            stream.write_label_file(gt / f"{stem}.label", np.array([0, 6, 2]))
        assert cli.main(["eval", str(pred), str(gt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: frame 000002: predicted class id 9 is outside [0, 7)")

    @pytest.mark.parametrize("table, message", [
        ("0 0\n1 2 3\n", "map.txt:2: expected 'raw_id canonical_id'"),
        ("0 0\nseven 1\n", "map.txt:2: expected 'raw_id canonical_id'"),
        ("0 0\n0 1\n", "map.txt:2: raw id 0 mapped twice"),
        ("0 0\n1 9\n", "raw id 1 maps to out-of-range canonical id 9"),
    ], ids=["malformed", "non-integer", "duplicate", "out-of-range"])
    def test_eval_bad_class_map_is_an_error_line(self, tmp_path, capsys, table, message):
        labels = tmp_path / "labels"
        labels.mkdir()
        stream.write_label_file(labels / "000000.label", np.zeros(3, dtype=np.int64))
        cmap = tmp_path / "map.txt"
        cmap.write_text(table)
        assert cli.main(["eval", str(labels), str(labels), "--class-map", str(cmap)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_eval_missing_class_map_is_an_error_line(self, tmp_path, capsys):
        labels = tmp_path / "labels"
        labels.mkdir()
        assert cli.main(["eval", str(labels), str(labels),
                         "--class-map", str(tmp_path / "none.txt")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_eval_pairs_files_by_stem(self, tmp_path, capsys):
        pred = tmp_path / "pred"
        gt = tmp_path / "gt"
        pred.mkdir(), gt.mkdir()
        labels = np.zeros(3, dtype=np.int64)
        for stem in ("000001", "000002"):
            stream.write_label_file(pred / f"{stem}.label", labels)
        for stem in ("000000", "000001"):
            stream.write_label_file(gt / f"{stem}.label", labels)
        assert cli.main(["eval", str(pred), str(gt)]) == 1
        err = capsys.readouterr().err
        assert "000000" in err and "000002" in err

    def test_eval_of_empty_directories_is_an_error_line(self, tmp_path, capsys):
        pred = tmp_path / "pred"
        gt = tmp_path / "gt"
        pred.mkdir(), gt.mkdir()
        assert cli.main(["eval", str(pred), str(gt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(pred) in err and str(gt) in err

    def test_eval_of_a_torn_label_file_is_an_error_line(self, tmp_path, capsys):
        # 3 labels plus 2 stray bytes: not a whole number of uint32 records
        pred = tmp_path / "pred"
        gt = tmp_path / "gt"
        pred.mkdir(), gt.mkdir()
        stream.write_label_file(gt / "000000.label", np.zeros(3, dtype=np.int64))
        torn = pred / "000000.label"
        torn.write_bytes((gt / "000000.label").read_bytes() + b"\x00\x00")
        assert cli.main(["eval", str(pred), str(gt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(torn) in err

    def test_non_numeric_scene_value_names_the_line(self, tmp_path, capsys):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text("seed = 1\nframes=ten\n")
        assert cli.main(["generate", str(tmp_path / "seq"), "--scene", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{cfg}:2" in err

    @pytest.mark.parametrize("option, text", [("--scene", "seed = -1\n"),
                                              ("--shift", "seed = -3\n")],
                             ids=["scene", "shift"])
    def test_negative_seed_in_a_config_file_is_an_error_line(self, tmp_path, capsys,
                                                             option, text):
        cfg = tmp_path / "config.cfg"
        cfg.write_text(text)
        assert cli.main(["generate", str(tmp_path / "seq"), option, str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: seed must be >= 0, got -")
        assert not (tmp_path / "seq").exists()

    @pytest.mark.parametrize("option, key", [("--scene", "point_density"),
                                             ("--scene", "wall_height"),
                                             ("--shift", "density_factor"),
                                             ("--shift", "jitter_sigma")])
    def test_nan_in_a_config_file_is_an_error_line(self, tmp_path, capsys, option, key):
        cfg = tmp_path / "config.cfg"
        cfg.write_text(f"{key} = nan\n")
        assert cli.main(["generate", str(tmp_path / "seq"), option, str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be finite and ")
        assert not (tmp_path / "seq").exists()

    def test_missing_scene_file_is_an_error_line(self, tmp_path, capsys):
        missing = tmp_path / "none.cfg"
        assert cli.main(["generate", str(tmp_path / "seq"), "--scene", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    def test_non_numeric_pose_names_the_line(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        frames = [Frame(i, rng.normal(size=(30, 3)), np.eye(4)) for i in range(2)]
        seq = tmp_path / "seq"
        stream.write_sequence(frames, seq)
        poses = (seq / "poses.txt").read_text().splitlines()
        poses[1] = poses[1].replace("1", "x", 1)
        (seq / "poses.txt").write_text("\n".join(poses) + "\n")
        ckpt = tmp_path / "ckpt.bin"
        model.NetworkParams.init(9, 7).save(ckpt)
        assert cli.main(["adapt", str(seq), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "poses.txt: line 2" in err

    def test_scene_file_that_is_not_utf8_is_an_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "scene.cfg"
        cfg.write_bytes(b"\xff\xfe\x00seed = 1\n")
        assert cli.main(["generate", str(tmp_path / "seq"), "--scene", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg) in err

    def test_class_map_that_is_not_utf8_is_an_error_line(self, tmp_path, capsys):
        labels = tmp_path / "labels"
        labels.mkdir()
        stream.write_label_file(labels / "000000.label", np.zeros(3, dtype=np.int64))
        cmap = tmp_path / "map.txt"
        cmap.write_bytes(b"\xff\xfe\x000 0\n")
        assert cli.main(["eval", str(labels), str(labels), "--class-map", str(cmap)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cmap) in err

    def test_unreadable_frame_file_is_an_error_line(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        seq = tmp_path / "seq"
        stream.write_sequence([Frame(i, rng.normal(size=(30, 3)), np.eye(4)) for i in range(2)],
                              seq)
        (seq / "000000.bin").unlink()
        (seq / "000000.bin").mkdir()
        ckpt = tmp_path / "ckpt.bin"
        model.NetworkParams.init(9, 7).save(ckpt)
        assert cli.main(["adapt", str(seq), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "000000.bin" in err
