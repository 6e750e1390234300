"""End-to-end command-line pipeline on a miniature scene."""

import numpy as np
import pytest

from streamseg import cli, harness, stream


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

    def test_eval_scores_dumped_predictions(self, pipeline, capsys):
        # identity mapping: canonical ids on both sides
        cmap = pipeline / "map.txt"
        cmap.write_text("\n".join(f"{i} {i}" for i in range(7)) + "\n")
        rc = cli.main(["eval", str(pipeline / "pred" / "seq"), str(pipeline / "seq"),
                       "--class-map", str(cmap)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mIoU" in out

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

    def test_invalid_config_is_an_error_line(self, pipeline, capsys):
        rc = cli.main(["adapt", str(pipeline / "seq"),
                       "--checkpoint", str(pipeline / "ckpt.bin"), "--window", "0"])
        assert rc == 1
        assert "error: window" in capsys.readouterr().err


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
