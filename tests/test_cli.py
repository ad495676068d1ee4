"""Command line driver: wiring, exit codes, and the synth/segment/eval loop."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynseg
from dynseg import cloud_io, pipeline
from dynseg.cli import (
    ConfigError,
    _config_keys,
    build_config,
    format_resolved_config,
    main,
    read_config_file,
)
from dynseg.cloud_io import SequenceManifest
from dynseg.supervoxel import KEY_RANGE_VOXELS

# format_resolved_config(build_config({})): every key, every default filled in
DEFAULT_RESOLVED = """\
cut.lambda_smooth=1.0
cut.mu_coherence=0.5
cut.sigma_boundary=0.08
energy.alpha=0.01
energy.beta=12.5
energy.delta=1.0
energy.gamma=2.0
energy.rho=1.5
ga.crossover_rate=0.7
ga.elitism=2
ga.generations=150
ga.mutation_rate=None
ga.population=50
ga.stagnation_stop=25
ga.tournament_size=3
graph.adjacency_radius=0.12
graph.sigma_color=30.0
graph.sigma_distance=0.08
overseg.min_segment_supervoxels=4
overseg.ncut_threshold=0.2
retention_frames=10
seed=0
supervoxel.max_iterations=10
supervoxel.seed_resolution=0.08
supervoxel.voxel_resolution=0.008
supervoxel.weight_color=0.2
supervoxel.weight_spatial=0.4
tree.candidate_gap=0.24
tree.merge_threshold=0.7
tree.sigma_color=30.0
tree.sigma_distance=0.16
tree.split_threshold=0.3
"""

# dynseg eval of a 12-frame approach_merge_split at 400 points per object, segmented at voxel 0.02
APPROACH_MERGE_SPLIT_EVAL = """\
 frame     error
     0    0.0000
     1    0.0000
     2    0.0000
     3    0.0000
     4    0.0000
     5    0.0000
     6    0.0000
     7    0.0000
     8    0.0000
     9    0.0012
    10    0.0000
    11    0.0000

mean error             0.0001
interactions found     1
interactions truth     1
interactions matched   1
precision              1.0000
recall                 1.0000

metrics v1
mean_error=0.000104
interactions_found=1
interactions_truth=1
interactions_matched=1
precision=1.000000
recall=1.000000
"""


class TestConfigPlumbing:
    def test_build_config_sets_nested_fields(self):
        cfg = build_config({"supervoxel.voxel_resolution": "0.02", "seed": "9"})
        assert cfg.supervoxel.voxel_resolution == 0.02
        assert cfg.seed == 9

    def test_build_config_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            build_config({"bogus.key": "1"})
        assert "bogus.key" in str(err.value)

    def test_build_config_bad_value(self):
        with pytest.raises(ConfigError):
            build_config({"tree.merge_threshold": "warm"})

    def test_none_spelling_clears_optional(self):
        cfg = build_config({"graph.adjacency_radius": "none"})
        assert cfg.graph.adjacency_radius is None
        cfg = build_config({"graph.adjacency_radius": "0.3"})
        assert cfg.graph.adjacency_radius == 0.3

    def test_internal_keys_are_not_configurable(self):
        with pytest.raises(ConfigError):
            build_config({"ga.rng_seed": "4"})
        with pytest.raises(ConfigError):
            build_config({"cut.seed_resolution": "0.1"})

    def test_resolved_dump_lists_defaults(self):
        assert format_resolved_config(build_config({})) == DEFAULT_RESOLVED
        assert sorted(_config_keys()) == [line.partition("=")[0] for line in DEFAULT_RESOLVED.splitlines()]

    def test_resolving_a_resolved_config_changes_nothing(self):
        cfg = build_config({"graph.adjacency_radius": "0.3"}).resolved()
        assert cfg.resolved() == cfg
        assert format_resolved_config(cfg) == format_resolved_config(build_config({"graph.adjacency_radius": "0.3"}))

    def test_read_config_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\nseed = 4\ntree.merge_threshold=0.8\n")
        assert read_config_file(str(p)) == {"seed": "4", "tree.merge_threshold": "0.8"}

    def test_read_config_file_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            read_config_file(str(tmp_path / "missing.cfg"))
        p = tmp_path / "bad.cfg"
        p.write_text("seed\n")
        with pytest.raises(ConfigError) as err:
            read_config_file(str(p))
        assert ":1:" in str(err.value)


class TestEndToEnd:
    def test_synth_segment_eval(self, tmp_path, capsys):
        spec = tmp_path / "scene.txt"
        spec.write_text("kind = static\nframes = 3\npoints_per_object = 1200\n")
        data = tmp_path / "data"
        run = tmp_path / "run"

        assert main(["synth", str(spec), "--out", str(data)]) == 0
        for name in ("manifest.txt", "frame_0000.txt", "gt_0002.txt", "interactions_gt.txt"):
            assert (data / name).exists()

        assert (
            main(
                [
                    "segment",
                    str(data / "manifest.txt"),
                    "--out",
                    str(run),
                    "--supervoxel.voxel_resolution",
                    "0.02",
                ]
            )
            == 0
        )
        resolved = (run / "config_resolved.txt").read_text()
        assert "supervoxel.voxel_resolution=0.02" in resolved
        for i in range(3):
            assert (run / f"labels_{i:04d}.txt").exists()
        assert (run / "interactions.txt").exists()
        assert (run / "report.txt").read_text().startswith("run v1")

        capsys.readouterr()
        assert main(["eval", str(run), str(data / "manifest.txt")]) == 0
        out = capsys.readouterr().out
        assert "metrics v1" in out
        assert "mean_error=0.000000" in out
        assert "interactions_truth=0" in out
        assert "recall=1.000000" in out

    def test_eval_scores_a_merge_and_split(self, tmp_path, capsys):
        """synth, segment and eval of two spheres that touch and part: the whole report, as first recorded."""
        spec = tmp_path / "scene.txt"
        spec.write_text("kind = approach_merge_split\nframes = 12\npoints_per_object = 400\n")
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(["synth", str(spec), "--out", str(data)]) == 0
        args = ["--out", str(run), "--supervoxel.voxel_resolution", "0.02"]
        assert main(["segment", str(data / "manifest.txt"), *args]) == 0
        capsys.readouterr()
        assert main(["eval", str(run), str(data / "manifest.txt")]) == 0
        assert capsys.readouterr().out == APPROACH_MERGE_SPLIT_EVAL

    def test_top_level_flags_reach_the_resolved_config(self, tmp_path):
        spec = tmp_path / "scene.txt"
        spec.write_text("kind = static\nframes = 1\npoints_per_object = 60\n")
        assert main(["synth", str(spec), "--out", str(tmp_path / "data")]) == 0
        run = tmp_path / "run"
        args = ["--out", str(run), "--retention_frames", "3", "--seed", "5", "--supervoxel.voxel_resolution", "0.02"]
        assert main(["segment", str(tmp_path / "data" / "manifest.txt"), *args]) == 0
        lines = (run / "config_resolved.txt").read_text().splitlines()
        assert "retention_frames=3" in lines
        assert "seed=5" in lines

    def test_segment_loads_each_frame_as_it_tracks_it(self, tmp_path, monkeypatch):
        spec = tmp_path / "scene.txt"
        spec.write_text("kind = static\nframes = 3\npoints_per_object = 60\n")
        assert main(["synth", str(spec), "--out", str(tmp_path / "data")]) == 0
        calls = []

        def logged(module, name):
            original = getattr(module, name)

            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, call)

        logged(cloud_io, "load_frame")
        logged(pipeline, "process_frame")
        args = ["--out", str(tmp_path / "run"), "--supervoxel.voxel_resolution", "0.02"]
        assert main(["segment", str(tmp_path / "data" / "manifest.txt"), *args]) == 0
        assert calls == ["load_frame", "process_frame"] * 3

    def test_synth_seed_override_is_deterministic(self, tmp_path):
        spec = tmp_path / "scene.txt"
        spec.write_text("kind = static\nframes = 1\npoints_per_object = 60\n")
        outs = []
        for name, seed in (("a", "9"), ("b", "9"), ("c", "10")):
            out = tmp_path / name
            assert main(["synth", str(spec), "--out", str(out), "--seed", seed]) == 0
            outs.append((out / "frame_0000.txt").read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]


class TestExitCodes:
    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus.key = 1\n")
        code = main(["segment", "unused.txt", "--config", str(cfg)])
        assert code == 1
        assert "bogus.key" in capsys.readouterr().err

    def test_bad_flag_value_is_config_error(self, tmp_path):
        assert main(["segment", "unused.txt", "--tree.merge_threshold", "warm"]) == 1

    @pytest.mark.parametrize(
        "key, value",
        [
            ("supervoxel.voxel_resolution", "nan"),
            ("supervoxel.seed_resolution", "inf"),
            ("energy.beta", "nan"),
            ("graph.adjacency_radius", "-inf"),
        ],
    )
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, key, value):
        assert main(["segment", str(tmp_path / "nope.txt"), f"--{key}={value}"]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key",
        [
            "tree.sigma_distance",
            "tree.sigma_color",
            "graph.sigma_color",
            "graph.sigma_distance",
            "cut.sigma_boundary",
            "ga.population",
        ],
    )
    def test_zero_scale_is_config_error(self, tmp_path, capsys, key):
        assert main(["segment", str(tmp_path / "nope.txt"), f"--{key}", "0"]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("supervoxel.voxel_resolution", "0"),
            ("supervoxel.seed_resolution", "0"),
            ("supervoxel.seed_resolution", "0.001"),  # below the default voxel, 0.008
            ("supervoxel.weight_color", "-1"),
            ("supervoxel.weight_spatial", "-1"),
            ("supervoxel.max_iterations", "0"),
        ],
    )
    def test_supervoxel_check_names_its_key(self, tmp_path, capsys, key, value):
        assert main(["segment", str(tmp_path / "nope.txt"), f"--{key}", value]) == 1
        assert f"config error: {key} must be" in capsys.readouterr().err

    def test_negative_retention_is_config_error(self, tmp_path, capsys):
        assert main(["segment", str(tmp_path / "nope.txt"), "--retention_frames", "-1"]) == 1
        assert "config error: retention_frames must be >= 0\n" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_tournament_below_one_is_config_error(self, tmp_path, capsys, value):
        assert main(["segment", str(tmp_path / "nope.txt"), "--ga.tournament_size", value]) == 1
        assert "ga.tournament_size" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-5", "-1"])
    def test_negative_elitism_is_config_error(self, tmp_path, capsys, value):
        # a population of 3 that stops after one stale generation sends these frames to the GA
        spec = tmp_path / "scene.txt"
        spec.write_text("kind = approach_merge_split\nframes = 8\npoints_per_object = 300\n")
        assert main(["synth", str(spec), "--out", str(tmp_path / "data")]) == 0
        args = ["--out", str(tmp_path / "run"), "--supervoxel.voxel_resolution", "0.02"]
        args += ["--ga.population", "3", "--ga.stagnation_stop", "1", "--ga.elitism", value]
        capsys.readouterr()
        assert main(["segment", str(tmp_path / "data" / "manifest.txt"), *args]) == 1
        assert "ga.elitism" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "key, value", [("cut.lambda_smooth", "-1"), ("cut.mu_coherence", "-0.5"), ("ga.stagnation_stop", "-2")]
    )
    def test_negative_solver_weight_is_config_error(self, tmp_path, capsys, key, value):
        assert main(["segment", str(tmp_path / "nope.txt"), f"--{key}", value]) == 1
        assert f"config error: {key} must be >= 0" in capsys.readouterr().err

    def _frame_manifest(self, tmp_path, points):
        rng = np.random.default_rng(3)
        cloud = np.vstack([rng.uniform(0.0, 0.1, size=(60, 3)), points])
        frame = tmp_path / "frame_0000.txt"
        cloud_io.write_frame(cloud_io.PointCloudFrame(0, cloud, np.full((len(cloud), 3), 90)), str(frame))
        manifest = tmp_path / "manifest.txt"
        cloud_io.write_manifest(SequenceManifest(name="x", frame_paths=[str(frame)]), str(manifest))
        return manifest

    def test_coordinate_beyond_the_voxel_grid_is_data_error(self, tmp_path, capsys):
        manifest = self._frame_manifest(tmp_path, [[3e17, 0.0, 0.0], [-3e17, 0.0, 0.0]])
        args = ["--out", str(tmp_path / "run"), "--supervoxel.voxel_resolution", "0.02"]
        assert main(["segment", str(manifest), *args]) == 2
        err = capsys.readouterr().err
        assert f"data error: {tmp_path / 'frame_0000.txt'}: coordinate 3e+17 lies" in err
        assert not (tmp_path / "run").exists()

    def test_coordinate_just_inside_the_voxel_grid_segments(self, tmp_path):
        edge = 0.9999 * KEY_RANGE_VOXELS * 0.02
        manifest = self._frame_manifest(tmp_path, [[edge, 0.0, 0.0], [-edge, 0.0, 0.0], [0.0, edge, -edge]])
        args = ["--out", str(tmp_path / "run"), "--supervoxel.voxel_resolution", "0.02"]
        assert main(["segment", str(manifest), *args]) == 0
        assert len(cloud_io.read_label_file(tmp_path / "run" / "labels_0000.txt")[0]) == 63

    def test_missing_manifest_is_data_error(self, tmp_path):
        assert main(["segment", str(tmp_path / "nope.txt")]) == 2

    def test_missing_spec_is_config_error(self, tmp_path):
        assert main(["synth", str(tmp_path / "nope.txt")]) == 1

    def test_bad_scenario_kind_is_config_error(self, tmp_path):
        spec = tmp_path / "scene.txt"
        spec.write_text("kind = wobble\n")
        assert main(["synth", str(spec)]) == 1

    def test_spec_parse_error_names_the_file_and_line(self, tmp_path, capsys):
        spec = tmp_path / "spec_bad.txt"
        spec.write_text("kind = static\nframes: 3\n")
        assert main(["synth", str(spec)]) == 1
        assert f"{spec}:2: expected key=value, got 'frames: 3'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, field",
        [
            ("contact_threshold = nan", "contact_threshold"),
            ("contact_threshold = -1", "contact_threshold"),
            ("contact_threshold = 0", "contact_threshold"),
            ("noise_sigma = -1", "noise_sigma"),
            ("noise_sigma = nan", "noise_sigma"),
            ("noise_sigma = inf", "noise_sigma"),
            ("frames = 0", "frame_count"),
            ("frames = -1", "frame_count"),
        ],
    )
    def test_invalid_spec_value_names_the_file_and_field(self, tmp_path, capsys, line, field):
        spec = tmp_path / "spec_bad.txt"
        spec.write_text(f"kind = approach_merge_split\n{line}\n")
        out = tmp_path / "data"
        assert main(["synth", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{spec}: {field} must be" in err
        assert not out.exists()

    def test_eval_without_gt_is_data_error(self, tmp_path):
        frame = tmp_path / "frame_0000.txt"
        cloud_io.write_frame(
            cloud_io.PointCloudFrame(0, [[0.0, 0.0, 0.0]], [[10, 10, 10]]), str(frame)
        )
        manifest = tmp_path / "manifest.txt"
        cloud_io.write_manifest(
            SequenceManifest(name="x", frame_paths=[str(frame)], gt_paths=[]), str(manifest)
        )
        assert main(["eval", str(tmp_path), str(manifest)]) == 2

    def test_seed_below_voxel_size_is_config_error_before_loading(self, tmp_path, capsys):
        # the manifest does not exist: the config is checked first
        code = main(
            [
                "segment",
                str(tmp_path / "nope.txt"),
                "--supervoxel.voxel_resolution",
                "0.02",
                "--supervoxel.seed_resolution",
                "0.01",
            ]
        )
        assert code == 1
        assert "seed_resolution" in capsys.readouterr().err

    def test_manifest_naming_missing_frame_is_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("frame frame_0000.txt\n")
        assert main(["segment", str(manifest), "--out", str(tmp_path / "run")]) == 2
        assert "frame_0000.txt" in capsys.readouterr().err

    def test_malformed_later_frame_is_data_error_with_no_output(self, tmp_path, capsys):
        spec = tmp_path / "scene.txt"
        spec.write_text("kind = static\nframes = 5\npoints_per_object = 60\n")
        assert main(["synth", str(spec), "--out", str(tmp_path / "data")]) == 0
        (tmp_path / "data" / "frame_0003.txt").write_text("ptseq v1\npoints 2\n0 0 0 1 2 3\n")
        code = main(["segment", str(tmp_path / "data" / "manifest.txt"), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "frame_0003.txt" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_stage_value_error_is_pipeline_error(self, tmp_path, capsys, monkeypatch):
        spec = tmp_path / "scene.txt"
        spec.write_text("kind = static\nframes = 1\npoints_per_object = 60\n")
        assert main(["synth", str(spec), "--out", str(tmp_path / "data")]) == 0

        def broken(frame, config, reach):
            raise ValueError("stage invariant broken")

        monkeypatch.setattr("dynseg.pipeline.cluster_supervoxels", broken)
        code = main(["segment", str(tmp_path / "data" / "manifest.txt"), "--out", str(tmp_path / "run")])
        assert code == 3
        assert "pipeline error: ValueError: stage invariant broken" in capsys.readouterr().err

    def test_eval_labels_not_fitting_manifest_is_data_error(self, tmp_path):
        frame = tmp_path / "frame_0000.txt"
        gt = tmp_path / "gt_0000.txt"
        cloud_io.write_frame(
            cloud_io.PointCloudFrame(0, [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], [[1, 2, 3], [4, 5, 6]]), str(frame)
        )
        cloud_io.write_ground_truth([0, 1], str(gt))
        manifest = tmp_path / "manifest.txt"
        cloud_io.write_manifest(
            SequenceManifest(name="x", frame_paths=[str(frame)], gt_paths=[str(gt)]), str(manifest)
        )
        run = tmp_path / "run"
        run.mkdir()
        cloud_io.write_labels(cloud_io.LabeledFrame(0, [0, 0, 0]), str(run / "labels_0000.txt"))
        assert main(["eval", str(run), str(manifest)]) == 2

    @pytest.mark.parametrize(
        "gt_value, label_value",
        [("99999999999999999999", "0"), ("-99999999999999999999", "0"), ("0", "99999999999999999999")],
    )
    def test_eval_label_outside_int64_is_data_error(self, tmp_path, capsys, gt_value, label_value):
        frame = tmp_path / "frame_0000.txt"
        cloud_io.write_frame(cloud_io.PointCloudFrame(0, [[0.0, 0.0, 0.0]], [[1, 2, 3]]), str(frame))
        gt = tmp_path / "gt_0000.txt"
        gt.write_text(f"ptlab v1 1\n{gt_value}\n")
        manifest = tmp_path / "manifest.txt"
        cloud_io.write_manifest(
            SequenceManifest(name="x", frame_paths=[str(frame)], gt_paths=[str(gt)]), str(manifest)
        )
        run = tmp_path / "run"
        run.mkdir()
        (run / "labels_0000.txt").write_text(f"0 0 {label_value}\n")
        assert main(["eval", str(run), str(manifest)]) == 2
        bad = "gt_0000.txt:2: label" if gt_value != "0" else "labels_0000.txt:1: field"
        assert f"{bad} outside int64" in capsys.readouterr().err

    def test_unknown_flag_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["segment", "m.txt", "--ga.rng_seed", "4"])

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_bad_seed_is_config_error(self, tmp_path, capsys, source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = abc\n")
        args = ["--seed", "abc"] if source == "flag" else ["--config", str(cfg)]
        assert main(["segment", str(tmp_path / "nope.txt"), *args]) == 1
        assert "config error: bad value for 'seed': 'abc'" in capsys.readouterr().err

    def test_synth_takes_no_config_file(self, tmp_path):
        spec = tmp_path / "scene.txt"
        spec.write_text("kind = static\nframes = 1\npoints_per_object = 60\n")
        with pytest.raises(SystemExit) as exit_:
            main(["synth", str(spec), "--out", str(tmp_path / "data"), "--config", str(tmp_path / "nonexistent.cfg")])
        assert exit_.value.code == 2
        assert not (tmp_path / "data").exists()


class TestInspect:
    def test_inspect_frame_gt_and_interactions(self, tmp_path, capsys):
        frame_path = tmp_path / "f.txt"
        cloud_io.write_frame(
            cloud_io.PointCloudFrame(0, [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], [[1, 2, 3], [4, 5, 6]]),
            str(frame_path),
        )
        assert main(["inspect", str(frame_path)]) == 0
        out = capsys.readouterr().out
        assert "frame file: 2 points" in out
        assert "bbox" in out

        gt_path = tmp_path / "g.txt"
        cloud_io.write_ground_truth([0, 0, 1], str(gt_path))
        assert main(["inspect", str(gt_path)]) == 0
        out = capsys.readouterr().out
        assert "label file: 3 entries, 2 ids" in out

        # the loaders skip leading comments, so inspect does too
        commented_frame = tmp_path / "cf.txt"
        commented_frame.write_text("# head\nptseq v1 1\n0 0 0 1 2 3\n")
        assert main(["inspect", str(commented_frame)]) == 0
        assert "frame file: 1 points" in capsys.readouterr().out
        commented_gt = tmp_path / "cg.txt"
        commented_gt.write_text("# note\nptlab v1 2\n0\n1\n")
        assert main(["inspect", str(commented_gt)]) == 0
        assert "label file: 2 entries, 2 ids" in capsys.readouterr().out

        log_path = tmp_path / "i.txt"
        cloud_io.write_interaction_log(
            [cloud_io.InteractionRecord(2, 5, 0, (0, 1))], str(log_path)
        )
        assert main(["inspect", str(log_path)]) == 0
        assert capsys.readouterr().out == "interaction log: 1 events\ninteraction frames 2-5 objects 0 1\n"

        labels_path = tmp_path / "labels_0004.txt"
        cloud_io.write_labels(cloud_io.LabeledFrame(4, [0, 0, 7]), str(labels_path))
        assert main(["inspect", str(labels_path)]) == 0
        assert "point label file: 1 frames, 3 points, 2 objects" in capsys.readouterr().out

    def test_inspect_empty_interaction_log(self, tmp_path, capsys):
        # the log holds only its header, which no other format's first line matches
        log_path = tmp_path / "interactions.txt"
        cloud_io.write_interaction_log([], str(log_path))
        assert log_path.read_text() == cloud_io.INTERACTION_HEADER + "\n"
        assert main(["inspect", str(log_path)]) == 0
        assert capsys.readouterr().out == "interaction log: 0 events\n"

    def test_inspect_reads_label_fields_as_int_does(self, tmp_path, capsys):
        # the fields read_label_file and dynseg eval accept, such as "+1", mark a point label file
        p = tmp_path / "labels_0000.txt"
        p.write_text("0 0 +1\n0 1 2\n")
        assert main(["inspect", str(p)]) == 0
        assert "point label file: 1 frames, 2 points, 2 objects" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["99999999999999999999", "-99999999999999999999"])
    def test_inspect_label_outside_int64_is_data_error(self, tmp_path, capsys, value):
        p = tmp_path / "gt.txt"
        p.write_text(f"ptlab v1 1\n{value}\n")
        assert main(["inspect", str(p)]) == 2
        assert f"gt.txt:2: label outside int64 in '{value}'" in capsys.readouterr().err

    def test_inspect_garbage_is_data_error(self, tmp_path):
        p = tmp_path / "junk.txt"
        p.write_text("whatever 1 2 3\n")
        assert main(["inspect", str(p)]) == 2

    def test_inspect_binary_file_is_data_error(self, tmp_path):
        p = tmp_path / "blob.bin"
        p.write_bytes(b"\xff\xfe\x00\x81 binary")
        assert main(["inspect", str(p)]) == 2

    def test_inspect_missing_file_is_data_error(self, tmp_path):
        assert main(["inspect", str(tmp_path / "missing.txt")]) == 2


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    """Only synth and eval need the evaluator, and only scoring needs linear_sum_assignment.

    So ``dynseg segment`` pays for neither dynseg.evaluation nor scipy.optimize.
    """
    src = str(Path(dynseg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import sys, dynseg; print(any(m.startswith('dynseg.') for m in sys.modules)); "
        "import dynseg.cli; print('scipy.optimize' in sys.modules, 'dynseg.evaluation' in sys.modules); "
        "import dynseg.evaluation; print('scipy.optimize' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "False", "False", "False"]


def test_segmenting_leaves_scipy_spatial_and_special_unloaded(tmp_path):
    """Neighbour queries are numpy, so a whole ``dynseg segment`` run loads neither scipy.spatial nor scipy.special."""
    spec = tmp_path / "scene.txt"
    spec.write_text("kind = approach_merge_split\nframes = 6\npoints_per_object = 400\n")
    assert main(["synth", str(spec), "--out", str(tmp_path / "data")]) == 0
    src = str(Path(dynseg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["segment", str(tmp_path / "data" / "manifest.txt"), "--out", str(tmp_path / "run")]
    probe = (
        f"import sys; from dynseg.cli import main; code = main({argv!r}); "
        "print(code, 'scipy.spatial' in sys.modules, 'scipy.special' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split()[-3:] == ["0", "False", "False"]
