import shlex
from pathlib import Path

import numpy as np
import pytest

from mvreg import (
    MalformedConfig,
    PointCloud,
    PoseGraph,
    PipelineConfig,
    pairwise_chain_absolute,
    read_config,
    read_features,
    read_ply,
    read_trajectory,
    register_pair,
    run_multiview,
    TrajectoryEntry,
    transform_points,
    write_features,
    write_ply,
    write_trajectory,
    trajectory_from_motions,
)
from mvreg.cli import _read_edge_list, _scan_paths, build_parser, cli_main
from mvreg.synthetic import random_motion


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    parsed = {}
    for line in out.strip().splitlines():
        key, _, rest = line.partition(" ")
        parsed.setdefault(key, []).append(rest)
    return parsed


class TestPairwiseCommand:
    def test_identical_clouds(self, tmp_path, capsys, rng):
        pts = rng.uniform(-1, 1, size=(50, 3))
        src, dst = tmp_path / "a.ply", tmp_path / "b.ply"
        write_ply(PointCloud(pts), src)
        write_ply(PointCloud(pts), dst)
        code, out, _ = run_cli(
            capsys, "pairwise", str(src), str(dst), "--temperature", "1e-6"
        )
        assert code == 0
        kv = parse_kv(out)
        motion = np.array([float(v) for v in kv["motion"][0].split()]).reshape(4, 4)
        assert np.linalg.norm(motion - np.eye(4)) < 1e-9
        assert float(kv["inlier_ratio"][0]) == 1.0

    def test_explicit_feature_files(self, tmp_path, capsys, rng):
        pts = rng.uniform(-1, 1, size=(40, 3))
        m = random_motion(rng)
        moved = transform_points(m, pts)
        feats = rng.normal(size=(40, 8)).astype(np.float32)
        write_ply(PointCloud(pts), tmp_path / "a.ply")
        write_ply(PointCloud(moved), tmp_path / "b.ply")
        write_features(feats, tmp_path / "a.feat")
        write_features(feats, tmp_path / "b.feat")
        code, out, _ = run_cli(
            capsys, "pairwise", str(tmp_path / "a.ply"), str(tmp_path / "b.ply"),
            "--features", str(tmp_path / "a.feat"), str(tmp_path / "b.feat"),
            "--temperature", "1e-6",
        )
        assert code == 0
        kv = parse_kv(out)
        motion = np.array([float(v) for v in kv["motion"][0].split()]).reshape(4, 4)
        assert np.linalg.norm(motion - m.matrix) < 1e-6

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "pairwise", str(tmp_path / "no.ply"), str(tmp_path / "nope.ply")
        )
        assert code == 1
        assert "error" in err

    def test_feature_count_mismatch(self, tmp_path, capsys, rng):
        pts = rng.uniform(-1, 1, size=(10, 3))
        write_ply(PointCloud(pts), tmp_path / "a.ply")
        write_ply(PointCloud(pts), tmp_path / "b.ply")
        write_features(np.ones((9, 4), dtype=np.float32), tmp_path / "a.feat")
        write_features(np.ones((10, 4), dtype=np.float32), tmp_path / "b.feat")
        code, _, err = run_cli(
            capsys, "pairwise", str(tmp_path / "a.ply"), str(tmp_path / "b.ply"),
            "--features", str(tmp_path / "a.feat"), str(tmp_path / "b.feat"),
        )
        assert code == 1
        assert "error" in err

    def test_temperature_takes_ascii_numbers_only(self, tmp_path, capsys, rng):
        pts = rng.uniform(-1, 1, size=(20, 3))
        src, dst = tmp_path / "a.ply", tmp_path / "b.ply"
        write_ply(PointCloud(pts), src)
        write_ply(PointCloud(pts), dst)
        # an underscore separator and Arabic-Indic or fullwidth digits
        for value in ("1_0", "٠.٥", "１"):
            code, out, err = run_cli(capsys, "pairwise", str(src), str(dst), "--temperature", value)
            assert code == 2 and out == "", value
            assert "--temperature" in err
        for value in ("2e-2", "+.5", "1.", "0.7E0"):
            code, out, _ = run_cli(capsys, "pairwise", str(src), str(dst), "--temperature", value)
            assert code == 0 and len(parse_kv(out)["motion"][0].split()) == 16, value


class TestSynthCommand:
    def test_writes_scene_files(self, tmp_path, capsys):
        out_dir = tmp_path / "scene"
        code, out, _ = run_cli(
            capsys, "synth", "--scans", "4", "--pts", "64", "--noise", "0.005",
            "--seed", "3", "--out", str(out_dir),
        )
        assert code == 0
        kv = parse_kv(out)
        assert int(kv["scans"][0]) == 4
        assert (out_dir / "gt.log").exists()
        assert (out_dir / "edges.txt").exists()
        plys = sorted(out_dir.glob("scan_*.ply"))
        feats = sorted(out_dir.glob("scan_*.feat"))
        assert len(plys) == 4 and len(feats) == 4
        assert len(read_trajectory(out_dir / "gt.log")) == 4
        n_edges = int(kv["edges"][0])
        assert len((out_dir / "edges.txt").read_text().strip().splitlines()) == n_edges
        # the scans, gt.log and edges.txt, and nothing else
        assert set(kv) == {"scans", "edges", "directory"}
        assert {p.name for p in out_dir.iterdir()} - {p.name for p in plys + feats} == {"gt.log", "edges.txt"}

    @pytest.mark.parametrize("noise", ["-0.01", "nan", "inf"])
    def test_bad_noise_exits_1_and_writes_nothing(self, tmp_path, capsys, noise):
        out_dir = tmp_path / "scene"
        code, out, err = run_cli(capsys, "synth", "--scans", "4", "--pts", "64",
                                 "--noise", noise, "--out", str(out_dir))
        assert code == 1
        assert "noise_sigma must be finite and >= 0" in err
        assert out == ""
        assert not out_dir.exists()

    # each form int() or float() would take: "1_0" read as 10, "٦٤" as 64
    @pytest.mark.parametrize("option, value", [
        ("--scans", "1_0"), ("--scans", "٤"), ("--pts", "٦٤"), ("--pts", "6_4"),
        ("--noise", "0_01"), ("--noise", "٠.٠١"),
        ("--seed", "1_0"), ("--seed", "３"),
    ])
    def test_numbers_must_be_ascii(self, tmp_path, capsys, option, value):
        out_dir = tmp_path / "scene"
        args = {"--scans": "4", "--pts": "64", "--noise": "0.01", "--seed": "0"}
        args[option] = value
        code, out, err = run_cli(capsys, "synth", *[t for kv in args.items() for t in kv],
                                 "--out", str(out_dir))
        assert code == 2 and out == ""
        assert option in err
        assert not out_dir.exists()

    def test_ascii_number_forms_parse(self, tmp_path, capsys):
        out_dir = tmp_path / "scene"
        code, out, _ = run_cli(
            capsys, "synth", "--scans", "+4", "--pts", "064", "--noise", "5e-3",
            "--seed", "3", "--out", str(out_dir),
        )
        assert code == 0
        kv = parse_kv(out)
        assert int(kv["scans"][0]) == 4
        assert all(len(read_ply(path)) == 64 for path in out_dir.glob("scan_*.ply"))


class TestMultiviewCommand:
    def make_scene_dir(self, tmp_path, capsys, noise="0.0", scans="4"):
        out_dir = tmp_path / "scene"
        code, _, _ = run_cli(
            capsys, "synth", "--scans", scans, "--pts", "128", "--noise", noise,
            "--seed", "5", "--out", str(out_dir),
        )
        assert code == 0
        return out_dir

    def test_full_pipeline_to_trajectory(self, tmp_path, capsys):
        scene = self.make_scene_dir(tmp_path, capsys)
        est = tmp_path / "est.log"
        code, out, _ = run_cli(
            capsys, "multiview", str(scene), "--edges", str(scene / "edges.txt"),
            "--out", str(est),
        )
        assert code == 0
        kv = parse_kv(out)
        assert kv["mode"] == ["multiview"]
        # the rows that carry information; the rank deficiency is always 3
        assert set(kv) == {"mode", "rotation_eigengap", "active_edges", "disconnected",
                           "stop_reason", "trajectory"}
        assert kv["stop_reason"] == ["converged"]
        assert est.exists()
        assert len(read_trajectory(est)) == 4

    def test_stdout_trajectory_when_no_out(self, tmp_path, capsys):
        scene = self.make_scene_dir(tmp_path, capsys)
        code, out, _ = run_cli(capsys, "multiview", str(scene))
        assert code == 0
        lines = out.strip().splitlines()
        assert "mode multiview" in lines
        meta = [
            l for l in lines
            if len(l.split()) == 3 and all(tok.isdigit() for tok in l.split())
        ]
        assert len(meta) == 4  # one 'i j n' header per scan
        matrix_rows = [l for l in lines if len(l.split()) == 4]
        assert len(matrix_rows) == 4 * 4

    def test_pairwise_only_mode(self, tmp_path, capsys):
        scene = self.make_scene_dir(tmp_path, capsys)
        est = tmp_path / "chain.log"
        code, out, _ = run_cli(
            capsys, "multiview", str(scene), "--pairwise-only", "--out", str(est),
        )
        assert code == 0
        assert parse_kv(out)["mode"] == ["pairwise_chain"]
        assert len(read_trajectory(est)) == 4

    def test_pairwise_only_matches_chained_single_pair_fits(self, tmp_path, capsys):
        # the batched fits of all pairs chain to the poses that registering
        # each pair on its own gives
        scene = self.make_scene_dir(tmp_path, capsys, noise="0.01", scans="5")
        est = tmp_path / "chain.log"
        code, _, _ = run_cli(capsys, "multiview", str(scene), "--pairwise-only",
                             "--edges", str(scene / "edges.txt"), "--out", str(est))
        assert code == 0
        clouds = [PointCloud(read_ply(f).points, read_features(f.with_suffix(".feat")))
                  for f in sorted(scene.glob("scan_*.ply"))]
        pairs = _read_edge_list(scene / "edges.txt")
        motions = [register_pair(clouds[i], clouds[j]).motions[0] for i, j in pairs]
        expected = pairwise_chain_absolute(PoseGraph(5, pairs, motions, [1.0] * len(pairs)))
        for entry, motion in zip(read_trajectory(est), expected, strict=True):
            assert np.abs(entry.matrix - motion.matrix).max() <= 1e-12

    def test_config_file_is_honored(self, tmp_path, capsys):
        scene = self.make_scene_dir(tmp_path, capsys)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("blend=1.0\ntemperature=1e-6\n")
        est = tmp_path / "est.log"
        code, out, _ = run_cli(capsys, "multiview", str(scene), "--config", str(cfg), "--out", str(est))
        assert code == 0
        clouds = [PointCloud(read_ply(f).points, read_features(f.with_suffix(".feat")))
                  for f in sorted(scene.glob("scan_*.ply"))]
        written = np.array([entry.matrix for entry in read_trajectory(est)])
        configured = run_multiview(clouds, PipelineConfig(blend=1.0, temperature=1e-6))[0]
        assert np.array_equal(written, configured.poses)
        # a CLI that ignored --config would write the default run's poses
        assert np.abs(written - run_multiview(clouds)[0].poses).max() > 1e-6

    def test_empty_directory_fails(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "multiview", str(tmp_path))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("line", ["-1 2", "3 -0"])
    def test_negative_edge_index_fails(self, tmp_path, capsys, line):
        scene = self.make_scene_dir(tmp_path, capsys)
        edges = tmp_path / "edges.txt"
        edges.write_text(f"0 1\n{line}\n")
        code, _, err = run_cli(capsys, "multiview", str(scene), "--edges", str(edges))
        assert code == 1
        assert "edge line" in err

    @pytest.mark.parametrize("pairwise_only", [False, True])
    def test_repeated_scan_pair_fails_in_both_modes(self, tmp_path, capsys, pairwise_only):
        scene = self.make_scene_dir(tmp_path, capsys)
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 3\n1 0\n")
        extra = ("--pairwise-only",) if pairwise_only else ()
        code, out, err = run_cli(capsys, "multiview", str(scene), "--edges", str(edges), *extra)
        assert code == 1
        assert "(1, 0) repeats (0, 1)" in err
        assert "mode" not in parse_kv(out)

    @pytest.mark.parametrize("pairwise_only", [False, True])
    def test_edge_to_missing_scan_fails(self, tmp_path, capsys, pairwise_only):
        scene = self.make_scene_dir(tmp_path, capsys)
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 3\n1 9\n")
        extra = ("--pairwise-only",) if pairwise_only else ()
        code, _, err = run_cli(capsys, "multiview", str(scene), "--edges", str(edges), *extra)
        assert code == 1
        assert "(1, 9) invalid" in err

    def test_edge_list_accepts_space_and_dash_pairs(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("# measured pairs\n0 1\n1-2\n\n2\t3\n")
        assert _read_edge_list(edges) == ((0, 1), (1, 2), (2, 3))

    # int() would read 1_0 as 10, +1 as 1 and the Arabic-Indic 3 as 3
    @pytest.mark.parametrize("line", ["1_0-2", "+1-2", " 1 - 2 ", "\u0663-4"])
    def test_edge_line_outside_the_pair_grammar_fails(self, tmp_path, capsys, line):
        scene = self.make_scene_dir(tmp_path, capsys)
        edges = tmp_path / "edges.txt"
        edges.write_text(f"0 1\n{line}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "multiview", str(scene), "--edges", str(edges))
        assert code == 1
        assert "edge line" in err and "mode" not in parse_kv(out)

    @pytest.mark.parametrize("text, pair", [("0-1", (0, 1)), ("0 1", (0, 1)), ("0\t1", (0, 1)),
                                            ("10-002", (10, 2)), ("1_0-2", None), ("+1-2", None),
                                            (" 1 - 2 ", None), ("\u0663-4", None), ("1--2", None),
                                            ("1", None)])
    def test_edge_line_and_connectivity_entry_share_one_grammar(self, tmp_path, text, pair):
        edges = tmp_path / "edges.txt"
        edges.write_text(f"{text}\n", encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"connectivity={text}\n", encoding="utf-8")
        if pair is None:
            with pytest.raises(ValueError, match="edge line"):
                _read_edge_list(edges)
            with pytest.raises(MalformedConfig):
                read_config(cfg)
        else:
            assert _read_edge_list(edges) == read_config(cfg).connectivity == (pair,)

    @pytest.mark.parametrize("voxel", ["nan", "inf", "0", "-1"])
    def test_voxel_must_be_positive_and_finite(self, tmp_path, capsys, voxel):
        scene = self.make_scene_dir(tmp_path, capsys)
        code, _, err = run_cli(capsys, "multiview", str(scene), "--voxel", voxel)
        assert code == 1
        assert "cell" in err

    def test_voxel_takes_ascii_numbers_only(self, tmp_path, capsys):
        scene = self.make_scene_dir(tmp_path, capsys)
        for value in ("0_08", "٠.٠٨"):
            code, out, err = run_cli(capsys, "multiview", str(scene), "--voxel", value)
            assert code == 2 and out == "", value
            assert "--voxel" in err
        for value in ("8e-2", "+.08"):
            code, _, _ = run_cli(capsys, "multiview", str(scene), "--voxel", value,
                                 "--out", str(tmp_path / "est.log"))
            assert code == 0, value

    @pytest.mark.parametrize("header, body", [
        ("element vertex 1\nproperty double x\nproperty double y\nproperty double z\n"
         "element vertex 1\nproperty double x\nproperty double y\nproperty double z\n",
         "0 0 0\n1 1 1\n"),
        ("element vertex 0\nproperty double x\nproperty double y\nproperty double z\n", ""),
        ("element vertex 1\nproperty double x\nproperty double y\nproperty double z\n",
         "0 nan 0\n"),
    ])
    def test_malformed_scan_fails_with_one_error_line(self, tmp_path, capsys, header, body):
        scene = self.make_scene_dir(tmp_path, capsys)
        (scene / "scan_001.ply").write_text(f"ply\nformat ascii 1.0\n{header}end_header\n{body}")
        code, _, err = run_cli(capsys, "multiview", str(scene))
        assert code == 1
        assert err.startswith("mvreg: error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_descriptors_without_columns_fail_on_the_features(self, tmp_path, capsys):
        scene = self.make_scene_dir(tmp_path, capsys)
        for ply_path in scene.glob("scan_*.ply"):
            write_features(np.zeros((len(read_ply(ply_path)), 0)), ply_path.with_suffix(".feat"))
        code, _, err = run_cli(capsys, "multiview", str(scene))
        assert code == 1
        assert err.startswith("mvreg: error: features") and len(err.splitlines()) == 1

    def test_voxel_downsampling_runs(self, tmp_path, capsys):
        scene = self.make_scene_dir(tmp_path, capsys)
        code, _, _ = run_cli(
            capsys, "multiview", str(scene), "--voxel", "0.08",
            "--out", str(tmp_path / "est.log"),
        )
        assert code == 0


class TestScanPaths:
    def test_unpadded_names_come_in_numeric_order(self, tmp_path):
        names = [f"scan_{k}.ply" for k in range(11)]
        for name in reversed(names):
            (tmp_path / name).touch()
        assert [p.name for p in _scan_paths(tmp_path)] == names

    def test_padded_names_past_999_come_in_numeric_order(self, tmp_path):
        # synth's scan_{idx:03d}: scan_1000 sorts before scan_101 as a string
        names = [f"scan_{k:03d}.ply" for k in (*range(10), 99, 100, 101, 999, 1000, 1001)]
        for name in names:
            (tmp_path / name).touch()
        assert [p.name for p in _scan_paths(tmp_path)] == names

    def test_same_number_twice_fails_naming_both_files(self, tmp_path, capsys):
        for name in ("scan_0.ply", "scan_1.ply", "scan_01.ply"):
            (tmp_path / name).touch()
        with pytest.raises(ValueError, match=r"scan_1\.ply and .*scan_01\.ply have the same scan number 1"):
            _scan_paths(tmp_path)
        code, out, err = run_cli(capsys, "multiview", str(tmp_path))
        assert code == 1 and out == ""
        assert "scan_01.ply" in err

    @pytest.mark.parametrize("name", [
        "scan_.ply", "scan_a.ply", "scan_1a.ply", "scan_+1.ply", "scan_1_0.ply", "scan_٣.ply",
        "scan_ 1.ply",
    ])
    def test_number_must_be_ascii_digits(self, tmp_path, capsys, name):
        (tmp_path / "scan_0.ply").touch()
        (tmp_path / name).touch()
        with pytest.raises(ValueError, match="ASCII digits") as info:
            _scan_paths(tmp_path)
        assert name in str(info.value)
        code, out, err = run_cli(capsys, "multiview", str(tmp_path))
        assert code == 1 and out == ""
        assert name in err


def test_readme_command_lines_parse():
    # every mvreg line of the fenced bash block under the README's "## Command line"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("```bash\n", readme.index("\n## Command line\n")) + len("```bash\n")
    lines = [line for line in readme[start : readme.index("```", start)].splitlines()
             if line.startswith("mvreg ")]
    assert lines
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")


class TestEvalCommand:
    def test_round_trip_against_ground_truth(self, tmp_path, capsys):
        scene_dir = tmp_path / "scene"
        run_cli(
            capsys, "synth", "--scans", "4", "--pts", "128", "--noise", "0.0",
            "--seed", "7", "--out", str(scene_dir),
        )
        est = tmp_path / "est.log"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("temperature=1e-6\nblend=1.0\n")
        code, _, _ = run_cli(
            capsys, "multiview", str(scene_dir), "--config", str(cfg),
            "--edges", str(scene_dir / "edges.txt"), "--out", str(est),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "eval", "--est", str(est), "--gt", str(scene_dir / "gt.log"),
        )
        assert code == 0
        kv = parse_kv(out)
        assert int(kv["pairs"][0]) == 6
        rot_ecdf = [float(v) for v in kv["rot_ecdf"][0].split()]
        assert rot_ecdf[-1] == 1.0
        assert float(kv["rot_mean_deg"][0]) < 0.1

    def test_custom_thresholds(self, tmp_path, capsys, rng):
        motions = [random_motion(rng) for _ in range(3)]
        a, b = tmp_path / "a.log", tmp_path / "b.log"
        write_trajectory(trajectory_from_motions(motions), a)
        write_trajectory(trajectory_from_motions(motions), b)
        code, out, _ = run_cli(
            capsys, "eval", "--est", str(a), "--gt", str(b),
            "--rot-thresholds", "1,5", "--trans-thresholds", "0.01,0.5",
        )
        assert code == 0
        kv = parse_kv(out)
        assert [float(v) for v in kv["rot_ecdf"][0].split()] == [1.0, 1.0]
        assert [float(v) for v in kv["rot_thresholds_deg"][0].split()] == [1.0, 5.0]

    # a NaN, two empty lists, and an unsorted translation list, whose error
    # comes from the second ECDF
    @pytest.mark.parametrize("option, value", [("--rot-thresholds", "nan,5"),
                                               ("--rot-thresholds", ","),
                                               ("--rot-thresholds", ""),
                                               ("--trans-thresholds", "0.5,0.1")])
    def test_bad_thresholds_fail_before_any_row(self, tmp_path, capsys, rng, option, value):
        a = tmp_path / "a.log"
        write_trajectory(trajectory_from_motions([random_motion(rng) for _ in range(3)]), a)
        code, out, err = run_cli(capsys, "eval", "--est", str(a), "--gt", str(a), option, value)
        assert code == 1
        assert out == ""
        assert "thresholds" in err

    # "0_1" read as 1, "٥" as 5
    @pytest.mark.parametrize("option, value", [("--rot-thresholds", "٥,1_0"),
                                               ("--rot-thresholds", "1,１０"),
                                               ("--trans-thresholds", "0_1"),
                                               ("--trans-thresholds", "0.05,٠.١")])
    def test_thresholds_must_be_ascii(self, tmp_path, capsys, rng, option, value):
        a = tmp_path / "a.log"
        write_trajectory(trajectory_from_motions([random_motion(rng) for _ in range(3)]), a)
        code, out, err = run_cli(capsys, "eval", "--est", str(a), "--gt", str(a), option, value)
        assert code == 1
        assert out == ""
        assert "thresholds" in err and "ASCII" in err

    def test_thresholds_take_the_ascii_forms(self, tmp_path, capsys, rng):
        a = tmp_path / "a.log"
        write_trajectory(trajectory_from_motions([random_motion(rng) for _ in range(3)]), a)
        code, out, _ = run_cli(capsys, "eval", "--est", str(a), "--gt", str(a),
                               "--rot-thresholds", "1e0, +5.", "--trans-thresholds", ".01,0.5E0")
        assert code == 0
        kv = parse_kv(out)
        assert [float(v) for v in kv["rot_thresholds_deg"][0].split()] == [1.0, 5.0]
        assert [float(v) for v in kv["trans_thresholds_m"][0].split()] == [0.01, 0.5]

    # a log of the relative motions (0, 1), (0, 2), (1, 2), as 3DMatch's
    # gt.log holds them; the absolute poses out of order, each with its own
    # index; a count that is not the file's; and one pair entry after two
    # poses: none lists the poses 0..n-1 in order
    @pytest.mark.parametrize("metadata, first_bad", [
        ([(0, 1, 3), (0, 2, 3), (1, 2, 3)], 0),
        ([(2, 2, 3), (0, 0, 3), (1, 1, 3)], 0),
        ([(0, 0, 4), (1, 1, 4), (2, 2, 4)], 0),
        ([(0, 0, 3), (1, 1, 3), (1, 2, 3)], 2),
    ])
    def test_entries_must_be_absolute_poses_in_order(self, tmp_path, capsys, rng, metadata, first_bad):
        motions = [random_motion(rng).matrix for _ in range(3)]
        good, bad = tmp_path / "good.log", tmp_path / "bad.log"
        write_trajectory([TrajectoryEntry(k, k, 3, m) for k, m in enumerate(motions)], good)
        write_trajectory([TrajectoryEntry(i, j, n, motions[i]) for i, j, n in metadata], bad)
        for est, gt in ((bad, good), (good, bad)):
            code, out, err = run_cli(capsys, "eval", "--est", str(est), "--gt", str(gt))
            assert code == 1 and out == ""
            assert f"{bad}: entry {first_bad} is {metadata[first_bad]}" in err

    def test_length_mismatch(self, tmp_path, capsys, rng):
        a, b = tmp_path / "a.log", tmp_path / "b.log"
        write_trajectory(trajectory_from_motions([random_motion(rng) for _ in range(3)]), a)
        write_trajectory(trajectory_from_motions([random_motion(rng) for _ in range(4)]), b)
        code, _, err = run_cli(capsys, "eval", "--est", str(a), "--gt", str(b))
        assert code == 1
        assert "error" in err


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert cli_main(["unknown-command"]) == 2
        capsys.readouterr()

    def test_missing_required_argument_is_2(self, capsys):
        assert cli_main(["synth"]) == 2
        capsys.readouterr()

    def test_no_arguments_is_2(self, capsys):
        assert cli_main([]) == 2
        capsys.readouterr()
