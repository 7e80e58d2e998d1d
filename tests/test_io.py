import struct
from pathlib import Path

import numpy as np
import pytest

from mvreg import (
    MalformedConfig,
    MalformedEntry,
    MalformedHeader,
    NonRigidMatrix,
    PipelineConfig,
    PointCloud,
    RigidMotion,
    TrajectoryEntry,
    TruncatedPayload,
    UnsupportedFormat,
    read_config,
    read_features,
    read_ply,
    read_trajectory,
    trajectory_from_motions,
    voxel_downsample,
    write_features,
    write_ply,
    write_trajectory,
)
from mvreg.synthetic import random_motion


class TestPlyRoundTrip:
    def test_ascii_round_trip_is_bitwise_exact(self, tmp_path, rng):
        pts = rng.uniform(-10, 10, size=(37, 3))
        path = tmp_path / "cloud.ply"
        write_ply(PointCloud(pts), path, binary=False)
        back = read_ply(path)
        assert np.array_equal(back.points, pts)

    def test_binary_round_trip_is_bitwise_exact(self, tmp_path, rng):
        pts = rng.normal(size=(64, 3))
        path = tmp_path / "cloud.ply"
        write_ply(PointCloud(pts), path, binary=True)
        back = read_ply(path)
        assert np.array_equal(back.points, pts)

    def test_extra_properties_are_skipped(self, tmp_path):
        path = tmp_path / "extra.ply"
        path.write_text(
            "ply\nformat ascii 1.0\n"
            "element vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\n"
            "end_header\n"
            "1 2 3 255\n"
            "4 5 6 0\n"
        )
        cloud = read_ply(path)
        assert np.allclose(cloud.points, [[1, 2, 3], [4, 5, 6]])

    def test_extra_elements_are_skipped_binary(self, tmp_path):
        path = tmp_path / "faces.ply"
        header = (
            "ply\nformat binary_little_endian 1.0\n"
            "element vertex 2\n"
            "property double x\nproperty double y\nproperty double z\n"
            "element extra 1\n"
            "property double pad\n"
            "end_header\n"
        )
        pts = np.arange(6, dtype="<f8").reshape(2, 3)
        with open(path, "wb") as f:
            f.write(header.encode())
            f.write(pts.tobytes())
            f.write(np.zeros(1, dtype="<f8").tobytes())
        assert np.array_equal(read_ply(path).points, pts)

    def test_comment_lines_ignored(self, tmp_path):
        path = tmp_path / "comment.ply"
        path.write_text(
            "ply\ncomment made by hand\nformat ascii 1.0\n"
            "element vertex 1\n"
            "property double x\nproperty double y\nproperty double z\n"
            "end_header\n"
            "0.5 -1.5 2.5\n"
        )
        assert np.allclose(read_ply(path).points, [[0.5, -1.5, 2.5]])


class TestFeatures:
    def test_round_trip(self, tmp_path, rng):
        feats = rng.normal(size=(12, 32)).astype(np.float32)
        path = tmp_path / "desc.feat"
        write_features(feats, path)
        back = read_features(path)
        assert back.shape == (12, 32)
        assert back.dtype == np.float64
        assert np.array_equal(back.astype(np.float32), feats)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "desc.feat"
        write_features(np.ones((3, 5), dtype=np.float32), path)
        raw = path.read_bytes()
        assert raw[:4] == b"FEAT"
        n, d, reserved = struct.unpack("<III", raw[4:16])
        assert (n, d, reserved) == (3, 5, 0)
        assert len(raw) == 16 + 3 * 5 * 4

    def test_rejects_non_matrix(self, tmp_path):
        with pytest.raises(ValueError):
            write_features(np.ones(5), tmp_path / "bad.feat")


class TestTrajectory:
    def test_round_trip_is_bitwise_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        motions = [random_motion(rng) for _ in range(5)]
        entries = trajectory_from_motions(motions)
        path = tmp_path / "poses.log"
        write_trajectory(entries, path)
        back = read_trajectory(path)
        assert len(back) == 5
        for orig, loaded, motion in zip(entries, back, motions):
            assert (loaded.i, loaded.j, loaded.n) == (orig.i, orig.j, orig.n)
            assert np.array_equal(loaded.matrix, motion.matrix)

    def test_from_motions_metadata(self):
        rng = np.random.default_rng(1)
        entries = trajectory_from_motions([random_motion(rng) for _ in range(3)])
        assert [(e.i, e.j, e.n) for e in entries] == [(0, 0, 3), (1, 1, 3), (2, 2, 3)]

    def test_non_rigid_rotation_warns_but_loads(self, tmp_path):
        path = tmp_path / "warped.log"
        mat = np.eye(4)
        mat[0, 0] = 1.5  # stretch: not a rotation
        write_trajectory([TrajectoryEntry(0, 0, 1, mat)], path)
        with pytest.warns(NonRigidMatrix):
            entries = read_trajectory(path)
        assert len(entries) == 1
        assert entries[0].matrix[0, 0] == 1.5

    def test_entry_requires_4x4(self):
        with pytest.raises(ValueError):
            TrajectoryEntry(0, 0, 1, np.eye(3))


class TestMalformedFiles:
    """Corpus of deliberately broken files, each mapped to its error class."""

    def test_ply_bad_magic(self, tmp_path):
        p = tmp_path / "a.ply"
        p.write_text("plx\nformat ascii 1.0\nend_header\n")
        with pytest.raises(MalformedHeader):
            read_ply(p)

    def test_ply_big_endian_unsupported(self, tmp_path):
        p = tmp_path / "b.ply"
        p.write_text(
            "ply\nformat binary_big_endian 1.0\nelement vertex 1\n"
            "property double x\nproperty double y\nproperty double z\nend_header\n"
        )
        with pytest.raises(UnsupportedFormat):
            read_ply(p)

    def test_ply_unknown_format(self, tmp_path):
        p = tmp_path / "c.ply"
        p.write_text("ply\nformat utf16 1.0\nend_header\n")
        with pytest.raises(UnsupportedFormat):
            read_ply(p)

    def test_ply_header_never_ends(self, tmp_path):
        p = tmp_path / "d.ply"
        p.write_text("ply\nformat ascii 1.0\nelement vertex 1\n")
        with pytest.raises(MalformedHeader):
            read_ply(p)

    def test_ply_non_integer_count(self, tmp_path):
        p = tmp_path / "e.ply"
        p.write_text("ply\nformat ascii 1.0\nelement vertex many\nend_header\n")
        with pytest.raises(MalformedHeader):
            read_ply(p)

    def test_ply_missing_coordinate(self, tmp_path):
        p = tmp_path / "f.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property double x\nproperty double y\nend_header\n0 0\n"
        )
        with pytest.raises(MalformedHeader):
            read_ply(p)

    def test_ply_integer_coordinates_rejected(self, tmp_path):
        p = tmp_path / "g.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property int x\nproperty int y\nproperty int z\nend_header\n0 0 0\n"
        )
        with pytest.raises(MalformedHeader):
            read_ply(p)

    def test_ply_binary_truncated(self, tmp_path):
        p = tmp_path / "h.ply"
        header = (
            "ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
            "property double x\nproperty double y\nproperty double z\nend_header\n"
        )
        with open(p, "wb") as f:
            f.write(header.encode())
            f.write(np.zeros(3, dtype="<f8").tobytes())  # one row instead of two
        with pytest.raises(TruncatedPayload):
            read_ply(p)

    def test_ply_binary_trailing_bytes(self, tmp_path):
        p = tmp_path / "i.ply"
        header = (
            "ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
            "property double x\nproperty double y\nproperty double z\nend_header\n"
        )
        with open(p, "wb") as f:
            f.write(header.encode())
            f.write(np.zeros(4, dtype="<f8").tobytes())  # one float too many
        with pytest.raises(TruncatedPayload):
            read_ply(p)

    def test_ply_binary_list_property_unsupported(self, tmp_path):
        p = tmp_path / "j.ply"
        header = (
            "ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
            "property double x\nproperty double y\nproperty double z\n"
            "property list uchar int neighbors\nend_header\n"
        )
        with open(p, "wb") as f:
            f.write(header.encode())
        with pytest.raises(UnsupportedFormat):
            read_ply(p)

    def test_ply_ascii_missing_rows(self, tmp_path):
        p = tmp_path / "k.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property double x\nproperty double y\nproperty double z\nend_header\n"
            "0 0 0\n1 1 1\n"
        )
        with pytest.raises(TruncatedPayload):
            read_ply(p)

    def test_ply_ascii_short_row(self, tmp_path):
        p = tmp_path / "l.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property double x\nproperty double y\nproperty double z\nend_header\n"
            "0 0\n"
        )
        with pytest.raises(TruncatedPayload):
            read_ply(p)

    def test_ply_ascii_non_numeric(self, tmp_path):
        p = tmp_path / "m.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property double x\nproperty double y\nproperty double z\nend_header\n"
            "0 zero 0\n"
        )
        with pytest.raises(TruncatedPayload):
            read_ply(p)

    def test_ply_ascii_trailing_rows(self, tmp_path):
        p = tmp_path / "n.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property double x\nproperty double y\nproperty double z\nend_header\n"
            "0 0 0\n1 1 1\n"
        )
        with pytest.raises(TruncatedPayload):
            read_ply(p)

    def test_ply_two_vertex_elements_ascii(self, tmp_path):
        p = tmp_path / "o.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property double x\nproperty double y\nproperty double z\n"
            "element vertex 1\nproperty double x\nproperty double y\nproperty double z\n"
            "end_header\n0 0 0\n1 1 1\n"
        )
        with pytest.raises(MalformedHeader, match="one 'vertex' element"):
            read_ply(p)

    def test_ply_two_vertex_elements_binary(self, tmp_path):
        # the second vertex element lacks z
        p = tmp_path / "p.ply"
        header = (
            "ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
            "property double x\nproperty double y\nproperty double z\n"
            "element vertex 1\nproperty double x\nproperty double y\nend_header\n"
        )
        with open(p, "wb") as f:
            f.write(header.encode())
            f.write(np.zeros(5, dtype="<f8").tobytes())
        with pytest.raises(MalformedHeader, match="one 'vertex' element"):
            read_ply(p)

    def test_ply_empty_vertex_element(self, tmp_path):
        p = tmp_path / "q.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 0\n"
            "property double x\nproperty double y\nproperty double z\nend_header\n"
        )
        with pytest.raises(MalformedHeader, match="0 rows"):
            read_ply(p)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("binary", [False, True])
    def test_ply_non_finite_coordinate(self, tmp_path, value, binary):
        p = tmp_path / "r.ply"
        write_ply(np.array([[0.0, 1.0, 2.0], [3.0, value, 5.0]]), p, binary=binary)
        with pytest.raises(MalformedEntry, match="finite"):
            read_ply(p)

    def test_feat_non_finite_value(self, tmp_path):
        p = tmp_path / "e.feat"
        write_features(np.array([[0.0, 1.0], [np.nan, 2.0]]), p)
        with pytest.raises(MalformedEntry, match="finite"):
            read_features(p)

    def test_feat_bad_magic(self, tmp_path):
        p = tmp_path / "a.feat"
        p.write_bytes(b"FETA" + struct.pack("<III", 1, 1, 0) + b"\x00" * 4)
        with pytest.raises(MalformedHeader):
            read_features(p)

    def test_feat_reserved_field_nonzero(self, tmp_path):
        p = tmp_path / "b.feat"
        p.write_bytes(b"FEAT" + struct.pack("<III", 1, 1, 7) + b"\x00" * 4)
        with pytest.raises(MalformedHeader):
            read_features(p)

    def test_feat_truncated_payload(self, tmp_path):
        p = tmp_path / "c.feat"
        p.write_bytes(b"FEAT" + struct.pack("<III", 2, 3, 0) + b"\x00" * 10)
        with pytest.raises(TruncatedPayload):
            read_features(p)

    def test_feat_oversized_payload(self, tmp_path):
        p = tmp_path / "d.feat"
        p.write_bytes(b"FEAT" + struct.pack("<III", 1, 1, 0) + b"\x00" * 8)
        with pytest.raises(TruncatedPayload):
            read_features(p)

    def test_trajectory_bad_metadata(self, tmp_path):
        p = tmp_path / "a.log"
        p.write_text("0 0\n" + "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
        with pytest.raises(MalformedEntry):
            read_trajectory(p)

    def test_trajectory_missing_rows(self, tmp_path):
        p = tmp_path / "b.log"
        p.write_text("0 0 1\n1 0 0 0\n0 1 0 0\n")
        with pytest.raises(MalformedEntry):
            read_trajectory(p)

    def test_trajectory_short_row(self, tmp_path):
        p = tmp_path / "c.log"
        p.write_text("0 0 1\n1 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
        with pytest.raises(MalformedEntry):
            read_trajectory(p)

    def test_trajectory_non_numeric(self, tmp_path):
        p = tmp_path / "d.log"
        p.write_text("0 0 1\none 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
        with pytest.raises(MalformedEntry):
            read_trajectory(p)

    def test_trajectory_non_finite(self, tmp_path):
        p = tmp_path / "e.log"
        p.write_text("0 0 1\ninf 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
        with pytest.raises(MalformedEntry):
            read_trajectory(p)

    # float() and int() read 1_0 as 10 and take the digits of other scripts;
    # numbers in the text formats are ASCII
    @pytest.mark.parametrize("meta, row", [("\u0660 \u0660 \u0661", "1 0 0 0"),
                                           ("0 0 1_0", "1 0 0 0"), ("0 0 1", "1 0 0 0_0"),
                                           ("0 0 1", "1 0 0 \u0660")])
    def test_trajectory_numbers_must_be_ascii(self, tmp_path, meta, row):
        p = tmp_path / "g.log"
        p.write_text(f"{meta}\n{row}\n0 1 0 0\n0 0 1 0\n0 0 0 1\n", encoding="utf-8")
        with pytest.raises(MalformedEntry, match="non-integer metadata|non-numeric matrix value"):
            read_trajectory(p)

    # the body is decoded as ASCII, which turns other scripts' digits into U+FFFD
    @pytest.mark.parametrize("row", ["1_0 0 0", "0 0 2_5e-1"])
    def test_ply_ascii_row_numbers_must_be_ascii(self, tmp_path, row):
        p = tmp_path / "s.ply"
        p.write_text("ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\n"
                     f"property double y\nproperty double z\nend_header\n{row}\n", encoding="utf-8")
        with pytest.raises(TruncatedPayload, match="vertex row 0 holds a non-numeric value"):
            read_ply(p)

    def test_ply_element_count_must_be_ascii(self, tmp_path):
        p = tmp_path / "t.ply"
        p.write_text("ply\nformat ascii 1.0\nelement vertex 1_0\nproperty double x\n"
                     "property double y\nproperty double z\nend_header\n0 0 0\n")
        with pytest.raises(MalformedHeader, match="non-integer element count"):
            read_ply(p)

    def test_trajectory_bad_bottom_row(self, tmp_path):
        p = tmp_path / "f.log"
        p.write_text("0 0 1\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0.5 1\n")
        with pytest.raises(MalformedEntry):
            read_trajectory(p)

    def test_config_unknown_key(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("outer_iters=4\n")
        with pytest.raises(MalformedConfig):
            read_config(p)

    def test_config_not_key_value(self, tmp_path):
        p = tmp_path / "b.cfg"
        p.write_text("just some words\n")
        with pytest.raises(MalformedConfig):
            read_config(p)

    def test_config_bad_connectivity(self, tmp_path):
        p = tmp_path / "d.cfg"
        p.write_text("connectivity=0-1,2:3\n")
        with pytest.raises(MalformedConfig):
            read_config(p)

    def test_config_value_out_of_range(self, tmp_path):
        p = tmp_path / "e.cfg"
        p.write_text("blend=1.5\n")
        with pytest.raises(MalformedConfig):
            read_config(p)


class TestReadConfig:
    @pytest.mark.parametrize("field, value", [("temperature", np.nan),
                                              ("connectivity", ((0, 1.5), (1, 2))),
                                              ("connectivity", ((0, 1, 2), (1, 2))),
                                              ("connectivity", ((True, 2), (0, 1))),
                                              ("temperature", np.inf), ("temperature", 0.0),
                                              ("temperature", -1.0), ("blend", -0.1),
                                              ("blend", 1.5), ("blend", np.nan)])
    def test_config_fields_are_range_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            PipelineConfig(**{field: value})

    def test_indices_accept_numpy_integers(self):
        cfg = PipelineConfig(connectivity=np.array([[1, 0], [1, 2]]))
        assert cfg.connectivity == ((1, 0), (1, 2))
        assert all(type(v) is int for pair in cfg.connectivity for v in pair)

    def test_overrides_and_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# experiment configuration\n"
            "\n"
            "blend=0.5\n"
            "temperature = 0.01\n"
        )
        cfg = read_config(p)
        assert cfg.blend == 0.5
        assert cfg.temperature == 0.01
        assert cfg.connectivity == PipelineConfig().connectivity

    def test_every_field_parses_to_its_type(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "temperature=0.5\nblend=1\nconnectivity=0-1,1-2\n"
        )
        cfg = read_config(p)
        floats = {"temperature": 0.5, "blend": 1.0}
        assert {k: getattr(cfg, k) for k in floats} == floats
        assert all(type(getattr(cfg, k)) is float for k in floats)
        assert cfg.connectivity == ((0, 1), (1, 2))
        assert set(floats) | {"connectivity"} == set(vars(cfg))

    def test_connectivity_parsing(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("connectivity=0-1, 1-2 ,2-3\n")
        cfg = read_config(p)
        assert cfg.connectivity == ((0, 1), (1, 2), (2, 3))

    def test_connectivity_takes_the_edge_list_forms(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("connectivity=0 1,1\t2,,10-002\n")
        assert read_config(p).connectivity == ((0, 1), (1, 2), (10, 2))

    # int() reads 1_0 as 10 and +1 as 1, ignores surrounding blanks and takes
    # Arabic-Indic or full-width digits; a scan index is a run of ASCII digits
    @pytest.mark.parametrize("entry", ["1_0-2", "+1-2", " 1 - 2 ", "\u0663-4", "1-\uff12",
                                       "1--2", "-1-2", "1-2-3", "1", "1-", "0x1-2"])
    def test_connectivity_entry_must_be_an_ascii_digit_pair(self, tmp_path, entry):
        p = tmp_path / "run.cfg"
        p.write_text(f"connectivity=0-1,{entry}\n", encoding="utf-8")
        with pytest.raises(MalformedConfig, match="bad value for 'connectivity' on line 1"):
            read_config(p)

    # float() reads 0_02 as 2.0 and the Arabic-Indic 0.5 as 0.5
    @pytest.mark.parametrize("line", ["temperature=0_02", "blend=\u0660.\u0665",
                                      "temperature=\uff11", "blend=1_0e-1"])
    def test_config_floats_must_be_ascii(self, tmp_path, line):
        p = tmp_path / "run.cfg"
        p.write_text(f"{line}\n", encoding="utf-8")
        key = line.partition("=")[0]
        with pytest.raises(MalformedConfig, match=f"bad value for '{key}' on line 1.*ASCII"):
            read_config(p)

    @pytest.mark.parametrize("text, value", [("2e-2", 0.02), ("+.5", 0.5), ("1.", 1.0),
                                             ("0.7E0", 0.7)])
    def test_config_floats_take_the_ascii_forms(self, tmp_path, text, value):
        p = tmp_path / "run.cfg"
        p.write_text(f"blend={text}\n")
        assert read_config(p).blend == value

    @pytest.mark.parametrize("key, first, second", [("temperature", "0.5", "0.02"),
                                                   ("blend", "1.0", "0.5"),
                                                   ("connectivity", "0-1", "1-2")])
    def test_repeated_key_is_rejected(self, tmp_path, key, first, second):
        # the second value must not silently replace the first
        p = tmp_path / "run.cfg"
        p.write_text(f"{key}={first}\n# lower\n{key}={second}\n")
        with pytest.raises(MalformedConfig, match=f"key '{key}' on line 3 repeats line 1"):
            read_config(p)

    @pytest.mark.parametrize("key", ["gamma", "beta", "w_thresh", "inner_irls",
                                     "outer_iterations", "sync_rounds", "conf_steepness",
                                     "conf_midpoint", "conf_residual_scale"])
    def test_confidence_constants_are_not_keys(self, tmp_path, key):
        p = tmp_path / "run.cfg"
        p.write_text(f"{key}=1\n")
        with pytest.raises(MalformedConfig, match=f"unknown configuration key '{key}'"):
            read_config(p)
        with pytest.raises(TypeError):
            PipelineConfig(**{key: 1})

    def test_deleted_pruning_threshold_is_not_a_key(self, tmp_path):
        # the old fixed threshold must fail, not take on the ratio's meaning
        p = tmp_path / "run.cfg"
        p.write_text("tau_p=0.85\n")
        with pytest.raises(MalformedConfig, match="unknown configuration key 'tau_p'"):
            read_config(p)
        with pytest.raises(TypeError):
            PipelineConfig(tau_p=0.85)

    def test_readme_config_block_parses(self, tmp_path):
        # the first fenced block after the README's configuration paragraph
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        start = readme.index("```\n", readme.index("Configuration files are flat")) + 4
        p = tmp_path / "pipeline.cfg"
        p.write_text(readme[start : readme.index("```", start)], encoding="utf-8")
        assert read_config(p).connectivity == ((0, 1), (1, 2), (2, 3), (0, 3))


class TestVoxelDownsample:
    def test_points_in_one_cell_average(self):
        pts = np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [5.0, 5.0, 5.0]])
        out = voxel_downsample(PointCloud(pts), cell=1.0)
        assert out.points.shape == (2, 3)
        assert np.allclose(sorted(out.points[:, 0]), [0.15, 5.0])

    def test_features_average_with_points(self):
        pts = np.array([[0.1, 0.0, 0.0], [0.3, 0.0, 0.0]])
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = voxel_downsample(PointCloud(pts, feats), cell=1.0)
        assert out.points.shape == (1, 3)
        assert np.allclose(out.features, [[0.5, 0.5]])

    def test_small_cell_is_identity_up_to_order(self, rng):
        pts = rng.uniform(-1, 1, size=(30, 3))
        out = voxel_downsample(PointCloud(pts), cell=1e-6)
        assert out.points.shape == (30, 3)
        assert np.allclose(np.sort(out.points, axis=0), np.sort(pts, axis=0), atol=1e-12)

    def test_invalid_cell(self):
        for cell in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="cell"):
                voxel_downsample(PointCloud(np.zeros((1, 3))), cell=cell)
        with pytest.raises(ValueError, match="cell"):
            voxel_downsample(PointCloud(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])), cell=1e-300)

    def test_negative_coordinates_bucket_correctly(self):
        # floor-based keys must separate -0.1 and +0.1 at cell 1.0
        pts = np.array([[-0.1, 0.0, 0.0], [0.1, 0.0, 0.0]])
        out = voxel_downsample(PointCloud(pts), cell=1.0)
        assert out.points.shape == (2, 3)
