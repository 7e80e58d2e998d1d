import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvreg import EmptyErrors, ErrorReport, RigidMotion, Rotation3, ecdf
from mvreg.metrics import motion_errors
from mvreg.synthetic import random_motion, rotation_about_axis


def angular_error(a: Rotation3, b: Rotation3) -> float:
    """Rotation error in degrees of motion_errors, for one pair of rotations."""
    rot, _ = motion_errors([RigidMotion(a, np.zeros(3)).matrix], [RigidMotion(b, np.zeros(3)).matrix])
    return float(rot[0])


class TestAngularError:
    def test_identity_is_zero(self):
        assert angular_error(Rotation3.identity(), Rotation3.identity()) == 0.0

    def test_known_angle(self):
        a = rotation_about_axis((0, 0, 1), np.radians(25.0))
        assert abs(angular_error(Rotation3.identity(), a) - 25.0) < 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = random_motion(rng).rotation, random_motion(rng).rotation
        assert abs(angular_error(a, b) - angular_error(b, a)) < 1e-12


class TestMotionErrors:
    def test_translation_error_is_euclidean(self):
        est = np.tile(np.eye(4), (2, 1, 1))
        ref = est.copy()
        est[0, :3, 3] = [3.0, 4.0, 0.0]
        ref[1, :3, 3] = [1.0, -2.0, 2.0]
        rot, trans = motion_errors(est, ref)
        assert rot.tolist() == [0.0, 0.0]
        assert np.allclose(trans, [5.0, 3.0], atol=1e-15)

    def test_each_error_ignores_the_other_component(self):
        turned = RigidMotion(rotation_about_axis((1, 0, 0), np.radians(40.0)), np.zeros(3))
        shifted = RigidMotion(Rotation3.identity(), np.array([0.0, 0.0, 2.0]))
        rot, trans = motion_errors([turned.matrix, shifted.matrix], np.tile(np.eye(4), (2, 1, 1)))
        assert abs(rot[0] - 40.0) < 1e-9 and trans[0] == 0.0
        assert rot[1] == 0.0 and trans[1] == 2.0

    def test_stack_matches_each_row(self):
        rng = np.random.default_rng(1)
        est = np.stack([random_motion(rng).matrix for _ in range(7)])
        ref = np.stack([random_motion(rng).matrix for _ in range(7)])
        rot, trans = motion_errors(est, ref)
        assert rot.shape == trans.shape == (7,)
        for k in range(7):
            one_rot, one_trans = motion_errors(est[k:k + 1], ref[k:k + 1])
            assert one_rot[0] == rot[k] and one_trans[0] == trans[k]


class TestEcdf:
    def test_documented_example(self):
        values = ecdf([1.0, 4.0, 20.0], [1.0, 3.0, 5.0, 20.0, 45.0])
        assert values == [1 / 3, 1 / 3, 2 / 3, 1.0, 1.0]

    def test_threshold_equal_to_error_counts(self):
        assert ecdf([2.0], [2.0]) == [1.0]

    def test_empty_errors(self):
        with pytest.raises(EmptyErrors):
            ecdf([], [1.0, 2.0])

    # NaN compares false, so an ascending check alone would let it through
    @pytest.mark.parametrize("thresholds", [[5.0, 1.0], [np.nan, 5.0], [5.0, np.nan], []],
                             ids=["descending", "nan_first", "nan_last", "empty"])
    def test_unsorted_thresholds(self, thresholds):
        with pytest.raises(ValueError):
            ecdf([1.0], thresholds)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(0, 100), min_size=1, max_size=30),
        st.lists(st.floats(0, 100), min_size=1, max_size=10),
    )
    def test_monotone_and_bounded(self, errors, thresholds):
        thr = sorted(thresholds)
        values = ecdf(errors, thr)
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 100), min_size=2, max_size=30), st.integers(0, 2**16))
    def test_permutation_invariant(self, errors, seed):
        rng = np.random.default_rng(seed)
        thr = [10.0, 50.0]
        shuffled = list(np.array(errors)[rng.permutation(len(errors))])
        assert ecdf(errors, thr) == ecdf(shuffled, thr)


class TestErrorReport:
    def test_summary_statistics(self):
        report = ErrorReport.from_errors([1.0, 2.0, 9.0], [0.01, 0.02, 0.3])
        assert report.mean_rotation_deg == 4.0
        assert report.median_rotation_deg == 2.0
        assert abs(report.mean_translation_m - 0.11) < 1e-12
        assert report.ecdf_rotation == (2 / 3, 2 / 3, 1.0, 1.0, 1.0)
        assert report.ecdf_translation == (2 / 3, 2 / 3, 2 / 3, 1.0, 1.0)

    def test_custom_thresholds(self):
        report = ErrorReport.from_errors([1.0], [1.0], (0.5, 2.0), (0.5, 2.0))
        assert report.ecdf_rotation == (0.0, 1.0)
        assert report.rotation_thresholds_deg == (0.5, 2.0)
