import numpy as np
import pytest

from objreloc.errors import DegenerateRotations
from objreloc.geometry import (
    GaussianCentroid,
    OrientedBox,
    RigidTransform,
    box_iou,
    chordal_mean,
    mahalanobis_sq,
    rotation_angle_between,
    rotation_from_axis_angle,
)
from oracles import lattice_box_iou, mc_box_iou


def rz(deg):
    return rotation_from_axis_angle([0, 0, 1], deg)


def random_transform(rng):
    axis = rng.normal(size=3)
    angle = rng.uniform(0, 180)
    return RigidTransform(rotation_from_axis_angle(axis, angle), rng.uniform(-2, 2, 3))


def random_box(rng, center_span=1.0):
    axis = rng.normal(size=3)
    return OrientedBox(
        rng.uniform(-center_span, center_span, 3),
        rotation_from_axis_angle(axis, rng.uniform(0, 180)),
        rng.uniform(0.05, 0.5, 3),
    )


class TestRigidTransform:
    def test_transform_point_identity(self):
        assert np.allclose(RigidTransform.identity().apply([1, 2, 3]), [1, 2, 3])

    def test_transform_point_pure_translation(self):
        t = RigidTransform(np.eye(3), [1, 0, 0])
        assert np.allclose(t.apply([0, 0, 0]), [1, 0, 0])

    def test_transform_point_quarter_turn(self):
        t = RigidTransform(rz(90.0), np.zeros(3))
        np.testing.assert_allclose(t.apply([1, 0, 0]), [0, 1, 0], atol=1e-12)

    def test_round_trip_property(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            t = random_transform(rng)
            p = rng.uniform(-5, 5, 3)
            back = t.inverse().apply(t.apply(p))
            np.testing.assert_allclose(back, p, atol=1e-9)

    def test_invariants(self):
        rng = np.random.default_rng(3)
        t = random_transform(rng)
        assert np.abs(t.rotation.T @ t.rotation - np.eye(3)).max() < 1e-9
        assert abs(np.linalg.det(t.rotation) - 1.0) < 1e-9

    def test_rejects_improper_rotation(self):
        with pytest.raises(ValueError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


class TestRotationAngle:
    def test_same_rotation(self):
        r = rz(37.0)
        assert rotation_angle_between(r, r) == 0.0

    def test_quarter_turn(self):
        # trace(Rz(90)) = 1, so cos = (1-1)/2 = 0 -> 90 deg
        assert abs(rotation_angle_between(np.eye(3), rz(90.0)) - 90.0) < 1e-9

    def test_half_turn(self):
        # trace(Rz(180)) = -1 -> cos = -1 -> 180 deg
        assert abs(rotation_angle_between(np.eye(3), rz(180.0)) - 180.0) < 1e-9

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b, c = (random_transform(rng).rotation for _ in range(3))
            ab = rotation_angle_between(a, b)
            bc = rotation_angle_between(b, c)
            ac = rotation_angle_between(a, c)
            assert ac <= ab + bc + 1e-6


class TestBoxIoU:
    def test_identical_boxes(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            b = random_box(rng)
            assert box_iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        b1 = OrientedBox([0, 0, 0], np.eye(3), [0.5, 0.5, 0.5])
        b2 = OrientedBox([5, 0, 0], np.eye(3), [0.5, 0.5, 0.5])
        assert box_iou(b1, b2) == 0.0

    def test_offset_unit_cubes(self):
        # intersection 0.5, union 1.5 -> exactly 1/3
        b1 = OrientedBox([0, 0, 0], np.eye(3), [0.5, 0.5, 0.5])
        b2 = OrientedBox([0.5, 0, 0], np.eye(3), [0.5, 0.5, 0.5])
        assert abs(box_iou(b1, b2) - 1.0 / 3.0) <= 0.02

    def test_symmetry_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            b1 = random_box(rng)
            b2 = random_box(rng)
            assert box_iou(b1, b2) == box_iou(b2, b1)

    def test_against_monte_carlo_oracle(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for k in range(100):
            b1 = random_box(rng, center_span=0.3)
            b2 = random_box(rng, center_span=0.3)
            got = box_iou(b1, b2)
            want = mc_box_iou(b1, b2, n_samples=1_000_000, seed=1000 + k)
            worst = max(worst, abs(got - want))
        assert worst <= 0.02, f"worst IoU deviation from MC oracle: {worst}"

    def test_scale_invariant(self):
        b = OrientedBox([0, 0, 0], rz(30.0), [0.1, 0.2, 0.3])
        assert abs(b.scale - (8 * 0.1 * 0.2 * 0.3) ** (1 / 3)) < 1e-9

    def test_matches_lattice_oracle_bitwise(self):
        rng = np.random.default_rng(8)
        eye = np.eye(3)
        quarter_z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        quarter_x = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        half_y = np.diag([-1.0, 1.0, -1.0])
        cube = OrientedBox([0, 0, 0], eye, [0.5, 0.5, 0.5])
        pairs = [(random_box(rng, center_span=0.3), random_box(rng, center_span=0.3)) for _ in range(150)]
        # identity orientations, faces on the cube's cell boundaries (k/32 - 0.5)
        # and on its cell-centre planes ((k + 0.5)/32 - 0.5)
        for shift in (0.0, 1 / 32, 5 / 32, 1 / 64, 3 / 64, 0.5 + 1 / 64, -17 / 64):
            for ext in (0.5, 0.25, 1 / 64, 9 / 64):
                pairs.append((cube, OrientedBox([shift, shift / 2, -shift], eye, [ext, 0.5, ext])))
        # tangent: a shared face, a shared edge and a shared corner
        for c in ([1, 0, 0], [1, 1, 0], [1, 1, 1]):
            pairs.append((cube, OrientedBox(c, eye, [0.5, 0.5, 0.5])))
            pairs.append((cube, OrientedBox(c, quarter_z, [0.5, 0.5, 0.5])))
        # one box strictly inside the other
        for _ in range(20):
            small = OrientedBox(rng.uniform(-0.1, 0.1, 3), random_box(rng).orientation,
                                rng.uniform(0.02, 0.1, 3))
            pairs.append((cube, small))
        # thin boxes, extent ratio >= 100
        for _ in range(20):
            thin = OrientedBox(rng.uniform(-0.2, 0.2, 3), random_box(rng).orientation,
                               rng.permutation([0.4, 0.3, rng.uniform(0.001, 0.003)]))
            pairs.append((thin, random_box(rng, center_span=0.2)))
            pairs.append((thin, OrientedBox(thin.centroid, random_box(rng).orientation,
                                            [0.5, 0.004, 0.3])))
        # exact quarter and half turns (zero step components) and their
        # rotation_from_axis_angle counterparts (6e-17 instead of 0)
        for r in (quarter_z, quarter_x, half_y, quarter_z @ quarter_x, rz(90.0), rz(180.0)):
            for shift in (0.0, 1 / 32, 3 / 64, 0.3):
                pairs.append((cube, OrientedBox([shift, 0, shift], r, [0.5, 0.25, 0.125])))
                pairs.append((OrientedBox([0, shift, 0], r, [0.2, 0.3, 0.1]),
                              OrientedBox([shift, 0, 0], r @ quarter_z, [0.3, 0.2, 0.1])))
        partial = 0
        for b1, b2 in pairs:
            got = box_iou(b1, b2)
            assert got == lattice_box_iou(b1, b2), (b1, b2)
            partial += 0.0 < got < 1.0
        assert partial >= len(pairs) // 2


class TestAabb:
    def test_bounds_are_computed_once_and_read_only(self):
        rng = np.random.default_rng(6)
        box = random_box(rng)
        lo, hi = box.aabb()
        again = box.aabb()
        assert np.shares_memory(again[0], lo) and np.shares_memory(again[1], hi)
        half = np.abs(box.orientation) @ box.extents
        assert np.array_equal(lo, box.centroid - half) and np.array_equal(hi, box.centroid + half)
        with pytest.raises(ValueError):
            lo[0] = 0.0


class TestOrientedBoxScale:
    def test_scale_is_not_an_argument(self):
        with pytest.raises(TypeError):
            OrientedBox([0, 0, 0], np.eye(3), [0.1, 0.2, 0.3], 0.5)

    def test_scale_is_cube_root_of_volume(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            box = random_box(rng)
            assert box.scale == float(np.cbrt(box.volume))


class TestMahalanobis:
    def test_zero_offset(self):
        g = GaussianCentroid([1, 2, 3], np.eye(3), 0)
        assert mahalanobis_sq([1, 2, 3], g) == 0.0

    def test_identity_covariance(self):
        g = GaussianCentroid([0, 0, 0], np.eye(3), 0)
        assert abs(mahalanobis_sq([1, 2, 2], g) - 9.0) < 1e-12

    def test_diagonal_covariance(self):
        g = GaussianCentroid([0, 0, 0], np.diag([4.0, 1.0, 1.0]), 0)
        assert abs(mahalanobis_sq([2, 0, 0], g) - 1.0) < 1e-12

    def test_isotropic_equals_scaled_euclidean(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            sigma2 = rng.uniform(0.01, 4.0)
            mean = rng.normal(size=3)
            x = rng.normal(size=3)
            g = GaussianCentroid(mean, sigma2 * np.eye(3), 0)
            want = np.sum((x - mean) ** 2) / sigma2
            assert abs(mahalanobis_sq(x, g) - want) < 1e-9 * max(1.0, want)

    def test_floor_enforced(self):
        with pytest.raises(ValueError):
            GaussianCentroid([0, 0, 0], np.diag([1e-9, 1.0, 1.0]), 0)

    def test_from_samples_mean_and_count(self):
        rng = np.random.default_rng(9)
        s = rng.normal(size=(12, 3))
        d = s - s.mean(axis=0)
        g = GaussianCentroid.from_moments(len(s), s.mean(axis=0), d.T @ d)
        np.testing.assert_allclose(g.mean, s.mean(axis=0), atol=1e-12)
        assert g.sample_count == 12
        assert np.linalg.eigvalsh(g.covariance)[0] >= 1e-6 * (1 - 1e-12)
        # the unbiased sample covariance plus the decaying prior
        np.testing.assert_allclose(g.covariance, d.T @ d / 11 + np.eye(3) * 0.02**2 / 12,
                                   rtol=1e-12, atol=0.0)

    def test_from_samples_prior_below_three(self):
        # the moments of [0, 0, 0] and [0.01, 0, 0]: below three samples the
        # covariance is the prior, whatever the scatter
        g = GaussianCentroid.from_moments(2, [0.005, 0.0, 0.0], np.diag([5e-5, 0.0, 0.0]))
        np.testing.assert_allclose(g.covariance, np.eye(3) * 4e-4, atol=1e-15)


class TestRotationMean:
    """chordal_mean of the element-wise sum of the rotations and their count."""

    def test_singleton(self):
        r = rz(25.0)
        np.testing.assert_allclose(chordal_mean(r, 1), r, atol=1e-12)

    def test_identical_inputs(self):
        np.testing.assert_allclose(chordal_mean(3 * np.eye(3), 3), np.eye(3), atol=1e-12)

    def test_symmetric_pair(self):
        got = chordal_mean(rz(10.0) + rz(-10.0), 2)
        np.testing.assert_allclose(got, np.eye(3), atol=1e-9)

    def test_antipodal_raises(self):
        with pytest.raises(DegenerateRotations):
            chordal_mean(np.eye(3) + rotation_from_axis_angle([1, 0, 0], 180.0), 2)
