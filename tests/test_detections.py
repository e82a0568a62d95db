import numpy as np
import pytest

from objreloc.detections import (
    DetectedObject,
    FrameDetections,
    NoiseParams,
    simulate_detections,
)
from objreloc.geometry import OrientedBox, RigidTransform, rotation_angle_between, rotation_from_axis_angle
from objreloc.scene import (DEFAULT_SENSOR, Scene, SceneObject, SensorParams, TrajectorySpec,
                            generate_scene, generate_trajectory, look_at)

TINY_SENSOR = SensorParams(width=8, height=6)


def one_object_scene(label="laptop", extents=(0.17, 0.12, 0.03), shape="box"):
    obj = SceneObject(label, RigidTransform(np.eye(3), [0.0, 0.0, extents[2]]),
                      np.array(extents), shape)
    return Scene(objects=(obj,), ground_height=0.0, ground_extent=0.8)


def looking_pose():
    return look_at([1.2, 0.0, 0.9], [0.0, 0.0, 0.0])


def frames_equal(a, b):
    if a.frame_id != b.frame_id or len(a.objects) != len(b.objects):
        return False
    if (a.camera_pose_gt is None) != (b.camera_pose_gt is None):
        return False
    if a.camera_pose_gt is not None:
        if not np.array_equal(a.camera_pose_gt.rotation, b.camera_pose_gt.rotation):
            return False
        if not np.array_equal(a.camera_pose_gt.translation, b.camera_pose_gt.translation):
            return False
    for oa, ob in zip(a.objects, b.objects):
        if oa.label != ob.label or oa.confidence != ob.confidence:
            return False
        if not np.array_equal(oa.box.centroid, ob.box.centroid):
            return False
        if not np.array_equal(oa.box.orientation, ob.box.orientation):
            return False
        if not np.array_equal(oa.box.extents, ob.box.extents):
            return False
    return np.array_equal(a.depth_points, b.depth_points)


class TestSimulate:
    def test_zero_noise_single_object(self):
        scene = one_object_scene()
        pose = looking_pose()
        frame = simulate_detections(scene, pose, NoiseParams.noiseless(), 0, TINY_SENSOR)
        assert len(frame.objects) == 1
        det = frame.objects[0]
        obj = scene.objects[0]
        inv = pose.inverse()
        np.testing.assert_allclose(det.box.centroid, inv.apply(obj.pose.translation), atol=1e-12)
        np.testing.assert_allclose(det.box.orientation, inv.rotation @ obj.pose.rotation, atol=1e-12)
        np.testing.assert_allclose(det.box.extents, obj.extents, atol=1e-15)
        assert det.label == "laptop"

    def test_total_dropout_leaves_only_false_positives(self):
        scene = one_object_scene()
        params = NoiseParams(p_false_negative=1.0, false_positive_rate=1.5, seed=3)
        counts = []
        for fid in range(200):
            frame = simulate_detections(scene, looking_pose(), params, fid, TINY_SENSOR)
            for det in frame.objects:
                assert det.confidence == 0.5  # all spurious
            counts.append(len(frame.objects))
        assert abs(np.mean(counts) - 1.5) < 0.3

    def test_flip_fraction(self):
        scene = one_object_scene()
        params = NoiseParams(sigma_centroid=0.01, p_flip=0.15, p_false_negative=0.0,
                             false_positive_rate=0.0, p_label_confusion=0.0, seed=11)
        pose = looking_pose()
        true_rot_cam = pose.inverse().rotation @ scene.objects[0].pose.rotation
        flips = 0
        n = 10_000
        for fid in range(n):
            frame = simulate_detections(scene, pose, params, fid, TINY_SENSOR)
            assert len(frame.objects) == 1
            if rotation_angle_between(frame.objects[0].box.orientation, true_rot_cam) > 90.0:
                flips += 1
        assert abs(flips / n - 0.15) <= 0.01

    def test_flip_geometry(self):
        scene = one_object_scene()
        params = NoiseParams.noiseless(seed=5)
        params = NoiseParams(0.0, 0.0, 0.0, 1.0, 0.12, 0.0, 0.0, 0.0, 0.0, seed=5)
        pose = looking_pose()
        frame = simulate_detections(scene, pose, params, 0, TINY_SENSOR)
        det = frame.objects[0]
        world_centroid = pose.apply(det.box.centroid)
        want = scene.objects[0].pose.translation + 0.12 * scene.objects[0].pose.rotation[:, 0]
        np.testing.assert_allclose(world_centroid, want, atol=1e-9)

    def test_determinism_and_frame_independence(self):
        scene = one_object_scene()
        params = NoiseParams(seed=7)
        pose = looking_pose()
        a = simulate_detections(scene, pose, params, 5, TINY_SENSOR)
        for fid in range(3):
            simulate_detections(scene, pose, params, fid, TINY_SENSOR)
        b = simulate_detections(scene, pose, params, 5, TINY_SENSOR)
        assert frames_equal(a, b)

    def test_zero_noise_faithfulness_world_frame(self):
        from objreloc.scene import generate_scene, generate_trajectory, TrajectorySpec

        scene = generate_scene(object_count=5, seed=9)
        poses = generate_trajectory(TrajectorySpec(frame_count=6, angle_range=180.0))
        truths = {tuple(np.round(o.pose.translation, 9)): o.label for o in scene.objects}
        for fid, pose in enumerate(poses):
            frame = simulate_detections(scene, pose, NoiseParams.noiseless(), fid, TINY_SENSOR)
            for det in frame.objects:
                w = pose.apply(det.box.centroid)
                dists = [np.linalg.norm(w - np.array(k)) for k in truths]
                assert min(dists) < 1e-9

    def test_false_negative_calibration(self):
        scene = one_object_scene()
        params = NoiseParams(p_false_negative=0.1, false_positive_rate=0.0,
                             p_label_confusion=0.0, seed=13)
        pose = looking_pose()
        n = 10_000
        missing = sum(
            1
            for fid in range(n)
            if len(simulate_detections(scene, pose, params, fid, TINY_SENSOR).objects) == 0
        )
        assert abs(missing / n - 0.1) <= 0.01

    def test_false_positive_calibration(self):
        scene = Scene(objects=(), ground_height=0.0, ground_extent=0.8)
        params = NoiseParams(false_positive_rate=0.2, seed=17)
        pose = looking_pose()
        n = 10_000
        total = sum(
            len(simulate_detections(scene, pose, params, fid, TINY_SENSOR).objects)
            for fid in range(n)
        )
        assert abs(total / n - 0.2) <= 0.05


class TestRecordChecks:
    def test_unknown_label_rejected(self):
        box = OrientedBox(np.array([0.0, 0.0, 1.0]), np.eye(3), [0.1, 0.1, 0.1])
        with pytest.raises(ValueError, match="'toaster' not in"):
            DetectedObject("toaster", box)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_depth_point_rejected(self, bad):
        with pytest.raises(ValueError, match="depth_points: contains non-finite values"):
            FrameDetections(0, [], np.array([[0.0, 0.0, 1.0], [0.0, 0.0, bad]]))


class TestOrganisedCloud:
    """A simulated frame carries its sensor, and its depth points are the
    sensor's organised cloud: at most one point per pixel, each on its ray."""

    @pytest.fixture(scope="class")
    def frames(self):
        desk = generate_scene(object_count=5, seed=2)
        poses = generate_trajectory(TrajectorySpec(frame_count=12, angle_range=360.0))
        return [simulate_detections(desk, pose, NoiseParams(seed=2), fid, sensor)
                for sensor in (DEFAULT_SENSOR, SensorParams(fov_deg=60.0, width=64, height=48))
                for fid, pose in enumerate(poses)]

    def test_simulated_frames_are_organised(self, frames):
        for frame in frames:
            assert frame.sensor is not None and len(frame.depth_points) > 0
            flat = frame.sensor.lattice_index(frame.depth_points)
            assert np.all(np.diff(flat) > 0)  # the renderer's pixel order
            stripped = frame.strip_gt()
            assert stripped.sensor is frame.sensor and stripped.camera_pose_gt is None

    def test_shuffled_cloud_is_organised(self, frames):
        frame = frames[0]
        perm = np.random.default_rng(3).permutation(len(frame.depth_points))
        FrameDetections(0, [], frame.depth_points[perm], sensor=frame.sensor)

    def test_shared_pixel_rejected(self, frames):
        frame = frames[0]
        pts = np.vstack([frame.depth_points, frame.depth_points[5] * 1.01])
        pts = pts[np.random.default_rng(4).permutation(len(pts))]
        with pytest.raises(ValueError, match="depth_points: two points share a pixel"):
            FrameDetections(0, [], pts, sensor=frame.sensor)

    def test_point_off_its_ray_rejected(self, frames):
        frame = frames[0]
        pts = frame.depth_points.copy()
        pts[7, 0] += 1e-4
        with pytest.raises(ValueError, match="depth_points: a point lies .* off its pixel's ray"):
            FrameDetections(0, [], pts, sensor=frame.sensor)

    @pytest.mark.parametrize("z", [0.0, -1.0])
    def test_point_behind_the_sensor_rejected(self, z):
        with pytest.raises(ValueError, match="depth_points: 1 points have z <= 0"):
            FrameDetections(0, [], [[0.0, 0.0, 1.0], [0.0, 0.0, z]], sensor=DEFAULT_SENSOR)

    def test_point_outside_the_image_rejected(self):
        f, cx, cy = DEFAULT_SENSOR.pinhole
        with pytest.raises(ValueError, match="depth_points: a point projects outside"):
            FrameDetections(0, [], [[(-1.0 - cx) / f, -cy / f, 1.0]], sensor=DEFAULT_SENSOR)

    def test_depth_noise_never_puts_a_point_behind_the_sensor(self):
        desk = generate_scene(object_count=5, seed=2)
        pose = generate_trajectory(TrajectorySpec(frame_count=1))[0]
        clean = simulate_detections(desk, pose, NoiseParams(seed=2, sigma_depth=0.0), 0)
        noisy = simulate_detections(desk, pose, NoiseParams(seed=2, sigma_depth=2.0), 0)
        assert np.all(noisy.depth_points[:, 2] > 0.0)
        assert 0 < len(noisy.depth_points) < len(clean.depth_points)

    def test_cloud_is_checked_against_the_default_sensor(self, frames):
        pts = np.vstack([frames[0].depth_points, frames[0].depth_points[:3]])
        assert frames[0].sensor is DEFAULT_SENSOR
        with pytest.raises(ValueError, match="depth_points: two points share a pixel"):
            FrameDetections(0, [], pts)

    def test_missing_sensor_rejected(self):
        with pytest.raises(ValueError, match="sensor: expected SensorParams, got None"):
            FrameDetections(0, [], np.zeros((0, 3)), sensor=None)
