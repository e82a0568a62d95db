import numpy as np
import pytest

from objreloc.detections import (
    DetectedObject,
    FrameDetections,
    NoiseParams,
    simulate_detections,
)
from objreloc.geometry import OrientedBox, RigidTransform, rotation_angle_between, rotation_from_axis_angle
from objreloc.scene import Scene, SceneObject, SensorParams, look_at

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
        box = OrientedBox.create(np.array([0.0, 0.0, 1.0]), np.eye(3), [0.1, 0.1, 0.1])
        with pytest.raises(ValueError, match="'toaster' not in"):
            DetectedObject("toaster", box)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_depth_point_rejected(self, bad):
        with pytest.raises(ValueError, match="depth_points: contains non-finite values"):
            FrameDetections(0, [], np.array([[0.0, 0.0, 1.0], [0.0, 0.0, bad]]))
