import numpy as np
import pytest
from scipy.stats import chi2

from objreloc.detections import DetectedObject, NoiseParams, simulate_detections
from objreloc.geometry import GaussianCentroid, OrientedBox, RigidTransform
from objreloc.mapping import (
    CHI2_GATE_3DOF,
    Configuration,
    FusionParams,
    MapObject,
    ObjectMap,
    associate_detection,
    finalize_map,
    integrate_keyframe,
    select_or_merge_configurations,
)
from objreloc.scene import (
    Scene,
    SceneObject,
    SensorParams,
    TrajectorySpec,
    generate_scene,
    generate_trajectory,
)

TINY_SENSOR = SensorParams(width=8, height=6)


def cube_det(label="mug", center=(0, 0, 0), half=0.5):
    box = OrientedBox.create(np.array(center, dtype=float), np.eye(3), [half] * 3)
    return DetectedObject(label, box)


def single_config_object(label="mug", center=(0, 0, 0), half=0.5):
    det = cube_det(label, center, half)
    return MapObject(label, [Configuration.from_detection(det.box)])


class TestChiSquaredGate:
    def test_constant_matches_statistics_oracle(self):
        assert abs(CHI2_GATE_3DOF - chi2.ppf(0.999, 3)) <= 0.001


class TestAssociate:
    def test_perfect_overlap(self):
        m = ObjectMap([single_config_object("mug")])
        assert associate_detection(m, cube_det("mug")) == (0, 0)

    def test_label_mismatch(self):
        m = ObjectMap([single_config_object("mug")])
        assert associate_detection(m, cube_det("bowl")) is None

    def test_picks_higher_iou(self):
        # axis-aligned unit cubes offset d have IoU (1-d)/(1+d):
        # d=0.25 -> 0.6, d=3/7 -> 0.4, both above tau=0.3
        m = ObjectMap(
            [
                single_config_object("mug", center=(0.25, 0, 0)),
                single_config_object("mug", center=(3 / 7, 0, 0)),
            ],
            fusion_params=FusionParams(tau=0.3),
        )
        assert associate_detection(m, cube_det("mug")) == (0, 0)

    def test_below_tau_is_none(self):
        m = ObjectMap([single_config_object("mug", center=(0.9, 0, 0))])
        # IoU = 0.1/1.9 ~ 0.053, below any sensible tau
        assert associate_detection(m, cube_det("mug")) is None


class TestGateDecision:
    def test_zero_distance_updates(self):
        obj = single_config_object()
        d = select_or_merge_configurations(obj, np.zeros(3), CHI2_GATE_3DOF)
        assert d.kind == "update" and d.indices == (0,)

    def test_far_centroid_is_new(self):
        obj = single_config_object()
        obj.configurations[0].centroid = GaussianCentroid(np.zeros(3), np.eye(3) * 1e-4, 1)
        d = select_or_merge_configurations(obj, np.array([1.0, 0, 0]), CHI2_GATE_3DOF)
        assert d.kind == "new"  # d^2 = 1e4 > 16.266

    def test_two_passing_merge(self):
        obj = single_config_object()
        second = Configuration.from_detection(cube_det(center=(0.02, 0, 0)).box)
        obj.configurations.append(second)
        d = select_or_merge_configurations(obj, np.array([0.01, 0, 0]), CHI2_GATE_3DOF)
        assert d.kind == "merge" and d.indices == (0, 1)

    def test_gate_equality_fails(self):
        obj = single_config_object()
        obj.configurations[0].centroid = GaussianCentroid(np.zeros(3), np.eye(3), 1)
        dist = np.sqrt(9.0)
        d = select_or_merge_configurations(obj, np.array([dist, 0, 0]), 9.0)
        assert d.kind == "new"


def make_frame(dets, frame_id=0):
    from objreloc.detections import FrameDetections

    return FrameDetections(frame_id, dets, np.zeros((0, 3)))


class TestIntegrate:
    def test_first_frame_initialises(self):
        m = ObjectMap()
        frame = make_frame([cube_det("mug", (0.2, 0, 0.1), 0.05), cube_det("bowl", (-0.2, 0, 0.1), 0.08)])
        pose = RigidTransform.identity()
        integrate_keyframe(m, frame, pose, TINY_SENSOR)
        assert len(m) == 2
        for obj in m.objects:
            assert len(obj.configurations) == 1
            assert obj.configurations[0].centroid.sample_count == 1
            assert obj.update_count == 1

    def test_repeated_identical_evidence(self):
        m = ObjectMap()
        pose = RigidTransform.identity()
        det = cube_det("mug", (0.0, 0.0, 2.0), 0.05)
        for fid in range(5):
            integrate_keyframe(m, make_frame([det], fid), pose, SensorParams())
        assert len(m) == 1
        obj = m.objects[0]
        assert len(obj.configurations) == 1
        assert obj.configurations[0].centroid.sample_count == 5
        np.testing.assert_allclose(obj.configurations[0].centroid.mean, [0, 0, 2.0], atol=1e-12)
        assert obj.update_count == 5
        assert obj.expected_view_count == 5

    def test_flip_sequence_builds_two_configurations(self):
        scene = Scene(
            objects=(
                SceneObject(
                    "laptop", RigidTransform(np.eye(3), [0.0, 0.0, 0.03]),
                    np.array([0.17, 0.12, 0.03]), "box"
                ),
            ),
            ground_height=0.0,
            ground_extent=0.8,
        )
        params = NoiseParams(
            sigma_centroid=0.005, sigma_scale=0.0, sigma_rot=0.0, p_flip=0.5,
            flip_offset=0.12, p_false_negative=0.0, false_positive_rate=0.0,
            p_label_confusion=0.0, sigma_depth=0.0, seed=123,
        )
        poses = generate_trajectory(TrajectorySpec(frame_count=20, angle_range=120.0, radius=1.3, height=1.0))
        m = ObjectMap()
        for fid, pose in enumerate(poses):
            frame = simulate_detections(scene, pose, params, fid, TINY_SENSOR)
            integrate_keyframe(m, frame, pose, TINY_SENSOR)
        assert len(m) == 1
        cfgs = m.objects[0].configurations
        assert len(cfgs) == 2
        gap = np.linalg.norm(cfgs[0].centroid.mean - cfgs[1].centroid.mean)
        assert abs(gap - 0.12) < 0.02

    def test_mean_equals_sample_mean_and_floor(self):
        rng = np.random.default_rng(0)
        m = ObjectMap()
        pose = RigidTransform.identity()
        for fid in range(10):
            c = np.array([0.0, 0.0, 2.0]) + rng.normal(0, 0.01, 3)
            integrate_keyframe(m, make_frame([cube_det("mug", c, 0.05)], fid), pose, SensorParams())
        for obj in m.objects:
            for cfg in obj.configurations:
                np.testing.assert_allclose(
                    cfg.centroid.mean, np.mean(cfg.samples, axis=0), atol=1e-9
                )
                assert np.linalg.eigvalsh(cfg.centroid.covariance)[0] >= 1e-6 * (1 - 1e-12)
                np.testing.assert_allclose(cfg.box.centroid, cfg.centroid.mean, atol=1e-9)

    def test_update_is_idempotent_at_steady_state(self):
        m = ObjectMap()
        pose = RigidTransform.identity()
        det = cube_det("mug", (0.1, 0.2, 2.0), 0.05)
        for fid in range(4):
            integrate_keyframe(m, make_frame([det], fid), pose, SensorParams())
        obj = m.objects[0]
        d = select_or_merge_configurations(
            obj, obj.configurations[0].centroid.mean, m.fusion_params.chi2_gate
        )
        assert d.kind == "update"

    def test_object_count_never_decreases(self):
        rng = np.random.default_rng(1)
        m = ObjectMap()
        pose = RigidTransform.identity()
        last = 0
        for fid in range(20):
            dets = [
                cube_det("mug", rng.uniform(-1, 1, 3) + [0, 0, 2.5], 0.05)
                for _ in range(rng.integers(0, 3))
            ]
            integrate_keyframe(m, make_frame(dets, fid), pose, SensorParams())
            assert len(m) >= last
            last = len(m)

    def test_detection_order_permutation_stable(self):
        rng = np.random.default_rng(2)
        pose = RigidTransform.identity()
        dets = [
            cube_det("mug", (0.4, 0.0, 2.0), 0.05),
            cube_det("bowl", (-0.4, 0.0, 2.0), 0.08),
            cube_det("laptop", (0.0, 0.4, 2.0), 0.15),
        ]
        m1 = ObjectMap()
        m2 = ObjectMap()
        for fid in range(6):
            perm = rng.permutation(3)
            integrate_keyframe(m1, make_frame(dets, fid), pose, SensorParams())
            integrate_keyframe(m2, make_frame([dets[i] for i in perm], fid), pose, SensorParams())
        means1 = sorted(tuple(o.configurations[0].centroid.mean) for o in m1.objects)
        means2 = sorted(tuple(o.configurations[0].centroid.mean) for o in m2.objects)
        np.testing.assert_allclose(means1, means2, atol=1e-9)


def snapshot(obj_map):
    """A map's labels, key-frame sets, view counts and configurations, as plain values."""
    return [
        (obj.label, sorted(obj.detected_keyframes), obj.expected_view_count, [
            (cfg.centroid.mean.tolist(), cfg.centroid.covariance.tolist(),
             cfg.centroid.sample_count, cfg.box.orientation.tolist(), cfg.box.extents.tolist())
            for cfg in obj.configurations
        ])
        for obj in obj_map.objects
    ]


class TestFinalize:
    def test_finalized_map_rejects_integration(self):
        final = finalize_map(ObjectMap([single_config_object()]), 1)
        with pytest.raises(ValueError):
            integrate_keyframe(final, make_frame([]), RigidTransform.identity())

    def test_finalize_rejects_finalized_map(self):
        obj = single_config_object()
        obj.detected_keyframes = {0, 1}
        final = finalize_map(ObjectMap([obj], processed_keyframes=2), 2)
        assert len(final) == 1
        with pytest.raises(ValueError):
            finalize_map(final, 2)

    def test_retained_at_quarter_fraction(self):
        obj = single_config_object()
        obj.detected_keyframes = set(range(10))
        obj.expected_view_count = 20
        m = ObjectMap([obj], processed_keyframes=20)
        out = finalize_map(m, 20)
        assert len(out) == 1 and out.finalized

    def test_false_positive_removed(self):
        obj = single_config_object()
        obj.detected_keyframes = {0}
        obj.expected_view_count = 30
        m = ObjectMap([obj], processed_keyframes=30)
        assert len(finalize_map(m, 30)) == 0

    def test_single_update_removed_regardless_of_view_count(self):
        obj = single_config_object()
        obj.detected_keyframes = {0}
        obj.expected_view_count = 1
        m = ObjectMap([obj], processed_keyframes=40)
        assert len(finalize_map(m, 40)) == 0

    def test_mug_flip_ghost_folds_into_its_object(self):
        # a flip moves a mug's box out of IoU reach, founding a second object;
        # finalisation folds it back as a second configuration
        scene = Scene(
            objects=(
                SceneObject(
                    "mug", RigidTransform(np.eye(3), [0.0, 0.0, 0.055]),
                    np.array([0.06, 0.06, 0.055]), "cylinder"
                ),
            ),
            ground_height=0.0,
            ground_extent=0.8,
        )
        params = NoiseParams(
            sigma_centroid=0.005, sigma_scale=0.0, sigma_rot=0.0, p_flip=0.3,
            flip_offset=0.12, p_false_negative=0.0, false_positive_rate=0.0,
            p_label_confusion=0.0, sigma_depth=0.0, seed=123,
        )
        poses = generate_trajectory(TrajectorySpec(frame_count=20, angle_range=120.0, radius=1.3, height=1.0))
        m = ObjectMap()
        for fid, pose in enumerate(poses):
            frame = simulate_detections(scene, pose, params, fid, TINY_SENSOR)
            integrate_keyframe(m, frame, pose, TINY_SENSOR)
        assert len(m) == 2
        before = snapshot(m)
        final = finalize_map(m, 20)
        assert snapshot(m) == before  # the input map is left unmodified
        assert len(final) == 1
        cfgs = final.objects[0].configurations
        assert len(cfgs) == 2
        assert cfgs[0].centroid.sample_count > cfgs[1].centroid.sample_count
        assert np.linalg.norm(cfgs[0].centroid.mean - [0.0, 0.0, 0.055]) < 0.01
        gap = np.linalg.norm(cfgs[0].centroid.mean - cfgs[1].centroid.mean)
        assert abs(gap - 0.12) < 0.02

    def test_co_detected_neighbours_stay_apart(self):
        # centroids 0.12 apart, within the 0.17 sum of half-diagonals
        m = ObjectMap()
        dets = [cube_det("mug", (0.0, 0.0, 2.0), 0.05), cube_det("mug", (0.12, 0.0, 2.0), 0.05)]
        for fid in range(5):
            integrate_keyframe(m, make_frame(dets, fid), RigidTransform.identity(), SensorParams())
        assert len(finalize_map(m, 5)) == 2

    def test_label_confusion_duplicate_absorbed(self):
        m = ObjectMap()
        pose = RigidTransform.identity()
        for fid in range(8):
            label = "mug" if fid < 6 else "bowl"
            integrate_keyframe(m, make_frame([cube_det(label, (0.0, 0.0, 2.0), 0.05)], fid), pose, SensorParams())
        assert len(m) == 2
        final = finalize_map(m, 8)
        assert len(final) == 1
        obj = final.objects[0]
        assert obj.label == "mug" and len(obj.configurations) == 1
        assert obj.update_count == 8

    def test_configurations_ordered_by_sample_count(self):
        # a first observation in the flip mode founds configurations[0]
        m = ObjectMap()
        pose = RigidTransform.identity()
        for fid, x in enumerate([0.12, 0.0, 0.0, 0.0]):
            integrate_keyframe(m, make_frame([cube_det("laptop", (x, 0.0, 2.0), 0.2)], fid), pose, SensorParams())
        assert [c.centroid.sample_count for c in m.objects[0].configurations] == [1, 3]
        cfgs = finalize_map(m, 4).objects[0].configurations
        assert [c.centroid.sample_count for c in cfgs] == [3, 1]
        np.testing.assert_allclose(cfgs[0].centroid.mean, [0.0, 0.0, 2.0], atol=1e-12)

    def test_monte_carlo_false_positive_rejection(self):
        sensor = SensorParams(width=8, height=6)
        exact = 0
        for seed in range(100):
            scene = generate_scene(object_count=5, seed=1000 + seed)
            params = NoiseParams(
                sigma_centroid=0.01, sigma_scale=0.02, sigma_rot=3.0, p_flip=0.0,
                flip_offset=0.12, p_false_negative=0.1, false_positive_rate=0.5,
                p_label_confusion=0.0, sigma_depth=0.0, seed=seed,
            )
            poses = generate_trajectory(TrajectorySpec(frame_count=40, angle_range=120.0))
            m = ObjectMap()
            for fid, pose in enumerate(poses):
                frame = simulate_detections(scene, pose, params, fid, sensor)
                integrate_keyframe(m, frame, pose, sensor)
            final = finalize_map(m, 40)
            if len(final) == len(scene.objects):
                truths = np.array([o.pose.translation for o in scene.objects])
                ok = all(
                    np.linalg.norm(truths - obj.configurations[0].centroid.mean, axis=1).min() < 0.1
                    for obj in final.objects
                )
                exact += ok
        assert exact >= 95

