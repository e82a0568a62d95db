import json
import re
from dataclasses import replace
from math import comb
from pathlib import Path

import numpy as np
import pytest

from objreloc import pipeline, registration
from objreloc.detections import FrameDetections, NoiseParams, simulate_detections
from objreloc.errors import ConfigError, MissingGroundTruth
from objreloc.geometry import RigidTransform, rotation_angle_between
from objreloc.mapping import FusionParams
from objreloc.pipeline import (
    DEFAULT_THRESHOLDS,
    BenchmarkReport,
    RelocParams,
    RelocResult,
    build_map,
    evaluate,
    relocalise,
    resolve_config,
    run_benchmark,
)
from objreloc.registration import ICP_ITERATIONS
from objreloc.scene import SensorParams, TrajectorySpec, generate_scene, generate_trajectory

TINY_SENSOR = SensorParams(width=8, height=6)

ZERO_NOISE = {k: 0.0 for k in (
    "sigma_centroid", "sigma_scale", "sigma_rot", "p_flip", "flip_offset",
    "p_false_negative", "false_positive_rate", "p_label_confusion", "sigma_depth",
)}


def make_frames(scene, poses, params, sensor):
    return [simulate_detections(scene, p, params, i, sensor) for i, p in enumerate(poses)]


class TestBuildMap:
    def test_zero_noise_exact_map(self):
        scene = generate_scene(object_count=5, seed=1)
        poses = generate_trajectory(TrajectorySpec(frame_count=40, angle_range=120.0))
        frames = make_frames(scene, poses, NoiseParams.noiseless(seed=1), TINY_SENSOR)
        obj_map, surface = build_map(frames, sensor=TINY_SENSOR)
        assert surface is None
        assert len(obj_map) == 5
        truths = np.array([o.pose.translation for o in scene.objects])
        for obj in obj_map.objects:
            assert len(obj.configurations) == 1
            d = np.linalg.norm(truths - obj.configurations[0].centroid.mean, axis=1).min()
            assert d < 1e-9

    def test_nominal_noise_map_quality(self):
        good = 0
        for seed in range(50):
            scene = generate_scene(object_count=5, seed=200 + seed)
            poses = generate_trajectory(TrajectorySpec(frame_count=40, angle_range=120.0))
            frames = make_frames(scene, poses, NoiseParams(seed=seed), TINY_SENSOR)
            obj_map, _ = build_map(frames, sensor=TINY_SENSOR)
            truths = np.array([o.pose.translation for o in scene.objects])
            if len(obj_map) != 5:
                continue
            if all(
                np.linalg.norm(truths - o.configurations[0].centroid.mean, axis=1).min() < 0.01
                for o in obj_map.objects
            ):
                good += 1
        assert good >= 47  # >= 95% of 50 seeds

    def test_requires_poses(self):
        frame = FrameDetections(0, [], np.zeros((0, 3)), camera_pose_gt=None)
        with pytest.raises(ValueError, match="pose"):
            build_map([frame])


class TestRelocalise:
    @pytest.fixture(scope="class")
    def zero_noise_setup(self):
        scene = generate_scene(object_count=5, seed=5)
        sensor = SensorParams(width=80, height=60)
        poses = generate_trajectory(
            TrajectorySpec(frame_count=40, angle_range=120.0, start_deg=-60.0)
        )
        frames = make_frames(scene, poses, NoiseParams.noiseless(seed=5), sensor)
        obj_map, surface = build_map(frames, sensor=sensor, scene=scene)
        return scene, sensor, obj_map, surface

    def test_too_few_objects(self, zero_noise_setup):
        scene, sensor, obj_map, surface = zero_noise_setup
        pose = generate_trajectory(TrajectorySpec(frame_count=1, start_deg=90.0))[0]
        frame = simulate_detections(scene, pose, NoiseParams.noiseless(seed=5), 900, sensor)
        frame = FrameDetections(900, frame.objects[:2], frame.depth_points, None, sensor=sensor)
        res = relocalise(frame, obj_map, surface)
        assert res.status == "failed" and res.reason == "TooFewObjects"
        assert res.pose_final is None

    def test_zero_noise_exact(self, zero_noise_setup):
        scene, sensor, obj_map, surface = zero_noise_setup
        pose = generate_trajectory(TrajectorySpec(frame_count=1, start_deg=150.0))[0]
        frame = simulate_detections(scene, pose, NoiseParams.noiseless(seed=5), 901, sensor)
        res = relocalise(frame.strip_gt(), obj_map, surface)
        assert res.status == "success"
        assert np.linalg.norm(res.pose_final.translation - pose.translation) < 1e-6
        from objreloc.geometry import rotation_angle_between

        assert rotation_angle_between(res.pose_final.rotation, pose.rotation) < 1e-4

    def test_never_reads_ground_truth(self, zero_noise_setup):
        scene, sensor, obj_map, surface = zero_noise_setup

        class Guard(RigidTransform):
            pass

        pose = generate_trajectory(TrajectorySpec(frame_count=1, start_deg=60.0))[0]
        frame = simulate_detections(scene, pose, NoiseParams.noiseless(seed=5), 902, sensor)
        res_with = relocalise(frame, obj_map, surface)
        res_without = relocalise(frame.strip_gt(), obj_map, surface)
        assert np.array_equal(res_with.pose_final.rotation, res_without.pose_final.rotation)
        assert np.array_equal(res_with.pose_final.translation, res_without.pose_final.translation)

    def test_icp_report_on_success(self, zero_noise_setup):
        scene, sensor, obj_map, surface = zero_noise_setup
        pose = generate_trajectory(TrajectorySpec(frame_count=1, start_deg=150.0))[0]
        frame = simulate_detections(scene, pose, NoiseParams.noiseless(seed=5), 904, sensor)
        res = relocalise(frame, obj_map, surface)
        assert res.status == "success"
        assert 1 <= res.icp_iterations <= ICP_ITERATIONS
        assert res.icp_converged and not res.icp_diverged
        ao_only = relocalise(frame, obj_map, surface, RelocParams(use_icp=False))
        assert ao_only.status == "success"
        assert (ao_only.icp_iterations, ao_only.icp_converged, ao_only.icp_diverged) == (
            0, False, False)

    def test_ransac_hypotheses_reported(self, zero_noise_setup):
        scene, sensor, obj_map, surface = zero_noise_setup
        pose = generate_trajectory(TrajectorySpec(frame_count=1, start_deg=150.0))[0]
        frame = simulate_detections(scene, pose, NoiseParams.noiseless(seed=5), 906, sensor)
        with_icp = relocalise(frame, obj_map, surface)
        ao_only = relocalise(frame, obj_map, surface, RelocParams(use_icp=False))
        n = with_icp.correspondences_used
        assert with_icp.status == ao_only.status == "success" and n >= 4
        # no three of the desk's object centroids are collinear
        assert with_icp.ransac_hypotheses == ao_only.ransac_hypotheses == comb(n, 3)
        report = evaluate([with_icp], {906: pose}).canonical_json(include_timing=True)
        assert "ransac_hypotheses" not in report
        two = FrameDetections(906, frame.objects[:2], frame.depth_points, None, sensor=sensor)
        assert relocalise(two, obj_map, surface).ransac_hypotheses == 0

    def test_icp_points_reported(self, zero_noise_setup):
        scene, sensor, obj_map, surface = zero_noise_setup
        pose = generate_trajectory(TrajectorySpec(frame_count=1, start_deg=150.0))[0]
        frame = simulate_detections(scene, pose, NoiseParams.noiseless(seed=5), 907, sensor)
        with_icp = relocalise(frame, obj_map, surface)
        sampled = relocalise(frame, obj_map, surface, RelocParams(icp_max_points=100))
        ao_only = relocalise(frame, obj_map, surface, RelocParams(use_icp=False))
        assert with_icp.status == sampled.status == ao_only.status == "success"
        assert 100 < with_icp.icp_points <= len(frame.depth_points)
        assert sampled.icp_points == 100
        assert ao_only.icp_points == 0
        report = evaluate([with_icp], {907: pose}).canonical_json(include_timing=True)
        assert "icp_points" not in report
        two = FrameDetections(907, frame.objects[:2], frame.depth_points, None, sensor=sensor)
        assert relocalise(two, obj_map, surface).icp_points == 0

    def test_ao_only_computes_no_normals(self, zero_noise_setup, monkeypatch):
        scene, sensor, obj_map, surface = zero_noise_setup

        class Called(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Called

        monkeypatch.setattr(registration, "estimate_normals", refuse)
        monkeypatch.setattr(registration, "normal_space_sample", refuse)
        pose = generate_trajectory(TrajectorySpec(frame_count=1, start_deg=150.0))[0]
        frame = simulate_detections(scene, pose, NoiseParams.noiseless(seed=5), 908, sensor)
        res = relocalise(frame, obj_map, None, RelocParams(use_icp=False))
        assert res.status == "success" and res.icp_points == 0
        rep = run_benchmark(small_benchmark_config(reloc={"use_icp": False}))
        assert any(e["status"] == "success" for e in rep.per_frame)
        # the same frame with ICP does reach them
        with pytest.raises(Called):
            relocalise(frame, obj_map, surface)

    def test_diverged_icp_falls_back_to_ao_pose(self, zero_noise_setup, monkeypatch):
        scene, sensor, obj_map, surface = zero_noise_setup
        real_icp = pipeline.depth_centroid_icp

        def diverging_icp(*args, **kwargs):
            res = real_icp(*args, **kwargs)
            far = RigidTransform(res.pose.rotation, res.pose.translation + 0.5)
            return replace(res, pose=far, diverged=True)

        monkeypatch.setattr(pipeline, "depth_centroid_icp", diverging_icp)
        pose = generate_trajectory(TrajectorySpec(frame_count=1, start_deg=150.0))[0]
        frame = simulate_detections(scene, pose, NoiseParams.noiseless(seed=5), 905, sensor)
        res = relocalise(frame, obj_map, surface)
        assert res.status == "success"
        assert res.icp_diverged and res.icp_iterations >= 1
        assert res.pose_final is res.pose_ao
        assert np.linalg.norm(res.pose_final.translation - pose.translation) < 1e-6


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
CONFIGS = Path(__file__).resolve().parents[1] / "src" / "objreloc" / "configs"


def benchmark_setup(path):
    """Scene, sensor, noise, map, surface, reloc params and lost-frame poses of a
    benchmark config, as run_benchmark builds them."""
    cfg = resolve_config(json.loads(path.read_text()))
    sensor = SensorParams(**cfg["sensor"])
    noise = NoiseParams(**cfg["noise"], seed=cfg["seed"])
    desk = generate_scene(object_count=cfg["scene"]["object_count"], seed=cfg["seed"])
    mcs = cfg["mcs"]
    orbit = dict(radius=mcs["radius"], height=mcs["height"], lookat=tuple(mcs["lookat"]))
    kf_poses = generate_trajectory(TrajectorySpec(
        angle_range=mcs["angle_range"], frame_count=mcs["frame_count"],
        start_deg=-mcs["angle_range"] / 2.0, **orbit))[:: mcs["keyframe_every"]]
    frames = make_frames(desk, kf_poses, noise, sensor)
    obj_map, surface = build_map(frames, FusionParams(**cfg["fusion"]), sensor, scene=desk)
    lost = {}
    for si, seg in enumerate(cfg["rs_segments"]):
        spec = TrajectorySpec(angle_range=seg["sweep_deg"], frame_count=seg["frame_count"],
                              start_deg=seg["view_change_deg"] - seg["sweep_deg"] / 2.0,
                              **orbit)
        for k, pose in enumerate(generate_trajectory(spec)):
            lost[100000 * (si + 1) + k] = pose
    return desk, sensor, noise, obj_map, surface, RelocParams(**cfg["reloc"]), lost


class TestIcpStop:
    """ICP stops on a pose step below the sensor's noise, not on a vanishing one."""

    @pytest.fixture(scope="class")
    def reloc_views(self):
        return benchmark_setup(WORKLOADS / "reloc-views.json")

    # accurate frames whose ICP steps settle at 4e-5 to 4e-4 and never fall to
    # 1e-8, so an update-norm test ran each of them to the iteration cap
    @pytest.mark.parametrize("frame_id", [100003, 200016, 200025, 300008, 300015, 300021, 300026])
    def test_settled_steps_stop_before_the_cap(self, reloc_views, monkeypatch, frame_id):
        desk, sensor, noise, obj_map, surface, params, lost = reloc_views
        reports = []
        real_icp = pipeline.depth_centroid_icp

        def recording_icp(*args, **kwargs):
            reports.append(real_icp(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(pipeline, "depth_centroid_icp", recording_icp)
        frame = simulate_detections(desk, lost[frame_id], noise, frame_id, sensor)
        res = relocalise(frame.strip_gt(), obj_map, surface, params)
        assert res.status == "success" and len(reports) == 1
        assert reports[0].converged and reports[0].iterations < ICP_ITERATIONS
        trans_ok, rot_ok = DEFAULT_THRESHOLDS[0]
        assert np.linalg.norm(res.pose_final.translation - lost[frame_id].translation) < trans_ok
        assert rotation_angle_between(res.pose_final.rotation, lost[frame_id].rotation) < rot_ok


class TestPlanarGate:
    """A frame whose windows are mostly too sparse for a normal is not relocalised
    on the normals of one to three points."""

    @pytest.fixture(scope="class")
    def reloc_views(self):
        return benchmark_setup(WORKLOADS / "reloc-views.json")

    def test_frame_without_planar_points_declines(self, reloc_views):
        desk, sensor, noise, obj_map, surface, params, lost = reloc_views
        frame = simulate_detections(desk, lost[100003], noise, 100003, sensor)
        full = relocalise(frame, obj_map, surface, params)
        assert full.status == "success" and full.icp_points == registration.ICP_SAMPLE_POINTS
        # every second pixel row and column: each window holds its own point
        # alone, so no variation is finite and the median is inf
        u, v = np.divmod(sensor.lattice_index(frame.depth_points), sensor.height)
        thin = replace(frame, depth_points=frame.depth_points[(u % 2 == 0) & (v % 2 == 0)])
        _, variation = registration.estimate_normals(
            thin.depth_points, sensor, sensor.lattice_index(thin.depth_points))
        assert len(variation) > 1000 and np.all(np.isinf(variation))
        res = relocalise(thin, obj_map, surface, params)
        assert (res.status, res.reason, res.icp_points) == ("failed", "NoCorrespondences", 0)
        assert res.pose_final is None


class TestIcpDivergence:
    """Rounding in the ~1e-28 ICP cost of a noise-free frame is not divergence."""

    @pytest.fixture(scope="class")
    def exact(self):
        return benchmark_setup(CONFIGS / "exact.json")

    # lost frames whose ICP cost rises from 2.2e-28 to 2.6e-28 and 2.8e-28
    @pytest.mark.parametrize("frame_id", [200032, 300032])
    def test_rounding_is_not_divergence(self, exact, frame_id):
        desk, sensor, noise, obj_map, surface, params, lost = exact
        frame = simulate_detections(desk, lost[frame_id], noise, frame_id, sensor)
        res = relocalise(frame.strip_gt(), obj_map, surface, params)
        assert res.status == "success" and res.icp_iterations >= 1
        assert not res.icp_diverged
        assert np.linalg.norm(res.pose_final.translation - lost[frame_id].translation) < 1e-6


class TestEvaluate:
    def pose(self, t=(0, 0, 0), rz=0.0):
        from objreloc.geometry import rotation_from_axis_angle

        return RigidTransform(rotation_from_axis_angle([0, 0, 1], rz), np.array(t, dtype=float))

    def result(self, frame_id, pose):
        return RelocResult(frame_id, "success", None, pose, pose,
                           correspondences_used=4, inlier_count=4)

    def test_exact_match_all_thresholds(self):
        gt = {0: self.pose()}
        rep = evaluate([self.result(0, self.pose())], gt)
        assert all(rate == 1.0 for rate in rep.success_rate_at.values())
        assert rep.per_frame[0]["trans_error_m"] == 0.0

    def test_threshold_ladder(self):
        gt = {0: self.pose()}
        rep = evaluate([self.result(0, self.pose(t=(0.07, 0, 0)))], gt)
        assert rep.success_rate_at[(0.05, 5.0)] == 0.0
        assert rep.success_rate_at[(0.10, 10.0)] == 1.0
        assert rep.success_rate_at[(0.15, 15.0)] == 1.0

    def test_all_failed(self):
        gt = {i: self.pose() for i in range(3)}
        results = [RelocResult(i, "failed", "TooFewObjects") for i in range(3)]
        rep = evaluate(results, gt)
        assert all(rate == 0.0 for rate in rep.success_rate_at.values())
        assert all(e["trans_error_m"] is None for e in rep.per_frame)

    def test_missing_ground_truth(self):
        with pytest.raises(MissingGroundTruth):
            evaluate([self.result(5, self.pose())], {})

    def test_invalid_success_raises(self):
        pose = self.pose()
        for ao, final, inliers in ((None, pose, 4), (pose, None, 4), (pose, pose, 2)):
            with pytest.raises(ValueError):
                RelocResult(0, "success", None, ao, final, inlier_count=inliers)
        RelocResult(0, "failed", "NoConsensus", inlier_count=2)

    def test_rates_monotone(self):
        rng = np.random.default_rng(0)
        gt = {}
        results = []
        for i in range(40):
            gt[i] = self.pose()
            est = self.pose(t=tuple(rng.normal(0, 0.06, 3)), rz=rng.normal(0, 6))
            results.append(self.result(i, est))
        rep = evaluate(results, gt)
        r5 = rep.success_rate_at[(0.05, 5.0)]
        r10 = rep.success_rate_at[(0.10, 10.0)]
        r15 = rep.success_rate_at[(0.15, 15.0)]
        assert r5 <= r10 <= r15


class TestConfig:
    def test_defaults_resolve(self):
        cfg = resolve_config({})
        assert cfg["scene"]["object_count"] == 5
        assert cfg["reloc"]["use_icp"] is True

    def test_unknown_field_path(self):
        with pytest.raises(ConfigError, match="scene.objcount"):
            resolve_config({"scene": {"objcount": 3}})

    def test_threads_is_unknown(self):
        with pytest.raises(ConfigError, match="^threads: unknown field$"):
            resolve_config({"threads": 2})

    def test_bad_value_path(self):
        with pytest.raises(ConfigError, match="fusion.tau"):
            resolve_config({"fusion": {"tau": 1.5}})

    def test_bad_segment(self):
        with pytest.raises(ConfigError, match=r"rs_segments\[0\].kind"):
            resolve_config({"rs_segments": [{"kind": "diagonal"}]})

    @pytest.mark.parametrize("key, value", [
        ("decay", 1.0), ("w1", 1.0), ("w2", 1.0), ("inlier_threshold", 0.1),
        ("ransac_max_iters", 500), ("normalize_icp_terms", False),
    ])
    def test_solver_constants_are_not_config(self, key, value):
        with pytest.raises(ConfigError, match=rf"reloc\.{key}: unknown field"):
            resolve_config({"reloc": {key: value}})

    def test_icp_max_points_defaults_to_the_sample_budget(self):
        # a report that leaves it unset echoes the budget ICP actually uses
        assert resolve_config()["reloc"]["icp_max_points"] == registration.ICP_SAMPLE_POINTS

    @pytest.mark.parametrize("value", [0, -5])
    def test_icp_max_points_must_be_positive(self, value):
        with pytest.raises(ConfigError, match=r"reloc\.icp_max_points: must be >= 1"):
            resolve_config({"reloc": {"icp_max_points": value}})

    @pytest.mark.parametrize("section, key, value", [
        ("fusion", "chi2_gate", -1.0),
        ("fusion", "min_update_fraction", 1.5),
        ("noise", "sigma_rot", float("inf")),
    ])
    def test_params_rules_reach_config(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: "):
            resolve_config({section: {key: value}})

    @pytest.mark.parametrize("key, value", [
        ("fov_deg", 0.0), ("fov_deg", 180.0), ("fov_deg", -30.0),
        ("width", 0), ("height", 0), ("width", 2.5),
        ("max_range", 0.0), ("max_range", -1.0),
    ])
    def test_sensor_rules_reach_config(self, key, value):
        with pytest.raises(ConfigError, match=rf"^sensor\.{key}: "):
            resolve_config({"sensor": {key: value}})

    @pytest.mark.parametrize("section, key, value, why", [
        ("fusion", "tau", "x", "expected a number"),
        ("noise", "sigma_rot", "abc", "expected a number"),
        ("noise", "p_flip", "0.1", "expected a number"),
        ("sensor", "fov_deg", None, "expected a number"),
        ("reloc", "icp_max_points", 2.5, "expected an integer"),
        ("fusion", "min_updates", "2", "expected an integer"),
    ])
    def test_non_numeric_values_name_their_key(self, section, key, value, why):
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: {why}"):
            resolve_config({section: {key: value}})

    @pytest.mark.parametrize("user, path", [
        ({"mcs": {"frame_count": "5"}}, "mcs.frame_count"),
        ({"mcs": {"radius": -1.0}}, "mcs.radius"),
        ({"mcs": {"kind": "spiral"}}, "mcs.kind"),
        ({"scene": {"object_count": "3"}}, "scene.object_count"),
        ({"scene": {"object_count": 2.5}}, "scene.object_count"),
        ({"rs_segments": [{"frame_count": "3"}]}, "rs_segments[0].frame_count"),
        ({"rs_segments": [{"sweep_deg": "a"}]}, "rs_segments[0].sweep_deg"),
        ({"seed": "x"}, "seed"),
        ({"thresholds": [[0.05]]}, "thresholds"),
        ({"surface": {"voxel": -0.01}}, "surface.voxel"),
        ({"surface": {"voxel": 0.0}}, "surface.voxel"),
        ({"surface": {"voxel": float("inf")}}, "surface.voxel"),
        ({"thresholds": [[float("nan"), 5.0]]}, "thresholds[0]"),
        ({"mcs": {"height": float("nan")}}, "mcs.height"),
        ({"scene": {"plane_extent": float("nan")}}, "scene.plane_extent"),
        ({"rs_segments": [{"view_change_deg": float("inf")}]}, "rs_segments[0].view_change_deg"),
        ({"sensor": {"max_range": float("inf")}}, "sensor.max_range"),
    ])
    def test_bad_value_names_its_key(self, user, path):
        with pytest.raises(ConfigError, match="^" + re.escape(path) + ": "):
            resolve_config(user)

    def test_zero_voxel_stops_before_the_map(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("build_surface_model reached")

        monkeypatch.setattr(pipeline, "build_surface_model", fail)
        with pytest.raises(ConfigError, match=r"^surface\.voxel: "):
            run_benchmark({"surface": {"voxel": 0.0}})

    def test_reloc_params_reject_zero_icp_points(self):
        with pytest.raises(ValueError, match="icp_max_points"):
            RelocParams(icp_max_points=0)


def small_benchmark_config(**overrides):
    cfg = {
        "seed": 11,
        "scene": {"object_count": 5},
        "sensor": {"width": 64, "height": 48},
        "mcs": {"frame_count": 100, "keyframe_every": 5},
        "rs_segments": [
            {"kind": "h", "view_change_deg": 30.0, "frame_count": 4},
            {"kind": "h", "view_change_deg": 180.0, "frame_count": 4},
        ],
        "reloc": {"icp_max_points": 3000},
    }
    cfg.update(overrides)
    return cfg


class TestRunBenchmark:
    def test_zero_noise_benchmark(self):
        cfg = small_benchmark_config(noise=dict(ZERO_NOISE))
        rep = run_benchmark(cfg)
        assert rep.success_rate_at[(0.05, 5.0)] == 1.0
        for e in rep.per_frame:
            assert e["trans_error_m"] < 1e-6
            assert e["rot_error_deg"] < 1e-4

    def test_two_object_scene_all_too_few(self):
        cfg = small_benchmark_config(scene={"object_count": 2}, noise=dict(ZERO_NOISE))
        rep = run_benchmark(cfg)
        assert all(e["status"] == "failed" for e in rep.per_frame)
        assert all(rate == 0.0 for rate in rep.success_rate_at.values())

    def test_deterministic_reports(self):
        cfg = small_benchmark_config()
        a = run_benchmark(cfg).canonical_json()
        b = run_benchmark(cfg).canonical_json()
        assert a == b

    def test_ablate_icp_flag(self):
        cfg = small_benchmark_config(noise=dict(ZERO_NOISE), reloc={"use_icp": False})
        rep = run_benchmark(cfg)
        assert rep.config_echo["reloc"]["use_icp"] is False
        assert rep.success_rate_at[(0.05, 5.0)] == 1.0  # zero noise: AO alone is exact

    def test_icp_does_not_worsen_surface_fit(self):
        cfg = small_benchmark_config()
        cfg["rs_segments"] = [{"kind": "h", "view_change_deg": 60.0, "frame_count": 8}]
        rep = run_benchmark(cfg)
        # re-run the pieces to compare mean nearest-surface distance under both poses
        from objreloc.detections import simulate_detections as sim
        from objreloc.mapping import FusionParams
        from objreloc.pipeline import _default_config

        full = resolve_config(cfg)
        seed = full["seed"]
        sensor = SensorParams(**full["sensor"])
        scene = generate_scene(object_count=5, seed=seed)
        mcs_spec = TrajectorySpec(
            kind="orbit_horizontal", radius=full["mcs"]["radius"], height=full["mcs"]["height"],
            angle_range=full["mcs"]["angle_range"], frame_count=full["mcs"]["frame_count"],
            start_deg=-full["mcs"]["angle_range"] / 2.0,
        )
        kf_poses = generate_trajectory(mcs_spec)[::full["mcs"]["keyframe_every"]]
        noise = NoiseParams(**full["noise"], seed=seed)
        frames = [sim(scene, p, noise, i, sensor) for i, p in enumerate(kf_poses)]
        obj_map, surface = build_map(frames, FusionParams(**full["fusion"]), sensor, scene=scene)
        spec = TrajectorySpec(frame_count=8, angle_range=20.0, start_deg=50.0,
                              radius=full["mcs"]["radius"], height=full["mcs"]["height"])
        better = 0
        total = 0
        for k, pose in enumerate(generate_trajectory(spec)):
            fid = 100001 * 1 + k  # unused ids
            frame = sim(scene, pose, noise, 500 + k, sensor).strip_gt()
            res = relocalise(frame, obj_map, surface, RelocParams(icp_max_points=3000))
            if res.status != "success":
                continue
            total += 1
            pts = frame.depth_points[:3000]
            for_pose = lambda p: float(np.mean(
                np.minimum(surface.nearest(pts @ p.rotation.T + p.translation, 0.5)[0], 0.5)
            ))
            if for_pose(res.pose_final) <= for_pose(res.pose_ao) + 1e-9:
                better += 1
        assert total > 0 and better / total >= 0.95


class TestConfigValues:
    @pytest.mark.parametrize("value", ["abc", {"x": 1.0}, [0.0, [1.0, 2.0], 0.0]])
    def test_unconvertible_lookat_names_its_key(self, value):
        with pytest.raises(ConfigError, match=r"^mcs\.lookat: "):
            resolve_config({"mcs": {"lookat": value}})


class TestReportShape:
    def test_canonical_json_excludes_timing(self):
        rep = BenchmarkReport([], {(0.05, 5.0): 1.0}, {"seed": 0}, timing={"icp_ms": 3.0})
        doc = json.loads(rep.canonical_json())
        assert "timing" not in doc
        assert doc["success_rate_at"] == {"5cm/5deg": 1.0}
        full = rep.to_dict(include_timing=True)
        assert full["timing"]["icp_ms"] == 3.0
