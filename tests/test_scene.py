import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from objreloc.errors import PlacementFailure
from objreloc.geometry import RigidTransform, rotation_angle_between, rotation_from_axis_angle
from objreloc.oracles import ray_box_intersection, raycast_every_ray
from objreloc.pipeline import resolve_config
from objreloc.scene import (
    CULL_SLACK,
    DEFAULT_SENSOR,
    Scene,
    SceneObject,
    SensorParams,
    TrajectorySpec,
    _ray_dirs,
    _raycast,
    build_surface_model,
    generate_scene,
    generate_trajectory,
    in_frustum,
    look_at,
    render_depth_points,
)


def surface_distance(scene, p):
    """Distance from a world point to the nearest primitive surface (test oracle)."""
    dx = max(abs(p[0]) - scene.ground_extent, 0.0)
    dy = max(abs(p[1]) - scene.ground_extent, 0.0)
    best = float(np.sqrt(dx**2 + dy**2 + (p[2] - scene.ground_height) ** 2))
    for obj in scene.primitives():
        q = obj.pose.rotation.T @ (p - obj.pose.translation)
        if obj.shape == "box":
            d = np.abs(q) - obj.extents
            sdf = np.linalg.norm(np.maximum(d, 0.0)) + min(d.max(), 0.0)
        else:
            dr = np.hypot(q[0], q[1]) - obj.extents[0]
            dz = abs(q[2]) - obj.extents[2]
            dd = np.array([dr, dz])
            sdf = np.linalg.norm(np.maximum(dd, 0.0)) + min(dd.max(), 0.0)
        best = min(best, abs(sdf))
    return best


class TestGenerateScene:
    def test_empty_scene(self):
        s = generate_scene(object_count=0, seed=1)
        assert s.objects == ()
        assert s.ground_extent > 0

    def test_deterministic(self):
        a = generate_scene(object_count=5, seed=42)
        b = generate_scene(object_count=5, seed=42)
        for oa, ob in zip(a.objects, b.objects):
            assert oa.label == ob.label
            assert np.array_equal(oa.pose.translation, ob.pose.translation)
            assert np.array_equal(oa.extents, ob.extents)

    def test_separation_invariant_over_seeds(self):
        for seed in range(100):
            s = generate_scene(object_count=8, seed=seed, plane_extent=1.2)
            objs = s.objects
            for i in range(len(objs)):
                for j in range(i + 1, len(objs)):
                    sep = np.linalg.norm(
                        objs[i].pose.translation - objs[j].pose.translation
                    )
                    assert sep >= 0.5 * (objs[i].extents.max() + objs[j].extents.max())

    def test_objects_above_ground(self):
        s = generate_scene(object_count=6, seed=3)
        for o in s.objects:
            assert o.pose.translation[2] >= s.ground_height

    def test_placement_failure(self):
        with pytest.raises(PlacementFailure):
            generate_scene(object_count=60, seed=0, plane_extent=0.3)


class TestTrajectory:
    def test_single_pose_orbit(self):
        spec = TrajectorySpec(kind="orbit_horizontal", radius=2.0, height=1.0, frame_count=1)
        poses = generate_trajectory(spec)
        assert len(poses) == 1
        np.testing.assert_allclose(poses[0].translation, [2.0, 0.0, 1.0], atol=1e-12)

    def test_uniform_spacing_full_circle(self):
        spec = TrajectorySpec(kind="orbit_horizontal", radius=1.0, height=0.5,
                              angle_range=360.0, frame_count=4)
        poses = generate_trajectory(spec)
        xy = np.array([p.translation[:2] for p in poses])
        want = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        np.testing.assert_allclose(xy, want, atol=1e-12)

    def test_opposed_poses_180_degrees(self):
        spec = TrajectorySpec(kind="orbit_horizontal", radius=1.5, height=1.2,
                              angle_range=360.0, frame_count=2)
        a, b = generate_trajectory(spec)
        assert abs(rotation_angle_between(a.rotation, b.rotation) - 180.0) < 1e-6

    def test_arc_vertical_sweeps_elevation(self):
        spec = TrajectorySpec(kind="arc_vertical", radius=1.5, height=0.5,
                              angle_range=60.0, frame_count=3)
        poses = generate_trajectory(spec)
        zs = [p.translation[2] for p in poses]
        assert zs[0] < zs[1] < zs[2]
        for p in poses:
            assert abs(np.linalg.norm(p.translation) - 1.5) < 1e-9

    def test_camera_forward_axis_points_at_lookat(self):
        spec = TrajectorySpec(frame_count=7, angle_range=300.0, lookat=(0.1, -0.2, 0.1))
        for p in generate_trajectory(spec):
            fwd = p.rotation[:, 2]
            to_target = np.array(spec.lookat) - p.translation
            cosang = fwd @ to_target / np.linalg.norm(to_target)
            assert cosang > 1 - 1e-12


class TestRenderDepth:
    def test_empty_sky(self):
        scene = generate_scene(object_count=0, seed=0)
        pose = look_at([0.0, 0.0, 1.0], [0.0, 0.0, 5.0])  # looking straight up
        pts = render_depth_points(scene, pose)
        assert pts.shape == (0, 3)

    def test_plane_straight_down_exact_depth(self):
        scene = Scene(objects=(), ground_height=0.0, ground_extent=1e6)
        pose = look_at([0.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        pts = render_depth_points(scene, pose, sigma_depth=0.0)
        assert len(pts) == DEFAULT_SENSOR.width * DEFAULT_SENSOR.height
        np.testing.assert_allclose(pts[:, 2], 1.0, atol=1e-9)

    def test_box_hits_match_independent_oracle(self):
        box = SceneObject(
            "camera",
            RigidTransform(rotation_from_axis_angle([0, 0, 1], 30.0), [0.0, 2.0, 0.0]),
            np.array([0.5, 0.5, 0.5]),
            "box",
        )
        scene = Scene(objects=(box,), ground_height=-10.0, ground_extent=0.01)
        pose = look_at([0.0, 0.0, 0.0], [0.0, 2.0, 0.0])
        sensor = SensorParams(width=40, height=30)
        pts = render_depth_points(scene, pose, sensor=sensor)
        assert len(pts) > 0
        dirs = _ray_dirs(sensor)
        # match each returned point back to its ray by direction
        for p in pts[::7]:
            d_cam = p / np.linalg.norm(p)
            t_oracle = ray_box_intersection(
                pose.translation,
                pose.rotation @ d_cam,
                box.pose.translation,
                box.pose.rotation,
                box.extents,
            )
            assert t_oracle is not None
            assert abs(np.linalg.norm(p) - t_oracle) < 1e-9

    def test_level_camera_casts_without_warning(self):
        # an odd sensor height puts the middle row of a level camera exactly
        # parallel to the ground
        scene = Scene(objects=(), ground_height=0.0, ground_extent=2.0)
        pose = look_at([0.0, 0.0, 0.5], [0.0, 1.0, 0.5])
        sensor = SensorParams(width=4, height=3)
        assert np.any((_ray_dirs(sensor) @ pose.rotation.T)[:, 2] == 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = render_depth_points(scene, pose, sensor)
        assert len(pts) > 0
        np.testing.assert_allclose(pose.apply(pts)[:, 2], 0.0, atol=1e-12)

    def test_deterministic_given_seed_and_pose(self):
        scene = generate_scene(object_count=4, seed=5)
        pose = generate_trajectory(TrajectorySpec(frame_count=1))[0]
        a = render_depth_points(scene, pose, sigma_depth=0.005, seed=7)
        b = render_depth_points(scene, pose, sigma_depth=0.005, seed=7)
        assert np.array_equal(a, b)

    def test_noisy_points_near_surface(self):
        scene = generate_scene(object_count=4, seed=8)
        pose = generate_trajectory(TrajectorySpec(frame_count=1))[0]
        sigma = 0.004
        pts = render_depth_points(scene, pose, SensorParams(width=32, height=24),
                                  sigma_depth=sigma, seed=9)
        world = pose.apply(pts)
        for p in world:
            assert surface_distance(scene, p) <= 6 * sigma + 1e-9

    def test_exact_points_on_surface(self):
        scene = generate_scene(object_count=5, seed=10)
        pose = generate_trajectory(TrajectorySpec(frame_count=1))[0]
        pts = render_depth_points(scene, pose, SensorParams(width=32, height=24))
        world = pose.apply(pts)
        for p in world:
            assert surface_distance(scene, p) <= 1e-9


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"


def benchmark_desk(workload):
    """Desk, sensor, key-frame poses and lost-frame poses of a benchmark workload,
    as run_benchmark makes them from its config."""
    cfg = resolve_config(json.loads((WORKLOADS / f"{workload}.json").read_text()))
    sc = cfg["scene"]
    desk = generate_scene(object_count=sc["object_count"], label_mix=sc["label_mix"],
                          seed=cfg["seed"], plane_height=sc["plane_height"],
                          plane_extent=sc["plane_extent"], clutter_count=sc["clutter_count"])
    mcs = cfg["mcs"]
    keyframes = generate_trajectory(TrajectorySpec(
        kind=mcs["kind"], radius=mcs["radius"], height=mcs["height"],
        angle_range=mcs["angle_range"], frame_count=mcs["frame_count"],
        lookat=tuple(mcs["lookat"]), start_deg=-mcs["angle_range"] / 2.0,
    ))[:: mcs["keyframe_every"]]
    lost = []
    for seg in cfg["rs_segments"]:
        lost += generate_trajectory(TrajectorySpec(
            kind="orbit_horizontal" if seg["kind"] == "h" else "arc_vertical",
            radius=mcs["radius"] if seg["radius"] is None else seg["radius"],
            height=mcs["height"] if seg["height"] is None else seg["height"],
            angle_range=seg["sweep_deg"], frame_count=seg["frame_count"],
            lookat=tuple(mcs["lookat"]),
            start_deg=seg["view_change_deg"] - seg["sweep_deg"] / 2.0,
        ))
    return desk, SensorParams(**cfg["sensor"]), keyframes, lost


def assert_matches_every_ray_cast(scene, pose, sensor):
    t, normals, _ = _raycast(scene, pose, sensor)
    t_ref, normals_ref = raycast_every_ray(scene, pose, sensor)
    assert np.array_equal(t, t_ref)
    assert np.array_equal(normals, normals_ref)
    return t_ref


def rays_in_ball(obj, pose, sensor):
    """Rays of the grid that pass within the culling radius of obj's centre."""
    dirs_w = _ray_dirs(sensor) @ pose.rotation.T
    to_centre = obj.pose.translation - pose.translation
    along = dirs_w @ to_centre
    radius = np.linalg.norm(obj.extents) + CULL_SLACK
    return np.flatnonzero((to_centre @ to_centre - along**2 <= radius**2) & (along > -radius))


class TestRayCulling:
    """_raycast culls rays by bounding ball; it must equal the all-rays cast bit for bit."""

    @pytest.mark.parametrize("workload", ["reloc-views", "map-crowded"])
    def test_benchmark_desks(self, workload):
        desk, sensor, keyframes, lost = benchmark_desk(workload)
        for pose in keyframes[::2] + lost[::5]:
            assert_matches_every_ray_cast(desk, pose, sensor)

    def test_random_desks_with_clutter(self):
        sensor = SensorParams(width=64, height=48)
        for seed in range(8):
            desk = generate_scene(object_count=5, seed=seed, clutter_count=1 + seed % 3,
                                  plane_extent=1.2)
            assert any(o.shape == "box" for o in desk.primitives())
            spec = TrajectorySpec(frame_count=4, angle_range=360.0, start_deg=10.0 * seed,
                                  radius=0.7 + 0.15 * seed, height=0.3 + 0.1 * seed)
            for pose in generate_trajectory(spec):
                assert_matches_every_ray_cast(desk, pose, sensor)

    def test_camera_inside_bounding_ball(self):
        rod = SceneObject("laptop", RigidTransform(np.eye(3), [0.0, 0.0, 0.0]),
                          np.array([0.5, 0.05, 0.05]), "box")
        scene = Scene(objects=(rod,), ground_height=-10.0, ground_extent=0.01)
        eye = np.array([0.2, 0.1, 0.0])
        assert np.linalg.norm(eye) < np.linalg.norm(rod.extents)
        sensor = SensorParams(width=40, height=30)
        # looking away from the centre: the rays that hit the rod's +y face
        # pass the centre behind the camera
        for target in ([1.0, 0.0, 0.0], [0.2, -1.0, 0.0], [-1.0, 0.0, 0.0]):
            pose = look_at(eye, target)
            t = assert_matches_every_ray_cast(scene, pose, sensor)
            assert np.isfinite(t).any()

    def test_primitive_behind_camera(self):
        box = SceneObject("camera", RigidTransform(np.eye(3), [0.0, -1.0, 0.5]),
                          np.array([0.1, 0.1, 0.1]), "box")
        can = SceneObject("can", RigidTransform(np.eye(3), [0.0, 1.0, 0.5]),
                          np.array([0.05, 0.05, 0.08]), "cylinder")
        scene = Scene(objects=(box, can), ground_height=0.0, ground_extent=2.0)
        pose = look_at([0.0, 0.0, 0.5], [0.0, 1.0, 0.5])
        sensor = SensorParams(width=40, height=30)
        assert len(rays_in_ball(box, pose, sensor)) == 0
        assert len(rays_in_ball(can, pose, sensor)) > 0
        assert_matches_every_ray_cast(scene, pose, sensor)

    @pytest.mark.parametrize("shape", ["box", "cylinder"])
    def test_primitive_only_one_ray_can_hit(self, shape):
        # a one-row product goes to BLAS gemv, which can round differently
        # from the gemm over the whole grid
        sensor = SensorParams(width=4, height=3)
        pose = look_at([0.0, 0.0, 0.0], [0.0, 2.0, 0.3])
        dirs_w = _ray_dirs(sensor) @ pose.rotation.T
        extents = np.array([0.05, 0.03 if shape == "box" else 0.05, 0.04])
        for ray in range(len(dirs_w)):
            rot = rotation_from_axis_angle([0.3, 0.5, 1.0], 7.0 + 13.0 * ray)
            obj = SceneObject("mug", RigidTransform(rot, (2.0 + 0.1 * ray) * dirs_w[ray]),
                              extents, shape)
            scene = Scene(objects=(obj,), ground_height=-10.0, ground_extent=0.01)
            assert list(rays_in_ball(obj, pose, sensor)) == [ray]
            t = assert_matches_every_ray_cast(scene, pose, sensor)
            assert np.isfinite(t[ray])


class TestRayGrid:
    def test_shared_and_read_only(self):
        sensor = SensorParams(width=8, height=6)
        dirs = _ray_dirs(sensor)
        assert _ray_dirs(SensorParams(width=8, height=6)) is dirs
        with pytest.raises(ValueError):
            dirs[0, 0] = 1.0
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-15)


class TestSurfaceModel:
    def test_plane_normals(self):
        scene = Scene(objects=(), ground_height=0.0, ground_extent=2.0)
        pose = look_at([0.5, 0.2, 1.3], [0.0, 0.0, 0.0])
        model = build_surface_model(scene, [pose], SensorParams(width=64, height=48))
        np.testing.assert_array_equal(model.normals, np.tile([0.0, 0.0, 1.0], (len(model), 1)))

    def test_opposing_views_cover_faces(self):
        box = SceneObject(
            "laptop", RigidTransform(np.eye(3), [0.0, 0.0, 0.1]), np.array([0.15, 0.1, 0.1]), "box"
        )
        scene = Scene(objects=(box,), ground_height=0.0, ground_extent=0.6)
        poses = [
            look_at([1.0, 0.3, 0.6], [0, 0, 0.1]),
            look_at([-1.0, -0.3, 0.6], [0, 0, 0.1]),
        ]
        model = build_surface_model(scene, poses, SensorParams(width=80, height=60))
        box_normals = model.normals[model.points[:, 2] > 0.005]
        uniq = set()
        for n in box_normals:
            uniq.add(tuple(np.round(n, 3)))
        assert len(uniq) >= 4

    def test_voxel_contract(self):
        scene = generate_scene(object_count=3, seed=11)
        poses = generate_trajectory(TrajectorySpec(frame_count=3, angle_range=90.0))
        model = build_surface_model(scene, poses, SensorParams(width=64, height=48), voxel=0.01)
        keys = np.floor(model.points / 0.01).astype(np.int64)
        uniq = np.unique(keys, axis=0)
        assert len(uniq) == len(model)


class TestFrustum:
    def test_inside_and_outside(self):
        assert in_frustum([0.0, 0.0, 1.0])
        assert not in_frustum([0.0, 0.0, -1.0])
        assert not in_frustum([0.0, 0.0, 10.0])  # beyond range
        assert not in_frustum([5.0, 0.0, 1.0])  # outside fov

    def test_array_is_pointwise(self):
        # an (N, 3) array gives one decision per row, as for that row alone,
        # with no division warning at zero or negative depth
        sensor = SensorParams(fov_deg=60.0, width=40, height=30, max_range=3.0)
        rng = np.random.default_rng(4)
        near = np.column_stack([rng.uniform(-1.5, 1.5, (500, 2)), rng.uniform(-1.0, 3.5, 500)])
        pts = np.vstack([near,
                         [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 3.0], [0.0, 0.0, 3.1],
                          [sensor.tan_half_fov, 0.0, 1.0]]])
        with np.errstate(all="raise"):
            mask = in_frustum(pts, sensor)
        assert mask.dtype == bool and mask.shape == (len(pts),)
        assert mask.tolist() == [in_frustum(p, sensor) for p in pts]
        assert 50 < mask.sum() < 400
        assert in_frustum(np.zeros((0, 3)), sensor).shape == (0,)
