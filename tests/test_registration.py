import sys
from concurrent.futures import ThreadPoolExecutor
from math import comb

import numpy as np
import pytest

from objreloc.errors import CollinearPoints, NoConsensus, NoCorrespondences, TooFewPairs
from objreloc.geometry import RigidTransform, compose, rotation_angle_between, rotation_from_axis_angle
from objreloc import registration, scene
from objreloc.oracles import (
    coordinate_descent_ao,
    exhaustive_ransac_triples,
    lattice_normals_every_point,
    normal_space_sample_loop,
    numerical_gradient,
    ransac_triple_loop,
    weighted_ao_cost,
)
from objreloc.registration import (
    ICP_SAMPLE_POINTS,
    NORMAL_AZIMUTH_BIN_DEG,
    NORMAL_POLAR_BIN_DEG,
    RANSAC_INLIER_M,
    RANSAC_MAX_ITERS,
    RegistrationResult,
    SurfaceModel,
    _apply_delta,
    _fit_rigid,
    _icp_system,
    ao_cost_and_gradient,
    depth_centroid_icp,
    estimate_normals,
    horn_ao,
    icp_cost_and_gradient,
    normal_space_sample,
    probabilistic_ao,
    ransac_ao,
)
from objreloc.scene import (DEFAULT_SENSOR, Scene, SceneObject, SensorParams, generate_scene,
                            look_at, render_depth_points)


def make_pairs(frame_pts, map_pts, covs=None):
    """(frame points, map means, map covariances) stacked as the solvers take
    them; identity covariances unless covs is given."""
    if covs is None:
        covs = [np.eye(3)] * len(frame_pts)
    return np.asarray(frame_pts, dtype=float), np.asarray(map_pts, dtype=float), np.array(covs)


# no centroid pairs: depth_centroid_icp aligns the depth points alone
NO_CENTROIDS = (np.zeros((0, 3)), np.zeros((0, 3)))


def random_pose(rng, t_span=1.0):
    return RigidTransform(
        rotation_from_axis_angle(rng.normal(size=3), rng.uniform(0, 180)),
        rng.uniform(-t_span, t_span, 3),
    )


def pose_error(a, b):
    return (
        float(np.linalg.norm(a.translation - b.translation)),
        rotation_angle_between(a.rotation, b.rotation),
    )


class TestHornAO:
    def test_already_aligned(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        t = horn_ao(pts, pts)
        assert np.abs(t.rotation - np.eye(3)).max() < 1e-12
        assert np.abs(t.translation).max() < 1e-12

    def test_pure_translation(self):
        rng = np.random.default_rng(0)
        map_pts = rng.uniform(-1, 1, (5, 3))
        frame_pts = map_pts - np.array([1.0, 0.0, 0.0])
        t = horn_ao(frame_pts, map_pts)
        np.testing.assert_allclose(t.translation, [1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-12)

    def test_recovers_known_transform(self):
        rng = np.random.default_rng(1)
        gt = RigidTransform(rotation_from_axis_angle([0, 0, 1], 90.0), [0.3, -0.2, 0.1])
        frame_pts = rng.uniform(-1, 1, (4, 3))
        map_pts = frame_pts @ gt.rotation.T + gt.translation
        t = horn_ao(frame_pts, map_pts)
        assert np.linalg.norm(t.translation - gt.translation) < 1e-9
        assert np.abs(t.rotation - gt.rotation).max() < 1e-9

    def test_exact_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            gt = random_pose(rng)
            n = rng.integers(3, 9)
            frame_pts = rng.uniform(-1, 1, (n, 3))
            if np.linalg.svd(frame_pts - frame_pts.mean(0), compute_uv=False)[1] < 1e-3:
                continue
            map_pts = frame_pts @ gt.rotation.T + gt.translation
            t = horn_ao(frame_pts, map_pts)
            assert np.linalg.norm(t.translation - gt.translation) < 1e-9
            assert np.abs(t.rotation - gt.rotation).max() < 1e-9

    def test_too_few(self):
        with pytest.raises(TooFewPairs):
            horn_ao(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_collinear(self):
        line = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], dtype=float)
        with pytest.raises(CollinearPoints):
            horn_ao(line, line + [0, 1, 0])

    def test_equivariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            gt = random_pose(rng)
            g = random_pose(rng)
            frame_pts = rng.uniform(-1, 1, (6, 3))
            map_pts = frame_pts @ gt.rotation.T + gt.translation
            t0 = horn_ao(frame_pts, map_pts)
            moved = frame_pts @ g.rotation.T + g.translation
            t1 = horn_ao(moved, map_pts)
            want = compose(t0, g.inverse())
            assert np.linalg.norm(t1.translation - want.translation) < 1e-9
            assert np.abs(t1.rotation - want.rotation).max() < 1e-9


class TestFitRigid:
    """A block's rigid fit is the same, bit for bit, alone or among other
    blocks: ransac_ao fits every triple in one batch, while horn_ao and
    ransac_triple_loop fit a block of one."""

    def check_blocks_independent(self, fs, ms):
        rot, t = _fit_rigid(fs, ms)
        assert rot.shape == (len(fs), 3, 3) and t.shape == (len(fs), 3)
        for i in range(len(fs)):
            rot_i, t_i = _fit_rigid(fs[i:i + 1], ms[i:i + 1])
            assert np.array_equal(rot_i[0], rot[i]) and np.array_equal(t_i[0], t[i]), i

    @pytest.mark.parametrize("case", ["outliers", "collinear", "zero-noise"])
    def test_triple_alone_equals_triple_in_batch(self, case):
        rng = np.random.default_rng(40)
        frame_pts, map_pts = next((f, m) for c, f, m in ransac_cases(12, rng) if c == case)
        triples = registration._ransac_triples(12, 0)
        self.check_blocks_independent(frame_pts[triples], map_pts[triples])

    def test_horn_sized_block_alone_equals_block_in_batch(self):
        rng = np.random.default_rng(41)
        gt = random_pose(rng)
        fs = rng.uniform(-1, 1, (50, 10, 3))
        self.check_blocks_independent(
            fs, fs @ gt.rotation.T + gt.translation + rng.normal(0, 0.01, fs.shape))


class TestProbabilisticAO:
    def test_identity_covariance_matches_horn(self):
        rng = np.random.default_rng(4)
        gt = random_pose(rng)
        frame_pts = rng.uniform(-1, 1, (6, 3))
        map_pts = frame_pts @ gt.rotation.T + gt.translation + rng.normal(0, 0.01, (6, 3))
        th = horn_ao(frame_pts, map_pts)
        res = probabilistic_ao(*make_pairs(frame_pts, map_pts), th)
        assert np.linalg.norm(res.pose.translation - th.translation) < 1e-8
        assert np.abs(res.pose.rotation - th.rotation).max() < 1e-8

    def test_zero_noise_exact_any_covariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            gt = random_pose(rng)
            frame_pts = rng.uniform(-1, 1, (5, 3))
            map_pts = frame_pts @ gt.rotation.T + gt.translation
            covs = []
            for _ in range(5):
                a = rng.normal(size=(3, 3))
                covs.append(a @ a.T * 1e-3 + np.eye(3) * 1e-4)
            res = probabilistic_ao(*make_pairs(frame_pts, map_pts, covs), horn_ao(frame_pts, map_pts))
            assert np.linalg.norm(res.pose.translation - gt.translation) < 1e-8
            assert np.abs(res.pose.rotation - gt.rotation).max() < 1e-8
            assert res.final_cost < 1e-16

    def test_matches_derivative_free_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            gt = random_pose(rng, t_span=0.5)
            frame_pts = rng.uniform(-1, 1, (5, 3))
            base = rotation_from_axis_angle(rng.normal(size=3), rng.uniform(0, 180))
            cov = base @ np.diag([1e-4, 1e-4, 1e-2]) @ base.T
            covs = [cov] * 5
            noise = rng.multivariate_normal(np.zeros(3), cov, size=5)
            map_pts = frame_pts @ gt.rotation.T + gt.translation + noise
            init = horn_ao(frame_pts, map_pts)
            res = probabilistic_ao(*make_pairs(frame_pts, map_pts, covs), init)
            assert res.final_cost <= weighted_ao_cost(
                np.zeros(6), init.rotation, init.translation,
                frame_pts, map_pts, np.array([np.linalg.inv(c) for c in covs]),
            ) + 1e-12
            r_o, t_o = coordinate_descent_ao(
                frame_pts, map_pts, np.array([np.linalg.inv(c) for c in covs]),
                init.rotation, init.translation,
            )
            assert np.linalg.norm(res.pose.translation - t_o) < 1e-4
            assert rotation_angle_between(res.pose.rotation, r_o) < 0.01

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            pose = random_pose(rng)
            frame_pts = rng.uniform(-1, 1, (5, 3))
            map_pts = rng.uniform(-1, 1, (5, 3))
            covs = []
            for _ in range(5):
                a = rng.normal(size=(3, 3))
                covs.append(a @ a.T * 0.1 + np.eye(3) * 0.01)
            _, grad = ao_cost_and_gradient(*make_pairs(frame_pts, map_pts, covs), pose)

            def cost_fn(xi):
                r, t = _apply_delta(xi, pose.rotation, pose.translation)
                resid = map_pts - (frame_pts @ r.T + t)
                w = np.array([np.linalg.inv(c) for c in covs])
                return float(np.einsum("ni,nij,nj->", resid, w, resid))

            fd = numerical_gradient(cost_fn)
            scale = max(np.linalg.norm(fd), 1.0)
            assert np.abs(grad - fd).max() / scale < 1e-5


class TestRansacAO:
    def test_minimal_clean_set(self):
        rng = np.random.default_rng(8)
        gt = random_pose(rng)
        frame_pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        map_pts = frame_pts @ gt.rotation.T + gt.translation
        res = ransac_ao(*make_pairs(frame_pts, map_pts))
        assert res.inliers == (0, 1, 2)
        terr, rerr = pose_error(res.pose, gt)
        assert terr < 1e-9 and rerr < 1e-8

    def test_rejects_gross_outliers(self):
        rng = np.random.default_rng(9)
        gt = random_pose(rng)
        frame_pts = rng.uniform(-1, 1, (6, 3))
        map_pts = frame_pts @ gt.rotation.T + gt.translation
        map_pts[1] += [1.0, 0.3, -0.5]
        map_pts[4] += [-0.8, 1.0, 0.2]
        res = ransac_ao(*make_pairs(frame_pts, map_pts))
        assert set(res.inliers) == {0, 2, 3, 5}
        def fit_one(f, m):
            rot, t = _fit_rigid(f[None], m[None])
            return rot[0], t[0]

        oracle = exhaustive_ransac_triples(frame_pts, map_pts, fit_one, RANSAC_INLIER_M)
        assert set(res.inliers) == set(oracle)

    def test_monte_carlo_noise(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            gt = random_pose(rng, t_span=0.5)
            frame_pts = rng.uniform(-1, 1, (10, 3))
            map_pts = frame_pts @ gt.rotation.T + gt.translation + rng.normal(0, 0.005, (10, 3))
            res = ransac_ao(*make_pairs(frame_pts, map_pts))
            terr, rerr = pose_error(res.pose, gt)
            if terr < 0.02 and rerr < 2.0:
                hits += 1
        assert hits == 100

    def test_no_consensus(self):
        rng = np.random.default_rng(10)
        frame_pts = rng.uniform(-1, 1, (4, 3))
        map_pts = rng.uniform(50, 60, (4, 3)) * np.array([[1], [-1], [1], [-1]])
        with pytest.raises(NoConsensus, match="best hypothesis has 0 inliers"):
            ransac_ao(*make_pairs(frame_pts, map_pts))

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        gt = random_pose(rng)
        frame_pts = rng.uniform(-1, 1, (8, 3))
        map_pts = frame_pts @ gt.rotation.T + gt.translation + rng.normal(0, 0.01, (8, 3))
        pairs = make_pairs(frame_pts, map_pts)
        r1 = ransac_ao(*pairs)
        r2 = ransac_ao(*pairs)
        assert r1.inliers == r2.inliers
        assert np.array_equal(r1.pose.rotation, r2.pose.rotation)
        assert np.array_equal(r1.pose.translation, r2.pose.translation)

    def test_all_collinear_is_no_consensus(self):
        frame_pts = np.outer(np.arange(5.0), [0.3, -0.2, 0.1]) + [0.5, 0.2, 1.5]
        map_pts = np.random.default_rng(12).uniform(-1, 1, (5, 3))
        with pytest.raises(NoConsensus, match="best hypothesis has 0 inliers"):
            ransac_ao(*make_pairs(frame_pts, map_pts))

    @pytest.mark.parametrize("n", [*range(3, 16), 16, 20])
    def test_batched_matches_triple_loop(self, n):
        assert (comb(n, 3) <= RANSAC_MAX_ITERS) == (n <= 15)
        rng = np.random.default_rng(100 + n)
        for case, frame_pts, map_pts in ransac_cases(n, rng):
            pairs = make_pairs(frame_pts, map_pts)
            for seed in (0, n):
                try:
                    inliers, pose = ransac_triple_loop(*pairs, seed)
                except NoConsensus as exc:
                    with pytest.raises(NoConsensus, match=f"^{exc}$"):
                        ransac_ao(*pairs, seed)
                    continue
                res = ransac_ao(*pairs, seed)
                assert res.inliers == inliers, case
                assert np.array_equal(res.pose.rotation, pose.rotation), case
                assert np.array_equal(res.pose.translation, pose.translation), case
            if case == "collinear" and 8 <= n <= 15:
                # every triple but those of the five points on the line
                assert res.ransac_hypotheses == comb(n, 3) - comb(5, 3)

    @pytest.mark.parametrize("n", [16, 20, 40])
    def test_sampled_triples(self, n):
        assert comb(n, 3) > RANSAC_MAX_ITERS
        triples = registration._ransac_triples(n, 7)
        assert triples.shape == (RANSAC_MAX_ITERS, 3)
        assert np.all(np.diff(triples, axis=1) > 0)
        assert triples.min() >= 0 and triples.max() < n
        assert np.array_equal(triples, registration._ransac_triples(n, 7))
        assert not np.array_equal(triples, registration._ransac_triples(n, 8))


def ransac_cases(n, rng):
    """(case, frame points, map means) of n pairs that stress ransac_ao's choice.

    outliers: 1 cm noise with a third of the map means moved 0.3-1 m away.
    collinear: the first min(n, 5) frame points on one line, and the last
    three map means on another, so that some triples are skipped and some
    fit a rotation about a line that only rounding sets.
    zero-noise: every triple fits every pair, so in exact arithmetic every
    summed residual is 0 and the choice among them is made by rounding.
    at-gate: zero-noise with one map mean moved by RANSAC_INLIER_M, so that
    rounding sets which side of the inlier gate that pair falls on.
    """
    gt = random_pose(rng)
    frame_pts = rng.uniform(-1, 1, (n, 3)) + [0.0, 0.0, 2.0]
    exact = frame_pts @ gt.rotation.T + gt.translation
    noisy = exact + rng.normal(0, 0.01, (n, 3))
    moved = noisy.copy()
    k = max(1, n // 3)
    moved[:k] += rng.uniform(0.3, 1.0, (k, 3)) * rng.choice([-1.0, 1.0], (k, 3))
    yield "outliers", frame_pts, moved
    line = frame_pts.copy()
    c = min(n, 5)
    line[:c] = frame_pts[0] + np.outer(rng.uniform(-1, 1, c), rng.normal(size=3))
    line_map = line @ gt.rotation.T + gt.translation + rng.normal(0, 0.01, (n, 3))
    if n >= 6:
        line_map[-3:] = line_map[-3] + np.outer([0.0, 0.05, 0.1], rng.normal(size=3))
    yield "collinear", line, line_map
    yield "zero-noise", frame_pts, exact
    at_gate = exact.copy()
    direction = rng.normal(size=3)
    at_gate[n // 2] += RANSAC_INLIER_M * direction / np.linalg.norm(direction)
    yield "at-gate", frame_pts, at_gate


# the desk's two boxes, as (centre, half extents); both stand on the ground
DESK_BOXES = (((0.3, 0.2, 0.05), (0.08, 0.06, 0.05)), ((-0.4, -0.1, 0.08), (0.1, 0.07, 0.08)))
# a camera 0.9 m above the ground, looking down at the desk
DESK_VIEW = RigidTransform(rotation_from_axis_angle([1, 0.1, 0.05], 150.0), [0.1, 0.6, 0.9])


def rendered_desk(pose, boxes=DESK_BOXES):
    """A noise-free organised frame of the desk seen from pose, and the surface
    model it samples exactly: the same points in world, with their normals."""
    desk = Scene(tuple(SceneObject("laptop", RigidTransform(np.eye(3), c), e) for c, e in boxes))
    pts_cam, nrm = scene._render(desk, pose, DEFAULT_SENSOR, 0.0, np.random.default_rng(0))
    return pts_cam, SurfaceModel(pose.apply(pts_cam), nrm)


class TestDepthCentroidICP:
    def test_fixed_point_on_exact_samples(self):
        gt = DESK_VIEW
        frame_pts, surface = rendered_desk(gt)
        cents_w = np.array([[0.3, 0.2, 0.05], [-0.4, -0.1, 0.08], [0.0, 0.5, 0.0]])
        cents_f = gt.inverse().apply(cents_w)
        res = depth_centroid_icp(frame_pts, surface, cents_f, cents_w, gt, sensor=DEFAULT_SENSOR)
        terr, rerr = pose_error(res.pose, gt)
        assert terr < 1e-9 and rerr < 1e-9
        assert res.final_cost < 1e-12
        assert not res.diverged

    def test_recovers_displaced_init(self):
        gt = RigidTransform(rotation_from_axis_angle([1, 0, 0.1], 155.0), [0.05, 0.5, 1.0])
        frame_pts, surface = rendered_desk(gt)
        cents_w = np.array([[0.3, 0.2, 0.05], [-0.4, -0.1, 0.08], [0.5, -0.5, 0.0]])
        cents_f = gt.inverse().apply(cents_w)
        init = compose(RigidTransform(rotation_from_axis_angle([0, 0, 1], 3.0), [0.03, -0.02, 0.01]), gt)
        res = depth_centroid_icp(frame_pts, surface, cents_f, cents_w, init, sensor=DEFAULT_SENSOR)
        terr, rerr = pose_error(res.pose, gt)
        assert terr < 2e-3 and rerr < 0.2

    def test_w1_zero_matches_probabilistic_ao(self):
        rng = np.random.default_rng(12)
        _, surface = rendered_desk(DESK_VIEW)
        gt = random_pose(rng, t_span=0.3)
        frame_pts = rng.uniform(-0.5, 0.5, (50, 3))
        cents_f = rng.uniform(-0.8, 0.8, (5, 3))
        cents_w = cents_f @ gt.rotation.T + gt.translation + rng.normal(0, 0.01, (5, 3))
        init = horn_ao(cents_f, cents_w)
        icp = depth_centroid_icp(np.zeros((0, 3)), surface, cents_f, cents_w, init,
                                 sensor=DEFAULT_SENSOR)
        ao = probabilistic_ao(*make_pairs(cents_f, cents_w), init)
        terr, rerr = pose_error(icp.pose, ao.pose)
        assert terr < 1e-6

    def test_planar_null_space_and_centroid_fix(self):
        gt = DESK_VIEW
        frame_pts, surface = rendered_desk(gt, boxes=())
        # without centroids: normal equations over a single plane are rank 3
        y = gt.apply(frame_pts)
        h, _, _ = _icp_system(
            y, surface.points[surface.nearest(y)[1]], surface.normals[surface.nearest(y)[1]],
            np.zeros((0, 3)), np.zeros((0, 3)),
        )
        assert np.sum(np.linalg.eigvalsh(h) > 1e-8 * np.linalg.eigvalsh(h).max()) == 3
        # in-plane displacement is invisible to the plane term and fixed by
        # the centroid term
        init = compose(RigidTransform(rotation_from_axis_angle([0, 0, 1], 2.0), [0.04, -0.03, 0.0]), gt)
        res0 = depth_centroid_icp(frame_pts, surface, *NO_CENTROIDS, init, sensor=DEFAULT_SENSOR)
        terr0, rerr0 = pose_error(res0.pose, gt)
        assert terr0 > 0.01  # still displaced in the plane
        cents_w = np.array([[0.5, 0.0, 0.0], [-0.3, 0.4, 0.0], [0.1, -0.6, 0.0]])
        res1 = depth_centroid_icp(frame_pts, surface, gt.inverse().apply(cents_w), cents_w, init,
                                  sensor=DEFAULT_SENSOR)
        terr1, rerr1 = pose_error(res1.pose, gt)
        assert terr1 < 1e-4 and rerr1 < 0.01

    def test_no_correspondences(self):
        _, surface = rendered_desk(DESK_VIEW)
        # a 2x2 pixel block 5 m away, far from every surface point
        f, cx, cy = DEFAULT_SENSOR.pinhole
        u, v = np.meshgrid([80, 81], [60, 61], indexing="ij")
        frame_pts = 5.0 * np.column_stack([(u.ravel() - cx) / f, (v.ravel() - cy) / f, np.ones(4)])
        with pytest.raises(NoCorrespondences):
            depth_centroid_icp(frame_pts, surface, *NO_CENTROIDS, RigidTransform.identity(),
                               sensor=DEFAULT_SENSOR)

    def test_no_correspondences_counts_queried_points(self):
        _, surface = rendered_desk(DESK_VIEW)
        # the same far 2x2 block, and a lone far point whose window is too
        # sparse for a normal: ICP queries the block's 4 points, not the 5
        f, cx, cy = DEFAULT_SENSOR.pinhole
        u, v = np.meshgrid([80, 81], [60, 61], indexing="ij")
        u, v = np.append(u.ravel(), 20), np.append(v.ravel(), 20)
        frame_pts = 5.0 * np.column_stack([(u - cx) / f, (v - cy) / f, np.ones(5)])
        with pytest.raises(NoCorrespondences, match=r"^all 4 queried depth points rejected"):
            depth_centroid_icp(frame_pts, surface, *NO_CENTROIDS, RigidTransform.identity(),
                               sensor=DEFAULT_SENSOR)

    def test_sparse_windows_fail_the_planar_gate(self):
        # every second pixel row and column of the frame, and one full 20x20
        # pixel block: the thinned points' windows hold only themselves, so
        # more than half of the variations are inf and so is the median. ICP
        # queries only the points with a finite variation: the block's, and
        # thinned points beside it
        frame_pts, surface = rendered_desk(DESK_VIEW)
        u, v = np.divmod(DEFAULT_SENSOR.lattice_index(frame_pts), DEFAULT_SENSOR.height)
        block = (u >= 70) & (u < 90) & (v >= 50) & (v < 70)
        kept = block | ((u % 2 == 0) & (v % 2 == 0))
        cloud = frame_pts[kept]
        _, variation = estimate_normals(cloud, DEFAULT_SENSOR)
        assert np.isinf(np.median(variation))
        assert np.all(np.isfinite(variation[block[kept]]))
        finite = np.count_nonzero(np.isfinite(variation))
        assert finite < len(cloud) // 2
        res = depth_centroid_icp(cloud, surface, *NO_CENTROIDS, DESK_VIEW, sensor=DEFAULT_SENSOR)
        assert res.points == finite
        # with no planar point at all, ICP declines before its first query
        lone = frame_pts[(u % 2 == 0) & (v % 2 == 0)]
        assert np.all(np.isinf(estimate_normals(lone, DEFAULT_SENSOR)[1]))
        with pytest.raises(NoCorrespondences, match=rf"^none of {len(lone)} depth points"):
            depth_centroid_icp(lone, surface, *NO_CENTROIDS, DESK_VIEW, sensor=DEFAULT_SENSOR)

    def test_projects_the_frame_once(self, monkeypatch):
        # the normals' windows and the normal-space sample share one lattice
        # projection of the frame, and the sample is the same as with its own
        frame_pts, surface = rendered_desk(DESK_VIEW)
        want = depth_centroid_icp(frame_pts, surface, *NO_CENTROIDS, DESK_VIEW, 100,
                                  sensor=DEFAULT_SENSOR)
        calls = []
        project = SensorParams.lattice_index
        monkeypatch.setattr(SensorParams, "lattice_index",
                            lambda self, *a, **k: calls.append(1) or project(self, *a, **k))
        got = depth_centroid_icp(frame_pts, surface, *NO_CENTROIDS, DESK_VIEW, 100,
                                 sensor=DEFAULT_SENSOR)
        assert len(calls) == 1
        np.testing.assert_array_equal(got.pose.rotation, want.pose.rotation)
        np.testing.assert_array_equal(got.pose.translation, want.pose.translation)
        assert got.points == 100

    def test_points_is_the_sample_budget(self):
        frame_pts, surface = rendered_desk(DESK_VIEW)
        _, variation = estimate_normals(frame_pts, DEFAULT_SENSOR)
        planar = np.count_nonzero(variation <= max(50.0 * np.median(variation), 1e-10))
        assert planar > ICP_SAMPLE_POINTS
        for max_points, want in ((100, 100), (ICP_SAMPLE_POINTS, ICP_SAMPLE_POINTS),
                                 (10 * planar, ICP_SAMPLE_POINTS)):
            res = depth_centroid_icp(frame_pts, surface, *NO_CENTROIDS, DESK_VIEW, max_points,
                                     sensor=DEFAULT_SENSOR)
            assert res.points == want
            assert pose_error(res.pose, DESK_VIEW)[0] < 1e-9
        few = frame_pts[:1000]
        res = depth_centroid_icp(few, surface, *NO_CENTROIDS, DESK_VIEW, sensor=DEFAULT_SENSOR)
        _, variation = estimate_normals(few, DEFAULT_SENSOR)
        assert res.points == np.count_nonzero(
            variation <= max(50.0 * np.median(variation), 1e-10)) > 0
        assert depth_centroid_icp(np.zeros((0, 3)), surface, np.eye(3), np.eye(3), DESK_VIEW,
                                  sensor=DEFAULT_SENSOR).points == 0

    def test_icp_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        _, surface = rendered_desk(DESK_VIEW)
        for _ in range(10):
            pose = RigidTransform(
                rotation_from_axis_angle(rng.normal(size=3), rng.uniform(0, 5)),
                rng.normal(0, 0.02, 3),
            )
            raw = surface.points[rng.choice(len(surface.points), 200)] + rng.normal(0, 0.01, (200, 3))
            _, idx = surface.nearest(pose.apply(raw), upper_bound=0.1)
            keep = idx >= 0
            fp, mp, mn = raw[keep], surface.points[idx[keep]], surface.normals[idx[keep]]
            cents_f = rng.uniform(-0.5, 0.5, (4, 3))
            cents_m = cents_f + rng.normal(0, 0.05, (4, 3))
            _, grad = icp_cost_and_gradient(fp, mp, mn, cents_f, cents_m, pose)

            def cost_fn(xi):
                r, t = _apply_delta(xi, pose.rotation, pose.translation)
                p2 = RigidTransform(r, t)
                c, _ = icp_cost_and_gradient(fp, mp, mn, cents_f, cents_m, p2)
                return c

            fd = numerical_gradient(cost_fn)
            scale = max(np.linalg.norm(fd), 1.0)
            assert np.abs(grad - fd).max() / scale < 1e-5


def noisy_rendered_cloud(keep):
    """Depth points of a 160x120 frame of a five-object desk with 5 mm depth
    noise, of which a random `keep` fraction is kept (in pixel order). The
    ground reaches three of the image's borders."""
    desk = generate_scene(object_count=5, seed=0)
    pose = look_at([np.cos(0.5), np.sin(0.5), 0.8], [0.0, 0.0, 0.0])
    pts = render_depth_points(desk, pose, DEFAULT_SENSOR, sigma_depth=0.005, seed=3)
    rng = np.random.default_rng(16)
    return pts[np.sort(rng.choice(len(pts), int(keep * len(pts)), replace=False))]


def symmetric(eigenvalues, rng):
    """Symmetric 3x3 matrices with the given (N, 3) eigenvalues and random
    eigenvectors, exactly symmetric."""
    q, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues), 3, 3)))
    m = np.einsum("nij,nj,nkj->nik", q, eigenvalues, q)
    return (m + m.transpose(0, 2, 1)) / 2.0


class TestCardanoEigvec:
    """_cardano_smallest_eigvec against eigh, on the batches estimate_normals
    can hand it."""

    def check(self, cov):
        v = registration._cardano_smallest_eigvec(cov)
        assert v.shape == (len(cov), 3)
        assert not np.any(np.isnan(v))
        assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() <= 1e-12
        return v

    def check_against_eigh(self, cov):
        """For a simple smallest eigenvalue: eigh's eigenvector, up to sign."""
        want = np.linalg.eigh(cov)[1][:, :, 0]
        assert np.abs(np.einsum("ni,ni->n", self.check(cov), want)).min() >= 1.0 - 1e-9

    @pytest.mark.parametrize("scale", [1e-6, 1e-4, 1.0, 1e3])
    def test_random_spd_matches_eigh(self, scale):
        rng = np.random.default_rng(21)
        n = 2000
        lam0 = rng.uniform(0.0, 0.1, n)
        lam1 = lam0 + rng.uniform(0.05, 1.0, n)
        self.check_against_eigh(symmetric(
            scale * np.column_stack([lam0, lam1, lam1 + rng.uniform(0.0, 1.0, n)]), rng))

    def test_planar_patches_match_eigh(self):
        # the windows of a noisy frame: one eigenvalue far below the others
        rng = np.random.default_rng(22)
        n = 2000
        self.check_against_eigh(symmetric(1e-4 * np.column_stack(
            [rng.uniform(1e-6, 1e-2, n), rng.uniform(0.5, 1.0, n), rng.uniform(1.0, 2.0, n)]), rng))

    def test_isotropic(self):
        self.check(np.array([s * np.eye(3) for s in (1e-8, 1e-4, 1.0, 7.0, 1e4)]))

    # where the smallest eigenvalue is double, C - lambda I has rank one and
    # the cross products of its rows are rounding noise, so the vector need
    # not lie in the eigenspace unless eigh takes over; it is still a finite
    # unit vector. In a frame, only windows of two or three points have such
    # a scatter (a 3D line projects to at most three pixels of a 3x3 window),
    # and estimate_normals gives those an inf variation
    def test_two_smallest_equal(self):
        rng = np.random.default_rng(23)
        lam = rng.uniform(0.01, 1.0, 500)
        self.check(symmetric(np.column_stack([lam, lam, lam + rng.uniform(0.1, 2.0, 500)]), rng))

    def test_rank_one(self):
        rng = np.random.default_rng(24)
        u = rng.normal(size=(500, 3)) * rng.uniform(1e-3, 10.0, (500, 1))
        cov = np.einsum("ni,nj->nij", u, u)
        v = self.check(cov)
        # v lies in the eigenspace of the double eigenvalue 0
        lam = np.linalg.eigvalsh(cov)[:, :1]
        resid = np.linalg.norm(np.einsum("nij,nj->ni", cov, v) - lam * v, axis=1)
        assert (resid / np.linalg.norm(cov, axis=(1, 2))).max() <= 1e-6

    def test_zero_matrix_falls_back_to_eigh(self):
        # the window of a lone point: its scatter is exactly zero. The
        # diagonal matrix between two of them keeps its closed-form vector
        cov = np.zeros((3, 3, 3))
        cov[1] = np.diag([1.0, 2.0, 3.0])
        v = self.check(cov)
        assert np.array_equal(v[[0, 2]], np.linalg.eigh(np.zeros((2, 3, 3)))[1][:, :, 0])
        assert np.abs(v[1]).tolist() == [1.0, 0.0, 0.0]


class TestLatticeNormals:
    """estimate_normals on an organised cloud: 3x3 pixel windows, no k-d tree."""

    @pytest.mark.parametrize("keep", [1.0, 0.5])
    def test_matches_every_point_oracle(self, keep, monkeypatch):
        pts = noisy_rendered_cloud(keep)
        monkeypatch.setattr(registration, "KDTreeIndex", None)  # normals build no tree
        normals, variation = estimate_normals(pts, DEFAULT_SENSOR)
        want_n, want_v = lattice_normals_every_point(pts, DEFAULT_SENSOR)
        defined = np.isfinite(want_v)
        assert np.array_equal(np.isfinite(variation), defined)
        assert np.abs(variation[defined] - want_v[defined]).max() <= 1e-12
        n, w = normals[defined], want_n[defined]
        assert np.minimum(np.abs(n - w).max(axis=1), np.abs(n + w).max(axis=1)).max() <= 1e-9

        # the cloud has every kind of window: image borders, holes, depth
        # edges, and points with fewer than three neighbours
        u, v = np.divmod(DEFAULT_SENSOR.lattice_index(pts), DEFAULT_SENSOR.height)
        assert np.any(u == 0) or np.any(u == DEFAULT_SENSOR.width - 1)
        assert np.any(v == 0) or np.any(v == DEFAULT_SENSOR.height - 1)
        windows = registration._lattice_windows(pts, DEFAULT_SENSOR)
        inside = ((u > 0) & (u < DEFAULT_SENSOR.width - 1)
                  & (v > 0) & (v < DEFAULT_SENSOR.height - 1))
        assert np.any(inside & np.any(windows < 0, axis=1))
        depth = np.where(windows >= 0, pts[windows, 2], np.nan)
        assert np.any(np.nanmax(depth, axis=1) - np.nanmin(depth, axis=1) > 0.05)
        few = np.count_nonzero(windows >= 0, axis=1) < 4
        assert np.array_equal(few, ~defined)
        assert few.any() == (keep < 1.0)  # only thinning leaves such points here

        # those fail ICP's planar gate, and nothing is NaN
        planar_gate = max(50.0 * float(np.median(variation)), 1e-10)
        assert np.all(variation[few] > planar_gate)
        assert np.all(np.isfinite(normals))
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
        assert not np.any(np.isnan(variation))

    def test_point_order_does_not_matter(self):
        pts = noisy_rendered_cloud(0.5)
        perm = np.random.default_rng(17).permutation(len(pts))
        normals, variation = estimate_normals(pts, DEFAULT_SENSOR)
        shuffled_n, shuffled_v = estimate_normals(pts[perm], DEFAULT_SENSOR)
        assert np.array_equal(shuffled_v, variation[perm])
        assert np.array_equal(shuffled_n, normals[perm])

    def test_plane_normals(self):
        # a wall facing the sensor at 1 m: every full window is exactly planar
        f, cx, cy = DEFAULT_SENSOR.pinhole
        u, v = np.meshgrid(np.arange(40, 80), np.arange(30, 60), indexing="ij")
        pts = np.column_stack([(u.ravel() - cx) / f, (v.ravel() - cy) / f, np.ones(u.size)])
        normals, variation = estimate_normals(pts, DEFAULT_SENSOR)
        assert np.abs(np.abs(normals[:, 2]) - 1.0).max() < 1e-9
        assert variation.max() < 1e-12

    def test_edge_patches_flagged_nonplanar(self):
        # a noise-free box on the ground, seen from above: the windows that
        # straddle its depth edge hold box points and ground points centimetres
        # deeper, and ICP's planar gate must drop them
        pose = RigidTransform(rotation_from_axis_angle([1, 0, 0], 150.0), [0.0, 0.6, 0.9])
        pts, _ = rendered_desk(pose, boxes=(((0.0, 0.0, 0.1), (0.1, 0.1, 0.1)),))
        _, variation = estimate_normals(pts, DEFAULT_SENSOR)
        windows = registration._lattice_windows(pts, DEFAULT_SENSOR)
        on_box = np.append(pose.apply(pts)[:, 2] > 1e-9, False)
        ground = np.append(~on_box[:-1], False)
        depth = np.where(windows >= 0, pts[windows, 2], np.nan)
        straddle = (on_box[windows].any(axis=1) & ground[windows].any(axis=1)
                    & (np.nanmax(depth, axis=1) - np.nanmin(depth, axis=1) > 0.05))
        assert straddle.sum() > 50
        planar_gate = max(50.0 * float(np.median(variation)), 1e-10)
        assert np.all(variation[straddle] > 100 * np.median(variation))
        assert np.all(variation[straddle] > planar_gate)


def unit_normals_at(polar_deg, azimuth_deg, count):
    """count copies of the unit normal with n_z <= 0 at the given polar angle
    from -z and azimuth."""
    p, a = np.radians(polar_deg), np.radians(azimuth_deg)
    return np.tile([np.sin(p) * np.cos(a), np.sin(p) * np.sin(a), -np.cos(p)], (count, 1))


def clustered_normals(rng, n):
    """n random unit normals of either sign: two thirds near one direction,
    as a view of the ground gives, the rest spread over the sphere."""
    crowd = n * 2 // 3
    normals = np.vstack([[0.1, -0.5, -0.85] + rng.normal(0.0, 0.08, (crowd, 3)),
                         rng.normal(size=(n - crowd, 3))])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return normals * rng.choice([-1.0, 1.0], (n, 1))


class TestNormalSpaceSample:
    """ICP's sample of a frame's planar points, by normal direction."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("budget", [1, 30, 250, 599, 600, 601, 5000])
    def test_matches_loop_oracle(self, seed, budget):
        rng = np.random.default_rng(seed)
        normals = clustered_normals(rng, 600)
        lattice = rng.permutation(19200)[:600]
        got = normal_space_sample(normals, lattice, budget)
        want = normal_space_sample_loop(normals, lattice, budget)
        assert np.array_equal(got, want)
        assert len(got) == min(budget, 600)

    def test_small_bucket_keeps_every_point(self):
        # buckets of 5, 300 and 900 points: the small one keeps all 5, and
        # the 95 it leaves of its share of 33 go to the other two
        half_p, half_a = NORMAL_POLAR_BIN_DEG / 2.0, NORMAL_AZIMUTH_BIN_DEG / 2.0
        normals = np.vstack([
            unit_normals_at(3 * NORMAL_POLAR_BIN_DEG + half_p, half_a, 900),
            unit_normals_at(NORMAL_POLAR_BIN_DEG + half_p, 3 * NORMAL_AZIMUTH_BIN_DEG + half_a, 5),
            -unit_normals_at(2 * NORMAL_POLAR_BIN_DEG + half_p, -5 * NORMAL_AZIMUTH_BIN_DEG, 300),
        ])
        lattice = np.random.default_rng(3).permutation(len(normals))
        got = normal_space_sample(normals, lattice, 100)
        assert np.array_equal(got, normal_space_sample_loop(normals, lattice, 100))
        per_bucket = np.bincount(np.searchsorted([900, 905], got, side="right"), minlength=3)
        assert per_bucket.tolist() == [48, 5, 47]
        # picks are evenly spaced in lattice order, the first and last included
        big = lattice[got[got < 900]]
        assert big.min() == lattice[:900].min() and big.max() == lattice[:900].max()

    def test_permuted_cloud_selects_same_pixels(self):
        pts = noisy_rendered_cloud(1.0)
        perm = np.random.default_rng(18).permutation(len(pts))
        picked = []
        for cloud in (pts, pts[perm]):
            normals, _ = estimate_normals(cloud, DEFAULT_SENSOR)
            lattice = DEFAULT_SENSOR.lattice_index(cloud)
            picked.append(np.sort(lattice[normal_space_sample(normals, lattice, 2000)]))
        assert len(pts) > 2000 and len(picked[0]) == 2000
        assert np.array_equal(picked[0], picked[1])

    @pytest.mark.parametrize("extra", [0, 1, 1000])
    def test_budget_at_or_above_count_keeps_every_index(self, extra):
        rng = np.random.default_rng(4)
        normals = clustered_normals(rng, 300)
        lattice = rng.permutation(300)
        assert np.array_equal(normal_space_sample(normals, lattice, 300 + extra), np.arange(300))


class TestSurfaceModel:
    def test_validates_normals(self):
        with pytest.raises(ValueError):
            SurfaceModel([[0, 0, 0]], [[0, 0, 2.0]])

    def test_nearest_ties_lowest_index(self):
        pts = np.array([[0, 0, 1.0], [0, 0, -1.0]])
        nrm = np.array([[0, 0, 1.0], [0, 0, 1.0]])
        s = SurfaceModel(pts, nrm)
        _, idx = s.nearest(np.array([[0.0, 0.0, 0.0]]))
        assert idx[0] == 0

    def test_nearest_matches_brute_force(self):
        rng = np.random.default_rng(15)
        pts = rng.uniform(-1, 1, (500, 3))
        s = SurfaceModel(pts, np.tile([0.0, 0.0, 1.0], (len(pts), 1)))
        queries = rng.uniform(-1.2, 1.2, (200, 3))
        all_d = np.linalg.norm(queries[:, None, :] - pts[None, :, :], axis=2)
        want_i = all_d.argmin(axis=1)
        want_d = all_d.min(axis=1)
        for bound in (np.inf, np.median(want_d)):
            d, idx = s.nearest(queries, upper_bound=bound)
            near = want_d < bound
            assert near.any() and near.all() == np.isinf(bound)
            assert np.array_equal(idx[near], want_i[near])
            assert np.allclose(d[near], want_d[near], rtol=0, atol=1e-12)
            assert np.all(np.isinf(d[~near])) and np.all(idx[~near] == -1)

    @pytest.mark.parametrize("threads", [2, 4])
    def test_shared_across_threads(self, threads):
        # callers relocalise frames in parallel on one model; a thread pool,
        # switching threads every microsecond, returns exactly the serial
        # distances and indices
        rng = np.random.default_rng(25)
        pts = rng.uniform(-1, 1, (20000, 3))
        s = SurfaceModel(pts, np.tile([0.0, 0.0, 1.0], (len(pts), 1)))
        batches = [(rng.uniform(-1.2, 1.2, (2000, 3)), bound)
                   for bound in (np.inf, 0.05, 0.02, 0.01) * 10]
        want = [s.nearest(q, upper_bound=b) for q, b in batches]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(threads) as pool:
                futures = [pool.submit(s.nearest, q, upper_bound=b) for q, b in batches]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        for (d, i), (want_d, want_i) in zip(got, want):
            assert np.array_equal(d, want_d) and np.array_equal(i, want_i)
        assert any(np.any(i < 0) for _, i in want) and any(np.all(i >= 0) for _, i in want)
