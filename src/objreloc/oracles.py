"""Independent brute-force oracles used to verify the fast implementations.

Each oracle recomputes a quantity by enumeration, Monte-Carlo sampling,
finite differences or derivative-free search, sharing as little code as
possible with the implementation it checks. The test suite runs these.
"""

import itertools
import math

import numpy as np

from .errors import CollinearPoints, NoConsensus
from .geometry import (CENTROID_PRIOR_SIGMA, COVARIANCE_FLOOR, MIN_SAMPLES_FOR_COV,
                       RigidTransform, nearest_rotation)
from .registration import (NORMAL_AZIMUTH_BIN_DEG, NORMAL_POLAR_BIN_DEG, RANSAC_INLIER_M,
                           _check_not_collinear, _fit_rigid, _ransac_triples, probabilistic_ao)
from .scene import (MIN_COS_INCIDENCE, _intersect_box, _intersect_cylinder, _intersect_ground,
                    _ray_dirs)


def mc_box_iou(b1, b2, n_samples=1_000_000, seed=12345):
    """Monte-Carlo IoU estimate: uniform samples over the union's AABB."""
    lo1, hi1 = b1.aabb()
    lo2, hi2 = b2.aabb()
    lo = np.minimum(lo1, lo2)
    hi = np.maximum(hi1, hi2)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    pts = rng.uniform(lo, hi, size=(n_samples, 3))
    in1 = b1.contains(pts)
    in2 = b2.contains(pts)
    either = np.count_nonzero(in1 | in2)
    if either == 0:
        return 0.0
    return float(np.count_nonzero(in1 & in2) / either)


def lattice_box_iou(b1, b2):
    """box_iou's 32^3 lattice estimate, by testing every lattice point.

    Each box's 32^3 cell centres are mapped into world coordinates and tested
    with the other box's OrientedBox.contains; the intersection is the mean of
    the two "volume times fraction inside" estimates. There is no AABB early
    exit: disjoint boxes simply count no points.
    """
    g = (np.arange(32) + 0.5) / 32 * 2.0 - 1.0
    lattice = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)

    def part_inside(box, other):
        pts = box.centroid + (lattice * box.extents) @ box.orientation.T
        return box.volume * np.count_nonzero(other.contains(pts)) / lattice.shape[0]

    inter = 0.5 * (part_inside(b1, b2) + part_inside(b2, b1))
    union = b1.volume + b2.volume - inter
    if inter <= 0.0 or union <= 0.0:
        return 0.0
    return float(min(inter / union, 1.0))


def brute_force_one_to_one(candidates, scores):
    """Exhaustive maximiser of the summed score over one-to-one candidate subsets.

    candidates is matching's Candidates record, whose frame_index and
    map_object_index arrays say which frame object and which map object each
    candidate pairs; two candidates conflict when they share either. Returns
    (best subset as a sorted tuple of candidate indices, best total,
    second-best total over distinct subsets).
    """
    n = len(candidates)
    if n > 20:
        raise ValueError("brute force limited to 20 candidates")
    best = ()
    best_total = 0.0
    second_total = -np.inf
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        frames = [candidates.frame_index[i] for i in idx]
        maps = [candidates.map_object_index[i] for i in idx]
        if len(set(frames)) != len(frames) or len(set(maps)) != len(maps):
            continue
        total = float(sum(scores[i] for i in idx))
        if total > best_total:
            second_total = best_total
            best_total = total
            best = tuple(idx)
        elif total > second_total:
            second_total = total
    return best, best_total, second_total


def _rotvec_to_matrix(w):
    # local Rodrigues, independent of geometry.exp_so3
    theta = float(np.sqrt(w[0] ** 2 + w[1] ** 2 + w[2] ** 2))
    if theta < 1e-14:
        return np.eye(3)
    a = np.asarray(w, dtype=np.float64) / theta
    k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]], dtype=np.float64)
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def weighted_ao_cost(xi, base_rotation, base_translation, frame_pts, map_pts, weights):
    """Mahalanobis-weighted alignment cost at the left-perturbed pose exp(xi) * base."""
    dr = _rotvec_to_matrix(xi[:3])
    r = dr @ base_rotation
    t = dr @ base_translation + xi[3:]
    resid = map_pts - (frame_pts @ r.T + t)
    return float(np.einsum("ni,nij,nj->", resid, weights, resid))


def coordinate_descent_ao(frame_pts, map_pts, weights, init_rotation, init_translation,
                          tol=1e-7, max_sweeps=600, span=0.5):
    """Derivative-free minimiser of the weighted alignment cost.

    Cyclic coordinate descent over the 6 perturbation parameters with golden
    section line search, re-anchoring the base pose after every move. Only
    cost evaluations are used; no gradients shared with the solver under test.
    Convergence is linear with rate set by the conditioning, hence the large
    sweep budget.
    """
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    r = np.array(init_rotation, dtype=np.float64)
    t = np.array(init_translation, dtype=np.float64)

    def line_search(k):
        def f(s):
            xi = np.zeros(6)
            xi[k] = s
            return weighted_ao_cost(xi, r, t, frame_pts, map_pts, weights)

        a, b = -span, span
        c = b - golden * (b - a)
        d = a + golden * (b - a)
        fc, fd = f(c), f(d)
        while b - a > 1e-10:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - golden * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + golden * (b - a)
                fd = f(d)
        s = 0.5 * (a + b)
        return s if f(s) < f(0.0) else 0.0

    for _ in range(max_sweeps):
        moved = 0.0
        for k in range(6):
            s = line_search(k)
            if s != 0.0:
                xi = np.zeros(6)
                xi[k] = s
                dr = _rotvec_to_matrix(xi[:3])
                r = dr @ r
                t = dr @ t + xi[3:]
                moved = max(moved, abs(s))
        if moved < tol:
            break
    return r, t


def numerical_gradient(cost_fn, dim=6, h=1e-6):
    """Central finite-difference gradient of cost_fn over a perturbation chart."""
    g = np.zeros(dim)
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = h
        g[k] = (cost_fn(e) - cost_fn(-e)) / (2.0 * h)
    return g


def ray_box_intersection(origin, direction, center, rotation, extents):
    """Scalar ray vs oriented box, written independently of the renderer.

    Returns the entry distance along the (unit) direction or None. Intervals
    are intersected axis by axis in the box frame.
    """
    o = rotation.T @ (np.asarray(origin, dtype=np.float64) - center)
    d = rotation.T @ np.asarray(direction, dtype=np.float64)
    lo, hi = -np.inf, np.inf
    for a in range(3):
        if abs(d[a]) < 1e-15:
            if abs(o[a]) > extents[a]:
                return None
            continue
        ta = (-extents[a] - o[a]) / d[a]
        tb = (extents[a] - o[a]) / d[a]
        if ta > tb:
            ta, tb = tb, ta
        lo = max(lo, ta)
        hi = min(hi, tb)
        if lo > hi:
            return None
    if hi <= 1e-9:
        return None
    return lo if lo > 1e-9 else hi


def raycast_every_ray(scene, camera_pose, sensor):
    """scene._raycast without its ray culling: every ray meets every primitive.

    Returns (t, normals_world) with t = inf for misses, the nearest hit per
    ray, the range cut and the grazing-angle cut, as the renderer defines them.
    It reuses the renderer's per-primitive intersection code, which
    ray_box_intersection checks on its own; what this oracle checks is the
    culling.
    """
    dirs_w = _ray_dirs(sensor) @ camera_pose.rotation.T
    origins = np.tile(camera_pose.translation, (len(dirs_w), 1))
    t_best, n_best = _intersect_ground(scene, origins, dirs_w)
    for obj in scene.primitives():
        if obj.shape == "box":
            t, n = _intersect_box(obj, origins, dirs_w)
        else:
            t, n = _intersect_cylinder(obj, origins, dirs_w)
        closer = t < t_best
        t_best = np.where(closer, t, t_best)
        n_best = np.where(closer[:, None], n, n_best)
    t_best = np.where(t_best <= sensor.max_range, t_best, np.inf)
    grazing = np.abs(np.einsum("ni,ni->n", n_best, dirs_w)) < MIN_COS_INCIDENCE
    t_best = np.where(grazing, np.inf, t_best)
    return t_best, n_best


def exhaustive_ransac_triples(frame_pts, map_pts, fit_fn, inlier_threshold):
    """Enumerate all 3-subsets, fit with fit_fn, return the best inlier set.

    Ranking matches the RANSAC contract: most inliers first, ties broken by
    lower summed residual over the inliers.
    """
    n = len(frame_pts)
    best = None
    for triple in itertools.combinations(range(n), 3):
        try:
            rot, tr = fit_fn(frame_pts[list(triple)], map_pts[list(triple)])
        except Exception:
            continue
        resid = np.linalg.norm(map_pts - (frame_pts @ rot.T + tr), axis=1)
        inliers = np.flatnonzero(resid < inlier_threshold)
        score = (len(inliers), -float(resid[inliers].sum()))
        if best is None or score > best[0]:
            best = (score, tuple(inliers))
    if best is None:
        return ()
    return best[1]


def ransac_triple_loop(frame_pts, map_means, map_covs, seed):
    """ransac_ao as a loop that checks, fits and scores one triple at a time.

    Same triples in the same order (_ransac_triples), the same rigid fit
    (_fit_rigid, on a block of one) and the same probabilistic_ao refit, but
    its own collinearity test (_check_not_collinear), residuals and ranking;
    what it checks is ransac_ao's one-pass scoring and selection. A triple
    wins when its (inlier count, minus summed inlier residual) is strictly
    greater than every earlier triple's. The sum is the masked row sum
    ransac_ao takes, since a sum over resid[mask] rounds differently.
    Returns (inlier indices, pose); raises NoConsensus as ransac_ao does.
    """
    f, m = frame_pts, map_means
    best_score = None
    best_inliers = None
    best_pose = None
    for sub in _ransac_triples(len(f), seed):
        try:
            _check_not_collinear(f[sub])
        except CollinearPoints:
            continue
        rot, t = _fit_rigid(f[None, sub], m[None, sub])
        rot, t = rot[0], t[0]
        resid = np.linalg.norm(m - (f @ rot.T + t), axis=1)
        mask = resid < RANSAC_INLIER_M
        count = int(np.count_nonzero(mask))
        score = (count, -float(np.where(mask, resid, 0.0).sum()))
        if best_score is None or score > best_score:
            best_score = score
            best_inliers = np.flatnonzero(mask)
            best_pose = RigidTransform(nearest_rotation(rot), t)
    if best_score is None or best_score[0] < 3:
        raise NoConsensus(
            f"best hypothesis has {0 if best_score is None else best_score[0]} inliers"
        )
    result = probabilistic_ao(f[best_inliers], m[best_inliers], map_covs[best_inliers],
                              best_pose)
    return tuple(int(i) for i in best_inliers), result.pose


def lattice_normals_every_point(points, sensor):
    """estimate_normals, point by point with np.linalg.eigh.

    Each point's pixel is found by rounding its pinhole projection, which is
    derived here from the sensor's field of view. A point's neighbourhood is
    the points of its 3x3 pixel window, itself included; a point with fewer
    than three neighbours gets normal (0, 0, 1) and surface variation inf.
    Returns (normals, surface_variation) with variation = lambda_min / trace
    of the window's centred scatter matrix.
    """
    pts = np.asarray(points, dtype=np.float64)
    f = sensor.width / 2.0 / np.tan(np.radians(sensor.fov_deg) / 2.0)
    pixel = {}
    for i, (x, y, z) in enumerate(pts):
        u = round(f * x / z + (sensor.width - 1) / 2.0)
        v = round(f * y / z + (sensor.height - 1) / 2.0)
        pixel[(u, v)] = i
    normals = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
    variation = np.full(len(pts), np.inf)
    for (u, v), i in pixel.items():
        window = [pixel[(u + du, v + dv)] for du in (-1, 0, 1) for dv in (-1, 0, 1)
                  if (u + du, v + dv) in pixel]
        if len(window) < 4:
            continue
        centred = pts[window] - pts[window].mean(axis=0)
        scatter = centred.T @ centred
        eigvals, eigvecs = np.linalg.eigh(scatter)
        normals[i] = eigvecs[:, 0]
        variation[i] = max(eigvals[0], 0.0) / np.trace(scatter)
    return normals, variation


def normal_space_sample_loop(normals, lattice, budget):
    """normal_space_sample, point by point with the math module.

    Each normal, turned to n_z <= 0, goes to the bucket of its polar angle
    from -z (the last polar step ending at 90 degrees) and its azimuth. The
    buckets are then visited smallest first, equal sizes in bucket order, and
    each keeps min(its size, budget left // buckets not yet visited) of its
    points: picks j = 0 .. k-1 at positions j (size - 1) // (k - 1) of its
    points sorted by lattice. Returns the kept indices, sorted.
    """
    n_polar = round(90.0 / NORMAL_POLAR_BIN_DEG)
    n_azimuth = round(360.0 / NORMAL_AZIMUTH_BIN_DEG)
    buckets = {}
    for i, (x, y, z) in enumerate(np.asarray(normals, dtype=np.float64).tolist()):
        if z > 0.0:
            x, y, z = -x, -y, -z
        polar = min(int(math.degrees(math.acos(min(-z, 1.0))) // NORMAL_POLAR_BIN_DEG),
                    n_polar - 1)
        azimuth = int(math.degrees(math.atan2(y + 0.0, x + 0.0)) // NORMAL_AZIMUTH_BIN_DEG)
        buckets.setdefault(polar * n_azimuth + azimuth % n_azimuth, []).append(i)
    ranked = sorted(buckets, key=lambda b: (len(buckets[b]), b))
    left = budget
    kept = []
    for visited, b in enumerate(ranked):
        members = sorted(buckets[b], key=lambda i: lattice[i])
        k = min(len(members), left // (len(ranked) - visited))
        left -= k
        kept += [members[j * (len(members) - 1) // max(k - 1, 1)] for j in range(k)]
    return sorted(kept)


def configuration_from_boxes(boxes):
    """A map configuration recomputed from the whole list of its boxes, in
    assignment order: (mean, covariance, orientation, extents).

    The mean is the centroids' arithmetic mean. The covariance is numpy's
    unbiased sample covariance plus the decaying prior
    (CENTROID_PRIOR_SIGMA^2 / n) I, or the prior CENTROID_PRIOR_SIGMA^2 I
    alone below MIN_SAMPLES_FOR_COV boxes, with its eigenvalues clipped to
    COVARIANCE_FLOOR. The orientation is the chordal mean, the nearest
    rotation to the orientations' arithmetic mean by its own SVD, or the
    first box's orientation when that mean's second singular value is below
    1e-9. The extents are the arithmetic mean.
    """
    centroids = np.array([b.centroid for b in boxes])
    n = len(boxes)
    if n < MIN_SAMPLES_FOR_COV:
        cov = np.eye(3) * CENTROID_PRIOR_SIGMA**2
    else:
        cov = np.cov(centroids.T, ddof=1) + np.eye(3) * (CENTROID_PRIOR_SIGMA**2 / n)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (cov + cov.T))
    cov = (eigvecs * np.maximum(eigvals, COVARIANCE_FLOOR)) @ eigvecs.T
    u, s, vt = np.linalg.svd(np.mean([b.orientation for b in boxes], axis=0))
    if s[1] < 1e-9:
        orientation = boxes[0].orientation
    else:
        orientation = u @ np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ vt))]) @ vt
    return centroids.mean(axis=0), cov, orientation, np.mean([b.extents for b in boxes], axis=0)
