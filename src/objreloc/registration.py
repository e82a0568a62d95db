"""Pose estimation from matched centroids and depth geometry.

Three stages, matching the relocalisation chain: closed-form absolute
orientation (horn_ao), Mahalanobis-weighted absolute orientation solved by
Gauss-Newton (probabilistic_ao) wrapped in RANSAC (ransac_ao), and a
point-to-plane ICP augmented with a centroid alignment term
(depth_centroid_icp).

All solvers share one local parameterisation: a 6-vector delta = (dtheta, dt)
applied multiplicatively on the left, T' = (exp([dtheta]x), dt) ∘ T.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    CollinearPoints,
    NoConsensus,
    NoCorrespondences,
    NonDecreasingCost,
    TooFewPairs,
)
from .geometry import COVARIANCE_FLOOR, RigidTransform, exp_so3, nearest_rotation
from .gridnn import KDTreeIndex
from .validation import as_points, as_vector3, check_covariance

GN_MAX_ITERATIONS = 50
GN_UPDATE_TOL = 1e-10
GN_MAX_HALVINGS = 8
GN_MAX_STALLED = 5

ICP_ITERATIONS = 30
ICP_D_MAX_START = 0.20
ICP_D_MAX_END = 0.05
# a pose step below 0.5 mrad and 0.5 mm stops ICP: 10x below the sensor's
# 5 mm depth noise and 100x below the 5 cm / 5 deg success test
ICP_STEP_TOL_RAD = 5e-4
ICP_STEP_TOL_M = 5e-4
ICP_NORMAL_ANGLE_DEG = 45.0
ICP_PCA_NEIGHBORS = 16
ICP_MAX_POINTS = 20000
# ICP diverged when its final cost exceeds the initial one by more than
# rounding: a relative margin, plus a floor in m^2 (1 um of residual) for the
# ~1e-28 costs of noise-free frames, whose rounding is tens of percent
ICP_DIVERGED_RTOL = 1e-9
ICP_DIVERGED_ATOL = 1e-12

RANSAC_MAX_ITERS = 500


@dataclass(frozen=True)
class WeightedPair:
    """One correspondence: frame point (camera frame) vs map Gaussian centroid."""

    frame_point: np.ndarray
    map_mean: np.ndarray
    map_cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frame_point", as_vector3(self.frame_point, "frame_point"))
        object.__setattr__(self, "map_mean", as_vector3(self.map_mean, "map_mean"))
        cov = check_covariance(self.map_cov, "map_cov", sym_tol=1e-9, min_eig=COVARIANCE_FLOOR)
        object.__setattr__(self, "map_cov", cov)


class SurfaceModel:
    """Dense map stand-in: world points with unit normals and a spatial index.

    Immutable after construction; nearest-neighbour queries are exact and
    read-only, so one model can be shared across concurrent relocalisation
    workers.
    """

    def __init__(self, points, normals):
        self.points = as_points(points, "points")
        normals = as_points(normals, "normals")
        if len(self.points) != len(normals):
            raise ValueError("points and normals must have equal length")
        if len(self.points) == 0:
            raise ValueError("SurfaceModel requires at least one point")
        norms = np.linalg.norm(normals, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise ValueError("normals must be unit length within 1e-6")
        self.normals = normals
        self._index = KDTreeIndex(self.points)

    def __len__(self):
        return len(self.points)

    def nearest(self, queries, upper_bound=np.inf):
        """(distances, indices) of nearest surface points; misses are (inf, -1)."""
        return self._index.query(queries, upper_bound)


@dataclass
class RegistrationResult:
    pose: RigidTransform
    inliers: tuple = ()
    final_cost: float = 0.0
    converged: bool = False
    iterations: int = 0
    diverged: bool = False


def _stack_pairs(pairs):
    f = np.array([p.frame_point for p in pairs])
    m = np.array([p.map_mean for p in pairs])
    w = np.array([np.linalg.inv(p.map_cov) for p in pairs])
    return f, m, w


def _check_not_collinear(frame_pts):
    centered = frame_pts - frame_pts.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    if s[1] <= max(s[0] * 1e-8, 1e-12):
        raise CollinearPoints(
            f"frame points are collinear within tolerance (singular values {s})"
        )


def _fit_rigid(frame_pts, map_pts):
    fc = frame_pts.mean(axis=0)
    mc = map_pts.mean(axis=0)
    h = (frame_pts - fc).T @ (map_pts - mc)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return rot, mc - rot @ fc


def horn_ao(pairs):
    """Closed-form least-squares rigid transform aligning frame points to map means.

    Covariances are ignored (identity weighting); no scale is estimated.
    Raises TooFewPairs below 3 pairs and CollinearPoints when the centered
    frame points have rank < 2.
    """
    if len(pairs) < 3:
        raise TooFewPairs(f"horn_ao needs >= 3 pairs, got {len(pairs)}")
    f, m, _ = _stack_pairs(pairs)
    _check_not_collinear(f)
    rot, t = _fit_rigid(f, m)
    return RigidTransform(nearest_rotation(rot), t)


def _apply_delta(delta, rot, t):
    dr = exp_so3(delta[:3])
    r_new = dr @ rot
    if np.abs(r_new.T @ r_new - np.eye(3)).max() > 1e-9:
        r_new = nearest_rotation(r_new)
    return r_new, dr @ t + delta[3:]


def _skew(y):
    """Batched cross-product matrices: _skew(y)[n] @ v == np.cross(y[n], v)."""
    yx = np.zeros((len(y), 3, 3))
    yx[:, 0, 1] = -y[:, 2]
    yx[:, 0, 2] = y[:, 1]
    yx[:, 1, 0] = y[:, 2]
    yx[:, 1, 2] = -y[:, 0]
    yx[:, 2, 0] = -y[:, 1]
    yx[:, 2, 1] = y[:, 0]
    return yx


def _ao_system(f, m, w, rot, t):
    """Gauss-Newton system (H, g) and cost of the Mahalanobis-weighted AO at
    (rot, t), for residuals r_i = m_i - y_i with y_i = rot f_i + t.

    cost = sum r_i^T W_i r_i, H = sum J_i^T W_i J_i and g = sum J_i^T W_i r_i
    with J_i = [ [y_i]x  -I ], so the cost's gradient in the local chart is 2 g.
    """
    y = f @ rot.T + t
    r = m - y
    jac = np.empty((len(f), 3, 6))
    jac[:, :, :3] = _skew(y)
    jac[:, :, 3:] = -np.eye(3)
    jtw = np.einsum("nki,nkl->nil", jac, w)
    h = np.einsum("nik,nkl->il", jtw, jac)
    g = np.einsum("nik,nk->i", jtw, r)
    return h, g, float(np.einsum("ni,nij,nj->", r, w, r))


def ao_cost_and_gradient(pairs, pose):
    """Cost of Mahalanobis-weighted AO at pose and its gradient in the local chart.

    The chart is the left-multiplicative 6-vector (dtheta, dt). Both come from
    _ao_system, the system probabilistic_ao solves, so the finite-difference
    check of the test oracles covers the solver's own gradient.
    """
    f, m, w = _stack_pairs(pairs)
    _, g, cost = _ao_system(f, m, w, pose.rotation, pose.translation)
    return cost, 2.0 * g


def probabilistic_ao(pairs, init):
    """Gauss-Newton minimiser of sum d_i(T)^T Sigma_i^{-1} d_i(T).

    Left-multiplicative 6-parameter updates; converged when the accepted
    update's norm drops below 1e-10 or after 50 iterations. Steps that would
    increase the cost are halved up to 8 times; 5 consecutive stalled
    iterations raise NonDecreasingCost.
    """
    if len(pairs) < 3:
        raise TooFewPairs(f"probabilistic_ao needs >= 3 pairs, got {len(pairs)}")
    f, m, w = _stack_pairs(pairs)
    _check_not_collinear(f)
    rot = np.array(init.rotation)
    t = np.array(init.translation)
    h, g, cost = _ao_system(f, m, w, rot, t)
    converged = False
    stalled = 0
    it = 0
    for it in range(1, GN_MAX_ITERATIONS + 1):
        try:
            delta = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(h, -g, rcond=None)[0]
        if np.linalg.norm(delta) < GN_UPDATE_TOL:
            converged = True
            break
        step = 1.0
        accepted = False
        for _ in range(GN_MAX_HALVINGS + 1):
            rot_new, t_new = _apply_delta(step * delta, rot, t)
            # an accepted trial's system is the next iteration's linearisation
            h_new, g_new, cost_new = _ao_system(f, m, w, rot_new, t_new)
            if cost_new <= cost:
                rot, t, h, g, cost = rot_new, t_new, h_new, g_new, cost_new
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # a vanishing proposed step that cannot decrease the cost means we
            # are at the optimum within floating-point noise, not ill-conditioned
            if np.linalg.norm(delta) < 1e-7:
                converged = True
                break
            stalled += 1
            if stalled >= GN_MAX_STALLED:
                raise NonDecreasingCost(
                    f"cost failed to decrease for {GN_MAX_STALLED} consecutive iterations"
                )
            continue
        stalled = 0
        if np.linalg.norm(step * delta) < GN_UPDATE_TOL:
            converged = True
            break
    pose = RigidTransform(rot, t)
    return RegistrationResult(
        pose=pose,
        inliers=tuple(range(len(pairs))),
        final_cost=cost,
        converged=converged,
        iterations=it,
    )


def ransac_ao(pairs, inlier_threshold=0.10, seed=0):
    """RANSAC over minimal 3-correspondence sets, then probabilistic refit on inliers.

    All C(n,3) subsets are enumerated when that count fits in
    RANSAC_MAX_ITERS, making the estimate deterministic; otherwise
    RANSAC_MAX_ITERS seeded random subsets are drawn. Hypotheses are ranked by
    inlier count with ties broken by lower summed inlier residual. Raises NoConsensus when the best
    hypothesis has fewer than 3 inliers.
    """
    import itertools
    from math import comb

    n = len(pairs)
    if n < 3:
        raise TooFewPairs(f"ransac_ao needs >= 3 pairs, got {n}")
    f, m, _ = _stack_pairs(pairs)
    if comb(n, 3) <= RANSAC_MAX_ITERS:
        triples = itertools.combinations(range(n), 3)
    else:
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, n], dtype=np.uint64)))
        triples = (sorted(rng.choice(n, size=3, replace=False)) for _ in range(RANSAC_MAX_ITERS))

    best_score = None
    best_inliers = None
    best_pose = None
    for triple in triples:
        sub = list(triple)
        try:
            _check_not_collinear(f[sub])
        except CollinearPoints:
            continue
        rot, t = _fit_rigid(f[sub], m[sub])
        resid = np.linalg.norm(m - (f @ rot.T + t), axis=1)
        mask = resid < inlier_threshold
        count = int(np.count_nonzero(mask))
        score = (count, -float(resid[mask].sum()))
        if best_score is None or score > best_score:
            best_score = score
            best_inliers = np.flatnonzero(mask)
            best_pose = RigidTransform(nearest_rotation(rot), t)
    if best_score is None or best_score[0] < 3:
        raise NoConsensus(
            f"best hypothesis has {0 if best_score is None else best_score[0]} inliers"
        )
    inlier_pairs = [pairs[i] for i in best_inliers]
    result = probabilistic_ao(inlier_pairs, best_pose)
    return replace(result, inliers=tuple(int(i) for i in best_inliers))


def _cardano_smallest_eigvec(cov):
    """Smallest-eigenvalue eigenvector of each symmetric 3x3 in a batch.

    Closed-form (Cardano) eigenvalues, eigenvector from the cross product of
    two rows of (C - lambda I); falls back to eigh for near-degenerate cases.
    """
    a = cov[:, 0, 0]
    b = cov[:, 1, 1]
    c = cov[:, 2, 2]
    d = cov[:, 0, 1]
    e = cov[:, 1, 2]
    fo = cov[:, 0, 2]
    p1 = d**2 + e**2 + fo**2
    q = (a + b + c) / 3.0
    p2 = (a - q) ** 2 + (b - q) ** 2 + (c - q) ** 2 + 2.0 * p1
    p = np.sqrt(np.maximum(p2 / 6.0, 1e-300))
    bm = (cov - q[:, None, None] * np.eye(3)) / p[:, None, None]
    detb = (
        bm[:, 0, 0] * (bm[:, 1, 1] * bm[:, 2, 2] - bm[:, 1, 2] * bm[:, 2, 1])
        - bm[:, 0, 1] * (bm[:, 1, 0] * bm[:, 2, 2] - bm[:, 1, 2] * bm[:, 2, 0])
        + bm[:, 0, 2] * (bm[:, 1, 0] * bm[:, 2, 1] - bm[:, 1, 1] * bm[:, 2, 0])
    )
    phi = np.arccos(np.clip(detb / 2.0, -1.0, 1.0)) / 3.0
    lam_min = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    m = cov - lam_min[:, None, None] * np.eye(3)
    c01 = np.cross(m[:, 0, :], m[:, 1, :])
    c02 = np.cross(m[:, 0, :], m[:, 2, :])
    c12 = np.cross(m[:, 1, :], m[:, 2, :])
    cands = np.stack([c01, c02, c12], axis=1)
    norms = np.linalg.norm(cands, axis=2)
    pick = norms.argmax(axis=1)
    v = cands[np.arange(len(cov)), pick]
    vn = norms[np.arange(len(cov)), pick]
    bad = vn < 1e-12
    if np.any(bad):
        _, vecs = np.linalg.eigh(cov[bad])
        v[bad] = vecs[:, :, 0]
        vn[bad] = 1.0
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def estimate_normals(points):
    """Unoriented per-point normals via PCA over the ICP_PCA_NEIGHBORS nearest
    neighbours.

    Returns (normals, surface_variation) where surface_variation is the
    smallest-eigenvalue fraction lambda_min / trace of each neighbourhood
    covariance: ~0 for a locally planar patch, large when the patch straddles
    an edge and the normal is meaningless.
    """
    pts = as_points(points, "points")
    n = len(pts)
    if n < 3:
        return np.tile([0.0, 0.0, 1.0], (n, 1)), np.zeros(n)
    idx = KDTreeIndex(pts).query_knn(pts, min(ICP_PCA_NEIGHBORS, n))
    nbrs = pts[idx]
    centered = nbrs - nbrs.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered)
    normals = _cardano_smallest_eigvec(cov)
    trace = cov[:, 0, 0] + cov[:, 1, 1] + cov[:, 2, 2]
    lam_min = np.einsum("ni,nij,nj->n", normals, cov, normals)
    variation = np.maximum(lam_min, 0.0) / np.maximum(trace, 1e-300)
    return normals, variation


def _icp_system(y_pts, map_pts, map_nrm, cent_y, cent_target, w1, w2):
    """Normal equations (H, b) and cost terms for one linearisation of the
    combined point-to-plane + centroid cost at the current pose."""
    h = np.zeros((6, 6))
    b = np.zeros(6)
    plane_cost = 0.0
    cent_cost = 0.0
    if w1 > 0.0 and len(y_pts) > 0:
        e = np.einsum("ni,ni->n", map_nrm, map_pts - y_pts)
        g = np.concatenate([np.cross(y_pts, map_nrm), map_nrm], axis=1)
        h += w1 * (g.T @ g)
        b += w1 * (g.T @ e)
        plane_cost = w1 * float(e @ e)
    if w2 > 0.0 and len(cent_y) > 0:
        r = cent_target - cent_y
        jac = np.concatenate([_skew(cent_y), -np.tile(np.eye(3), (len(cent_y), 1, 1))], axis=2)
        h += w2 * np.einsum("nki,nkj->ij", jac, jac)
        b -= w2 * np.einsum("nki,nk->i", jac, r)
        cent_cost = w2 * float(np.einsum("ni,ni->", r, r))
    return h, b, plane_cost + cent_cost


def icp_assign(frame_points, surface, pose, d_max=ICP_D_MAX_END):
    """Nearest-neighbour assignment at pose, gated by distance only.

    Returns (kept frame points in camera frame, map points, map normals).
    """
    pts = as_points(frame_points, "frame_points")
    _, idx = surface.nearest(pose.apply(pts), upper_bound=d_max)
    keep = idx >= 0
    return pts[keep], surface.points[idx[keep]], surface.normals[idx[keep]]


def icp_cost_and_gradient(frame_pts, map_pts, map_normals, pairs, pose, w1=1.0, w2=1.0):
    """Combined ICP cost and local-chart gradient at pose for a FIXED
    correspondence assignment. Oracle hook for finite-difference checks."""
    y = pose.apply(np.asarray(frame_pts, dtype=np.float64).reshape(-1, 3))
    cf = np.array([p.frame_point for p in pairs]).reshape(-1, 3)
    cm = np.array([p.map_mean for p in pairs]).reshape(-1, 3)
    _, b, cost = _icp_system(y, np.asarray(map_pts), np.asarray(map_normals), pose.apply(cf), cm, w1, w2)
    # b is the Gauss-Newton right-hand side, minus half the cost's gradient
    return cost, -2.0 * b


def depth_centroid_icp(frame_points, surface, inlier_pairs, init, w1=1.0, w2=1.0,
                       max_points=ICP_MAX_POINTS):
    """Point-to-plane ICP with an added centroid-alignment term.

    Minimises  w1 * sum_L (n^T (p_map - v(p, T)))^2 + w2 * sum_D ||u_map - v(u, T)||^2
    starting from init; per iteration the nearest surface point is assigned to
    every frame point, gated by an annealed distance bound (ICP_D_MAX_START to
    ICP_D_MAX_END, linear over ICP_ITERATIONS) and by an ICP_NORMAL_ANGLE_DEG
    compatibility test between the frame-point normal (PCA over
    ICP_PCA_NEIGHBORS neighbours) and the map normal. Both sums are raw as
    written. Frames with more than max_points depth points are subsampled
    evenly.

    The stop test is on the pose step: an update whose rotation part is
    shorter than ICP_STEP_TOL_RAD and whose translation part is shorter than
    ICP_STEP_TOL_M. Mid-schedule, such a step jumps the anneal to its final
    gate; at the final gate it counts as converged. A run that never takes
    such a step at the final gate stops unconverged after ICP_ITERATIONS.

    Raises NoCorrespondences when w1 > 0 and every depth point is rejected at
    some iteration. The diverged flag reports a final cost above
    initial cost * (1 + ICP_DIVERGED_RTOL) + ICP_DIVERGED_ATOL.
    """
    pts = as_points(frame_points, "frame_points")
    if len(surface) == 0:
        raise ValueError("surface is empty")
    if w1 < 0 or w2 < 0 or (w1 == 0 and w2 == 0):
        raise ValueError("w1, w2 must be non-negative and not both zero")
    if len(pts) > max_points:
        sel = np.linspace(0, len(pts) - 1, max_points).astype(np.int64)
        pts = pts[sel]
    use_planes = w1 > 0.0 and len(pts) > 0
    if use_planes:
        frame_normals, variation = estimate_normals(pts)
        # a normal from a patch that straddles an edge is meaningless, so the
        # 45-degree compatibility test cannot be trusted there; require the
        # patch to be planar relative to the cloud's own noise floor
        planar_gate = max(50.0 * float(np.median(variation)), 1e-10)
        planar = np.flatnonzero(variation <= planar_gate)
    cos_gate = np.cos(np.deg2rad(ICP_NORMAL_ANGLE_DEG))

    cent_f = np.array([p.frame_point for p in inlier_pairs]) if inlier_pairs else np.zeros((0, 3))
    cent_m = np.array([p.map_mean for p in inlier_pairs]) if inlier_pairs else np.zeros((0, 3))

    rot = np.array(init.rotation)
    t = np.array(init.translation)
    initial_cost = None
    cost = 0.0
    converged = False
    it = 0
    at_final_gate = False
    for it in range(1, ICP_ITERATIONS + 1):
        frac = (it - 1) / (ICP_ITERATIONS - 1)
        d_max = ICP_D_MAX_END if at_final_gate else (
            ICP_D_MAX_START + (ICP_D_MAX_END - ICP_D_MAX_START) * frac)
        at_final_gate = at_final_gate or d_max == ICP_D_MAX_END
        y_all = pts @ rot.T + t
        if use_planes:
            _, nn = surface.nearest(y_all[planar], upper_bound=d_max)
            hit = nn >= 0
            cand, nn = planar[hit], nn[hit]
            nrm_w = frame_normals[cand] @ rot.T
            ok = np.abs(np.einsum("ni,ni->n", nrm_w, surface.normals[nn])) >= cos_gate
            acc_idx, map_idx = cand[ok], nn[ok]
            if len(acc_idx) == 0:
                raise NoCorrespondences(
                    f"all {len(pts)} depth points rejected at iteration {it} (d_max={d_max:.3f})"
                )
            yk = y_all[acc_idx]
            qk = surface.points[map_idx]
            nk = surface.normals[map_idx]
        else:
            yk = np.zeros((0, 3))
            qk = yk
            nk = yk
        cy = cent_f @ rot.T + t if len(cent_f) else np.zeros((0, 3))
        h, b, cost = _icp_system(yk, qk, nk, cy, cent_m, w1, w2)
        if initial_cost is None:
            initial_cost = cost
        delta = np.linalg.lstsq(h, b, rcond=None)[0]
        rot, t = _apply_delta(delta, rot, t)
        if (np.linalg.norm(delta[:3]) < ICP_STEP_TOL_RAD
                and np.linalg.norm(delta[3:]) < ICP_STEP_TOL_M):
            # converging mid-schedule only means this gate's pair set is
            # stable; jump the anneal to its final gate and reconverge there
            if at_final_gate:
                converged = True
                break
            at_final_gate = True
    # cost after the final update, on the final correspondence set
    yk_fin = (pts @ rot.T + t)[acc_idx] if use_planes else yk
    final_cost = _icp_system(yk_fin, qk, nk, cent_f @ rot.T + t, cent_m, w1, w2)[2]
    diverged = initial_cost is not None and final_cost > (
        initial_cost * (1.0 + ICP_DIVERGED_RTOL) + ICP_DIVERGED_ATOL)
    return RegistrationResult(
        pose=RigidTransform(rot, t),
        inliers=tuple(range(len(inlier_pairs))),
        final_cost=final_cost,
        converged=converged,
        iterations=it,
        diverged=bool(diverged),
    )
