"""Pose estimation from matched centroids and depth geometry.

Three stages, matching the relocalisation chain: closed-form absolute
orientation (horn_ao), Mahalanobis-weighted absolute orientation solved by
Gauss-Newton (probabilistic_ao) wrapped in RANSAC (ransac_ao), and a
point-to-plane ICP augmented with a centroid alignment term
(depth_centroid_icp). ICP's cost is the plain sum of the two terms: a frame
without depth points is aligned by its centroids alone, and one without
inlier pairs by its depth points alone.

ICP's frame normals are PCA normals (estimate_normals). A frame's depth
cloud is organised by its sensor's pixel grid, and its normals come from
each point's 3x3 pixel window, as is usual for organised depth. ICP queries
the surface with the frame's planar points, or with a normal-space sample of
at most ICP_SAMPLE_POINTS of them (normal_space_sample): most of a frame's
points lie on the ground, which fixes only height, roll and pitch, and the
sample keeps the few points whose normals fix the rest.

The solvers take stacked arrays: frame points (n, 3), map means (n, 3) and
map covariances (n, 3, 3), row i one correspondence, as matching's
Candidates hold them. They do not check them again. Validation happens where
data enters the program: FrameDetections and DetectedObject check a frame,
the value types (OrientedBox, GaussianCentroid, RigidTransform) check every
box, centroid and pose they hold, and resolve_config checks the settings.

All solvers share one local parameterisation: a 6-vector delta = (dtheta, dt)
applied multiplicatively on the left, T' = (exp([dtheta]x), dt) ∘ T.
"""

import itertools
from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .errors import (
    CollinearPoints,
    NoConsensus,
    NoCorrespondences,
    NonDecreasingCost,
    TooFewPairs,
)
from .geometry import RigidTransform, exp_so3, nearest_rotation
from .gridnn import KDTreeIndex
from .validation import as_points

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
# ICP queries at most this many planar points of a frame, a normal-space
# sample: 95% of a frame's points lie on the ground, which fixes only height,
# roll and pitch. On the reloc-views workload (about 7,300 planar points a
# frame) 4,000 cuts the surface queries from 2.99 M to 1.63 M, keeps 94
# frames within 5 cm / 5 deg and moves rotation p50 by +0.24%; 2,000 leaves a
# frame unconverged and moves it by +6.7%.
ICP_SAMPLE_POINTS = 4000
NORMAL_POLAR_BIN_DEG = 15.0
NORMAL_AZIMUTH_BIN_DEG = 30.0
# ICP diverged when its final cost exceeds the initial one by more than
# rounding: a relative margin, plus a floor in m^2 (1 um of residual) for the
# ~1e-28 costs of noise-free frames, whose rounding is tens of percent
ICP_DIVERGED_RTOL = 1e-9
ICP_DIVERGED_ATOL = 1e-12

RANSAC_MAX_ITERS = 500
RANSAC_INLIER_M = 0.10  # centroid residual (m) below which a pair is an inlier


class SurfaceModel:
    """Dense map stand-in: world points with unit normals and a spatial index.

    Immutable after construction; nearest-neighbour queries are exact and
    read-only, so one model can be shared across concurrent relocalisation
    workers. A query runs on its caller's thread (gridnn).
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
    ransac_hypotheses: int = 0  # non-collinear triples ransac_ao scored; 0 without RANSAC
    points: int = 0  # frame points depth_centroid_icp queried; 0 without ICP


def _collinear(s):
    """Rank test on the singular values (..., 3) of centred frame points."""
    return s[..., 1] <= np.maximum(s[..., 0] * 1e-8, 1e-12)


def _check_not_collinear(frame_pts):
    centered = frame_pts - frame_pts.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    if _collinear(s):
        raise CollinearPoints(
            f"frame points are collinear within tolerance (singular values {s})"
        )


def _fit_rigid(fs, ms):
    """Least-squares rigid fit (Kabsch) of each (k, 3) block of fs onto ms.

    Takes (T, k, 3) blocks; returns (rot (T, 3, 3), t (T, 3)). Each block is
    fitted by per-block operations only, so a block's fit is the same, bit
    for bit, alone or among any other blocks.
    """
    fc = fs.mean(axis=1)
    mc = ms.mean(axis=1)
    h = (fs - fc[:, None]).transpose(0, 2, 1) @ (ms - mc[:, None])
    u, _, vt = np.linalg.svd(h)
    v = vt.transpose(0, 2, 1)
    ut = u.transpose(0, 2, 1)
    flip = np.zeros((len(fs), 3, 3))
    flip[:, 0, 0] = flip[:, 1, 1] = 1.0
    flip[:, 2, 2] = np.sign(np.linalg.det(v @ ut))
    rot = v @ flip @ ut
    return rot, mc - (rot @ fc[:, :, None])[:, :, 0]


def horn_ao(frame_pts, map_means):
    """Closed-form least-squares rigid transform aligning frame points to map
    means, two (n, 3) arrays.

    Covariances are ignored (identity weighting); no scale is estimated.
    Raises TooFewPairs below 3 pairs and CollinearPoints when the centered
    frame points have rank < 2.
    """
    if len(frame_pts) < 3:
        raise TooFewPairs(f"horn_ao needs >= 3 pairs, got {len(frame_pts)}")
    _check_not_collinear(frame_pts)
    rot, t = _fit_rigid(frame_pts[None], map_means[None])
    return RigidTransform(nearest_rotation(rot[0]), t[0])


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


def ao_cost_and_gradient(frame_pts, map_means, map_covs, pose):
    """Cost of Mahalanobis-weighted AO at pose and its gradient in the local chart.

    The chart is the left-multiplicative 6-vector (dtheta, dt). Both come from
    _ao_system, the system probabilistic_ao solves, so the finite-difference
    check of the test oracles covers the solver's own gradient.
    """
    w = np.linalg.inv(map_covs)
    _, g, cost = _ao_system(frame_pts, map_means, w, pose.rotation, pose.translation)
    return cost, 2.0 * g


def probabilistic_ao(frame_pts, map_means, map_covs, init):
    """Gauss-Newton minimiser of sum d_i(T)^T Sigma_i^{-1} d_i(T), with
    d_i(T) = map_means[i] - T frame_pts[i] and Sigma_i = map_covs[i].

    Left-multiplicative 6-parameter updates; converged when the accepted
    update's norm drops below 1e-10 or after 50 iterations. Steps that would
    increase the cost are halved up to 8 times; 5 consecutive stalled
    iterations raise NonDecreasingCost.
    """
    if len(frame_pts) < 3:
        raise TooFewPairs(f"probabilistic_ao needs >= 3 pairs, got {len(frame_pts)}")
    f, m, w = frame_pts, map_means, np.linalg.inv(map_covs)
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
        inliers=tuple(range(len(f))),
        final_cost=cost,
        converged=converged,
        iterations=it,
    )


def _ransac_triples(n, seed):
    """ransac_ao's minimal sets of n pairs: (T, 3) indices, each row increasing.

    Every 3-subset, in lexicographic order, when C(n, 3) fits in
    RANSAC_MAX_ITERS; otherwise RANSAC_MAX_ITERS uniform random 3-subsets
    drawn at once from a generator keyed (seed, n).
    """
    if comb(n, 3) <= RANSAC_MAX_ITERS:
        return np.array(list(itertools.combinations(range(n), 3)))
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, n], dtype=np.uint64)))
    return np.sort(rng.random((RANSAC_MAX_ITERS, n)).argsort(axis=1)[:, :3], axis=1)


def ransac_ao(frame_pts, map_means, map_covs, seed=0):
    """RANSAC over minimal 3-correspondence sets, then probabilistic refit on inliers.

    The subsets are _ransac_triples(n, seed): all C(n,3) of them when that
    count fits in RANSAC_MAX_ITERS, making the estimate deterministic,
    otherwise RANSAC_MAX_ITERS seeded random ones. Subsets whose frame
    points are collinear are skipped; the others are the hypotheses, each a
    rigid fit of its three pairs (_fit_rigid). Every subset is fitted and
    scored once, on (T, 3, 3) blocks. A pair is a hypothesis' inlier when
    its residual is below RANSAC_INLIER_M. The winner has the most inliers;
    among those, the lowest summed inlier residual; among those, the first
    in enumeration or draw order. Its pose starts probabilistic_ao on its
    inliers. Raises NoConsensus when the best hypothesis has fewer than 3
    inliers. The result's ransac_hypotheses is the number of hypotheses.
    """
    f, m = frame_pts, map_means
    n = len(f)
    if n < 3:
        raise TooFewPairs(f"ransac_ao needs >= 3 pairs, got {n}")
    triples = _ransac_triples(n, seed)
    fs = f[triples]
    rot, t = _fit_rigid(fs, m[triples])
    fitted = ~_collinear(np.linalg.svd(fs - fs.mean(axis=1, keepdims=True), compute_uv=False))
    resid = np.linalg.norm(m - (f @ rot.transpose(0, 2, 1) + t[:, None]), axis=2)
    inlier = resid < RANSAC_INLIER_M
    count = np.where(fitted, inlier.sum(axis=1), 0)
    top = np.flatnonzero(count == count.max())
    best = top[np.argmin(np.where(inlier[top], resid[top], 0.0).sum(axis=1))]
    if count[best] < 3:
        raise NoConsensus(f"best hypothesis has {count[best]} inliers")
    best_inliers = np.flatnonzero(inlier[best])
    result = probabilistic_ao(f[best_inliers], m[best_inliers], map_covs[best_inliers],
                              RigidTransform(nearest_rotation(rot[best]), t[best]))
    return replace(result, inliers=tuple(int(i) for i in best_inliers),
                   ransac_hypotheses=int(np.count_nonzero(fitted)))


def _cardano_smallest_eigvec(cov):
    """Smallest-eigenvalue eigenvector of each symmetric 3x3 in a batch.

    Closed-form (Cardano) eigenvalues, eigenvector from the largest of the
    cross products of two rows of (C - lambda I), the first on ties; falls
    back to eigh where even that one is no longer than 1e-10 times the sum
    of the squared entries of (C - lambda I), that is, where it is rounding
    noise (a double smallest eigenvalue, or C = 0). Reads the upper
    triangle of cov and works on its six entries as (N,) arrays, operation
    for operation as the (N, 3, 3) form: off the diagonal it subtracts
    q * 0.0 and lam_min * 0.0, as (C - x I) does, which keeps the sign of a
    zero entry.
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
    # B = (C - q I) / p, and det B by cofactors along its first row
    q_off = q * 0.0
    b00, b11, b22 = (a - q) / p, (b - q) / p, (c - q) / p
    b01, b12, b02 = (d - q_off) / p, (e - q_off) / p, (fo - q_off) / p
    detb = (
        b00 * (b11 * b22 - b12 * b12)
        - b01 * (b01 * b22 - b12 * b02)
        + b02 * (b01 * b12 - b11 * b02)
    )
    phi = np.arccos(np.clip(detb / 2.0, -1.0, 1.0)) / 3.0
    lam_min = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    # M = C - lam_min I; rows m0 = (m00, m01, m02), m1 = (m01, m11, m12),
    # m2 = (m02, m12, m22), and the cross products m0 x m1, m0 x m2, m1 x m2
    lam_off = lam_min * 0.0
    m00, m11, m22 = a - lam_min, b - lam_min, c - lam_min
    m01, m12, m02 = d - lam_off, e - lam_off, fo - lam_off
    c01 = (m01 * m12 - m02 * m11, m02 * m01 - m00 * m12, m00 * m11 - m01 * m01)
    c02 = (m01 * m22 - m02 * m12, m02 * m02 - m00 * m22, m00 * m12 - m01 * m02)
    c12 = (m11 * m22 - m12 * m12, m12 * m02 - m01 * m22, m01 * m12 - m11 * m02)
    n01, n02, n12 = (np.sqrt(x * x + y * y + z * z) for x, y, z in (c01, c02, c12))
    first = (n01 >= n02) & (n01 >= n12)
    second = n02 >= n12
    v = np.empty((len(cov), 3))
    for k in range(3):
        v[:, k] = np.where(first, c01[k], np.where(second, c02[k], c12[k]))
    m_sq = m00 * m00 + m11 * m11 + m22 * m22 + 2.0 * (m01 * m01 + m12 * m12 + m02 * m02)
    bad = np.where(first, n01, np.where(second, n02, n12)) <= 1e-10 * m_sq
    if np.any(bad):
        _, vecs = np.linalg.eigh(cov[bad])
        v[bad] = vecs[:, :, 0]
    x, y, z = v[:, 0], v[:, 1], v[:, 2]
    return v / np.sqrt(x * x + y * y + z * z)[:, None]


def _lattice_windows(pts, sensor, lattice=None):
    """(N, 9) indices into pts of the points in each point's 3x3 pixel window,
    -1 where a window pixel has no point or lies outside the image. lattice is
    sensor.lattice_index(pts), computed here when not given."""
    if lattice is None:
        lattice = sensor.lattice_index(pts)
    h = sensor.height
    u, v = np.divmod(lattice, h)
    # a one-pixel border of empty pixels keeps every window inside the grid;
    # the grid is gathered flat, a window being 9 offsets from its centre
    grid = np.full((sensor.width + 2) * (h + 2), -1, dtype=np.int64)
    centre = (u + 1) * (h + 2) + (v + 1)
    grid[centre] = np.arange(len(pts))
    offsets = np.array([du * (h + 2) + dv for du in (-1, 0, 1) for dv in (-1, 0, 1)])
    return grid[centre[:, None] + offsets]


def estimate_normals(points, sensor, lattice=None):
    """Unoriented per-point normals by PCA over each point's 3x3 pixel window.

    The points form an organised cloud of the sensor's pixel grid
    (SensorParams.lattice_index, which a caller that already has it passes
    as lattice), and a point's neighbourhood is the points of its 3x3 pixel
    window, itself included. A point with fewer than three neighbours in its
    window gets surface variation inf, so it fails any planar gate: three
    points fit a plane exactly however noisy they are, and fewer fit none.

    Returns (normals, surface_variation) where surface_variation is the
    smallest-eigenvalue fraction lambda_min / trace of each neighbourhood
    covariance: ~0 for a locally planar patch, large when the patch straddles
    an edge and the normal is meaningless.
    """
    pts = as_points(points, "points")
    idx = _lattice_windows(pts, sensor, lattice)
    valid = idx >= 0
    count = valid.sum(axis=1)
    # one (N, 9) array per axis: window offsets from the window's own point,
    # 0 at empty pixels; the index -1 of an empty pixel picks the appended 0.
    # The scatter is sum y y^T - count m m^T, with m the mean offset: offsets
    # are centimetres, so little cancels.
    cols = np.vstack([pts, np.zeros((1, 3))]).T.copy()
    y = [(c[idx] - c[:-1, None]) * valid for c in cols]
    m = [yi.sum(axis=1) / count for yi in y]
    cov = np.empty((len(pts), 3, 3))
    for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
        cov[:, i, j] = cov[:, j, i] = np.einsum("nk,nk->n", y[i], y[j]) - count * m[i] * m[j]
    normals = _cardano_smallest_eigvec(cov)
    trace = cov[:, 0, 0] + cov[:, 1, 1] + cov[:, 2, 2]
    lam_min = np.einsum("ni,nij,nj->n", normals, cov, normals)
    variation = np.maximum(lam_min, 0.0) / np.maximum(trace, 1e-300)
    variation[count < 4] = np.inf
    return normals, variation


def normal_space_sample(normals, lattice, budget):
    """Indices, in increasing order, of a normal-space sample of at most
    budget points (Rusinkiewicz & Levoy, "Efficient Variants of the ICP
    Algorithm", 3DIM 2001).

    Each unoriented normal, flipped to n_z <= 0, falls into a bucket of
    NORMAL_POLAR_BIN_DEG of polar angle (from -z) by NORMAL_AZIMUTH_BIN_DEG
    of azimuth. The budget is split evenly over the non-empty buckets,
    smallest first (equal sizes in bucket order): a bucket below its share
    keeps every point and passes what it leaves on to the larger buckets.
    Within a bucket the picks are evenly spaced in the order of lattice, the
    points' distinct pixel indices, so the sample does not depend on how the
    points are stored. With no more points than budget, every index is kept.
    """
    n_polar = round(90.0 / NORMAL_POLAR_BIN_DEG)
    n_azimuth = round(360.0 / NORMAL_AZIMUTH_BIN_DEG)
    # + 0.0 turns -0.0 into 0.0, so that (0, 0, 1) and (0, 0, -1) share a bucket
    nrm = np.where(normals[:, 2:] > 0.0, -normals, normals) + 0.0
    polar = np.degrees(np.arccos(np.minimum(-nrm[:, 2], 1.0))) // NORMAL_POLAR_BIN_DEG
    azimuth = np.degrees(np.arctan2(nrm[:, 1], nrm[:, 0])) // NORMAL_AZIMUTH_BIN_DEG
    bucket = (np.minimum(polar.astype(np.int64), n_polar - 1) * n_azimuth
              + azimuth.astype(np.int64) % n_azimuth)
    size = np.bincount(bucket, minlength=n_polar * n_azimuth)
    take = np.zeros_like(size)
    left = budget
    filled = np.flatnonzero(size)
    for k, b in enumerate(filled[np.argsort(size[filled], kind="stable")]):
        take[b] = min(size[b], left // (len(filled) - k))
        left -= take[b]
    # a bucket's points sit together in `order`, in lattice order, from
    # start; its j-th of k picks is its point j (size - 1) // (k - 1), so the
    # first and the last point are picked, as by np.linspace
    order = np.lexsort((lattice, bucket))
    start = np.cumsum(size) - size
    owner = np.repeat(np.arange(len(size)), take)
    j = np.arange(len(owner)) - np.repeat(np.cumsum(take) - take, take)
    pick = start[owner] + j * (size[owner] - 1) // np.maximum(take[owner] - 1, 1)
    return np.sort(order[pick])


def _icp_system(y_pts, map_pts, map_nrm, cent_y, cent_target):
    """Normal equations (H, b) and cost terms for one linearisation of the
    combined point-to-plane + centroid cost at the current pose."""
    h = np.zeros((6, 6))
    b = np.zeros(6)
    plane_cost = 0.0
    cent_cost = 0.0
    if len(y_pts) > 0:
        e = np.einsum("ni,ni->n", map_nrm, map_pts - y_pts)
        # rows (y x n, n), the cross product written out as np.cross has it
        g = np.empty((len(y_pts), 6))
        y0, y1, y2 = y_pts[:, 0], y_pts[:, 1], y_pts[:, 2]
        n0, n1, n2 = map_nrm[:, 0], map_nrm[:, 1], map_nrm[:, 2]
        g[:, 0] = y1 * n2 - y2 * n1
        g[:, 1] = y2 * n0 - y0 * n2
        g[:, 2] = y0 * n1 - y1 * n0
        g[:, 3:] = map_nrm
        h += g.T @ g
        b += g.T @ e
        plane_cost = float(e @ e)
    if len(cent_y) > 0:
        r = cent_target - cent_y
        jac = np.concatenate([_skew(cent_y), -np.tile(np.eye(3), (len(cent_y), 1, 1))], axis=2)
        h += np.einsum("nki,nkj->ij", jac, jac)
        b -= np.einsum("nki,nk->i", jac, r)
        cent_cost = float(np.einsum("ni,ni->", r, r))
    return h, b, plane_cost + cent_cost


def icp_cost_and_gradient(frame_pts, map_pts, map_normals, frame_centroids, map_means, pose):
    """Combined ICP cost and local-chart gradient at pose for a FIXED
    correspondence assignment, the centroid pairs given as two (k, 3) arrays.
    Oracle hook for finite-difference checks."""
    _, b, cost = _icp_system(pose.apply(frame_pts), map_pts, map_normals,
                             pose.apply(frame_centroids), map_means)
    # b is the Gauss-Newton right-hand side, minus half the cost's gradient
    return cost, -2.0 * b


def depth_centroid_icp(frame_points, surface, frame_centroids, map_means, init,
                       max_points=ICP_SAMPLE_POINTS, *, sensor):
    """Point-to-plane ICP with an added centroid-alignment term.

    Minimises  sum_L (n^T (p_map - v(p, T)))^2 + sum_D ||u_map - v(u, T)||^2
    starting from init. D pairs the rows of frame_centroids and map_means,
    the inlier centroids as two (k, 3) arrays. Per iteration the nearest
    surface point is assigned to every queried frame point, gated by an
    annealed distance bound (ICP_D_MAX_START to ICP_D_MAX_END, linear over
    ICP_ITERATIONS) and by an ICP_NORMAL_ANGLE_DEG compatibility test between
    the frame-point normal and the map normal. Both sums are raw and
    unweighted.

    frame_points is an organised cloud of sensor's pixel grid, and frame
    normals come from each point's 3x3 pixel window (estimate_normals), on
    the full cloud. A planar gate on the windows' surface variation then
    drops points whose normal is meaningless. The queried points are the
    planar points, or, when there are more than the budget
    min(max_points, ICP_SAMPLE_POINTS), a normal-space sample of them
    (normal_space_sample) in pixel-lattice order. A max_points above
    ICP_SAMPLE_POINTS does not raise the budget. The result's points is the
    number of queried points.

    The stop test is on the pose step: an update whose rotation part is
    shorter than ICP_STEP_TOL_RAD and whose translation part is shorter than
    ICP_STEP_TOL_M. Mid-schedule, such a step jumps the anneal to its final
    gate; at the final gate it counts as converged. A run that never takes
    such a step at the final gate stops unconverged after ICP_ITERATIONS.

    An empty depth cloud leaves the centroid term alone, and no inlier pairs
    (k = 0) leave the plane term alone. Raises NoCorrespondences when depth
    points are given and none of them is planar, or every queried point is
    rejected at some iteration. The diverged flag reports a final cost above
    initial cost * (1 + ICP_DIVERGED_RTOL) + ICP_DIVERGED_ATOL.
    """
    pts = as_points(frame_points, "frame_points")
    use_planes = len(pts) > 0
    if use_planes:
        # the cloud is projected onto the pixel lattice once, for the normals'
        # windows and for the sample
        lattice = sensor.lattice_index(pts)
        frame_normals, variation = estimate_normals(pts, sensor, lattice)
        # a normal from a patch that straddles an edge is meaningless, so the
        # 45-degree compatibility test cannot be trusted there. The gate drops
        # such patches on a noise-free frame (the exact config), where a
        # planar window's variation is ~0; with isfinite alone, exact's worst
        # error rises from 1e-15 m to 2.8 mm. At the shipped 5 mm depth noise,
        # 50x the median variation exceeds 1/3, the largest finite variation,
        # so the gate drops only the windows of fewer than four points
        # (variation inf); it acts again at lower noise (2 mm). A point must
        # have a finite variation too: when half of the windows are sparse,
        # the median, and so the gate, is inf.
        planar_gate = max(50.0 * float(np.median(variation)), 1e-10)
        queried = np.flatnonzero(np.isfinite(variation) & (variation <= planar_gate))
        if len(queried) == 0:
            raise NoCorrespondences(f"none of {len(pts)} depth points is planar")
        budget = min(max_points, ICP_SAMPLE_POINTS)
        if len(queried) > budget:
            queried = queried[normal_space_sample(
                frame_normals[queried], lattice[queried], budget)]
        pts, frame_normals = pts[queried], frame_normals[queried]
    cos_gate = np.cos(np.deg2rad(ICP_NORMAL_ANGLE_DEG))

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
        if use_planes:
            y = pts @ rot.T + t
            _, nn = surface.nearest(y, upper_bound=d_max)
            cand = np.flatnonzero(nn >= 0)
            nn = nn[cand]
            map_nrm = surface.normals[nn]
            nrm_w = frame_normals[cand] @ rot.T
            ok = np.abs(np.einsum("ni,ni->n", nrm_w, map_nrm)) >= cos_gate
            acc_idx = cand[ok]
            if len(acc_idx) == 0:
                raise NoCorrespondences(f"all {len(pts)} queried depth points rejected at "
                                        f"iteration {it} (d_max={d_max:.3f})")
            yk = y[acc_idx]
            qk = surface.points[nn[ok]]
            nk = map_nrm[ok]
        else:
            yk = np.zeros((0, 3))
            qk = yk
            nk = yk
        h, b, cost = _icp_system(yk, qk, nk, frame_centroids @ rot.T + t, map_means)
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
    yk_fin = pts[acc_idx] @ rot.T + t if use_planes else yk
    final_cost = _icp_system(yk_fin, qk, nk, frame_centroids @ rot.T + t, map_means)[2]
    diverged = initial_cost is not None and final_cost > (
        initial_cost * (1.0 + ICP_DIVERGED_RTOL) + ICP_DIVERGED_ATOL)
    return RegistrationResult(
        pose=RigidTransform(rot, t),
        inliers=tuple(range(len(frame_centroids))),
        final_cost=final_cost,
        converged=converged,
        iterations=it,
        diverged=bool(diverged),
        points=len(pts),
    )
