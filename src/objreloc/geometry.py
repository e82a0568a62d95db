"""Core geometric types and exact primitive operations.

Everything downstream (fusion, matching, registration, simulation) is built on
the three value types defined here: rigid transforms, oriented bounding boxes
and Gaussian-distributed centroids. All types are immutable and all operations
are pure functions, so they are safe for unrestricted concurrent use.

Conventions: rotations are 3x3 row-major orthonormal matrices with det +1,
translations and points are metres, angles returned in degrees.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRotations
from .validation import as_matrix3, as_vector3, check_covariance, check_rotation

# Eigenvalue floor applied to every centroid covariance so that Mahalanobis
# distances stay defined even for single-sample configurations.
COVARIANCE_FLOOR = 1e-6

# Centroid prior of GaussianCentroid.from_samples (see there)
CENTROID_PRIOR_SIGMA = 0.02  # m
MIN_SAMPLES_FOR_COV = 3

_ORTHONORMALITY_DRIFT = 1e-9

# Slack of OrientedBox.contains, so points on a face count as inside
_CONTAINS_TOL = 1e-12

# Cell centres of a 32-cell grid over [-1, 1], one axis of box_iou's 32^3
# lattice. In each box's own frame the lattice point (i, j, k) is
# (_IOU_GRID[i], _IOU_GRID[j], _IOU_GRID[k]) * extents, which keeps the
# estimate exact for identical boxes and for axis-aligned overlaps whose
# boundaries fall on lattice planes. _lattice_count counts it line by line.
_IOU_GRID_N = 32
_IOU_GRID = (np.arange(_IOU_GRID_N) + 0.5) / _IOU_GRID_N * 2.0 - 1.0


def nearest_rotation(m):
    """Project a 3x3 matrix to the nearest rotation (orthogonal polar factor, det +1)."""
    u, _, vt = np.linalg.svd(as_matrix3(m, "m"))
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        r = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return r


def rotation_from_axis_angle(axis, angle_deg):
    """Rotation matrix for a right-handed rotation of angle_deg about axis."""
    axis = as_vector3(axis, "axis")
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise ValueError("axis: zero vector")
    return exp_so3(axis / n * np.deg2rad(angle_deg))


def exp_so3(omega):
    """Rodrigues exponential: rotation vector (radians) -> rotation matrix."""
    omega = np.asarray(omega, dtype=np.float64)
    theta = np.linalg.norm(omega)
    k = np.array(
        [
            [0.0, -omega[2], omega[1]],
            [omega[2], 0.0, -omega[0]],
            [-omega[1], omega[0], 0.0],
        ]
    )
    if theta < 1e-10:
        # second-order series, accurate to ~1e-30 here
        return np.eye(3) + k + 0.5 * (k @ k)
    return np.eye(3) + np.sin(theta) / theta * k + (1.0 - np.cos(theta)) / theta**2 * (k @ k)


@dataclass(frozen=True)
class RigidTransform:
    """Element of SE(3): x_out = rotation @ x_in + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", check_rotation(self.rotation, "rotation"))
        object.__setattr__(self, "translation", as_vector3(self.translation, "translation"))

    @staticmethod
    def identity():
        return RigidTransform(np.eye(3), np.zeros(3))

    def inverse(self):
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    def apply(self, points):
        """Transform a single 3-vector or an (N, 3) array of points."""
        p = np.asarray(points, dtype=np.float64)
        if p.ndim == 1:
            return self.rotation @ p + self.translation
        return p @ self.rotation.T + self.translation


def compose(a, b):
    """Composition a∘b: apply b first, then a.

    Re-orthonormalises the product rotation via polar projection when the
    accumulated drift exceeds 1e-9 per element.
    """
    r = a.rotation @ b.rotation
    if np.abs(r.T @ r - np.eye(3)).max() > _ORTHONORMALITY_DRIFT:
        r = nearest_rotation(r)
    return RigidTransform(r, a.rotation @ b.translation + a.translation)


def rotation_angle_between(a, b):
    """Geodesic angle between two rotations, in degrees, clamped to [0, 180]."""
    a = as_matrix3(a, "a")
    b = as_matrix3(b, "b")
    c = (np.trace(a.T @ b) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


def rotation_mean(rotations):
    """Chordal L2 mean: nearest rotation to the element-wise arithmetic mean.

    Raises DegenerateRotations when the arithmetic mean is rank-deficient
    (antipodal or otherwise irreconcilable inputs).
    """
    rs = list(rotations)
    if not rs:
        raise ValueError("rotation_mean: empty input")
    m = np.mean(np.stack([as_matrix3(r, "rotation") for r in rs]), axis=0)
    s = np.linalg.svd(m, compute_uv=False)
    if s[1] < 1e-9:
        raise DegenerateRotations(
            f"arithmetic mean of rotations is rank-deficient (singular values {s})"
        )
    return nearest_rotation(m)


@dataclass(frozen=True)
class OrientedBox:
    """3D bounding box: centroid, orientation, per-axis half-lengths and scalar scale.

    scale is the cube root of the box volume, stored redundantly because the
    correspondence matcher scores boxes by a single scalar size.
    """

    centroid: np.ndarray
    orientation: np.ndarray
    extents: np.ndarray
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "centroid", as_vector3(self.centroid, "centroid"))
        object.__setattr__(self, "orientation", check_rotation(self.orientation, "orientation"))
        e = as_vector3(self.extents, "extents")
        if np.any(e <= 0.0):
            raise ValueError(f"extents: must be positive, got {e}")
        object.__setattr__(self, "extents", e)
        object.__setattr__(self, "scale", float(self.scale))

    @staticmethod
    def create(centroid, orientation, extents):
        """Build a box computing scale = (8 * ex * ey * ez)^(1/3)."""
        e = as_vector3(extents, "extents")
        return OrientedBox(centroid, orientation, e, float(np.cbrt(8.0 * np.prod(e))))

    @property
    def volume(self):
        return float(8.0 * np.prod(self.extents))

    def aabb(self):
        """Axis-aligned bounds (lo, hi) of the oriented box."""
        half = np.abs(self.orientation) @ self.extents
        return self.centroid - half, self.centroid + half

    def contains(self, points, tol=_CONTAINS_TOL):
        """Boolean mask: which of the (N, 3) points lie inside the box."""
        q = (np.atleast_2d(points) - self.centroid) @ self.orientation
        return np.all(np.abs(q) <= self.extents + tol, axis=1)


def _lattice_count(b1, b2):
    """How many of b1's 32^3 lattice points lie inside b2 (OrientedBox.contains).

    In b2's frame the points with fixed (i, j) lie on the line
    base[:, i, j] + g_k * a[2], with a = diag(e1) R1^T R2. Each slab
    |q_d| <= e2_d bounds g_k to an interval; along an axis where the step is
    exactly zero the whole line is inside the slab or outside it. The k whose
    g_k lies in all three intervals are counted.
    """
    a = (b1.extents[:, None] * b1.orientation.T) @ b2.orientation
    t = (b1.centroid - b2.centroid) @ b2.orientation
    base = (t[:, None] + a[0][:, None] * _IOU_GRID)[:, :, None] + (a[1][:, None] * _IOU_GRID)[:, None, :]
    half = (b2.extents + _CONTAINS_TOL)[:, None, None]
    still = a[2] == 0.0
    step = np.where(still, 1.0, a[2])[:, None, None]
    r1 = (-half - base) / step
    r2 = (half - base) / step
    lo = np.minimum(r1, r2)
    hi = np.maximum(r1, r2)
    if still.any():
        lo[still] = np.where(np.abs(base[still]) > half[still], np.inf, -np.inf)
        hi[still] = np.inf
    lo = lo.max(axis=0)
    hi = hi.min(axis=0)
    # g_k = (k + 0.5) / 16 - 1, so g_k >= lo  <=>  k >= (lo + 1) * 16 - 0.5
    n = _IOU_GRID_N
    k_lo = np.maximum(np.ceil((lo + 1.0) * (n / 2) - 0.5), 0.0)
    k_hi = np.minimum(np.floor((hi + 1.0) * (n / 2) - 0.5), n - 1.0)
    return int(np.maximum(k_hi - k_lo + 1.0, 0.0).sum())


def box_iou(b1, b2):
    """Intersection-over-union of two oriented boxes.

    Deterministic 32^3 lattice estimate: each box is tiled by the cell centres
    of a 32^3 grid in its own frame, and the intersection volume is the mean of
    the two estimates "volume of b times the fraction of b's lattice inside the
    other box". The count is made along lattice lines (see _lattice_count), so
    it costs O(32^2) per box, and equals point-by-point membership testing
    (oracles.lattice_box_iou). Exact for identical boxes; symmetric bit for
    bit; relative error <= 2% for non-degenerate overlaps.
    """
    lo1, hi1 = b1.aabb()
    lo2, hi2 = b2.aabb()
    if np.any(hi1 < lo2) or np.any(hi2 < lo1):
        return 0.0
    v1 = b1.volume
    v2 = b2.volume
    i12 = v1 * _lattice_count(b1, b2) / _IOU_GRID_N**3
    i21 = v2 * _lattice_count(b2, b1) / _IOU_GRID_N**3
    inter = 0.5 * (i12 + i21)
    union = v1 + v2 - inter
    if inter <= 0.0 or union <= 0.0:
        return 0.0
    return float(min(inter / union, 1.0))


def regularize_covariance(cov):
    """Symmetrise and clip eigenvalues to COVARIANCE_FLOOR."""
    c = 0.5 * (np.asarray(cov, dtype=np.float64) + np.asarray(cov, dtype=np.float64).T)
    w, v = np.linalg.eigh(c)
    if w[0] >= COVARIANCE_FLOOR:
        return c
    w = np.maximum(w, COVARIANCE_FLOOR)
    c = (v * w) @ v.T
    return 0.5 * (c + c.T)


@dataclass(frozen=True)
class GaussianCentroid:
    """Normally distributed centroid N(mean, covariance) for one box
    configuration, estimated from sample_count observations."""

    mean: np.ndarray
    covariance: np.ndarray
    sample_count: int

    def __post_init__(self):
        object.__setattr__(self, "mean", as_vector3(self.mean, "mean"))
        cov = check_covariance(self.covariance, "covariance", sym_tol=1e-12, min_eig=COVARIANCE_FLOOR)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "sample_count", int(self.sample_count))
        if self.sample_count < 0:
            raise ValueError("sample_count: must be non-negative")

    @staticmethod
    def from_samples(samples):
        """Mean + covariance of centroid observations.

        Below MIN_SAMPLES_FOR_COV observations the covariance is the isotropic
        prior CENTROID_PRIOR_SIGMA^2 * I; from then on the unbiased sample
        covariance plus the decaying prior term (CENTROID_PRIOR_SIGMA^2 / n) I.
        The blend keeps the gate calibrated while the sample covariance is
        still rank-deficient (3 points span only a plane) and washes out as
        evidence accumulates.
        """
        s = np.asarray(samples, dtype=np.float64).reshape(-1, 3)
        n = s.shape[0]
        if n == 0:
            raise ValueError("from_samples: empty sample list")
        mean = s.mean(axis=0)
        if n < MIN_SAMPLES_FOR_COV:
            cov = np.eye(3) * CENTROID_PRIOR_SIGMA**2
        else:
            cov = np.cov(s.T, ddof=1) + np.eye(3) * (CENTROID_PRIOR_SIGMA**2 / n)
        return GaussianCentroid(mean, regularize_covariance(cov), n)


def mahalanobis_sq(x, g):
    """Squared Mahalanobis distance of point x to the Gaussian centroid g."""
    d = as_vector3(x, "x") - g.mean
    return float(d @ np.linalg.solve(g.covariance, d))
