"""Core geometric types and exact primitive operations.

Everything downstream (fusion, matching, registration, simulation) is built on
the three value types defined here: rigid transforms, oriented bounding boxes
and Gaussian-distributed centroids. All types are immutable and all operations
are pure functions, so they are safe for unrestricted concurrent use.

Conventions: rotations are 3x3 row-major orthonormal matrices with det +1,
translations and points are metres, angles returned in degrees.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateRotations
from .validation import as_matrix3, as_vector3, check_covariance, check_rotation

# Eigenvalue floor applied to every centroid covariance so that Mahalanobis
# distances stay defined even for single-sample configurations.
COVARIANCE_FLOOR = 1e-6

# Centroid prior of GaussianCentroid.from_moments (see there)
CENTROID_PRIOR_SIGMA = 0.02  # m
MIN_SAMPLES_FOR_COV = 3

# Signs that turn a box's half-size into its (lo, hi) offsets, exactly
_LO_HI = np.array([[-1.0], [1.0]])

# Slack of OrientedBox.contains, so points on a face count as inside
_CONTAINS_TOL = 1e-12

# Cell centres of a 32-cell grid over [-1, 1], one axis of box_iou's 32^3
# lattice. In each box's own frame the lattice point (i, j, k) is
# (_IOU_GRID[i], _IOU_GRID[j], _IOU_GRID[k]) * extents, which keeps the
# estimate exact for identical boxes and for axis-aligned overlaps whose
# boundaries fall on lattice planes. _lattice_count counts it line by line.
_IOU_GRID_N = 32
_IOU_GRID = (np.arange(_IOU_GRID_N) + 0.5) / _IOU_GRID_N * 2.0 - 1.0


def _polar(m):
    """Nearest rotation to a 3x3 matrix, and the matrix's singular values, from one SVD."""
    u, s, vt = np.linalg.svd(m)
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        r = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return r, s


def nearest_rotation(m):
    """Project a 3x3 matrix to the nearest rotation (orthogonal polar factor, det +1)."""
    return _polar(as_matrix3(m, "m"))[0]


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


def rotation_angle_between(a, b):
    """Geodesic angle between two rotations, in degrees, clamped to [0, 180]."""
    a = as_matrix3(a, "a")
    b = as_matrix3(b, "b")
    c = (np.trace(a.T @ b) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


def chordal_mean(rotation_sum, count):
    """Chordal L2 mean of count rotations from their element-wise sum: the
    nearest rotation to the arithmetic mean rotation_sum / count.

    Raises DegenerateRotations when the arithmetic mean is rank-deficient
    (antipodal or otherwise irreconcilable inputs).
    """
    r, s = _polar(rotation_sum / count)
    if s[1] < 1e-9:
        raise DegenerateRotations(
            f"arithmetic mean of rotations is rank-deficient (singular values {s})"
        )
    return r


@dataclass(frozen=True, slots=True)
class OrientedBox:
    """3D bounding box: centroid, orientation and per-axis half-lengths.

    scale, the cube root of the box volume, is derived from the extents on
    construction and is not an argument, so a box cannot disagree with its
    own size; the correspondence matcher scores boxes by this one scalar.
    Slots, not an instance dict: a map build holds thousands of boxes.
    """

    centroid: np.ndarray
    orientation: np.ndarray
    extents: np.ndarray
    scale: float = field(init=False)
    _bounds: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "centroid", as_vector3(self.centroid, "centroid"))
        object.__setattr__(self, "orientation", check_rotation(self.orientation, "orientation"))
        e = as_vector3(self.extents, "extents")
        if np.any(e <= 0.0):
            raise ValueError(f"extents: must be positive, got {e}")
        object.__setattr__(self, "extents", e)
        object.__setattr__(self, "scale", float(np.cbrt(8.0 * np.prod(e))))

    @property
    def volume(self):
        return float(8.0 * np.prod(self.extents))

    def aabb(self):
        """Axis-aligned bounds (lo, hi) of the oriented box, as read-only arrays.

        Computed on the first call and kept, since the box is immutable:
        box_iou asks for both boxes' bounds on every call, and a fused box
        meets many detections.
        """
        if self._bounds is None:
            bounds = self.centroid + _LO_HI * (np.abs(self.orientation) @ self.extents)
            bounds.flags.writeable = False
            object.__setattr__(self, "_bounds", bounds)
        return self._bounds[0], self._bounds[1]

    def contains(self, points):
        """Boolean mask: which of the (N, 3) points lie inside the box."""
        q = (np.atleast_2d(points) - self.centroid) @ self.orientation
        return np.all(np.abs(q) <= self.extents + _CONTAINS_TOL, axis=1)


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
    (lattice_box_iou in tests/oracles.py). Exact for identical boxes;
    symmetric bit for bit; relative error <= 2% for non-degenerate overlaps.
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
    def from_moments(count, mean, scatter):
        """Gaussian centroid of count observations from their mean and their
        scatter matrix, the sum of (c - mean)(c - mean)^T.

        Below MIN_SAMPLES_FOR_COV observations the covariance is the isotropic
        prior CENTROID_PRIOR_SIGMA^2 * I; from then on the unbiased sample
        covariance scatter / (count - 1) plus the decaying prior term
        (CENTROID_PRIOR_SIGMA^2 / count) I. The blend keeps the gate
        calibrated while the sample covariance is still rank-deficient
        (3 points span only a plane) and washes out as evidence accumulates.
        The result is floored by regularize_covariance.
        """
        if count < 1:
            raise ValueError("from_moments: no observations")
        if count < MIN_SAMPLES_FOR_COV:
            cov = np.eye(3) * CENTROID_PRIOR_SIGMA**2
        else:
            cov = scatter / (count - 1) + np.eye(3) * (CENTROID_PRIOR_SIGMA**2 / count)
        return GaussianCentroid(mean, regularize_covariance(cov), count)


def mahalanobis_sq(x, g):
    """Squared Mahalanobis distance of point x to the Gaussian centroid g."""
    d = as_vector3(x, "x") - g.mean
    return float(d @ np.linalg.solve(g.covariance, d))
