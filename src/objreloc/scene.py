"""Synthetic desktop world: scenes, camera trajectories, depth rendering.

Deterministic stand-in for the RGB-D front end: scenes are built from
primitives with closed-form ray intersections and normals (boxes, cylinders,
a ground plane), cameras follow orbit or vertical-arc trajectories, and depth
point clouds come from pinhole ray casting. The caster tests each primitive
only against the rays that pass through its bounding ball, a few dozen of a
160x120 grid for a desk object, and gives the same depth, bit for bit, as
testing every ray against every primitive. Ground-truth object centroids are
exactly the primitive poses' translations, so every fusion and relocalisation
test has an exact reference.
"""

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyModel, PlacementFailure
from .geometry import RigidTransform, rotation_from_axis_angle
from .registration import SurfaceModel
from .validation import as_points, as_real, as_vector3, check_integer

# Categories of the pre-trained detector this pipeline abstracts over.
CATEGORIES = ("bottle", "bowl", "camera", "can", "laptop", "mug")

# shape and half-extent ranges per category (metres); cylinders use
# extents = (radius, radius, half_height). Sizes sit at the large end of
# desk-scale so the IoU association gate stays meaningful under
# centimetre-level detector noise.
_CATALOG = {
    "bottle": ("cylinder", (0.045, 0.06), (0.045, 0.06), (0.09, 0.14)),
    "bowl": ("cylinder", (0.07, 0.11), (0.07, 0.11), (0.035, 0.055)),
    "camera": ("box", (0.055, 0.08), (0.045, 0.065), (0.04, 0.06)),
    "can": ("cylinder", (0.042, 0.055), (0.042, 0.055), (0.055, 0.085)),
    "laptop": ("box", (0.15, 0.19), (0.10, 0.14), (0.02, 0.04)),
    "mug": ("cylinder", (0.05, 0.07), (0.05, 0.07), (0.045, 0.065)),
}

_CLUTTER_EXTENTS = ((0.04, 0.09), (0.04, 0.09), (0.25, 0.45))

# Grazing-angle cutoff of real depth sensors: rays striking a surface at more
# than ~84 degrees from its normal (|cos| below this) return no depth. Without
# it, silhouette edges produce one-row slivers of points that poison ICP with
# systematic mismatches.
MIN_COS_INCIDENCE = 0.1

# Voxel edge of the surface model (m): build_surface_model keeps the first
# point per voxel
SURFACE_VOXEL = 0.01

# Widening (m) of each primitive's bounding ball in _raycast's ray culling:
# far above the rounding of the ball test and of the hit tests at desk scale
# (~1e-15 m), far below the ray spacing, so it only ever admits a few extra
# rays to the exact test
CULL_SLACK = 1e-6

# Largest distance (pixels) between a point's projection and its pixel centre
# in an organised cloud; a rendered point projects within ~1e-13 px of it
LATTICE_TOL_PX = 1e-6


@dataclass(frozen=True)
class SensorParams:
    """Pinhole depth sensor: horizontal FOV, ray-grid resolution, range."""

    fov_deg: float = 90.0
    width: int = 160
    height: int = 120
    max_range: float = 5.0

    def __post_init__(self):
        if not 0.0 < as_real(self.fov_deg, "fov_deg") < 180.0:
            raise ValueError(f"fov_deg: must be in (0, 180), got {self.fov_deg}")
        check_integer(self.width, "width", 1)
        check_integer(self.height, "height", 1)
        if not as_real(self.max_range, "max_range") > 0.0:
            raise ValueError(f"max_range: must be > 0, got {self.max_range}")

    @property
    def tan_half_fov(self):
        return float(np.tan(np.deg2rad(self.fov_deg) / 2.0))

    @property
    def pinhole(self):
        """(f, cx, cy) in pixels: pixel (u, v) looks along ((u - cx) / f, (v - cy) / f, 1)."""
        f = (self.width / 2.0) / self.tan_half_fov
        return f, (self.width - 1) / 2.0, (self.height - 1) / 2.0

    def lattice_index(self, points, name="points"):
        """Flat pixel index u * height + v (the ray grid's order) of each
        camera-frame point of an organised cloud: one point at most per pixel,
        each on its pixel's ray, in front of the sensor.

        The pixel is recovered by projecting the point, so a cloud needs no
        stored pixel array. Raises ValueError naming the cloud when a point
        has z <= 0, projects more than LATTICE_TOL_PX from a pixel centre or
        outside the image, or shares its pixel with another point.
        """
        p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        z = p[:, 2]
        if not (z > 0.0).all():
            raise ValueError(f"{name}: {np.count_nonzero(~(z > 0.0))} points have z <= 0")
        f, cx, cy = self.pinhole
        u = f * p[:, 0] / z + cx
        v = f * p[:, 1] / z + cy
        ui = np.rint(u)
        vi = np.rint(v)
        off = max(float(np.abs(u - ui).max(initial=0.0)), float(np.abs(v - vi).max(initial=0.0)))
        if off > LATTICE_TOL_PX:
            raise ValueError(f"{name}: a point lies {off:.3g} px off its pixel's ray")
        if len(p) and (min(ui.min(), vi.min()) < 0.0
                       or ui.max() >= self.width or vi.max() >= self.height):
            raise ValueError(
                f"{name}: a point projects outside the {self.width}x{self.height} image")
        flat = (ui * self.height + vi).astype(np.int64)
        # a rendered cloud comes in pixel order, which rules out a shared pixel
        # without a sort
        if not (flat[1:] > flat[:-1]).all() and len(np.unique(flat)) != len(flat):
            raise ValueError(f"{name}: two points share a pixel")
        return flat


DEFAULT_SENSOR = SensorParams()


@dataclass(frozen=True)
class SceneObject:
    label: str
    pose: RigidTransform
    extents: np.ndarray
    shape: str = "box"  # box | cylinder

    def __post_init__(self):
        object.__setattr__(self, "extents", as_vector3(self.extents, "extents"))
        if self.shape not in ("box", "cylinder"):
            raise ValueError(f"unknown shape {self.shape!r}")


@dataclass(frozen=True)
class Scene:
    objects: tuple
    ground_height: float = 0.0
    ground_extent: float = 1.0
    clutter: tuple = ()

    def primitives(self):
        return tuple(self.objects) + tuple(self.clutter)


@dataclass(frozen=True)
class TrajectorySpec:
    kind: str = "orbit_horizontal"  # orbit_horizontal | arc_vertical
    radius: float = 1.4
    height: float = 1.0
    angle_range: float = 120.0
    frame_count: int = 40
    lookat: tuple = (0.0, 0.0, 0.0)
    start_deg: float = 0.0

    def __post_init__(self):
        if self.kind not in ("orbit_horizontal", "arc_vertical"):
            raise ValueError(
                f"kind: must be 'orbit_horizontal' or 'arc_vertical', got {self.kind!r}")
        if not as_real(self.radius, "radius") > 0.0:
            raise ValueError(f"radius: must be > 0, got {self.radius}")
        for name in ("height", "angle_range", "start_deg"):
            as_real(getattr(self, name), name)
        check_integer(self.frame_count, "frame_count", 1)
        object.__setattr__(self, "lookat", tuple(as_vector3(self.lookat, "lookat").tolist()))


def _philox(*key):
    """Counter-based generator keyed by integers, each taken modulo 2^64."""
    key = np.array([int(k) & (2**64 - 1) for k in key], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _pose_digest(pose):
    h = hashlib.blake2b(digest_size=8)
    h.update(np.ascontiguousarray(pose.rotation).tobytes())
    h.update(np.ascontiguousarray(pose.translation).tobytes())
    return int.from_bytes(h.digest(), "little")


def look_at(eye, target):
    """World-from-camera pose with the camera's +z axis toward target.

    Camera convention: x right, y down, z forward (right-handed). The up
    vector is world +z; it falls back to +x when the view direction is
    parallel to it.
    """
    eye = as_vector3(eye, "eye")
    target = as_vector3(target, "target")
    z = target - eye
    n = np.linalg.norm(z)
    if n == 0.0:
        raise ValueError("eye and target coincide")
    z = z / n
    x = np.cross(z, np.array([0.0, 0.0, 1.0]))
    if np.linalg.norm(x) < 1e-9:
        x = np.cross(z, np.array([1.0, 0.0, 0.0]))
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return RigidTransform(np.column_stack([x, y, z]), eye)


def in_frustum(p_cam, sensor=DEFAULT_SENSOR):
    """Boolean mask: which of the (N, 3) camera-frame points are inside the
    sensor's view frustum and range."""
    p = as_points(p_cam, "p_cam")
    z = p[:, 2]
    inside = (z > 1e-9) & (np.linalg.norm(p, axis=1) <= sensor.max_range)
    z = np.where(inside, z, 1.0)  # no division by a zero depth
    t = sensor.tan_half_fov
    inside &= (np.abs(p[:, 0] / z) <= t) & (np.abs(p[:, 1] / z) <= t * sensor.height / sensor.width)
    return inside


def generate_scene(object_count=5, label_mix=None, seed=0, plane_height=0.0, plane_extent=1.0,
                   clutter_count=0):
    """Rejection-sample a desktop scene of non-intersecting categorised primitives.

    label_mix: sequence of category names to draw from (with repetition
    allowed), default all six. Two primitives are placed at least the sum of
    their largest half-extents apart. Deterministic given seed. Raises
    PlacementFailure after 10000 rejected placements.
    """
    rng = _philox(seed, 0x5CE)
    labels = tuple(label_mix) if label_mix else CATEGORIES
    for lab in labels:
        if lab not in _CATALOG:
            raise ValueError(f"unknown category {lab!r}")
    placed = []
    rejections = 0

    def sample_one(label, ranges, shape):
        ext = np.array([rng.uniform(lo, hi) for lo, hi in ranges])
        if shape == "cylinder":
            ext[1] = ext[0]
        yaw = rng.uniform(0.0, 360.0)
        lim = max(plane_extent - ext[:2].max(), 0.05)
        xy = rng.uniform(-lim, lim, 2)
        centroid = np.array([xy[0], xy[1], plane_height + ext[2]])
        return centroid, rotation_from_axis_angle([0, 0, 1], yaw), ext

    def collides(centroid, ext):
        for other in placed:
            min_sep = ext.max() + other.extents.max()
            if np.linalg.norm(centroid - other.pose.translation) < min_sep:
                return True
        return False

    specs = [labels[int(rng.integers(0, len(labels)))] for _ in range(object_count)]
    specs += ["clutter"] * clutter_count
    for label in specs:
        if label == "clutter":
            shape, ranges = "box", _CLUTTER_EXTENTS
        else:
            entry = _CATALOG[label]
            shape = entry[0]
            ranges = entry[1:]
        while True:
            centroid, rot, ext = sample_one(label, ranges, shape)
            if not collides(centroid, ext):
                break
            rejections += 1
            if rejections > 10000:
                raise PlacementFailure(
                    f"could not place {object_count + clutter_count} objects "
                    f"after 10000 rejections (plane_extent={plane_extent})"
                )
        placed.append(SceneObject(label, RigidTransform(rot, centroid), ext, shape))
    objects = tuple(o for o in placed if o.label != "clutter")
    clutter = tuple(o for o in placed if o.label == "clutter")
    return Scene(objects, plane_height, plane_extent, clutter)


def generate_trajectory(spec):
    """World-from-camera poses along the trajectory described by spec.

    orbit_horizontal sweeps azimuth start_deg + angle_range * k / frame_count
    at fixed height and radius; arc_vertical sweeps elevation start_deg +
    angle_range * k / frame_count above the elevation implied by height, at
    azimuth 0. Every pose looks at spec.lookat.
    """
    lookat = np.asarray(spec.lookat, dtype=np.float64)
    poses = []
    for k in range(spec.frame_count):
        if spec.kind == "orbit_horizontal":
            az = np.deg2rad(spec.start_deg + spec.angle_range * k / spec.frame_count)
            eye = np.array(
                [
                    lookat[0] + spec.radius * np.cos(az),
                    lookat[1] + spec.radius * np.sin(az),
                    spec.height,
                ]
            )
        else:
            el0 = np.arcsin(np.clip((spec.height - lookat[2]) / spec.radius, -1.0, 1.0))
            el = el0 + np.deg2rad(spec.start_deg + spec.angle_range * k / spec.frame_count)
            eye = lookat + spec.radius * np.array([np.cos(el), 0.0, np.sin(el)])
        poses.append(look_at(eye, lookat))
    return poses


@functools.lru_cache(maxsize=8)
def _ray_dirs(sensor):
    """Unit camera-frame ray per pixel, u outer and v inner; one shared,
    read-only array per sensor."""
    fx, cx, cy = sensor.pinhole
    u, v = np.meshgrid(np.arange(sensor.width), np.arange(sensor.height), indexing="ij")
    d = np.stack([(u.ravel() - cx) / fx, (v.ravel() - cy) / fx, np.ones(u.size)], axis=1)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    d.flags.writeable = False
    return d


def _intersect_box(obj, origins, dirs):
    rot = obj.pose.rotation
    o = (origins - obj.pose.translation) @ rot
    d = dirs @ rot
    e = obj.extents
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        t1 = (-e - o) * inv
        t2 = (e - o) * inv
    tmin = np.minimum(t1, t2)
    tmax = np.maximum(t1, t2)
    # parallel rays: inside slab -> -inf/+inf, outside -> no hit
    par = np.abs(d) < 1e-15
    inside = np.abs(o) <= e
    tmin = np.where(par, np.where(inside, -np.inf, np.inf), tmin)
    tmax = np.where(par, np.where(inside, np.inf, -np.inf), tmax)
    t_near = tmin.max(axis=1)
    t_far = tmax.min(axis=1)
    hit = (t_near <= t_far) & (t_far > 1e-9) & (t_near > 1e-9)
    t = np.where(hit, t_near, np.inf)
    axis = tmin.argmax(axis=1)
    sign = -np.sign(np.take_along_axis(d, axis[:, None], 1)[:, 0])
    normals_local = np.zeros_like(dirs)
    normals_local[np.arange(len(dirs)), axis] = np.where(sign == 0.0, 1.0, sign)
    normals = normals_local @ rot.T
    return t, normals


def _intersect_cylinder(obj, origins, dirs):
    rot = obj.pose.rotation
    o = (origins - obj.pose.translation) @ rot
    d = dirs @ rot
    r = obj.extents[0]
    hh = obj.extents[2]
    a = d[:, 0] ** 2 + d[:, 1] ** 2
    b = 2.0 * (o[:, 0] * d[:, 0] + o[:, 1] * d[:, 1])
    c = o[:, 0] ** 2 + o[:, 1] ** 2 - r * r
    disc = b * b - 4.0 * a * c
    t_best = np.full(len(dirs), np.inf)
    n_local = np.zeros_like(dirs)
    ok = (disc >= 0.0) & (a > 1e-15)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        for sgn in (-1.0, 1.0):
            t = np.where(ok, (-b + sgn * sq) / (2.0 * a), np.inf)
            z = o[:, 2] + t * d[:, 2]
            good = ok & (t > 1e-9) & (np.abs(z) <= hh) & (t < t_best)
            t_best = np.where(good, t, t_best)
            px = o[:, 0] + t * d[:, 0]
            py = o[:, 1] + t * d[:, 1]
            n_local[good] = np.column_stack([px / r, py / r, np.zeros_like(px)])[good]
        # caps
        for zcap, nz in ((hh, 1.0), (-hh, -1.0)):
            t = np.where(np.abs(d[:, 2]) > 1e-15, (zcap - o[:, 2]) / d[:, 2], np.inf)
            px = o[:, 0] + t * d[:, 0]
            py = o[:, 1] + t * d[:, 1]
            good = (t > 1e-9) & (px**2 + py**2 <= r * r) & (t < t_best)
            t_best = np.where(good, t, t_best)
            n_local[good] = [0.0, 0.0, nz]
    return t_best, n_local @ rot.T


def _intersect_ground(scene, origins, dirs):
    # a ray parallel to the ground has t = +-inf, and its hit point multiplies
    # inf by 0; the isfinite test below discards it
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (scene.ground_height - origins[:, 2]) / dirs[:, 2]
        p = origins + t[:, None] * dirs
    ok = (
        (t > 1e-9)
        & np.isfinite(t)
        & (np.abs(p[:, 0]) <= scene.ground_extent)
        & (np.abs(p[:, 1]) <= scene.ground_extent)
    )
    t = np.where(ok, t, np.inf)
    normals = np.tile([0.0, 0.0, 1.0], (len(dirs), 1))
    return t, normals


def _raycast(scene, camera_pose, sensor):
    """Cast the full pinhole grid; returns (t, normals_world, dirs_cam) with
    t = inf for misses. Normals belong to the nearest hit primitive. Hits at
    grazing incidence (|n . dir| below MIN_COS_INCIDENCE) return no depth.

    Every box and cylinder with these `extents` (half-sizes; a cylinder's are
    (r, r, half-height)) lies inside the ball of radius |extents| about its
    centre, so a ray that misses the ball misses the primitive. Each primitive
    is therefore intersected only with the rays that pass within that radius
    of its centre and do not leave it behind the camera, a fraction of a
    percent of the grid at desk scale. CULL_SLACK widens the ball so that
    rounding in the ball test can never drop a ray that grazes the
    primitive's surface. The culled rows go through the same row-wise
    arithmetic as the whole grid would, so the result equals casting every
    ray at every primitive (raycast_every_ray in tests/oracles.py) bit for
    bit.
    """
    dirs_cam = _ray_dirs(sensor)
    dirs_w = dirs_cam @ camera_pose.rotation.T
    eye = camera_pose.translation
    origins = np.tile(eye, (len(dirs_w), 1))
    t_best, n_best = _intersect_ground(scene, origins, dirs_w)
    for obj in scene.primitives():
        to_centre = obj.pose.translation - eye
        along = dirs_w @ to_centre
        radius = np.linalg.norm(obj.extents) + CULL_SLACK
        rows = np.flatnonzero((to_centre @ to_centre - along * along <= radius * radius)
                              & (along > -radius))
        if len(rows) == 0:
            continue
        if len(rows) == 1:
            # numpy hands a one-row product to BLAS gemv, whose rounding can
            # differ from the gemm that multiplies the whole grid
            rows = np.repeat(rows, 2)
        intersect = _intersect_box if obj.shape == "box" else _intersect_cylinder
        t, n = intersect(obj, origins[rows], dirs_w[rows])
        closer = t < t_best[rows]
        t_best[rows[closer]] = t[closer]
        n_best[rows[closer]] = n[closer]
    t_best = np.where(t_best <= sensor.max_range, t_best, np.inf)
    grazing = np.abs(np.einsum("ni,ni->n", n_best, dirs_w)) < MIN_COS_INCIDENCE
    t_best = np.where(grazing, np.inf, t_best)
    return t_best, n_best, dirs_cam


def _render(scene, camera_pose, sensor, sigma_depth, rng):
    """Camera-frame depth points and world normals of the rays that hit.

    A hit whose noisy depth is not positive returns no depth, as a sensor
    reports none behind itself, so the points form an organised cloud.
    """
    t, normals, dirs_cam = _raycast(scene, camera_pose, sensor)
    noise = rng.normal(0.0, sigma_depth, len(t)) if sigma_depth > 0.0 else np.zeros(len(t))
    depth = t + noise
    hit = np.isfinite(t) & (depth > 0.0)
    return dirs_cam[hit] * depth[hit][:, None], normals[hit]


def render_depth_points(scene, camera_pose, sensor=DEFAULT_SENSOR, sigma_depth=0.0, *, rng):
    """Depth point cloud in the camera frame: nearest hit per ray, perturbed
    along the ray by N(0, sigma_depth^2) drawn from the generator rng; misses,
    and hits whose perturbed depth is not positive, omitted."""
    return _render(scene, camera_pose, sensor, sigma_depth, rng)[0]


def build_surface_model(scene, keyframe_poses, sensor=DEFAULT_SENSOR, sigma_depth=0.0, seed=0,
                        voxel=SURFACE_VOXEL):
    """Accumulate rendered depth over key-frame poses into a SurfaceModel.

    Points are transformed to world, voxel-downsampled at `voxel` (first point
    per cell kept) and paired with the analytic normal of their hit primitive.
    """
    if not keyframe_poses:
        raise ValueError("need at least one pose")
    all_pts = []
    all_nrm = []
    for pose in keyframe_poses:
        pts_cam, normals = _render(scene, pose, sensor, sigma_depth,
                                   _philox(seed, _pose_digest(pose)))
        all_pts.append(pose.apply(pts_cam))
        all_nrm.append(normals)
    pts = np.vstack(all_pts)
    nrm = np.vstack(all_nrm)
    if len(pts) == 0:
        raise EmptyModel("no rays hit the scene from any pose")
    keys = np.floor(pts / voxel).astype(np.int64)
    # lexicographic unique, keeping the first occurrence per voxel
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    sk = keys[order]
    new_cell = np.ones(len(sk), dtype=bool)
    new_cell[1:] = np.any(sk[1:] != sk[:-1], axis=1)
    first_in_cell = np.minimum.reduceat(order, np.flatnonzero(new_cell))
    first_in_cell.sort()
    return SurfaceModel(pts[first_in_cell], nrm[first_in_cell])
