"""Per-frame detection records and the detector noise model.

The stochastic model reproduces the failure modes of a single-frame category
detector: Gaussian centroid error, orientation jitter, multiplicative scale
error, flipped box configurations, missed detections, spurious detections and
label confusion. All randomness comes from a counter-based generator keyed by
(seed, frame_id), so frames are reproducible independently and in any order.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from .geometry import OrientedBox, RigidTransform, rotation_from_axis_angle
from .scene import (CATEGORIES, DEFAULT_SENSOR, SensorParams, _philox, in_frustum,
                    render_depth_points)
from .validation import as_points, check_nonnegative, check_probability

# displacement of the flipped-mode centroid, along the object's own x axis;
# the 180-degree flip is about the same axis
FLIP_AXIS = np.array([1.0, 0.0, 0.0])


@dataclass(frozen=True)
class DetectedObject:
    """One detected object in the camera frame."""

    label: str
    box: OrientedBox
    confidence: float = 1.0

    def __post_init__(self):
        if self.label not in CATEGORIES:
            raise ValueError(f"label {self.label!r} not in {CATEGORIES}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")


@dataclass
class FrameDetections:
    """One frame's detections and camera-frame depth points.

    The depth points are an organised cloud of the frame's sensor: at most
    one point per pixel of the sensor's grid, each on its pixel's ray
    (SensorParams.lattice_index), so ICP takes its normals from the pixel
    lattice. The pixels are recovered from the points, not stored.
    Construction refuses a cloud that is not organised for the sensor.
    """

    frame_id: int
    objects: list
    depth_points: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    camera_pose_gt: RigidTransform | None = None
    sensor: SensorParams = DEFAULT_SENSOR

    def __post_init__(self):
        self.depth_points = as_points(self.depth_points, "depth_points")
        if not isinstance(self.sensor, SensorParams):
            raise ValueError(f"sensor: expected SensorParams, got {self.sensor!r}")
        self.sensor.lattice_index(self.depth_points, "depth_points")

    def strip_gt(self):
        """Copy with the ground-truth pose removed (fed to relocalisation).

        The copy shares the checked depth points and sensor, so it skips the
        checks of construction."""
        stripped = copy.copy(self)
        stripped.objects = list(self.objects)
        stripped.camera_pose_gt = None
        return stripped


@dataclass(frozen=True)
class NoiseParams:
    """Detector noise model parameters. All sigmas >= 0, probabilities in [0, 1]."""

    sigma_centroid: float = 0.01  # m
    sigma_scale: float = 0.05  # relative
    sigma_rot: float = 5.0  # deg
    p_flip: float = 0.15
    flip_offset: float = 0.12  # m
    p_false_negative: float = 0.1
    false_positive_rate: float = 0.2  # expected spurious detections per frame
    p_label_confusion: float = 0.05
    sigma_depth: float = 0.005  # m
    seed: int = 0

    def __post_init__(self):
        for name in ("p_flip", "p_false_negative", "p_label_confusion"):
            check_probability(getattr(self, name), name)
        for name in ("sigma_centroid", "sigma_scale", "sigma_rot", "flip_offset",
                     "false_positive_rate", "sigma_depth"):
            check_nonnegative(getattr(self, name), name)

    @staticmethod
    def noiseless(seed=0):
        return NoiseParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, seed)


def _random_unit(rng):
    v = rng.normal(size=3)
    n = np.linalg.norm(v)
    while n < 1e-12:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
    return v / n


def simulate_detections(scene, camera_pose, params, frame_id, sensor=DEFAULT_SENSOR):
    """Simulate the detector's output for one frame.

    For each scene object whose centroid falls inside the frustum and range:
    drop it with p_false_negative, otherwise emit a detection with Gaussian
    centroid noise, axis-angle orientation jitter of magnitude
    |N(0, sigma_rot^2)|, extents scaled by (1 + N(0, sigma_scale^2)); with
    p_flip substitute the flipped configuration (180 degrees about the
    object's x axis, centroid displaced flip_offset along that axis); with
    p_label_confusion swap in a uniform different label. Poisson-many
    spurious detections are appended, then depth points are rendered with
    sigma_depth noise. Boxes are reported in the camera frame; the frame
    carries the sensor, whose pixel grid organises its depth points.
    """
    rng = _philox(params.seed, frame_id)
    world_from_cam = camera_pose
    cam_from_world = camera_pose.inverse()
    detections = []
    centroids = np.array([obj.pose.translation for obj in scene.objects]).reshape(-1, 3)
    in_view = in_frustum(cam_from_world.apply(centroids), sensor)
    for obj, visible in zip(scene.objects, in_view):
        # draws happen for every object so the stream layout is independent
        # of visibility outcomes
        drop = rng.uniform() < params.p_false_negative
        noise_c = rng.normal(0.0, params.sigma_centroid, 3)
        jitter_axis = _random_unit(rng)
        jitter_deg = abs(rng.normal(0.0, params.sigma_rot))
        scale_factor = max(1.0 + rng.normal(0.0, params.sigma_scale), 0.05)
        do_flip = rng.uniform() < params.p_flip
        do_confuse = rng.uniform() < params.p_label_confusion
        wrong = int(rng.integers(0, len(CATEGORIES) - 1))
        if not visible or drop:
            continue
        centroid_w = obj.pose.translation + noise_c
        rot_w = obj.pose.rotation
        if jitter_deg > 0.0:
            rot_w = rotation_from_axis_angle(jitter_axis, jitter_deg) @ rot_w
        extents = obj.extents * scale_factor
        label = obj.label
        if do_flip:
            rot_w = rot_w @ rotation_from_axis_angle(FLIP_AXIS, 180.0)
            centroid_w = centroid_w + params.flip_offset * (obj.pose.rotation @ FLIP_AXIS)
        if do_confuse:
            others = [c for c in CATEGORIES if c != obj.label]
            label = others[wrong]
        box = OrientedBox(
            cam_from_world.apply(centroid_w), cam_from_world.rotation @ rot_w, extents
        )
        detections.append(DetectedObject(label, box, confidence=1.0))
    n_fp = int(rng.poisson(params.false_positive_rate))
    tan_h = sensor.tan_half_fov
    tan_v = tan_h * sensor.height / sensor.width
    for _ in range(n_fp):
        label = CATEGORIES[int(rng.integers(0, len(CATEGORIES)))]
        depth = rng.uniform(0.3, sensor.max_range * 0.9)
        x = rng.uniform(-tan_h, tan_h) * depth
        y = rng.uniform(-tan_v, tan_v) * depth
        extents = rng.uniform(0.015, 0.05, 3)
        orient = rotation_from_axis_angle(_random_unit(rng), rng.uniform(0.0, 180.0))
        box = OrientedBox(np.array([x, y, depth]), orient, extents)
        detections.append(DetectedObject(label, box, confidence=0.5))
    depth_points = render_depth_points(
        scene, world_from_cam, sensor, sigma_depth=params.sigma_depth, rng=rng
    )
    return FrameDetections(frame_id, detections, depth_points, camera_pose_gt=camera_pose,
                           sensor=sensor)

