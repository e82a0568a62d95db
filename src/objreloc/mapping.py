"""Sparse object map: association, configuration fusion, persistence filtering.

Key frames contribute detections that are associated to map objects by
label-gated IoU, then routed to one of the object's box configurations by a
chi-squared test on the squared Mahalanobis distance of the new centroid:
no gate passes -> new configuration; one or more pass -> those configurations
are pooled with the detection into one. A configuration is the list of the
detected world-frame boxes assigned to it, and its Gaussian centroid and mean
box are derived from that list.

Finalisation first discards objects that are not re-observed in enough of the
key frames expected to see them. It then folds duplicates into their object:
a detector flip moves a small object's box far enough that IoU cannot
associate it, and a label confusion gives it the wrong label, so either can
found a second object at the same place. Survivors are visited from most to
least updated, and a weaker one is folded into a stronger one when two gates
hold: the two were never detected in the same key frame (the detector reports
each physical object at most once per frame, while genuine neighbours are
co-detected), and their centroids are closer than the sum of the two boxes'
half-diagonals. A same-label duplicate brings its configurations; a
different-label one only its detecting key frames. Each object's
configurations are then ordered by sample count, so configurations[0] is its
main mode.
"""

from dataclasses import dataclass, field

import numpy as np

from .detections import DetectedObject
from .errors import DegenerateRotations
from .geometry import (
    GaussianCentroid,
    OrientedBox,
    box_iou,
    mahalanobis_sq,
    rotation_mean,
)
from .scene import in_frustum
from .validation import as_real, check_integer, check_probability

# inverse chi-squared(3) CDF at 1 - 0.001; the configuration gate
CHI2_GATE_3DOF = 16.26623619623813


@dataclass(frozen=True)
class FusionParams:
    # IoU association gate; 0.2 keeps centimetre-noise detections of one
    # object associated to it instead of founding duplicates
    tau: float = 0.2
    chi2_gate: float = CHI2_GATE_3DOF
    min_update_fraction: float = 0.25
    min_updates: int = 2  # objects must be detected in multiple key frames

    def __post_init__(self):
        if not 0.0 < as_real(self.tau, "tau") < 1.0:
            raise ValueError(f"tau: must be in (0, 1), got {self.tau}")
        if not as_real(self.chi2_gate, "chi2_gate") > 0.0:
            raise ValueError(f"chi2_gate: must be positive, got {self.chi2_gate}")
        check_probability(self.min_update_fraction, "min_update_fraction")
        check_integer(self.min_updates, "min_updates", 0)


class Configuration:
    """One bounding-box mode of a map object: the detected world-frame
    OrientedBoxes assigned to it, in assignment order.

    The Gaussian centroid, the chordal mean orientation and the mean extents
    are computed from these observations on construction and make up the
    mean box. A configuration is never changed once built: pooling builds a
    new one from the pooled observations, so finalized maps can share
    configurations with the map they came from.

    A finalized map orders each object's configurations by sample count,
    most first; ties keep founding order.
    """

    def __init__(self, observations):
        self.observations = observations
        self.centroid = GaussianCentroid.from_samples(np.array([b.centroid for b in observations]))
        orientations = [b.orientation for b in observations]
        try:
            rot = rotation_mean(orientations)
        except DegenerateRotations:
            # antipodal orientations (merged flip modes) have no chordal mean;
            # keep the founding observation's orientation
            rot = orientations[0]
        mean_extents = np.mean(np.stack([b.extents for b in observations]), axis=0)
        self.box = OrientedBox(self.centroid.mean, rot, mean_extents)


@dataclass
class MapObject:
    """One physical object of the map: a label and its box configurations.

    While the map is built, configurations are in founding order; a finalized
    map orders them by sample count, most first (ties keep founding order), so
    configurations[0] is the object's main mode. detected_keyframes holds the
    indices of the key frames that detected the object, and update_count is
    derived from it.
    """

    label: str
    configurations: list
    expected_view_count: int = 0
    detected_keyframes: set = field(default_factory=set)

    @property
    def update_count(self):
        """Number of key frames that detected the object."""
        return len(self.detected_keyframes)


@dataclass
class ObjectMap:
    objects: list = field(default_factory=list)
    fusion_params: FusionParams = field(default_factory=FusionParams)
    processed_keyframes: int = 0
    finalized: bool = False

    def __len__(self):
        return len(self.objects)


def associate_detection(obj_map, det):
    """Best (object, configuration) for a world-frame detection, or None.

    Candidates must share the detection's label; the winner maximises box IoU
    and must exceed tau. Exact ties resolve to the lowest (j, k).
    """
    best = None
    best_iou = obj_map.fusion_params.tau
    for j, obj in enumerate(obj_map.objects):
        if obj.label != det.label:
            continue
        for k, cfg in enumerate(obj.configurations):
            iou = box_iou(det.box, cfg.box)
            if iou > best_iou:
                best_iou = iou
                best = (j, k)
    return best


def select_or_merge_configurations(obj, centroid, chi2_gate):
    """Indices, ascending, of the object's configurations whose Mahalanobis
    gate a new centroid passes: d2 < gate passes, equality fails.

    No gate passes -> the detection founds a new configuration; one or more
    pass -> those configurations are pooled with the detection.
    """
    return tuple(
        k
        for k, cfg in enumerate(obj.configurations)
        if mahalanobis_sq(centroid, cfg.centroid) < chi2_gate
    )


def _world_box(box, pose):
    return OrientedBox(
        pose.apply(box.centroid), pose.rotation @ box.orientation, box.extents
    )


def integrate_keyframe(obj_map, frame, pose):
    """Fuse one key frame's detections into the map (in place; returns the map).

    pose is world-from-camera: the tracker's estimate of where the frame was
    taken, not a detector output. Matched detections found or pool
    configurations; unmatched ones found new objects; every object whose mean
    centroid falls in the frustum of the frame's own sensor gets an
    expected-view increment, and matched objects record this key frame in
    detected_keyframes.
    """
    if obj_map.finalized:
        raise ValueError("cannot integrate into a finalized map")
    frame_index = obj_map.processed_keyframes
    matched = set()
    for det in frame.objects:
        world_box = _world_box(det.box, pose)
        det_world = DetectedObject(det.label, world_box, det.confidence)
        hit = associate_detection(obj_map, det_world)
        if hit is None:
            obj_map.objects.append(
                MapObject(det.label, [Configuration([world_box])])
            )
            matched.add(len(obj_map.objects) - 1)
            continue
        j, _ = hit
        obj = obj_map.objects[j]
        passing = select_or_merge_configurations(
            obj, world_box.centroid, obj_map.fusion_params.chi2_gate
        )
        if not passing:
            obj.configurations.append(Configuration([world_box]))
        else:
            obj.configurations[passing[0]] = Configuration(
                [b for k in passing for b in obj.configurations[k].observations] + [world_box]
            )
            for k in reversed(passing[1:]):
                del obj.configurations[k]
        matched.add(j)
    for j in matched:
        obj_map.objects[j].detected_keyframes.add(frame_index)
    cam_from_world = pose.inverse()
    for obj in obj_map.objects:
        # an object is "expected in view" when any configuration mean is visible
        visible = any(
            in_frustum(cam_from_world.apply(cfg.centroid.mean), frame.sensor)
            for cfg in obj.configurations
        )
        if visible:
            obj.expected_view_count += 1
    obj_map.processed_keyframes += 1
    return obj_map


def _is_duplicate(host, obj):
    """Fold gates: never co-detected, and some pair of configurations closer
    than the sum of the two boxes' half-diagonals."""
    if host.detected_keyframes & obj.detected_keyframes:
        return False
    return any(
        np.linalg.norm(a.centroid.mean - b.centroid.mean)
        < np.linalg.norm(a.box.extents) + np.linalg.norm(b.box.extents)
        for a in host.configurations
        for b in obj.configurations
    )


def finalize_map(obj_map):
    """Persistence filter, then duplicate folding. Returns a new finalized map.

    An object survives when update_count >= min_updates and update_count >=
    min_update_fraction * expected_view_count. Survivors are visited from
    most to least updated (ties keep founding order); one is folded into the
    first stronger kept object that it was never detected in the same key
    frame with, when a centroid of each lies within the sum of the two boxes'
    half-diagonals. A same-label object's configurations join the host's; a
    different-label object (a label confusion) adds only its detecting key
    frames. Each kept object's configurations are then ordered by sample
    count, most first. The input map is left unmodified: each kept object is
    a new MapObject with its own configuration list and key-frame set, and
    the configurations themselves, never changed once built, are shared. A
    finalized map is rejected.
    """
    if obj_map.finalized:
        raise ValueError("cannot finalize a finalized map")
    params = obj_map.fusion_params
    survivors = [
        obj
        for obj in obj_map.objects
        if obj.update_count >= params.min_updates
        and obj.update_count >= params.min_update_fraction * obj.expected_view_count
    ]
    kept = {}  # survivor index -> new object; the finalized map keeps founding order
    for i in sorted(range(len(survivors)), key=lambda i: -survivors[i].update_count):
        obj = survivors[i]
        host = next((h for h in kept.values() if _is_duplicate(h, obj)), None)
        if host is None:
            kept[i] = MapObject(obj.label, list(obj.configurations), obj.expected_view_count,
                                set(obj.detected_keyframes))
            continue
        if host.label == obj.label:
            host.configurations.extend(obj.configurations)
        # the fold gate makes the two key-frame sets disjoint, so the host's
        # update count grows by the folded object's
        host.detected_keyframes |= obj.detected_keyframes
    objects = [kept[i] for i in sorted(kept)]
    for obj in objects:
        obj.configurations.sort(key=lambda c: -c.centroid.sample_count)
    return ObjectMap(objects, params, obj_map.processed_keyframes, finalized=True)

