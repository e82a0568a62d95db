"""Sparse object map: association, configuration fusion, persistence filtering.

Key frames contribute detections that are associated to map objects by
label-gated IoU, then routed to one of the object's box configurations by a
chi-squared test on the squared Mahalanobis distance of the new centroid:
no gate passes -> new configuration; one or more pass -> those configurations
are pooled with the detection into one. A configuration keeps the running
sums of the detected world-frame boxes assigned to it, the incremental form of
its Gaussian centroid, so pooling costs the same however many boxes it holds;
its Gaussian centroid and mean box are derived from the sums.

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
    chordal_mean,
    mahalanobis_sq,
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
    """One bounding-box mode of a map object: the sufficient statistics of the
    detected world-frame OrientedBoxes assigned to it.

    They are the count; an origin, the founding box's centroid; the sum of
    the centroids' offsets from the origin and the sum of the offsets' outer
    products; the sums of the orientations and of the extents; and the
    founding box's orientation. Offsets from the origin, not world
    coordinates, keep the scatter from cancelling in a map far from the world
    origin.

    The Gaussian centroid (GaussianCentroid.from_moments), the chordal mean
    orientation and the mean extents are derived from the sums on
    construction and make up the mean box. When the orientations have no
    chordal mean (antipodal flip modes pooled together), the founding
    orientation stands in. Configuration(boxes) founds a configuration from a
    list of boxes, the first founding it; pooled() builds a new one from
    several and a new box. A configuration is never changed once built, so
    finalized maps can share configurations with the map they came from.

    A finalized map orders each object's configurations by sample count,
    most first; ties keep founding order.
    """

    __slots__ = ("count", "origin", "offset_sum", "outer_sum", "rotation_sum", "extent_sum",
                 "founding_orientation", "centroid", "box")

    def __init__(self, boxes):
        origin = boxes[0].centroid
        offsets = np.array([b.centroid for b in boxes]) - origin
        self._derive(len(boxes), origin, offsets.sum(axis=0), offsets.T @ offsets,
                     sum(b.orientation for b in boxes), sum(b.extents for b in boxes),
                     boxes[0].orientation)

    @classmethod
    def pooled(cls, configurations, box):
        """A new configuration of the boxes of configurations and one more box.

        Each configuration's sums are moved to the first one's origin and
        added; the first one's founding orientation stays the fallback.
        """
        first = configurations[0]
        origin = first.origin
        count, offset_sum, outer_sum = first.count, first.offset_sum, first.outer_sum
        rotation_sum, extent_sum = first.rotation_sum, first.extent_sum
        for cfg in configurations[1:]:
            # sum (c - origin) = sum (c - cfg.origin) + n d, and the outer
            # products likewise, with d = cfg.origin - origin
            d = cfg.origin - origin
            outer_sum = (outer_sum + cfg.outer_sum + np.outer(cfg.offset_sum, d)
                         + np.outer(d, cfg.offset_sum) + cfg.count * np.outer(d, d))
            offset_sum = offset_sum + cfg.offset_sum + cfg.count * d
            count += cfg.count
            rotation_sum = rotation_sum + cfg.rotation_sum
            extent_sum = extent_sum + cfg.extent_sum
        d = box.centroid - origin
        new = object.__new__(cls)
        new._derive(count + 1, origin, offset_sum + d, outer_sum + np.outer(d, d),
                    rotation_sum + box.orientation, extent_sum + box.extents,
                    first.founding_orientation)
        return new

    def _derive(self, count, origin, offset_sum, outer_sum, rotation_sum, extent_sum,
                founding_orientation):
        self.count = count
        self.origin = origin
        self.offset_sum = offset_sum
        self.outer_sum = outer_sum
        self.rotation_sum = rotation_sum
        self.extent_sum = extent_sum
        self.founding_orientation = founding_orientation
        scatter = outer_sum - np.outer(offset_sum, offset_sum) / count
        self.centroid = GaussianCentroid.from_moments(count, origin + offset_sum / count, scatter)
        try:
            rot = chordal_mean(rotation_sum, count)
        except DegenerateRotations:
            rot = founding_orientation
        self.box = OrientedBox(self.centroid.mean, rot, extent_sum / count)


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
            obj.configurations[passing[0]] = Configuration.pooled(
                [obj.configurations[k] for k in passing], world_box
            )
            for k in reversed(passing[1:]):
                del obj.configurations[k]
        matched.add(j)
    for j in matched:
        obj_map.objects[j].detected_keyframes.add(frame_index)
    if obj_map.objects:
        # an object is "expected in view" when any configuration mean is
        # visible: one frustum test over every mean, then one "any" per object
        means = [cfg.centroid.mean for obj in obj_map.objects for cfg in obj.configurations]
        visible = in_frustum(pose.inverse().apply(np.array(means)), frame.sensor)
        firsts = np.cumsum([0] + [len(obj.configurations) for obj in obj_map.objects[:-1]])
        for obj, seen in zip(obj_map.objects, np.logical_or.reduceat(visible, firsts)):
            if seen:
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

