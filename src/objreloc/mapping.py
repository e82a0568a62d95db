"""Sparse object map: association, configuration fusion, persistence filtering.

Key frames contribute detections that are associated to map objects by
label-gated IoU, then routed to one of the object's box configurations by a
chi-squared test on the squared Mahalanobis distance of the new centroid:
all gates fail -> new configuration; exactly one passes -> update it; several
pass -> merge them.

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

import copy
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
from .scene import DEFAULT_SENSOR, in_frustum
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
    """One bounding-box mode of a map object.

    Holds the full list of assigned observations (centroids, orientations,
    extents) so that merges can re-pool; the mean box and Gaussian centroid
    are recomputed after every change.

    A finalized map orders each object's configurations by sample count,
    most first; ties keep founding order.
    """

    def __init__(self, samples, orientations, extents_list):
        self.samples = [np.asarray(s, dtype=np.float64) for s in samples]
        self.orientations = [np.asarray(r, dtype=np.float64) for r in orientations]
        self.extents_list = [np.asarray(e, dtype=np.float64) for e in extents_list]
        self.box = None
        self.centroid = None
        self._recompute()

    @staticmethod
    def from_detection(box):
        return Configuration([box.centroid], [box.orientation], [box.extents])

    def add(self, box):
        self.samples.append(np.asarray(box.centroid, dtype=np.float64))
        self.orientations.append(np.asarray(box.orientation, dtype=np.float64))
        self.extents_list.append(np.asarray(box.extents, dtype=np.float64))
        self._recompute()

    def _recompute(self):
        self.centroid = GaussianCentroid.from_samples(np.array(self.samples))
        try:
            rot = rotation_mean(self.orientations)
        except DegenerateRotations:
            # antipodal orientations (merged flip modes) have no chordal mean;
            # keep the founding observation's orientation
            rot = self.orientations[0]
        mean_extents = np.mean(np.stack(self.extents_list), axis=0)
        self.box = OrientedBox.create(self.centroid.mean, rot, mean_extents)


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


@dataclass(frozen=True)
class GateDecision:
    kind: str  # new | update | merge
    indices: tuple = ()


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
    """Route a new centroid to the object's configurations by Mahalanobis gating.

    d2 < gate passes; equality fails. No configuration passing -> new; one ->
    update(k); several -> merge(those k).
    """
    passing = tuple(
        k
        for k, cfg in enumerate(obj.configurations)
        if mahalanobis_sq(centroid, cfg.centroid) < chi2_gate
    )
    if not passing:
        return GateDecision("new")
    if len(passing) == 1:
        return GateDecision("update", passing)
    return GateDecision("merge", passing)


def _world_box(box, pose):
    return OrientedBox.create(
        pose.apply(box.centroid), pose.rotation @ box.orientation, box.extents
    )


def integrate_keyframe(obj_map, frame, pose, sensor=DEFAULT_SENSOR):
    """Fuse one key frame's detections into the map (in place; returns the map).

    pose is world-from-camera. Matched detections update / split / merge
    configurations; unmatched ones found new objects; every object whose mean
    centroid falls in this frame's frustum gets an expected-view increment,
    and matched objects record this key frame in detected_keyframes.
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
                MapObject(det.label, [Configuration.from_detection(world_box)])
            )
            matched.add(len(obj_map.objects) - 1)
            continue
        j, _ = hit
        obj = obj_map.objects[j]
        decision = select_or_merge_configurations(
            obj, world_box.centroid, obj_map.fusion_params.chi2_gate
        )
        if decision.kind == "new":
            obj.configurations.append(Configuration.from_detection(world_box))
        elif decision.kind == "update":
            obj.configurations[decision.indices[0]].add(world_box)
        else:
            pool = [obj.configurations[k] for k in decision.indices]
            merged = Configuration(
                [s for c in pool for s in c.samples] + [world_box.centroid],
                [r for c in pool for r in c.orientations] + [world_box.orientation],
                [e for c in pool for e in c.extents_list] + [world_box.extents],
            )
            keep = decision.indices[0]
            obj.configurations[keep] = merged
            for k in sorted(decision.indices[1:], reverse=True):
                del obj.configurations[k]
        matched.add(j)
    for j in matched:
        obj_map.objects[j].detected_keyframes.add(frame_index)
    cam_from_world = pose.inverse()
    for obj in obj_map.objects:
        # an object is "expected in view" when any configuration mean is visible
        visible = any(
            in_frustum(cam_from_world.apply(cfg.centroid.mean), sensor)
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


def finalize_map(obj_map, total_keyframes):
    """Persistence filter, then duplicate folding. Returns a new finalized map.

    An object survives when update_count >= min_updates and update_count >=
    min_update_fraction * expected_view_count. Survivors are visited from
    most to least updated (ties keep founding order); one is folded into the
    first stronger kept object that it was never detected in the same key
    frame with, when a centroid of each lies within the sum of the two boxes'
    half-diagonals. A same-label object's configurations join the host's; a
    different-label object (a label confusion) adds only its detecting key
    frames. Each kept object's configurations are then ordered by sample
    count, most first. The input map is left unmodified. A finalized map is
    rejected.
    """
    if obj_map.finalized:
        raise ValueError("cannot finalize a finalized map")
    if obj_map.processed_keyframes > total_keyframes:
        raise ValueError(
            f"processed {obj_map.processed_keyframes} key frames > declared {total_keyframes}"
        )
    params = obj_map.fusion_params
    survivors = [
        obj
        for obj in obj_map.objects
        if obj.update_count >= params.min_updates
        and obj.update_count >= params.min_update_fraction * obj.expected_view_count
    ]
    kept = {}  # survivor index -> copy; the finalized map keeps founding order
    for i in sorted(range(len(survivors)), key=lambda i: -survivors[i].update_count):
        obj = survivors[i]
        host = next((h for h in kept.values() if _is_duplicate(h, obj)), None)
        if host is None:
            kept[i] = copy.deepcopy(obj)
            continue
        if host.label == obj.label:
            host.configurations.extend(copy.deepcopy(obj.configurations))
        # the fold gate makes the two key-frame sets disjoint, so the host's
        # update count grows by the folded object's
        host.detected_keyframes |= obj.detected_keyframes
    objects = [kept[i] for i in sorted(kept)]
    for obj in objects:
        obj.configurations.sort(key=lambda c: -c.centroid.sample_count)
    return ObjectMap(objects, params, obj_map.processed_keyframes, finalized=True)

