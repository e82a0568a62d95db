"""End-to-end orchestration: map building, single-frame relocalisation,
evaluation, and the synthetic benchmark.

A benchmark run generates a scene, simulates detections along a map
construction trajectory, fuses them into an object map plus a surface model,
then relocalises every frame of the relocalisation segments (taken at
configured view-change offsets) and scores the results against ground truth
at the 5cm/5, 10cm/10, 15cm/15 thresholds.
"""

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .detections import NoiseParams, simulate_detections
from .errors import (
    CollinearPoints,
    ConfigError,
    MissingGroundTruth,
    NoConsensus,
    NoCorrespondences,
    NonDecreasingCost,
    TooFewPairs,
)
from .geometry import rotation_angle_between
from .mapping import FusionParams, ObjectMap, finalize_map, integrate_keyframe
from .matching import build_adjacency, greedy_select, principal_eigenvector
from .registration import ICP_MAX_POINTS, WeightedPair, depth_centroid_icp, ransac_ao
from .scene import (SURFACE_VOXEL, SensorParams, TrajectorySpec, build_surface_model,
                    generate_scene, generate_trajectory)
from .validation import check_integer

DEFAULT_THRESHOLDS = ((0.05, 5.0), (0.10, 10.0), (0.15, 15.0))

MIN_CORRESPONDENCES = 3


@dataclass(frozen=True)
class RelocParams:
    ransac_seed: int = 0
    use_icp: bool = True
    icp_max_points: int = ICP_MAX_POINTS

    def __post_init__(self):
        check_integer(self.icp_max_points, "icp_max_points", 1)


@dataclass
class RelocResult:
    frame_id: int
    status: str  # success | failed
    reason: str | None = None
    pose_ao: object = None
    pose_final: object = None
    correspondences_used: int = 0
    inlier_count: int = 0
    timing: dict = field(default_factory=dict)
    # ICP's report, left 0 / False when ICP did not run; icp_diverged means
    # pose_final fell back to pose_ao
    icp_iterations: int = 0
    icp_converged: bool = False
    icp_diverged: bool = False

    def __post_init__(self):
        if self.status == "success" and (
            self.pose_ao is None or self.pose_final is None or self.inlier_count < 3
        ):
            raise ValueError(f"frame {self.frame_id}: a success needs both poses and >= 3 inliers")


@dataclass
class BenchmarkReport:
    per_frame: list
    success_rate_at: dict  # (trans_m, rot_deg) -> rate
    config_echo: dict
    timing: dict = field(default_factory=dict)

    def to_dict(self, include_timing=True):
        doc = {
            "per_frame": self.per_frame,
            "success_rate_at": {
                f"{int(round(t * 100))}cm/{int(round(r))}deg": rate
                for (t, r), rate in self.success_rate_at.items()
            },
            "config_echo": self.config_echo,
        }
        if include_timing:
            doc["timing"] = self.timing
        return doc

    def canonical_json(self, include_timing=False):
        return json.dumps(self.to_dict(include_timing), sort_keys=True, separators=(",", ":"))


def build_map(frames, fusion=None, sensor=None, scene=None, surface_sigma_depth=0.0,
              surface_seed=0, voxel=SURFACE_VOXEL):
    """Fuse posed key frames into a finalized object map (+ surface model).

    Every frame must carry camera_pose_gt; in simulation that pose stands in
    for the SLAM tracker. The surface model is rendered from the same poses
    and requires the scene; pass scene=None to skip it (AO-only pipelines).
    """
    sensor = sensor or SensorParams()
    obj_map = ObjectMap(fusion_params=fusion or FusionParams())
    poses = []
    for frame in frames:
        if frame.camera_pose_gt is None:
            raise ValueError(f"frame {frame.frame_id} has no pose; map construction needs poses")
        integrate_keyframe(obj_map, frame, frame.camera_pose_gt, sensor)
        poses.append(frame.camera_pose_gt)
    final = finalize_map(obj_map, len(poses))
    surface = None
    if scene is not None:
        surface = build_surface_model(scene, poses, sensor, surface_sigma_depth, surface_seed, voxel)
    return final, surface


def _to_weighted_pairs(selected):
    return [
        WeightedPair(p.frame_centroid, p.map_centroid_mean, p.map_centroid_cov)
        for p in selected.pairs
    ]


def relocalise(frame, obj_map, surface, params=None):
    """Relocalise one lost frame against a finalized map.

    Chain: spectral matching -> RANSAC + probabilistic absolute orientation
    -> depth-centroid ICP. A frame that cannot be relocalised yields a failed
    result (reason TooFewObjects, NoConsensus, NoCorrespondences, ...), never
    an exception. When ICP diverges (ends at a higher cost than it started
    from, beyond rounding), its pose is discarded: the result keeps the AO
    pose and sets icp_diverged.
    The frame's ground-truth pose, if any, is stripped before any processing.
    """
    params = params or RelocParams()
    frame = frame.strip_gt()
    timing = {"match_ms": 0.0, "ao_ms": 0.0, "icp_ms": 0.0}
    t0 = time.perf_counter()
    # the three matching steps are called here, on this module's names, so
    # that perfbench/spans.py can time each of them
    candidates, adjacency = build_adjacency(frame.objects, obj_map)
    eigvec, _ = principal_eigenvector(adjacency)
    selected = greedy_select(candidates, eigvec)
    timing["match_ms"] = (time.perf_counter() - t0) * 1000.0
    if len(selected) < MIN_CORRESPONDENCES:
        return RelocResult(frame.frame_id, "failed", "TooFewObjects",
                           correspondences_used=len(selected), timing=timing)
    pairs = _to_weighted_pairs(selected)
    t0 = time.perf_counter()
    try:
        ao = ransac_ao(pairs, seed=params.ransac_seed)
    except (NoConsensus, TooFewPairs, CollinearPoints, NonDecreasingCost) as exc:
        timing["ao_ms"] = (time.perf_counter() - t0) * 1000.0
        return RelocResult(frame.frame_id, "failed", type(exc).__name__,
                           correspondences_used=len(selected), timing=timing)
    timing["ao_ms"] = (time.perf_counter() - t0) * 1000.0
    pose_final = ao.pose
    icp = None
    if params.use_icp:
        if surface is None:
            raise ValueError("use_icp requires a surface model")
        inlier_pairs = [pairs[i] for i in ao.inliers]
        t0 = time.perf_counter()
        try:
            icp = depth_centroid_icp(frame.depth_points, surface, inlier_pairs, ao.pose,
                                     max_points=params.icp_max_points)
        except NoCorrespondences as exc:
            timing["icp_ms"] = (time.perf_counter() - t0) * 1000.0
            return RelocResult(frame.frame_id, "failed", type(exc).__name__,
                               correspondences_used=len(selected),
                               inlier_count=len(ao.inliers), timing=timing)
        timing["icp_ms"] = (time.perf_counter() - t0) * 1000.0
        pose_final = ao.pose if icp.diverged else icp.pose
    return RelocResult(
        frame.frame_id, "success", None, ao.pose, pose_final,
        correspondences_used=len(selected), inlier_count=len(ao.inliers),
        timing=timing,
        icp_iterations=icp.iterations if icp else 0,
        icp_converged=icp.converged if icp else False,
        icp_diverged=icp.diverged if icp else False,
    )


def evaluate(results, gt_poses, thresholds=DEFAULT_THRESHOLDS, config_echo=None):
    """Score relocalisation results against ground-truth poses.

    A frame succeeds at (t, r) iff its status is success and the final pose
    is within t metres and r degrees of ground truth. Raises
    MissingGroundTruth when a result has no ground-truth pose.
    """
    per_frame = []
    for res in sorted(results, key=lambda r: r.frame_id):
        if res.frame_id not in gt_poses:
            raise MissingGroundTruth(f"no ground-truth pose for frame {res.frame_id}")
        gt = gt_poses[res.frame_id]
        entry = {
            "frame_id": res.frame_id,
            "status": res.status,
            "reason": res.reason,
            "trans_error_m": None,
            "rot_error_deg": None,
        }
        if res.pose_final is not None:
            entry["trans_error_m"] = float(
                np.linalg.norm(res.pose_final.translation - gt.translation)
            )
            entry["rot_error_deg"] = rotation_angle_between(res.pose_final.rotation, gt.rotation)
        per_frame.append(entry)
    rates = {}
    for t_thr, r_thr in thresholds:
        ok = sum(
            1
            for e in per_frame
            if e["status"] == "success"
            and e["trans_error_m"] is not None
            and e["trans_error_m"] < t_thr
            and e["rot_error_deg"] < r_thr
        )
        rates[(float(t_thr), float(r_thr))] = ok / len(per_frame) if per_frame else 0.0
    return BenchmarkReport(per_frame, rates, config_echo or {})


# ---------------------------------------------------------------------------
# benchmark configuration


def _defaults(params_cls, seed_field=None):
    """Field defaults of a params dataclass, less the field the top-level seed sets."""
    return {k: v for k, v in asdict(params_cls()).items() if k != seed_field}


def _default_config():
    # mcs and scene stay literal: the default map-construction orbit is 1.1 m
    # high and 200 frames long where TrajectorySpec defaults to 1.0 m and 40
    # frames, and keyframe_every has no TrajectorySpec field; generate_scene
    # takes keywords, not a params class.
    return {
        "seed": 0,
        "scene": {
            "object_count": 5,
            "label_mix": None,
            "clutter_count": 0,
            "plane_height": 0.0,
            "plane_extent": 1.0,
        },
        "noise": _defaults(NoiseParams, "seed"),
        "sensor": _defaults(SensorParams),
        "mcs": {
            "kind": "orbit_horizontal",
            "radius": 1.4,
            "height": 1.1,
            "angle_range": 120.0,
            "frame_count": 200,
            "keyframe_every": 5,
            "lookat": [0.0, 0.0, 0.0],
        },
        "rs_segments": [
            {"kind": "h", "view_change_deg": 30.0, "sweep_deg": 20.0, "frame_count": 34,
             "radius": None, "height": None},
            {"kind": "h", "view_change_deg": 120.0, "sweep_deg": 20.0, "frame_count": 33,
             "radius": None, "height": None},
            {"kind": "h", "view_change_deg": 180.0, "sweep_deg": 20.0, "frame_count": 33,
             "radius": None, "height": None},
        ],
        "fusion": _defaults(FusionParams),
        "reloc": _defaults(RelocParams, "ransac_seed"),
        "surface": {"voxel": SURFACE_VOXEL, "sigma_depth": 0.0},
        "thresholds": [list(t) for t in DEFAULT_THRESHOLDS],
    }


def _merge_config(defaults, user, path=""):
    out = {}
    for key, dval in defaults.items():
        kpath = f"{path}.{key}" if path else key
        if user is None or key not in user:
            out[key] = dval
            continue
        uval = user[key]
        if isinstance(dval, dict):
            if not isinstance(uval, dict):
                raise ConfigError(f"{kpath}: expected an object")
            out[key] = _merge_config(dval, uval, kpath)
        else:
            out[key] = uval
    if user:
        for key in user:
            if key not in defaults:
                kpath = f"{path}.{key}" if path else key
                raise ConfigError(f"{kpath}: unknown field")
    return out


def _check(cond, path, msg):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def resolve_config(user=None):
    """Merge a user config over the defaults and validate it.

    rs_segments replaces the default list wholesale when given. The sensor,
    noise, fusion and reloc sections are checked by their params classes. All
    resolved values are echoed into the benchmark report.
    """
    user = dict(user or {})
    segments = user.pop("rs_segments", None)
    cfg = _merge_config(_default_config(), user)
    if segments is not None:
        seg_default = _default_config()["rs_segments"][0]
        cfg["rs_segments"] = [
            _merge_config(seg_default, seg, f"rs_segments[{i}]")
            for i, seg in enumerate(segments)
        ]
    _check(cfg["scene"]["object_count"] >= 0, "scene.object_count", "must be >= 0")
    _check(cfg["mcs"]["frame_count"] >= 1, "mcs.frame_count", "must be >= 1")
    _check(cfg["mcs"]["keyframe_every"] >= 1, "mcs.keyframe_every", "must be >= 1")
    for i, seg in enumerate(cfg["rs_segments"]):
        _check(seg["kind"] in ("h", "v"), f"rs_segments[{i}].kind", "must be 'h' or 'v'")
        _check(seg["frame_count"] >= 1, f"rs_segments[{i}].frame_count", "must be >= 1")
    for section, params_cls in (("sensor", SensorParams), ("noise", NoiseParams),
                                ("fusion", FusionParams), ("reloc", RelocParams)):
        try:
            params_cls(**cfg[section])
        except ValueError as exc:
            raise ConfigError(f"{section}.{exc}") from exc
    return cfg


def run_benchmark(config=None, ablate_icp=False):
    """Run the full synthetic benchmark described by config.

    Builds the map from the map-construction segment, relocalises every
    relocalisation-segment frame and reports success rates. ablate_icp=True
    evaluates the AO-only pipeline (skips the ICP refinement), mirroring the
    with/without-ICP comparison.
    """
    cfg = resolve_config(config)
    if ablate_icp:
        cfg["reloc"]["use_icp"] = False
    seed = int(cfg["seed"])
    sensor = SensorParams(**cfg["sensor"])
    noise = NoiseParams(**cfg["noise"], seed=seed)
    fusion = FusionParams(**cfg["fusion"])
    reloc_params = RelocParams(**cfg["reloc"], ransac_seed=seed)
    timing = {"simulate_ms": 0.0, "build_map_ms": 0.0}

    scene = generate_scene(
        object_count=cfg["scene"]["object_count"],
        label_mix=cfg["scene"]["label_mix"],
        seed=seed,
        plane_height=cfg["scene"]["plane_height"],
        plane_extent=cfg["scene"]["plane_extent"],
        clutter_count=cfg["scene"]["clutter_count"],
    )
    mcs = cfg["mcs"]
    mcs_spec = TrajectorySpec(
        kind=mcs["kind"],
        radius=mcs["radius"],
        height=mcs["height"],
        angle_range=mcs["angle_range"],
        frame_count=mcs["frame_count"],
        lookat=tuple(mcs["lookat"]),
        start_deg=-mcs["angle_range"] / 2.0,
    )
    kf_poses = generate_trajectory(mcs_spec)[:: mcs["keyframe_every"]]
    t0 = time.perf_counter()
    kf_frames = [
        simulate_detections(scene, pose, noise, fid, sensor)
        for fid, pose in enumerate(kf_poses)
    ]
    timing["simulate_ms"] = (time.perf_counter() - t0) * 1000.0
    t0 = time.perf_counter()
    obj_map, surface = build_map(
        kf_frames,
        fusion,
        sensor,
        scene=scene if reloc_params.use_icp else None,
        surface_sigma_depth=cfg["surface"]["sigma_depth"],
        surface_seed=seed,
        voxel=cfg["surface"]["voxel"],
    )
    timing["build_map_ms"] = (time.perf_counter() - t0) * 1000.0

    rs_frames = []
    gt_poses = {}
    for si, seg in enumerate(cfg["rs_segments"]):
        kind = "orbit_horizontal" if seg["kind"] == "h" else "arc_vertical"
        spec = TrajectorySpec(
            kind=kind,
            radius=seg["radius"] if seg["radius"] is not None else mcs["radius"],
            height=seg["height"] if seg["height"] is not None else mcs["height"],
            angle_range=seg["sweep_deg"],
            frame_count=seg["frame_count"],
            lookat=tuple(mcs["lookat"]),
            start_deg=seg["view_change_deg"] - seg["sweep_deg"] / 2.0,
        )
        for k, pose in enumerate(generate_trajectory(spec)):
            fid = 100000 * (si + 1) + k
            frame = simulate_detections(scene, pose, noise, fid, sensor)
            gt_poses[fid] = pose
            rs_frames.append(frame.strip_gt())

    results = [relocalise(f, obj_map, surface, reloc_params) for f in rs_frames]

    echo = json.loads(json.dumps(cfg))
    thresholds = [tuple(t) for t in cfg["thresholds"]]
    report = evaluate(results, gt_poses, thresholds, config_echo=echo)
    stage_means = {
        stage: float(np.mean([r.timing.get(stage, 0.0) for r in results])) if results else 0.0
        for stage in ("match_ms", "ao_ms", "icp_ms")
    }
    report.timing = {**timing, **stage_means}
    return report
