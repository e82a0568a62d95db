"""Workload inputs, measured rounds and output checks of the objreloc benchmark.

A workload file under workloads/ is a config that
objreloc.pipeline.resolve_config accepts. Its "seed" fixes every simulated
input: the desk, the key frames and the lost frames with their noise. The
run's seed sets the order in which the lost frames arrive at relocalisation,
and seeds RANSAC. With the run's seed equal to the file's
seed, the frames and every parameter are exactly those of
run_benchmark(config), with the same frame ids.

The noise draws are pinned because they set how much work a lost frame
costs: between 6 and 16 of the 100 lost frames of reloc-views run ICP to its
iteration cap depending on the draw, which moves relocalisation throughput by
about a fifth from seed to seed (README.md).

The program is driven only through its public functions, looked up on their
modules at call time so that the traced mode (spans.py) sees every call.
"""

import hashlib
import json
import resource
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from objreloc import detections, pipeline, scene
from objreloc.detections import NoiseParams
from objreloc.mapping import FusionParams
from objreloc.pipeline import RelocParams
from objreloc.scene import SensorParams, TrajectorySpec

WORKLOAD_DIR = Path(__file__).resolve().parent / "workloads"

# reasons relocalise gives for a frame it declines: the exceptions it catches
DECLINE_REASONS = frozenset(
    ("TooFewObjects", "TooFewPairs", "CollinearPoints", "NoConsensus",
     "NonDecreasingCost", "NoCorrespondences")
)
MAP_CENTROID_TOL_M = 0.01
ROTATION_TOL = 1e-6
# agreement with evaluate(): the angle formula here is chordal, evaluate's is
# arccos of the trace, which loses ~1e-6 degrees near zero
EVAL_TRANS_TOL_M = 1e-12
EVAL_ROT_TOL_DEG = 1e-4
OK_TRANS_M, OK_ROT_DEG = 0.05, 5.0
# two rounds give at least 200 latency samples, 10 of them beyond p95, and
# show whether rounds repeat
MIN_ROUNDS = 2
# the frame pool of the traced run's parallel pass; the host has 2 CPUs
POOL_THREADS = 2


def load_workload(name):
    """Resolved config of a pinned workload; raises FileNotFoundError for an unknown name."""
    with open(WORKLOAD_DIR / f"{name}.json") as fh:
        return pipeline.resolve_config(json.load(fh))


@dataclass
class Inputs:
    cfg: dict
    desk: object
    sensor: SensorParams
    fusion: FusionParams
    reloc: RelocParams
    keyframes: list
    lost: list  # ground truth stripped
    gt_poses: dict  # lost frame id -> world-from-camera pose

    def digest(self):
        """A hash that differs whenever any simulated input differs."""
        h = hashlib.sha256()
        for frame in self.keyframes + self.lost:
            h.update(frame.depth_points.tobytes())
            for det in frame.objects:
                for part in (det.label.encode(), det.box.centroid.tobytes(),
                             det.box.orientation.tobytes(), det.box.extents.tobytes()):
                    h.update(part)
        return h.digest()


def make_inputs(cfg, seed):
    """Scene, trajectories and simulated frames, as run_benchmark makes them;
    the lost frames in the order `seed` gives them."""
    sensor = SensorParams(**cfg["sensor"])
    noise = NoiseParams(**cfg["noise"], seed=cfg["seed"])
    sc = cfg["scene"]
    desk = scene.generate_scene(
        object_count=sc["object_count"], label_mix=sc["label_mix"], seed=cfg["seed"],
        plane_height=sc["plane_height"], plane_extent=sc["plane_extent"],
        clutter_count=sc["clutter_count"],
    )
    mcs = cfg["mcs"]
    lookat = tuple(mcs["lookat"])
    kf_poses = scene.generate_trajectory(TrajectorySpec(
        kind=mcs["kind"], radius=mcs["radius"], height=mcs["height"],
        angle_range=mcs["angle_range"], frame_count=mcs["frame_count"], lookat=lookat,
        start_deg=-mcs["angle_range"] / 2.0,
    ))[:: mcs["keyframe_every"]]
    keyframes = [
        detections.simulate_detections(desk, pose, noise, fid, sensor)
        for fid, pose in enumerate(kf_poses)
    ]
    lost, gt_poses = [], {}
    for si, seg in enumerate(cfg["rs_segments"]):
        spec = TrajectorySpec(
            kind="orbit_horizontal" if seg["kind"] == "h" else "arc_vertical",
            radius=seg["radius"] if seg["radius"] is not None else mcs["radius"],
            height=seg["height"] if seg["height"] is not None else mcs["height"],
            angle_range=seg["sweep_deg"], frame_count=seg["frame_count"], lookat=lookat,
            start_deg=seg["view_change_deg"] - seg["sweep_deg"] / 2.0,
        )
        for k, pose in enumerate(scene.generate_trajectory(spec)):
            fid = 100000 * (si + 1) + k
            lost.append(detections.simulate_detections(desk, pose, noise, fid, sensor).strip_gt())
            gt_poses[fid] = pose
    lost = [lost[i] for i in np.random.default_rng(seed).permutation(len(lost))]
    return Inputs(cfg, desk, sensor, FusionParams(**cfg["fusion"]),
                  RelocParams(**cfg["reloc"], ransac_seed=seed), keyframes, lost, gt_poses)


def build_map(inputs, keyframes=None):
    return pipeline.build_map(
        inputs.keyframes if keyframes is None else keyframes, inputs.fusion, inputs.sensor,
        scene=inputs.desk if inputs.reloc.use_icp else None,
        surface_sigma_depth=inputs.cfg["surface"]["sigma_depth"], surface_seed=inputs.cfg["seed"],
        voxel=inputs.cfg["surface"]["voxel"],
    )


def set_up(cfg, seed, repeats):
    """Make the inputs `repeats` times, then settle lazy set-up.

    Returns (inputs, seconds, problems). The seconds are those of the median
    generation plus the warm-up; the hashing that checks that every repeat
    gives the same inputs is not counted. Each repeat is dropped before the
    next is made and the last one is kept, so one copy is alive at a time.
    The warm-up, a map build over the first key frame, pays once-only costs
    such as the first KD-tree's import of scipy.spatial here and not inside a
    timed round.
    """
    gen_s, digests, inputs = [], [], None
    for _ in range(repeats):
        inputs = None
        t0 = time.perf_counter()
        inputs = make_inputs(cfg, seed)
        gen_s.append(time.perf_counter() - t0)
        digests.append(inputs.digest())
    problems = [] if len(set(digests)) == 1 else ["the same seed gave different inputs"]
    t0 = time.perf_counter()
    build_map(inputs, inputs.keyframes[:1])
    return inputs, statistics.median(gen_s) + time.perf_counter() - t0, problems


# ---------------------------------------------------------------------------
# checks made apart from the program


def map_problems(obj_map, desk):
    """One map object per scene object, same label, main mode within 1 cm."""
    problems = []
    truths = desk.objects
    if len(obj_map.objects) != len(truths):
        problems.append(f"map has {len(obj_map.objects)} objects, the scene {len(truths)}")
    claimed = set()
    for k, obj in enumerate(obj_map.objects):
        mean = obj.configurations[0].centroid.mean
        dist = [float(np.linalg.norm(mean - t.pose.translation)) for t in truths]
        j = int(np.argmin(dist))
        if truths[j].label != obj.label or dist[j] >= MAP_CENTROID_TOL_M or j in claimed:
            problems.append(f"map object {k} ({obj.label}) is {dist[j] * 1000:.1f} mm from "
                            f"scene object {j} ({truths[j].label})")
        claimed.add(j)
    return problems


def frame_problems(res):
    """A success has a proper rotation and >= 3 inliers; a decline a documented reason."""
    if res.status == "success":
        rot = res.pose_final.rotation
        if (abs(np.linalg.det(rot) - 1.0) > ROTATION_TOL
                or np.abs(rot.T @ rot - np.eye(3)).max() > ROTATION_TOL):
            return [f"frame {res.frame_id}: final rotation is not proper"]
        if res.inlier_count < 3:
            return [f"frame {res.frame_id}: success with {res.inlier_count} inliers"]
        return []
    if res.status == "failed" and res.reason in DECLINE_REASONS:
        return []
    return [f"frame {res.frame_id}: status {res.status!r}, reason {res.reason!r}"]


def pose_error(pose, gt):
    """(translation error m, rotation error deg), from the chordal distance of the rotations."""
    chord = np.linalg.norm(pose.rotation - gt.rotation) / (2.0 * np.sqrt(2.0))
    return (float(np.linalg.norm(pose.translation - gt.translation)),
            float(np.degrees(2.0 * np.arcsin(min(chord, 1.0)))))


def evaluate_problems(results, gt_poses):
    """Errors recomputed here must agree with evaluate()'s."""
    report = pipeline.evaluate(results, gt_poses)
    problems = []
    for entry in report.per_frame:
        res = next(r for r in results if r.frame_id == entry["frame_id"])
        if res.pose_final is None:
            if entry["trans_error_m"] is not None:
                problems.append(f"frame {res.frame_id}: evaluate scores a frame with no pose")
            continue
        trans, rot = pose_error(res.pose_final, gt_poses[res.frame_id])
        if (abs(trans - entry["trans_error_m"]) > EVAL_TRANS_TOL_M
                or abs(rot - entry["rot_error_deg"]) > EVAL_ROT_TOL_DEG):
            problems.append(f"frame {res.frame_id}: evaluate gives {entry['trans_error_m']} m "
                            f"{entry['rot_error_deg']} deg, recomputed {trans} m {rot} deg")
    return problems


def outcome(res):
    """What must repeat exactly between rounds and thread counts."""
    pose = res.pose_final
    return (res.frame_id, res.status, res.reason, res.inlier_count,
            None if pose is None else (pose.rotation.tobytes(), pose.translation.tobytes()))


def map_outcome(obj_map):
    return [(o.label, [c.centroid.mean.tobytes() for c in o.configurations])
            for o in obj_map.objects]


# ---------------------------------------------------------------------------
# measured rounds


@dataclass
class Tally:
    """Operations attempted and failed, and what the checks found."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)  # operations that raised
    problems: list = field(default_factory=list)  # outputs that broke a check
    first_map: list | None = None
    first_outcomes: list | None = None
    first_results: list | None = None


def _timed_relocalise(frame, obj_map, surface, params):
    t0 = time.perf_counter()
    try:
        res = pipeline.relocalise(frame, obj_map, surface, params)
    except Exception as exc:  # a raise is a failed operation, counted, not fatal
        return None, time.perf_counter() - t0, f"frame {frame.frame_id}: {exc!r}"
    return res, time.perf_counter() - t0, None


def one_round(inputs, pool, tally, samples, span):
    """Fuse every key frame, then relocalise every lost frame; check both."""
    n_kf, n_lost = len(inputs.keyframes), len(inputs.lost)
    tally.attempted += n_kf + n_lost
    t0 = time.perf_counter()
    try:
        obj_map, surface = build_map(inputs)
    except Exception as exc:  # counted as failed operations, not fatal
        tally.failed += n_kf + n_lost
        tally.errors.append(f"build_map: {exc!r}")
        return
    samples["map_build_s"].append(time.perf_counter() - t0)
    problems = map_problems(obj_map, inputs.desk)
    if problems:
        tally.failed += n_kf
        tally.problems += problems
    if tally.first_map is None:
        tally.first_map = map_outcome(obj_map)
    elif map_outcome(obj_map) != tally.first_map:
        tally.problems.append("the map differs from the first round's")

    def call(frame):
        return _timed_relocalise(frame, obj_map, surface, inputs.reloc)

    with span("bench.batch"):
        t0 = time.perf_counter()
        timed = [call(f) for f in inputs.lost] if pool is None else list(pool.map(call, inputs.lost))
        samples["batch_s"].append(time.perf_counter() - t0)
    results = []
    for res, dt, error in timed:
        samples["reloc_s"].append(dt)
        if res is None:
            tally.failed += 1
            tally.errors.append(error)
            continue
        problems = frame_problems(res)
        if problems:
            tally.failed += 1
            tally.problems += problems
        results.append(res)
    outcomes = [outcome(r) for r in results]
    if tally.first_outcomes is None:
        tally.first_outcomes = outcomes
        tally.first_results = results
        tally.problems.extend(evaluate_problems(results, inputs.gt_poses))
    elif outcomes != tally.first_outcomes:
        tally.problems.append("per-frame outcomes differ from the first round's")


def new_samples():
    return {"map_build_s": [], "batch_s": [], "reloc_s": []}


def measure(inputs, seconds, span):
    """Whole rounds, one lost frame after another, until about `seconds` have
    passed, and at least MIN_ROUNDS."""
    tally, samples = Tally(), new_samples()
    t0 = time.perf_counter()
    rounds = 0
    while True:
        one_round(inputs, None, tally, samples, span)
        rounds += 1
        elapsed = time.perf_counter() - t0
        if rounds >= MIN_ROUNDS and elapsed + 0.5 * elapsed / rounds >= seconds:
            return tally, samples, rounds


def measure_parallel(inputs, tally, span, threads=POOL_THREADS):
    """One round with the lost frames one after another, then one on a pool of
    `threads`; their per-layer metrics. Meant for a process that may use every
    CPU, so that the frame pool and the KD-tree's query threads can spread."""
    alone, pooled = new_samples(), new_samples()
    one_round(inputs, None, tally, alone, span)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        one_round(inputs, pool, tally, pooled, span)
    busy_s, wall_s = sum(pooled["reloc_s"]), max(sum(pooled["batch_s"]), 1e-12)
    metric = {
        "pipeline.unpinned_reloc_p50_ms": (percentile(alone["reloc_s"], 50) * 1e3, "ms"),
        "pipeline.pool_fps": (len(pooled["reloc_s"]) / wall_s, "frames/s"),
        "pipeline.pool_busy_ratio": (busy_s / (threads * wall_s), "ratio"),
    }
    return {name: {"value": float(value), "unit": unit} for name, (value, unit) in metric.items()}


def end_to_end_metrics(inputs, tally, samples, setup_s):
    """The metrics a user sees, by name, with value and unit."""
    ok, trans_mm, rot_deg = accuracy(tally.first_results or [], inputs.gt_poses)
    reloc_ms = [s * 1000.0 for s in samples["reloc_s"]]
    metric = {
        "setup_s": (setup_s, "s"),
        "map_build_s": (median(samples["map_build_s"]), "s"),
        "reloc_p50_ms": (percentile(reloc_ms, 50), "ms"),
        "reloc_p95_ms": (percentile(reloc_ms, 95), "ms"),
        "reloc_fps": (len(reloc_ms) / max(sum(samples["batch_s"]), 1e-12), "frames/s"),
        "reloc_ok_5cm5deg": (ok, "count"),
        "trans_err_p50_mm": (median(trans_mm), "mm"),
        "rot_err_p50_deg": (median(rot_deg), "deg"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {name: {"value": float(value), "unit": unit} for name, (value, unit) in metric.items()}


def accuracy(results, gt_poses):
    """(frames within 5 cm and 5 deg, translation errors mm, rotation errors deg)."""
    posed = [(r, *pose_error(r.pose_final, gt_poses[r.frame_id]))
             for r in results if r.pose_final is not None]
    ok = sum(1 for r, trans, rot in posed
             if r.status == "success" and trans < OK_TRANS_M and rot < OK_ROT_DEG)
    return ok, [trans * 1000.0 for _, trans, _ in posed], [rot for _, _, rot in posed]


def reason_counts(results):
    counts = {}
    for r in results:
        key = "success" if r.status == "success" else r.reason
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def median(values):
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0
