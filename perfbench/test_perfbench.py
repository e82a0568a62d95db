"""Fast checks that the benchmark measures the same program as run_benchmark.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import contextlib
import copy
from types import SimpleNamespace

import numpy as np
import pytest

import harness
import spans
from objreloc.geometry import RigidTransform, rotation_from_axis_angle
from objreloc.pipeline import RelocResult, relocalise, run_benchmark

NOISE_FIELDS = ("sigma_centroid", "sigma_scale", "sigma_rot", "p_flip", "flip_offset",
                "p_false_negative", "false_positive_rate", "p_label_confusion", "sigma_depth")


def reduced(cfg, lost_per_segment=3, zero_noise=False):
    """A workload with fewer key frames and lost frames on a smaller sensor."""
    cfg = copy.deepcopy(cfg)
    cfg["sensor"].update(width=80, height=60)
    cfg["mcs"].update(frame_count=100, keyframe_every=5)
    cfg["reloc"]["icp_max_points"] = 2000
    for seg in cfg["rs_segments"]:
        seg["frame_count"] = lost_per_segment
    if zero_noise:
        cfg["noise"].update(dict.fromkeys(NOISE_FIELDS, 0.0))
    return cfg


def relocalise_all(inputs):
    obj_map, surface = harness.build_map(inputs)
    return [relocalise(f, obj_map, surface, inputs.reloc) for f in inputs.lost]


@pytest.fixture(scope="module")
def views():
    return reduced(harness.load_workload("reloc-views"))


def test_harness_matches_run_benchmark(views):
    report = run_benchmark(views)
    inputs = harness.make_inputs(views, views["seed"])
    mine = harness.pipeline.evaluate(relocalise_all(inputs), inputs.gt_poses)
    keys = ("frame_id", "status", "reason", "trans_error_m", "rot_error_deg")
    assert [[e[k] for k in keys] for e in mine.per_frame] == \
        [[e[k] for k in keys] for e in report.per_frame]
    assert any(e["status"] == "success" for e in report.per_frame)


def test_pose_error_agrees_with_evaluate(views):
    inputs = harness.make_inputs(views, views["seed"])
    assert harness.evaluate_problems(relocalise_all(inputs), inputs.gt_poses) == []
    gt = RigidTransform(rotation_from_axis_angle([0, 0, 1], 10.0), np.array([1.0, 0.0, 0.5]))
    pose = RigidTransform(rotation_from_axis_angle([1, 1, 0], 30.0) @ gt.rotation,
                          gt.translation + [0.03, 0.0, -0.04])
    assert harness.pose_error(pose, gt) == pytest.approx((0.05, 30.0), abs=1e-12)
    res = RelocResult(7, "success", None, pose, pose, 3, 3)
    assert harness.evaluate_problems([res], {7: gt}) == []


def test_parallel_pass_repeats_the_first_round(views):
    inputs = harness.make_inputs(views, 11)
    tally, _, _ = harness.measure(inputs, 0.0, contextlib.nullcontext)
    metrics = harness.measure_parallel(inputs, tally, contextlib.nullcontext)
    # the sequential and the pooled round must give the first round's map and outcomes
    assert tally.failed == 0 and tally.problems == []
    assert tally.attempted == 4 * (len(inputs.keyframes) + len(inputs.lost))
    assert 0.0 < metrics["pipeline.pool_busy_ratio"]["value"] <= 1.0


def test_zero_noise_relocalises_every_frame():
    cfg = reduced(harness.load_workload("reloc-views"), lost_per_segment=2, zero_noise=True)
    cfg["sensor"].update(width=160, height=120)
    inputs = harness.make_inputs(cfg, 5)
    obj_map, _ = harness.build_map(inputs)
    assert harness.map_problems(obj_map, inputs.desk) == []
    ok, _, _ = harness.accuracy(relocalise_all(inputs), inputs.gt_poses)
    assert ok == len(inputs.lost) == 6


def test_self_time_subtracts_the_children():
    root = spans.Span("root", 0.0, 10.0)
    a = spans.Span("a", 1.0, 3.0, root)
    b = spans.Span("b", 4.0, 5.5, root)
    leaf = spans.Span("leaf", 1.5, 2.5, a)
    own = spans.self_times([root, a, b, leaf])
    assert own[id(root)] == pytest.approx(10.0 - 2.0 - 1.5)
    assert own[id(a)] == pytest.approx(1.0)
    assert own[id(b)] == pytest.approx(1.5)
    assert own[id(leaf)] == pytest.approx(1.0)


def test_missing_target_leaves_its_metrics_out():
    import objreloc.pipeline

    tracer = spans.Tracer()
    targets = (("objreloc.pipeline", "no_such_function", "registration.icp", None, None),
               ("objreloc.pipeline", "relocalise", "pipeline.relocalise", None, None),
               ("objreloc.no_such_module", "f", "registration.nn", None, None))
    original = objreloc.pipeline.relocalise
    with spans.instrument(tracer, targets) as missing:
        assert objreloc.pipeline.relocalise is not original
    assert objreloc.pipeline.relocalise is original
    assert missing == {"registration.icp": "objreloc.pipeline.no_such_function",
                       "registration.nn": "objreloc.no_such_module.f"}
    metrics = spans.per_module_metrics([], [], 1e-6, 1.0, missing)
    assert "registration.icp_p50_ms" not in metrics and "registration.nn_p50_ms" not in metrics
    assert "pipeline.reloc_self_p50_ms" not in metrics and "matching.p50_ms" in metrics


def test_checks_flag_broken_outputs():
    bad_reason = RelocResult(1, "failed", "Unknown")
    assert harness.frame_problems(bad_reason)
    pose = RigidTransform.identity()
    assert harness.frame_problems(RelocResult(2, "success", None, pose, pose, 3, 3)) == []
    truth = SimpleNamespace(label="mug", pose=RigidTransform(np.eye(3), np.zeros(3)))
    mode = SimpleNamespace(centroid=SimpleNamespace(mean=np.array([0.0, 0.0, 0.012])))
    ghost = SimpleNamespace(label="mug", configurations=[mode])
    desk = SimpleNamespace(objects=[truth])
    assert harness.map_problems(SimpleNamespace(objects=[]), desk)
    assert harness.map_problems(SimpleNamespace(objects=[ghost]), desk)
    mode.centroid.mean = np.array([0.0, 0.0, 0.008])
    assert harness.map_problems(SimpleNamespace(objects=[ghost]), desk) == []
    assert harness.map_problems(SimpleNamespace(objects=[ghost, ghost]), desk)
