import numpy as np
import pytest

from objreloc.detections import DetectedObject
from objreloc.geometry import OrientedBox, RigidTransform, rotation_from_axis_angle
from objreloc.mapping import Configuration, MapObject, ObjectMap
from objreloc.matching import (
    CandidateCorrespondence,
    CorrespondenceSet,
    build_adjacency,
    greedy_select,
    principal_eigenvector,
)
from objreloc.oracles import brute_force_one_to_one


def det(label, center, scale_half=0.05):
    box = OrientedBox(np.array(center, dtype=float), np.eye(3), [scale_half] * 3)
    return DetectedObject(label, box)


def map_of(dets):
    objects = [
        MapObject(d.label, [Configuration([d.box])])
        for d in dets
    ]
    return ObjectMap(objects)


class TestBuildAdjacency:
    def test_diagonal_equal_scales(self):
        m = map_of([det("mug", (0, 0, 0))])
        cands, a = build_adjacency([det("mug", (5, 5, 5))], m)
        assert len(cands) == 1
        assert a[0, 0] == 1.0

    def test_diagonal_scale_ratio(self):
        m = map_of([det("mug", (0, 0, 0), scale_half=0.05)])
        cands, a = build_adjacency([det("mug", (0, 0, 0), scale_half=0.10)], m)
        assert abs(a[0, 0] - 0.5) < 1e-12

    def test_offdiagonal_exponential(self):
        m = map_of([det("mug", (0, 0, 0)), det("bowl", (1.0, 0, 0))])
        frame = [det("mug", (0, 0, 0)), det("bowl", (1.5, 0, 0))]
        cands, a = build_adjacency(frame, m)
        assert len(cands) == 2
        # |d_f - d_m| = 0.5
        assert abs(a[0, 1] - np.exp(-0.5)) < 1e-12

    def test_conflicts_zeroed(self):
        m = map_of([det("mug", (0, 0, 0)), det("mug", (1, 0, 0))])
        frame = [det("mug", (0, 0, 0))]
        cands, a = build_adjacency(frame, m)
        assert len(cands) == 2  # one frame mug vs two map mugs
        assert a[0, 1] == 0.0 and a[1, 0] == 0.0

    def test_symmetric_nonnegative(self):
        rng = np.random.default_rng(0)
        m = map_of([det("mug", rng.uniform(-1, 1, 3)), det("bowl", rng.uniform(-1, 1, 3)),
                    det("can", rng.uniform(-1, 1, 3))])
        frame = [det("mug", rng.uniform(-1, 1, 3)), det("bowl", rng.uniform(-1, 1, 3)),
                 det("can", rng.uniform(-1, 1, 3))]
        _, a = build_adjacency(frame, m)
        assert np.array_equal(a, a.T)
        assert np.all(a >= 0.0)

    def test_empty_candidates(self):
        m = map_of([det("mug", (0, 0, 0))])
        cands, a = build_adjacency([det("bowl", (0, 0, 0))], m)
        assert cands == [] and a.shape == (0, 0)

    def test_uniform_scaling_preserves_diagonal(self):
        m1 = map_of([det("mug", (0, 0, 0), 0.05)])
        f1 = [det("mug", (0, 0, 0), 0.08)]
        m2 = map_of([det("mug", (0, 0, 0), 0.10)])
        f2 = [det("mug", (0, 0, 0), 0.16)]
        _, a1 = build_adjacency(f1, m1)
        _, a2 = build_adjacency(f2, m2)
        assert abs(a1[0, 0] - a2[0, 0]) < 1e-12


class TestPrincipalEigenvector:
    def test_scalar(self):
        v, degenerate = principal_eigenvector(np.array([[5.0]]))
        assert np.array_equal(v, [1.0])
        assert not degenerate

    def test_two_by_two(self):
        v, degenerate = principal_eigenvector(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(v, [1 / np.sqrt(2)] * 2, atol=1e-9)
        assert not degenerate

    def test_identity_degenerate(self):
        v, degenerate = principal_eigenvector(np.eye(3))
        np.testing.assert_allclose(v, np.full(3, 1 / np.sqrt(3)), atol=1e-12)
        assert degenerate

    def test_zero_matrix_degenerate(self):
        v, degenerate = principal_eigenvector(np.zeros((4, 4)))
        np.testing.assert_allclose(v, np.full(4, 0.5), atol=1e-12)
        assert degenerate

    def test_matches_eigh_on_random_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = rng.integers(2, 12)
            a = rng.uniform(0, 1, (n, n))
            a = 0.5 * (a + a.T)
            v, degenerate = principal_eigenvector(a)
            if degenerate:
                continue
            w, vecs = np.linalg.eigh(a)
            ref = vecs[:, -1]
            ref = ref if ref[np.argmax(np.abs(ref))] > 0 else -ref
            np.testing.assert_allclose(v, ref, atol=1e-7)


class TestGreedySelect:
    def test_singleton(self):
        c = CandidateCorrespondence(0, 0, 0, np.zeros(3), np.zeros(3), np.eye(3), 1.0, 1.0)
        out = greedy_select([c], np.array([0.9]))
        assert len(out) == 1

    def test_conflict_exclusivity(self):
        c0 = CandidateCorrespondence(0, 0, 0, np.zeros(3), np.zeros(3), np.eye(3), 1.0, 1.0)
        c1 = CandidateCorrespondence(0, 1, 0, np.zeros(3), np.ones(3), np.eye(3), 1.0, 1.0)
        out = greedy_select([c0, c1], np.array([0.9, 0.4]))
        assert len(out) == 1
        assert out.pairs[0].map_object_index == 0

    def test_score_floor_stops(self):
        c0 = CandidateCorrespondence(0, 0, 0, np.zeros(3), np.zeros(3), np.eye(3), 1.0, 1.0)
        c1 = CandidateCorrespondence(1, 1, 0, np.zeros(3), np.ones(3), np.eye(3), 1.0, 1.0)
        out = greedy_select([c0, c1], np.array([0.9, 1e-8]))
        assert len(out) == 1

    def test_one_to_one_invariant_enforced(self):
        c0 = CandidateCorrespondence(0, 0, 0, np.zeros(3), np.zeros(3), np.eye(3), 1.0, 1.0)
        c1 = CandidateCorrespondence(0, 1, 0, np.zeros(3), np.ones(3), np.eye(3), 1.0, 1.0)
        with pytest.raises(ValueError):
            CorrespondenceSet((c0, c1 ,))
        with pytest.raises(ValueError):
            CorrespondenceSet(
                (c0, CandidateCorrespondence(1, 0, 0, np.zeros(3), np.ones(3), np.eye(3), 1, 1)),
            )

    def test_equal_scores_select_lowest_index(self):
        def cand(frame_index, map_index):
            return CandidateCorrespondence(frame_index, map_index, 0, np.zeros(3), np.zeros(3),
                                           np.eye(3), 1.0, 1.0)

        # candidate 0 conflicts with none of the others and scores lower; 1, 2
        # and 3 tie exactly, and 2 and 3 each conflict with 1
        cands = [cand(0, 0), cand(1, 1), cand(1, 2), cand(2, 1)]
        out = greedy_select(cands, np.array([0.5, 0.8, 0.8, 0.8]))
        assert len(out) == 2
        assert out.pairs[0] is cands[1] and out.pairs[1] is cands[0]

    def test_four_objects_with_decoy(self):
        centers = np.array([[0.4, 0.0, 0.05], [-0.3, 0.2, 0.08], [0.1, -0.4, 0.04], [-0.1, -0.1, 0.12]])
        labels = ["mug", "bowl", "laptop", "can"]
        map_dets = [det(l, c) for l, c in zip(labels, centers)]
        m = map_of(map_dets + [det("mug", (0.9, 0.9, 0.05))])  # decoy map mug
        t = RigidTransform(rotation_from_axis_angle([0, 0, 1], 140.0), [0.2, -0.1, 0.0])
        inv = t.inverse()
        frame = [det(l, inv.apply(c)) for l, c in zip(labels, centers)]
        cands, a = build_adjacency(frame, m)
        eigvec, _ = principal_eigenvector(a)
        out = greedy_select(cands, eigvec)
        assert len(out) == 4
        chosen = {(p.frame_index, p.map_object_index) for p in out.pairs}
        assert chosen == {(0, 0), (1, 1), (2, 2), (3, 3)}
        oracle_set, best, second = brute_force_one_to_one(cands, eigvec)
        assert {(cands[i].frame_index, cands[i].map_object_index) for i in oracle_set} == chosen


def random_instance(rng):
    """Map + lost frame pair shaped like real pipeline inputs."""
    labels = ["mug", "bowl", "can", "laptop", "bottle", "camera"]
    n_map = rng.integers(3, 7)
    map_dets = []
    for _ in range(n_map):
        lab = labels[rng.integers(0, len(labels))]
        c = np.array([rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7), rng.uniform(0.02, 0.15)])
        map_dets.append(det(lab, c, scale_half=rng.uniform(0.03, 0.15)))
    m = map_of(map_dets)
    t = RigidTransform(
        rotation_from_axis_angle(rng.normal(size=3), rng.uniform(0, 180)), rng.uniform(-1, 1, 3)
    )
    inv = t.inverse()
    frame = []
    for i, d in enumerate(map_dets):
        if rng.uniform() < 0.75:
            c = inv.apply(d.box.centroid) + rng.normal(0, 0.01, 3)
            frame.append(det(d.label, c, scale_half=d.box.extents[0] * rng.uniform(0.9, 1.1)))
    for _ in range(rng.integers(0, 2)):  # decoy detections
        lab = labels[rng.integers(0, len(labels))]
        frame.append(det(lab, rng.uniform(-1, 1, 3), scale_half=rng.uniform(0.03, 0.15)))
    return frame, m


class TestAgainstBruteForce:
    def test_greedy_equals_exhaustive_on_random_instances(self):
        rng = np.random.default_rng(42)
        checked = 0
        tries = 0
        while checked < 100 and tries < 2000:
            tries += 1
            frame, m = random_instance(rng)
            cands, a = build_adjacency(frame, m)
            if not 1 <= len(cands) <= 10:
                continue
            eigvec, _ = principal_eigenvector(a)
            out = greedy_select(cands, eigvec)
            oracle_set, best, second = brute_force_one_to_one(cands, eigvec)
            if best - second <= 1e-6:
                continue
            checked += 1
            got = {(cands[i].frame_index, cands[i].map_object_index, cands[i].configuration_index)
                   for i in oracle_set}
            sel = {(p.frame_index, p.map_object_index, p.configuration_index) for p in out.pairs}
            assert sel == got, f"greedy {sel} != oracle {got}"
        assert checked == 100


class TestRigidInvariance:
    def test_selection_invariant_under_frame_rigid_transform(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            frame, m = random_instance(rng)
            if not frame:
                continue
            c0, a0 = build_adjacency(frame, m)
            g = RigidTransform(
                rotation_from_axis_angle(rng.normal(size=3), rng.uniform(0, 180)),
                rng.uniform(-2, 2, 3),
            )
            moved = [
                DetectedObject(
                    d.label,
                    OrientedBox(g.apply(d.box.centroid), g.rotation @ d.box.orientation,
                                d.box.extents),
                    d.confidence,
                )
                for d in frame
            ]
            c1, a1 = build_adjacency(moved, m)
            assert np.abs(a0 - a1).max() < 1e-9
            s0 = greedy_select(c0, principal_eigenvector(a0)[0])
            s1 = greedy_select(c1, principal_eigenvector(a1)[0])
            assert [
                (p.frame_index, p.map_object_index, p.configuration_index) for p in s0.pairs
            ] == [(p.frame_index, p.map_object_index, p.configuration_index) for p in s1.pairs]
