import numpy as np

from objreloc.detections import DetectedObject, FrameDetections
from objreloc.geometry import OrientedBox, RigidTransform, rotation_from_axis_angle
from objreloc.mapping import Configuration, MapObject, ObjectMap
from objreloc.matching import Candidates, build_adjacency, greedy_select, principal_eigenvector
from objreloc.oracles import brute_force_one_to_one
from objreloc.pipeline import relocalise


def det(label, center, scale_half=0.05):
    box = OrientedBox(np.array(center, dtype=float), np.eye(3), [scale_half] * 3)
    return DetectedObject(label, box)


def candidates(*indices):
    """Candidates of the given (frame index, map object index) pairs, each
    the only configuration of its map object, with placeholder geometry."""
    n = len(indices)
    fi, mi = np.array(indices, dtype=np.int64).reshape(n, 2).T
    return Candidates(fi, mi, np.zeros(n, dtype=np.int64), np.zeros((n, 3)), np.zeros((n, 3)),
                      np.tile(np.eye(3), (n, 1, 1)))


def rows(cands, selected):
    """(frame, map object, configuration) index triples of the selected candidates."""
    return [(int(cands.frame_index[i]), int(cands.map_object_index[i]),
             int(cands.configuration_index[i])) for i in selected]


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
        assert len(cands) == 0 and a.shape == (0, 0)
        for index in (cands.frame_index, cands.map_object_index, cands.configuration_index):
            assert index.shape == (0,) and index.dtype.kind == "i"
        assert cands.frame_centroids.shape == (0, 3) and cands.map_means.shape == (0, 3)
        assert cands.map_covs.shape == (0, 3, 3)
        eigvec, _ = principal_eigenvector(a)
        selected = greedy_select(cands, eigvec)
        assert selected.shape == (0,) and selected.dtype.kind == "i"
        # such a frame is a decline, not an exception
        res = relocalise(FrameDetections(7, [det("bowl", (0, 0, 0))]), m, None)
        assert (res.status, res.reason, res.correspondences_used) == ("failed", "TooFewObjects", 0)

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
        out = greedy_select(candidates((0, 0)), np.array([0.9]))
        assert out.tolist() == [0]

    def test_conflict_exclusivity(self):
        out = greedy_select(candidates((0, 0), (0, 1)), np.array([0.9, 0.4]))
        assert out.tolist() == [0]

    def test_score_floor_stops(self):
        out = greedy_select(candidates((0, 0), (1, 1)), np.array([0.9, 1e-8]))
        assert out.tolist() == [0]

    def test_selection_is_one_to_one(self):
        # every frame object against every map object, scored so that the
        # best candidates share a frame object or a map object
        cands = candidates(*[(f, m) for f in range(4) for m in range(5)])
        scores = np.random.default_rng(3).uniform(0.1, 1.0, len(cands))
        scores[[0, 1, 5, 10]] = [0.99, 0.98, 0.97, 0.96]  # (0, 0), (0, 1), (1, 0), (2, 0)
        out = greedy_select(cands, scores)
        assert out.dtype.kind == "i" and len(out) == 4 and out[0] == 0
        assert len(set(cands.frame_index[out])) == len(out)
        assert len(set(cands.map_object_index[out])) == len(out)
        assert not {1, 5, 10} & set(out.tolist())

    def test_equal_scores_select_lowest_index(self):
        # candidate 0 conflicts with none of the others and scores lower; 1, 2
        # and 3 tie exactly, and 2 and 3 each conflict with 1
        cands = candidates((0, 0), (1, 1), (1, 2), (2, 1))
        out = greedy_select(cands, np.array([0.5, 0.8, 0.8, 0.8]))
        assert out.tolist() == [1, 0]

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
        chosen = {(f, m) for f, m, _ in rows(cands, out)}
        assert chosen == {(0, 0), (1, 1), (2, 2), (3, 3)}
        oracle_set, best, second = brute_force_one_to_one(cands, eigvec)
        assert {(f, m) for f, m, _ in rows(cands, oracle_set)} == chosen


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
            # no frame object and no map object is selected twice
            assert len(set(cands.frame_index[out])) == len(out)
            assert len(set(cands.map_object_index[out])) == len(out)
            oracle_set, best, second = brute_force_one_to_one(cands, eigvec)
            if best - second <= 1e-6:
                continue
            checked += 1
            got = set(rows(cands, oracle_set))
            sel = set(rows(cands, out))
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
            assert rows(c0, s0) == rows(c1, s1)
