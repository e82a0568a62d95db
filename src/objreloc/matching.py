"""Correspondence matching between lost-frame objects and map objects.

Candidates are all label-equal (frame object, map configuration) pairs. A
pairwise-consistency adjacency matrix scores each candidate by box-scale
agreement on the diagonal and pairs of candidates by how well they preserve
inter-centroid distances off the diagonal; conflicting candidates (sharing a
frame object or a map object) get zero affinity. The principal eigenvector of
that matrix ranks candidates, and a greedy pass extracts a one-to-one set.

Candidates are stacked arrays, and the registration solvers take the selected
rows of them as they are. Nothing here checks them again: every value was
checked where it entered the program, the frame's boxes by DetectedObject
and OrientedBox (in FrameDetections), the map's centroids by
GaussianCentroid, and the settings by resolve_config.
"""

from dataclasses import dataclass

import numpy as np

SCORE_FLOOR = 1e-6


@dataclass(frozen=True)
class Candidates:
    """Candidate frame-object-to-map-configuration matches, one row each.

    frame_index, map_object_index and configuration_index are (n,) ints;
    frame_centroids (n, 3) are the frame boxes' centroids (camera frame),
    map_means (n, 3) and map_covs (n, 3, 3) the configurations' Gaussian
    centroids. Not checked here: OrientedBox checked the centroids and
    GaussianCentroid the means and covariances.
    """

    frame_index: np.ndarray
    map_object_index: np.ndarray
    configuration_index: np.ndarray
    frame_centroids: np.ndarray
    map_means: np.ndarray
    map_covs: np.ndarray

    def __len__(self):
        return len(self.frame_index)


def build_adjacency(frame_objects, obj_map):
    """Candidates and pairwise-consistency matrix A.

    A[i, i] = min(s_f / s_m, s_m / s_f); A[i, j] = exp(-|d_f - d_m|)
    for compatible candidate pairs, 0 for conflicting ones. Distances are
    Euclidean between the two frame centroids and between the two map
    configuration means, in metres. Frame objects may be given in any rigid
    frame; only pairwise distances enter.
    """
    rows = [(i, j, k, det.box, cfg)
            for i, det in enumerate(frame_objects)
            for j, obj in enumerate(obj_map.objects) if obj.label == det.label
            for k, cfg in enumerate(obj.configurations)]
    fi, mi, ki = (np.array([r[c] for r in rows], dtype=np.int64) for c in range(3))
    boxes = [r[3] for r in rows]
    cfgs = [r[4] for r in rows]
    fc = np.array([b.centroid for b in boxes]).reshape(-1, 3)
    mc = np.array([c.centroid.mean for c in cfgs]).reshape(-1, 3)
    covs = np.array([c.centroid.covariance for c in cfgs]).reshape(-1, 3, 3)
    sf = np.array([b.scale for b in boxes])
    sm = np.array([c.box.scale for c in cfgs])
    df = np.linalg.norm(fc[:, None, :] - fc[None, :, :], axis=2)
    dm = np.linalg.norm(mc[:, None, :] - mc[None, :, :], axis=2)
    compat = (fi[:, None] != fi[None, :]) & (mi[:, None] != mi[None, :])
    a = np.where(compat, np.exp(-np.abs(df - dm)), 0.0)
    np.fill_diagonal(a, np.minimum(sf / sm, sm / sf))
    return Candidates(fi, mi, ki, fc, mc, covs), a


def principal_eigenvector(a):
    """Unit eigenvector of the largest eigenvalue of the symmetric part of a.

    Returns (vector, degenerate flag). The sign is fixed so the
    largest-magnitude entry is positive. The flag is set for a zero matrix or
    when the top of the spectrum is (numerically) repeated; the vector is then
    not unique, and the uniform vector is returned in its place.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), True
    eigs, vecs = np.linalg.eigh(0.5 * (a + a.T))
    if not np.any(a) or (n > 1 and eigs[-1] - eigs[-2] <= 1e-9 * max(1.0, abs(eigs[-1]))):
        return np.full(n, 1.0 / np.sqrt(n)), True
    v = vecs[:, -1]
    return (v if v[np.argmax(np.abs(v))] > 0.0 else -v), False


def greedy_select(candidates, eigvec):
    """Greedy one-to-one selection by descending eigenvector component.

    Accept the best-scoring available candidate, drop everything conflicting
    with it, stop when the best remaining score is <= 1e-6 or no candidates
    remain. Returns the accepted candidates' indices, an int array in
    selection order; no two share a frame object or a map object. Scores
    that are equal as floats resolve to the lowest candidate index. Scores
    that tie only in exact arithmetic (symmetric candidates on noise-free
    inputs, say) can differ in their last bits, in a way that depends on the
    eigen-solver, so their order is not fixed.
    """
    if len(candidates) != len(eigvec):
        raise ValueError("candidates and eigenvector lengths differ")
    fi, mi = candidates.frame_index, candidates.map_object_index
    # taken and conflicting candidates score -inf; np.argmax returns the
    # first of equal values, which is the lowest-index tie rule
    score = np.array(eigvec, dtype=np.float64)
    chosen = []
    while len(score):
        best = int(np.argmax(score))
        if not score[best] > SCORE_FLOOR:
            break
        chosen.append(best)
        score[(fi == fi[best]) | (mi == mi[best])] = -np.inf
    return np.array(chosen, dtype=np.int64)
