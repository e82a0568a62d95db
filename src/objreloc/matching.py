"""Correspondence matching between lost-frame objects and map objects.

Candidates are all label-equal (frame object, map configuration) pairs. A
pairwise-consistency adjacency matrix scores each candidate by box-scale
agreement on the diagonal and pairs of candidates by how well they preserve
inter-centroid distances off the diagonal; conflicting candidates (sharing a
frame object or a map object) get zero affinity. The principal eigenvector of
that matrix ranks candidates, and a greedy pass extracts a one-to-one set.
"""

from dataclasses import dataclass

import numpy as np

from .validation import as_vector3

SCORE_FLOOR = 1e-6


@dataclass(frozen=True)
class CandidateCorrespondence:
    """One potential frame-object-to-map-configuration match."""

    frame_index: int
    map_object_index: int
    configuration_index: int
    frame_centroid: np.ndarray
    map_centroid_mean: np.ndarray
    map_centroid_cov: np.ndarray
    frame_scale: float
    map_scale: float

    def __post_init__(self):
        object.__setattr__(self, "frame_centroid", as_vector3(self.frame_centroid, "frame_centroid"))
        object.__setattr__(self, "map_centroid_mean", as_vector3(self.map_centroid_mean, "map_centroid_mean"))


@dataclass(frozen=True)
class CorrespondenceSet:
    """Selected correspondences in selection order; no two share a frame
    object or a map object."""

    pairs: tuple

    def __post_init__(self):
        frames = [p.frame_index for p in self.pairs]
        maps = [p.map_object_index for p in self.pairs]
        if len(set(frames)) != len(frames) or len(set(maps)) != len(maps):
            raise ValueError("correspondence set violates one-to-one mapping")

    def __len__(self):
        return len(self.pairs)


def build_adjacency(frame_objects, obj_map):
    """Candidate list and pairwise-consistency matrix A.

    A[i, i] = min(s_f / s_m, s_m / s_f); A[i, j] = exp(-|d_f - d_m|)
    for compatible candidate pairs, 0 for conflicting ones. Distances are
    Euclidean between the two frame centroids and between the two map
    configuration means, in metres. Frame objects may be given in any rigid
    frame; only pairwise distances enter.
    """
    candidates = []
    for i, det in enumerate(frame_objects):
        for j, obj in enumerate(obj_map.objects):
            if obj.label != det.label:
                continue
            for k, cfg in enumerate(obj.configurations):
                candidates.append(
                    CandidateCorrespondence(
                        frame_index=i,
                        map_object_index=j,
                        configuration_index=k,
                        frame_centroid=det.box.centroid,
                        map_centroid_mean=cfg.centroid.mean,
                        map_centroid_cov=cfg.centroid.covariance,
                        frame_scale=det.box.scale,
                        map_scale=cfg.box.scale,
                    )
                )
    n = len(candidates)
    a = np.zeros((n, n))
    if n == 0:
        return candidates, a
    fc = np.array([c.frame_centroid for c in candidates])
    mc = np.array([c.map_centroid_mean for c in candidates])
    sf = np.array([c.frame_scale for c in candidates])
    sm = np.array([c.map_scale for c in candidates])
    df = np.linalg.norm(fc[:, None, :] - fc[None, :, :], axis=2)
    dm = np.linalg.norm(mc[:, None, :] - mc[None, :, :], axis=2)
    off = np.exp(-np.abs(df - dm))
    fi = np.array([c.frame_index for c in candidates])
    mi = np.array([c.map_object_index for c in candidates])
    compat = (fi[:, None] != fi[None, :]) & (mi[:, None] != mi[None, :])
    a = np.where(compat, off, 0.0)
    np.fill_diagonal(a, np.minimum(sf / sm, sm / sf))
    return candidates, a


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
    remain. Scores that are equal as floats resolve to the lowest candidate
    index. Scores that tie only in exact arithmetic (symmetric candidates on
    noise-free inputs, say) can differ in their last bits, in a way that
    depends on the eigen-solver, so their order is not fixed.
    """
    if len(candidates) != len(eigvec):
        raise ValueError("candidates and eigenvector lengths differ")
    fi = np.array([c.frame_index for c in candidates])
    mi = np.array([c.map_object_index for c in candidates])
    # taken and conflicting candidates score -inf; np.argmax returns the
    # first of equal values, which is the lowest-index tie rule
    score = np.array(eigvec, dtype=np.float64)
    chosen = []
    while len(score):
        best = int(np.argmax(score))
        if not score[best] > SCORE_FLOOR:
            break
        chosen.append(candidates[best])
        score[(fi == fi[best]) | (mi == mi[best])] = -np.inf
    return CorrespondenceSet(tuple(chosen))

