"""Exact nearest-neighbour index over a fixed point set, backed by scipy's cKDTree.

ICP queries every planar frame point against the surface model once per
iteration. Queries carry ICP's distance gate as an upper bound, which prunes
the tree search; a point with no surface point within it is a miss.

A query runs on the caller's thread. ICP queries at most 4,000 points at a
time, and at that size starting query threads costs more than splitting the
work saves. On a 2-vCPU host, the 408 queries of one reloc-views
relocalisation round (1.63 M points) took 1.21 s with one worker against
1.34 s with one per CPU when pinned to one CPU, and 1.27 s against 1.40 s on
both CPUs (medians of 9 rounds each). cKDTree releases the GIL while it
searches, so parallelism belongs to the caller, one frame per thread: 200 of
those queries took 0.65 s one after another on one thread and 0.43 s from a
pool of two threads (medians of 9).
"""

import numpy as np


class KDTreeIndex:
    """Nearest-neighbour queries with an optional distance upper bound.

    Read-only after construction, so threads may query one index at once;
    each query runs on its caller's thread (see the module docstring).
    """

    def __init__(self, points):
        from scipy.spatial import cKDTree

        self.points = np.ascontiguousarray(points, dtype=np.float64)
        self._tree = cKDTree(self.points, leafsize=32)

    def query(self, queries, upper_bound=np.inf):
        """Nearest reference point for each query within upper_bound.

        Returns (distances, indices); a miss yields (inf, -1).
        """
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        d, i = self._tree.query(q, workers=1, distance_upper_bound=upper_bound)
        i = np.where(np.isinf(d), -1, i).astype(np.int64)
        return d, i
