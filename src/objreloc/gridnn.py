"""Exact nearest-neighbour index over a fixed point set, backed by scipy's cKDTree.

ICP queries every planar frame point against the surface model once per
iteration. Queries carry ICP's distance gate as an upper bound, which prunes
the tree search; a point with no surface point within it is a miss.
"""

import numpy as np


class KDTreeIndex:
    """Nearest-neighbour queries with an optional distance upper bound."""

    def __init__(self, points):
        from scipy.spatial import cKDTree

        self.points = np.ascontiguousarray(points, dtype=np.float64)
        self._tree = cKDTree(self.points, leafsize=32)

    def query(self, queries, upper_bound=np.inf):
        """Nearest reference point for each query within upper_bound.

        Returns (distances, indices); a miss yields (inf, -1).
        """
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        d, i = self._tree.query(q, workers=-1, distance_upper_bound=upper_bound)
        i = np.where(np.isinf(d), -1, i).astype(np.int64)
        return d, i

