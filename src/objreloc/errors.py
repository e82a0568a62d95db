"""Exception hierarchy shared across the package."""


class ObjRelocError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ObjRelocError):
    """Invalid configuration value; message carries the offending field path."""


class DetectionFileError(ObjRelocError):
    """Detection file could not be parsed; message names the offending line."""


class MapFileError(ObjRelocError):
    """Object-map file could not be parsed."""


class DegenerateRotations(ObjRelocError):
    """Rotation averaging failed: arithmetic mean is rank-deficient."""


class TooFewPairs(ObjRelocError):
    """Fewer than 3 correspondences were supplied to a pose solver."""


class CollinearPoints(ObjRelocError):
    """Source points are (near-)collinear; rotation about the line is unobservable."""


class NoConsensus(ObjRelocError):
    """RANSAC found no hypothesis with at least 3 inliers."""


class NonDecreasingCost(ObjRelocError):
    """Iterative refinement could not decrease the cost (ill-conditioned problem)."""


class NoCorrespondences(ObjRelocError):
    """Every ICP point correspondence was rejected (bad initialisation or off-map frame)."""


class PlacementFailure(ObjRelocError):
    """Scene generation exhausted its rejection-sampling budget."""


class EmptyModel(ObjRelocError):
    """Surface-model construction produced no points."""


class MissingGroundTruth(ObjRelocError):
    """Evaluation was asked about a frame with no ground-truth pose."""
