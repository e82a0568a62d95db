"""Input validation helpers.

Small checks shared by the geometric types and the estimator front-end, in the
spirit of sklearn's ``check_array``: coerce to float64 ndarrays, verify shape
and finiteness, raise ``ValueError`` with the argument name on failure.
"""

import numbers

import numpy as np

ROTATION_TOL = 1e-8


def _as_float_array(x, name):
    """np.asarray(x, float64); ValueError naming the field when x is not numeric."""
    try:
        return np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # a string, a mapping, a ragged list
        raise ValueError(f"{name}: {exc}") from exc


def as_vector3(x, name="x"):
    v = _as_float_array(x, name)
    if v.shape != (3,):
        raise ValueError(f"{name}: expected a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name}: contains non-finite values")
    return v


def as_matrix3(x, name="x"):
    m = _as_float_array(x, name)
    if m.shape != (3, 3):
        raise ValueError(f"{name}: expected a 3x3 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name}: contains non-finite values")
    return m


def as_points(x, name="points"):
    """Coerce to an (N, 3) float64 array; an empty input becomes (0, 3)."""
    p = _as_float_array(x, name)
    if p.size == 0:
        return p.reshape(0, 3)
    if p.ndim != 2 or p.shape[1] != 3:
        raise ValueError(f"{name}: expected an (N, 3) array, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"{name}: contains non-finite values")
    return p


def check_rotation(r, name):
    """Verify r is a proper rotation: orthonormal and det = +1, within ROTATION_TOL."""
    r = as_matrix3(r, name)
    err = np.abs(r.T @ r - np.eye(3)).max()
    if err > ROTATION_TOL:
        raise ValueError(f"{name}: not orthonormal (max deviation {err:.3e})")
    det = np.linalg.det(r)
    if abs(det - 1.0) > ROTATION_TOL:
        raise ValueError(f"{name}: determinant {det:.12f} != +1 (improper rotation)")
    return r


def check_covariance(c, name, sym_tol, min_eig):
    """Verify c is symmetric within sym_tol with eigenvalues >= min_eig."""
    c = as_matrix3(c, name)
    if np.abs(c - c.T).max() > sym_tol:
        raise ValueError(f"{name}: not symmetric within {sym_tol}")
    smallest = np.linalg.eigvalsh(c)[0]
    if smallest < min_eig * (1.0 - 1e-9):
        raise ValueError(f"{name}: smallest eigenvalue {smallest:.3e} < {min_eig:.3e}")
    return c


def as_real(x, name="x"):
    """x as a finite float; ValueError naming the field when x is not a real
    number (a string or a bool is not one, whatever float() would make of it)
    or is NaN or infinite."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"{name}: expected a number, got {x!r}")
    x = float(x)
    if not np.isfinite(x):
        raise ValueError(f"{name}: expected a finite number, got {x}")
    return x


def check_integer(x, name, minimum):
    """x as an int; ValueError naming the field unless x is an integer >= minimum."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{name}: expected an integer, got {x!r}")
    if x < minimum:
        raise ValueError(f"{name}: must be >= {minimum}, got {x}")
    return int(x)


def check_probability(p, name="p"):
    p = as_real(p, name)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name}: probability {p} outside [0, 1]")
    return p


def check_nonnegative(x, name="x"):
    x = as_real(x, name)
    if x < 0.0:
        raise ValueError(f"{name}: expected a non-negative value, got {x}")
    return x
