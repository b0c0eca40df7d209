"""Projector algebra for stacked contact Jacobians.

Everything here is pure dense linear algebra: Moore-Penrose pseudo-inverses,
the orthogonal projector onto the null space of a constraint Jacobian
(:func:`null_projector`: A^+, P and rank), and the time derivative of that
projector split into its lower-triangular-like factor L, its skew part Omega,
and the full rate P_dot (:func:`projector_rate`).  ``build_frame`` keeps all
six on the frame, from ``_projector`` and ``_rate``.

``_projector`` keeps its last A and result: A depends only on q and the active
set, so the post-step velocity projection, the next control frame and the next
step's first RK4 stage share one SVD.  The key is a bytes copy of A, which a
caller cannot mutate, and the kept A^+ and P are read-only.

``_svd``, ``_inv`` and ``_solve``, the per-state modules' LAPACK calls, call
the gufuncs of ``np.linalg.svd``, ``inv`` and ``solve`` under the same error
state: the same bits and LinAlgError, without the wrapper's conversions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import InputError

# singular values below RANK_TOL * sigma_max count as zero
RANK_TOL = 1e-10
_last_projector = (None, None)  # (key, result) of the latest _projector call, read and replaced whole


def _as_matrix(A, name: str = "A") -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise InputError(f"{name} must be a 2-d matrix, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise InputError(f"{name} contains non-finite entries")
    return A


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


def _raise_svd_nonconvergence(err, flag):
    raise LinAlgError("SVD did not converge")


def _svd(a: np.ndarray, full: bool = False):
    """(U, s, Vt) of a 2-d float64 a, as np.linalg.svd(a, full_matrices=full) returns them."""
    with np.errstate(call=_raise_svd_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return (_umath_linalg.svd_f if full else _umath_linalg.svd_s)(a, signature="d->ddd")


def _inv(a: np.ndarray) -> np.ndarray:
    """np.linalg.inv(a) of a square 2-d float64 a."""
    with np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.inv(a, signature="d->d")


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) of a square 2-d float64 a and a 1-d float64 b."""
    with np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.solve1(a, b, signature="dd->d")


def _svd_cutoff(A: np.ndarray):
    """SVD with the relative singular-value cutoff RANK_TOL; returns (U, s, Vt, rank)."""
    if min(A.shape) == 0:
        return np.zeros((A.shape[0], 0)), np.zeros(0), np.zeros((0, A.shape[1])), 0
    U, s, Vt = _svd(A)
    values = s.tolist()
    rank = sum(v > RANK_TOL * values[0] for v in values) if values[0] > 0 else 0
    return U, s, Vt, rank


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """The read-only n x n identity, formed once per n."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


class Projector(NamedTuple):
    """A^+, the orthogonal projector P onto null(A) and the numerical rank of one A."""

    A_pinv: np.ndarray
    P: np.ndarray
    rank: int


def pseudo_inverse(A) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD with relative cutoff.

    Singular values below RANK_TOL * sigma_max are treated as exact zeros, so
    rank-deficient inputs are handled silently.
    """
    return _pinv_from_svd(*_svd_cutoff(_as_matrix(A)))


def _pinv_from_svd(U: np.ndarray, s: np.ndarray, Vt: np.ndarray, rank: int) -> np.ndarray:
    """A^+ from the thin SVD A = U diag(s) Vt, with s[rank:] treated as zero."""
    if rank == 0:
        return np.zeros((Vt.shape[1], U.shape[0]))
    inv_s = np.zeros_like(s)
    inv_s[:rank] = 1.0 / s[:rank]
    return (Vt.T * inv_s).dot(U.T)


def null_projector(A) -> Projector:
    """Orthogonal projector P = I - A^+ A onto null(A), with A^+ and rank, as a Projector.

    P is assembled from the right singular vectors of the range so that it is
    symmetric and idempotent to machine precision even for rank-deficient A.
    A^+ and P are read-only.
    """
    return Projector(*_projector(_as_matrix(A)))


def _projector(A: np.ndarray):
    """(A^+, P, rank) of a finite 2-d float A, with no validation of A; A^+ and P are read-only."""
    global _last_projector
    key = (A.shape, A.tobytes())
    last_key, result = _last_projector
    if key == last_key:
        return result
    U, s, Vt, rank = _svd_cutoff(A)
    A_pinv = _pinv_from_svd(U, s, Vt, rank)
    V1 = Vt[:rank].T
    P = _identity(A.shape[1]) - V1.dot(V1.T)
    P = 0.5 * (P + P.T)
    A_pinv.flags.writeable = P.flags.writeable = False
    _last_projector = (key, (A_pinv, P, rank))
    return A_pinv, P, rank


def projector_rate(A, A_dot):
    """(L, Omega, P_dot) of A moving at rate A_dot: L = -A^+ A_dot P and P_dot = L + L^T.

    Omega = L - L^T is the skew matrix satisfying Omega qd = P_dot qd for any
    qd in null(A); the sign follows from L^T P = 0.  A^+ and P are A's own,
    from the same computation as :func:`null_projector`.
    """
    A = _as_matrix(A)
    A_dot = _as_matrix(A_dot, "A_dot")
    if A.shape != A_dot.shape:
        raise InputError(f"A_dot shape {A_dot.shape} does not match A shape {A.shape}")
    A_pinv, P, _ = _projector(A)
    return _rate(A_pinv, A_dot, P)


def _rate(A_pinv: np.ndarray, A_dot: np.ndarray, P: np.ndarray):
    """(L, Omega, P_dot) of projector_rate from A^+, A_dot and P, with no validation."""
    L = (-A_pinv).dot(A_dot).dot(P)
    return L, L - L.T, L + L.T

