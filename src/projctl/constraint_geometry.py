"""Projector algebra for stacked contact Jacobians.

Everything here is pure dense linear algebra: Moore-Penrose pseudo-inverses,
the orthogonal projector onto the null space of a constraint Jacobian, and the
time derivative of that projector split into its lower-triangular-like factor
L, its skew part Omega, and the full rate P_dot.

``_projector`` keeps its last A and result: A depends only on q and the active
set, so the post-step velocity projection, the next control frame and the next
step's first RK4 stage share one SVD.  The key is a bytes copy of A, which a
caller cannot mutate, and the kept A^+ and P are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import InputError

# singular values below RANK_TOL * sigma_max count as zero
RANK_TOL = 1e-10
# central-difference step for Jacobian rates without an analytic form
FD_STEP = 1e-6
_last_projector = (None, None)  # (key, result) of the latest _projector call, read and replaced whole


def _as_matrix(A, name: str = "A") -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise InputError(f"{name} must be a 2-d matrix, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise InputError(f"{name} contains non-finite entries")
    return A


def _svd_cutoff(A: np.ndarray):
    """SVD with the relative singular-value cutoff RANK_TOL; returns (U, s, Vt, rank)."""
    if min(A.shape) == 0:
        return np.zeros((A.shape[0], 0)), np.zeros(0), np.zeros((0, A.shape[1])), 0
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    values = s.tolist()
    rank = sum(v > RANK_TOL * values[0] for v in values) if values[0] > 0 else 0
    return U, s, Vt, rank


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """The read-only n x n identity, formed once per n."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@dataclass(frozen=True)
class ProjectorBundle:
    """Projector quantities derived from one constraint Jacobian.

    A_pinv is the Moore-Penrose pseudo-inverse, P the orthogonal projector onto
    null(A) and rank the numerical rank of A.  L, Omega and P_dot are filled in
    by :func:`projector_rate` and stay None until then.
    """

    A: np.ndarray
    A_pinv: np.ndarray
    P: np.ndarray
    rank: int
    L: Optional[np.ndarray] = None
    Omega: Optional[np.ndarray] = None
    P_dot: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.P.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[0]


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
    return (Vt.T * inv_s) @ U.T


def null_projector(A) -> ProjectorBundle:
    """Orthogonal projector P = I - A^+ A onto null(A), plus A^+ and rank.

    P is assembled from the right singular vectors of the range so that it is
    symmetric and idempotent to machine precision even for rank-deficient A.
    """
    A = _as_matrix(A)
    A_pinv, P, rank = _projector(A)
    return ProjectorBundle(A=A, A_pinv=A_pinv, P=P, rank=rank)


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
    P = _identity(A.shape[1]) - V1 @ V1.T
    P = 0.5 * (P + P.T)
    A_pinv.flags.writeable = P.flags.writeable = False
    _last_projector = (key, (A_pinv, P, rank))
    return A_pinv, P, rank


def projector_rate(A, A_dot, bundle: ProjectorBundle) -> ProjectorBundle:
    """Complete a bundle with L = -A^+ A_dot P, P_dot = L + L^T and Omega.

    Omega = L - L^T is the skew matrix satisfying Omega qd = P_dot qd for any
    qd in null(A); the sign follows from L^T P = 0.
    """
    A = _as_matrix(A)
    A_dot = _as_matrix(A_dot, "A_dot")
    if A.shape != A_dot.shape:
        raise InputError(f"A_dot shape {A_dot.shape} does not match A shape {A.shape}")
    if bundle.A.shape != A.shape or not np.allclose(bundle.A, A):
        raise InputError("bundle was not computed from the supplied A")
    L = -bundle.A_pinv @ A_dot @ bundle.P
    P_dot = L + L.T
    Omega = L - L.T
    return replace(bundle, L=L, Omega=Omega, P_dot=P_dot)


def jacobian_rate(jac_fn: Callable[[np.ndarray], np.ndarray], q, q_dot) -> np.ndarray:
    """Time derivative of a configuration-dependent Jacobian A(q).

    The chain rule A_dot = sum_j (dA/dq_j) qd_j, with each partial taken by
    central differencing of jac_fn at q +- FD_STEP e_j.
    """
    q = np.asarray(q, dtype=float)
    q_dot = np.asarray(q_dot, dtype=float)
    A0 = _as_matrix(jac_fn(q), "A(q)")
    A_dot = np.zeros_like(A0)
    for j in range(q.size):
        if q_dot[j] == 0.0:
            continue
        dq = np.zeros_like(q)
        dq[j] = FD_STEP
        A_dot += (jac_fn(q + dq) - jac_fn(q - dq)) * (q_dot[j] / (2.0 * FD_STEP))
    return A_dot
