"""Operational-space maps restricted to the admissible motion space.

A task is a smooth map x(q) of dimension l; its effective Jacobian is
Lambda = (dx/dq) P, which by construction maps only admissible velocities.
This module builds Lambda together with its pseudo-inverse, its time
derivative and the feedforward matrix Gamma = Lambda^+ Lambda_dot - Omega.
One SVD of Lambda gives its rank and Lambda^+; the projector identities are
evaluated only when a caller reads ``TaskMap.identities``.
The rank cut-off scales with ||J||_2, which is kept for the last J seen (every
bundled task has a constant J), so a control tick takes the one SVD of Lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .constrained_dynamics import ConstraintFrame
from .constraint_geometry import _pinv_from_svd
from .errors import InputError, TaskInconsistencyError

_last_jacobian_norm = (None, None)  # (key, ||J||_2) of the latest build_task J, read and replaced whole


@dataclass(frozen=True)
class TaskDef:
    """Task geometry: value x(q), its Jacobian J(q) = dx/dq and the rate J_dot(q, qd)."""

    name: str
    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    jacobian_rate: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class TaskIdentities:
    """Residuals of the projector identities the task map must satisfy.

    pinv_product is ||Lambda^+ Lambda - P|| for full-span tasks; for
    under-spanning tasks it instead holds the most negative eigenvalue of
    P - Lambda^+ Lambda (ordering check).
    """

    range_in_null: float
    pinv_in_null: float
    pinv_product: float


@dataclass
class TaskMap:
    """Task quantities at one state; P is the frame's projector, full_span means l = n - rank(A)."""

    name: str
    l: int
    x: np.ndarray
    x_dot: np.ndarray
    Lambda: np.ndarray
    Lambda_pinv: np.ndarray
    Lambda_dot: np.ndarray
    Gamma_ctl: np.ndarray
    P: np.ndarray
    full_span: bool

    @cached_property
    def identities(self) -> TaskIdentities:
        """Projector-identity residuals, computed on first read."""
        P, Lam, Lam_pinv = self.P, self.Lambda, self.Lambda_pinv
        r_range = float(np.abs(P.dot(Lam.T) - Lam.T).max())
        r_pinv = float(np.abs((np.eye(P.shape[0]) - P).dot(Lam_pinv)).max())
        if self.full_span:
            r_prod = float(np.abs(Lam_pinv.dot(Lam) - P).max())
        else:
            r_prod = float(np.linalg.eigvalsh(P - Lam_pinv.dot(Lam)).min())
        return TaskIdentities(r_range, r_pinv, r_prod)


def build_task(frame: ConstraintFrame, task: TaskDef) -> TaskMap:
    """Evaluate the task map at the frame's state.

    Raises InputError on a malformed or non-finite task value or Jacobian, and
    TaskInconsistencyError when Lambda loses row rank, which means the
    requested task leaves the admissible motion space.  ||J||_2, the rank
    scale, is kept per distinct J, keyed by its shape and bytes: a J equal to
    the last call's reuses that norm, any other J takes its own SVD.
    """
    global _last_jacobian_norm
    q, qd, n = frame.state.q, frame.state.q_dot, frame.n
    l = task.dim
    x = np.asarray(task.value(q), dtype=float)
    if x.shape != (l,):
        raise InputError(f"task value must have shape ({l},), got {x.shape}")
    J = np.asarray(task.jacobian(q), dtype=float)
    if J.shape != (l, n):
        raise InputError(f"task Jacobian must be {l}x{n}, got {J.shape}")
    if not (np.isfinite(x).all() and np.isfinite(J).all()):
        raise InputError(f"task '{task.name}' value or Jacobian contains non-finite entries")

    P = frame.P
    Lam = J.dot(P)
    # rank relative to the raw Jacobian scale ||J||_2 (its largest singular value): a direction
    # the projector annihilates must count as lost even though Lam is not exactly zero
    key = (J.shape, J.tobytes())
    last_key, scale = _last_jacobian_norm
    if key != last_key:
        scale = max(float(np.linalg.svd(J, compute_uv=False)[0]), 1e-12)
        _last_jacobian_norm = (key, scale)
    U, sv, Vt = np.linalg.svd(Lam, full_matrices=False)
    rank = int(np.sum(sv > 1e-9 * scale))
    if rank < l:
        raise TaskInconsistencyError(
            f"task '{task.name}' has rank {rank} < {l}: it demands motion the "
            "active constraints forbid"
        )
    # sv[l - 1] > 1e-9 ||J|| >= 1e-9 ||Lam||, so this is pseudo_inverse(Lam)
    Lam_pinv = _pinv_from_svd(U, sv, Vt, rank)
    J_dot = np.asarray(task.jacobian_rate(q, qd), dtype=float)
    Lam_dot = J_dot.dot(P) + J.dot(frame.P_dot)
    Gamma = Lam_pinv.dot(Lam_dot) - frame.Omega
    return TaskMap(
        name=task.name,
        l=l,
        x=x,
        x_dot=Lam.dot(qd),
        Lambda=Lam,
        Lambda_pinv=Lam_pinv,
        Lambda_dot=Lam_dot,
        Gamma_ctl=Gamma,
        P=P,
        full_span=l == n - frame.rank,
    )


def task_accel_decompose(task: TaskMap, frame: ConstraintFrame, x_ddot: np.ndarray) -> np.ndarray:
    """Generalized acceleration realizing a task acceleration.

    Returns qdd = Lambda^+ x_ddot - Gamma qd, the inverse of
    x_ddot = Lambda_dot qd + Lambda qdd on the constraint manifold for
    full-spanning tasks.
    """
    x_ddot = np.asarray(x_ddot, dtype=float)
    return task.Lambda_pinv.dot(x_ddot) - task.Gamma_ctl.dot(frame.state.q_dot)
