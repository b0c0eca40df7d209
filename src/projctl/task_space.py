"""Operational-space maps restricted to the admissible motion space.

A task is a smooth map x(q) of dimension l; its effective Jacobian is
Lambda = (dx/dq) P, which by construction maps only admissible velocities.
This module builds Lambda together with its pseudo-inverse, its time
derivative and the feedforward matrix Gamma = Lambda^+ Lambda_dot - Omega,
and checks the feasibility set relations between task, constraints and
actuation.  One SVD of Lambda gives its rank and Lambda^+; the projector
identities are evaluated only when a caller reads ``TaskMap.identities``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .constrained_dynamics import ConstraintFrame
from .constraint_geometry import FD_STEP, _pinv_from_svd, _svd_cutoff
from .errors import InputError, TaskInconsistencyError


@dataclass(frozen=True)
class TaskDef:
    """Task geometry: value x(q), optional analytic Jacobian and its rate."""

    name: str
    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    jacobian_rate: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None


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


@dataclass(frozen=True)
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
        r_range = float(np.abs(P @ Lam.T - Lam.T).max())
        r_pinv = float(np.abs((np.eye(P.shape[0]) - P) @ Lam_pinv).max())
        if self.full_span:
            r_prod = float(np.abs(Lam_pinv @ Lam - P).max())
        else:
            r_prod = float(np.linalg.eigvalsh(P - Lam_pinv @ Lam).min())
        return TaskIdentities(r_range, r_pinv, r_prod)


@dataclass(frozen=True)
class FeasibilityReport:
    task_consistent: bool
    actuation_sufficient: bool
    full_span: bool
    rank_Lambda: int
    rank_B: int


def _task_jacobian(task: TaskDef, q: np.ndarray, h: float) -> np.ndarray:
    if task.jacobian is not None:
        return np.asarray(task.jacobian(q), dtype=float)
    J = np.zeros((task.dim, q.size))
    for j in range(q.size):
        dq = np.zeros_like(q)
        dq[j] = h
        J[:, j] = (
            np.asarray(task.value(q + dq), dtype=float)
            - np.asarray(task.value(q - dq), dtype=float)
        ) / (2.0 * h)
    return J


def _task_jacobian_rate(task: TaskDef, q, q_dot, h: float) -> np.ndarray:
    if task.jacobian_rate is not None:
        return np.asarray(task.jacobian_rate(q, q_dot), dtype=float)
    if task.jacobian is not None:
        # directional difference of the analytic Jacobian along q_dot
        step = h * q_dot
        Jp = np.asarray(task.jacobian(q + step), dtype=float)
        Jm = np.asarray(task.jacobian(q - step), dtype=float)
        return (Jp - Jm) / (2.0 * h)
    # value-only task: mixed second partials d2x/(dq_j ds) along s = q_dot
    # with a wider step, since nesting two first-order differences at h loses
    # half the digits
    hm = max(np.sqrt(h), 1e-4)
    J_dot = np.zeros((task.dim, q.size))
    sv = hm * q_dot
    for j in range(q.size):
        ej = np.zeros_like(q)
        ej[j] = hm
        fpp = np.asarray(task.value(q + ej + sv), dtype=float)
        fpm = np.asarray(task.value(q + ej - sv), dtype=float)
        fmp = np.asarray(task.value(q - ej + sv), dtype=float)
        fmm = np.asarray(task.value(q - ej - sv), dtype=float)
        J_dot[:, j] = (fpp - fpm - fmp + fmm) / (4.0 * hm * hm)
    return J_dot


def build_task(frame: ConstraintFrame, task: TaskDef) -> TaskMap:
    """Evaluate the task map at the frame's state.

    Raises InputError on a malformed or non-finite task value or Jacobian, and
    TaskInconsistencyError when Lambda loses row rank, which means the
    requested task leaves the admissible motion space.
    """
    q, qd, n = frame.state.q, frame.state.q_dot, frame.n
    l = task.dim
    x = np.asarray(task.value(q), dtype=float)
    if x.shape != (l,):
        raise InputError(f"task value must have shape ({l},), got {x.shape}")
    J = _task_jacobian(task, q, FD_STEP)
    if J.shape != (l, n):
        raise InputError(f"task Jacobian must be {l}x{n}, got {J.shape}")
    if not (np.isfinite(x).all() and np.isfinite(J).all()):
        raise InputError(f"task '{task.name}' value or Jacobian contains non-finite entries")

    P = frame.P
    Lam = J @ P
    # rank relative to the raw Jacobian scale ||J||_2 (its largest singular value): a direction
    # the projector annihilates must count as lost even though Lam is not exactly zero
    scale = max(float(np.linalg.svd(J, compute_uv=False)[0]), 1e-12)
    U, sv, Vt = np.linalg.svd(Lam, full_matrices=False)
    rank = int(np.sum(sv > 1e-9 * scale))
    if rank < l:
        raise TaskInconsistencyError(
            f"task '{task.name}' has rank {rank} < {l}: it demands motion the "
            "active constraints forbid"
        )
    # sv[l - 1] > 1e-9 ||J|| >= 1e-9 ||Lam||, so this is pseudo_inverse(Lam)
    Lam_pinv = _pinv_from_svd(U, sv, Vt, rank)
    J_dot = _task_jacobian_rate(task, q, qd, FD_STEP)
    Lam_dot = J_dot @ P + J @ frame.bundle.P_dot
    Gamma = Lam_pinv @ Lam_dot - frame.bundle.Omega
    return TaskMap(
        name=task.name,
        l=l,
        x=x,
        x_dot=Lam @ qd,
        Lambda=Lam,
        Lambda_pinv=Lam_pinv,
        Lambda_dot=Lam_dot,
        Gamma_ctl=Gamma,
        P=P,
        full_span=l == n - frame.bundle.rank,
    )


def check_feasibility(frame: ConstraintFrame, task: TaskMap) -> FeasibilityReport:
    """Report task/constraint consistency and actuation sufficiency.

    task_consistent: range(Lambda^T) inside null(A), tested as
    ||A Lambda^+|| <= 1e-9 (relative).  actuation_sufficient: range(Lambda^T)
    inside range(B), tested by comparing rank([B | Lambda^T]) against rank(B).
    """
    B = frame.model.actuation
    A = frame.bundle.A
    scale = max(1.0, float(np.abs(A).max()) * float(np.abs(task.Lambda_pinv).max()))
    consistent = bool(A.size == 0 or np.abs(A @ task.Lambda_pinv).max() <= 1e-9 * scale)
    _, _, _, rank_B = _svd_cutoff(B)
    _, _, _, rank_aug = _svd_cutoff(np.hstack([B, task.Lambda.T]))
    return FeasibilityReport(
        task_consistent=consistent,
        actuation_sufficient=bool(rank_aug == rank_B),
        full_span=task.full_span,
        rank_Lambda=task.l,
        rank_B=rank_B,
    )


def task_accel_decompose(task: TaskMap, frame: ConstraintFrame, x_ddot: np.ndarray) -> np.ndarray:
    """Generalized acceleration realizing a task acceleration.

    Returns qdd = Lambda^+ x_ddot - Gamma qd, the inverse of
    x_ddot = Lambda_dot qd + Lambda qdd on the constraint manifold for
    full-spanning tasks.
    """
    x_ddot = np.asarray(x_ddot, dtype=float)
    return task.Lambda_pinv @ x_ddot - task.Gamma_ctl @ frame.state.q_dot
