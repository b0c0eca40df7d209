"""Operational-space maps restricted to the admissible motion space.

A task is a smooth map x(q) of dimension l; its effective Jacobian is
Lambda = (dx/dq) P, which by construction maps only admissible velocities.
This module builds Lambda together with its pseudo-inverse, its time
derivative and the feedforward matrix Gamma = Lambda^+ Lambda_dot - Omega.
One SVD of Lambda gives its rank and Lambda^+.  A :class:`TaskMap` holds only
what the control laws read (``checks.task_identities`` tests its projector
identities, never a run), and build_task keeps nothing between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constrained_dynamics import ConstraintFrame
from .constraint_geometry import _pinv_from_svd, _svd
from .errors import InputError, TaskInconsistencyError


@dataclass(frozen=True)
class TaskDef:
    """Task geometry: value x(q), its Jacobian J(q) = dx/dq and the rate J_dot(q, qd)."""

    name: str
    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    jacobian_rate: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class TaskMap:
    """Task quantities at one state: what the tracking and regulation laws read."""

    l: int
    x: np.ndarray
    x_dot: np.ndarray
    Lambda: np.ndarray
    Lambda_pinv: np.ndarray
    Lambda_dot: np.ndarray
    Gamma_ctl: np.ndarray


def build_task(frame: ConstraintFrame, task: TaskDef) -> TaskMap:
    """Evaluate the task map at the frame's state.

    Raises InputError on a malformed or non-finite task value, Jacobian or Jacobian rate, and
    TaskInconsistencyError when Lambda loses row rank, which means the
    requested task leaves the admissible motion space.
    """
    q, qd, n = frame.state.q, frame.state.q_dot, frame.n
    l = task.dim
    x = np.asarray(task.value(q), dtype=float)
    if x.shape != (l,):
        raise InputError(f"task value must have shape ({l},), got {x.shape}")
    J = np.asarray(task.jacobian(q), dtype=float)
    J_dot = np.asarray(task.jacobian_rate(q, qd), dtype=float)
    for name, matrix in (("Jacobian", J), ("Jacobian rate", J_dot)):
        if matrix.shape != (l, n):
            raise InputError(f"task '{task.name}' {name} must be {l}x{n}, got {matrix.shape}")
    if not (np.isfinite(x).all() and np.isfinite(J).all() and np.isfinite(J_dot).all()):
        raise InputError(f"task '{task.name}' value, Jacobian or Jacobian rate contains non-finite entries")

    P = frame.P
    Lam = J.dot(P)
    # rank relative to the raw ||J||_F: a direction P annihilates is lost though Lam is not exactly 0
    U, sv, Vt = _svd(Lam)
    rank = int(np.sum(sv > 1e-9 * math.sqrt(np.vdot(J, J))))
    if rank < l:
        raise TaskInconsistencyError(
            f"task '{task.name}' has rank {rank} < {l}: it demands motion the "
            "active constraints forbid"
        )
    # sv[l - 1] > 1e-9 ||J||_F >= 1e-9 ||Lam||_2, so this is pseudo_inverse(Lam)
    Lam_pinv = _pinv_from_svd(U, sv, Vt, rank)
    Lam_dot = J_dot.dot(P) + J.dot(frame.P_dot)
    Gamma = Lam_pinv.dot(Lam_dot) - frame.Omega
    return TaskMap(
        l=l,
        x=x,
        x_dot=Lam.dot(qd),
        Lambda=Lam,
        Lambda_pinv=Lam_pinv,
        Lambda_dot=Lam_dot,
        Gamma_ctl=Gamma,
    )


def task_accel_decompose(task: TaskMap, frame: ConstraintFrame, x_ddot: np.ndarray) -> np.ndarray:
    """Generalized acceleration realizing a task acceleration.

    Returns qdd = Lambda^+ x_ddot - Gamma qd, the inverse of
    x_ddot = Lambda_dot qd + Lambda qdd on the constraint manifold for
    full-spanning tasks.
    """
    x_ddot = np.asarray(x_ddot, dtype=float)
    return task.Lambda_pinv.dot(x_ddot) - task.Gamma_ctl.dot(frame.state.q_dot)
