"""Generalized control torques for tracking and regulation.

Both laws emit a torque tau_c that lives in the admissible force space
(tau_c = P tau_c); turning it into actuator torques is the allocator's job,
either by minimum-norm pseudo-inversion here or by the power-optimal program
in :mod:`projctl.torque_qcqp`.  When the allocator cannot meet
P B u = tau_c exactly, the residual phi enters the task error dynamics as the
disturbance d = M_bar^-1 phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constrained_dynamics import ConstraintFrame, _as_tau_c
from .constraint_geometry import _pinv_from_svd, _svd_cutoff
from .errors import ActuationError, InputError
from .task_space import TaskMap


def _checked_dims(gains: ControllerGains, kp_dim: int, kd_dim: int, kd_name: str = "K_D"):
    for name, K, dim in (("K_P", gains.K_P, kp_dim), (kd_name, gains.K_D, kd_dim)):
        if K.shape != (dim, dim):
            raise InputError(f"{name} must be {dim}x{dim}, got {K.shape}")
    return gains.K_P, gains.K_D


@dataclass(frozen=True)
class ControllerGains:
    """Proportional/derivative gain pair.

    For the tracking law both act on the l-dimensional task error; the
    regulation law instead applies K_D to the full joint velocity, so there
    K_D must be n x n.  Both are checked here, once, to be finite, square,
    symmetric and positive-definite (errors start with the field's name).
    """

    K_P: np.ndarray
    K_D: np.ndarray

    def __post_init__(self):
        for name in ("K_P", "K_D"):
            K = np.asarray(getattr(self, name), dtype=float)
            if K.ndim != 2 or K.shape[0] != K.shape[1] or K.size == 0 or not np.isfinite(K).all():
                raise InputError(f"{name} must be a finite, nonempty square matrix, got {K.tolist()}")
            if np.abs(K - K.T).max() > 1e-10 * max(1.0, np.abs(K).max()):
                raise InputError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(K).min() <= 0:
                raise InputError(f"{name} must be positive-definite")
            object.__setattr__(self, name, K)

    @classmethod
    def critically_damped(cls, dim: int, omega: float) -> "ControllerGains":
        """K_P = omega^2 I, K_D = 2 omega I: double real pole at -omega."""
        if omega <= 0:
            raise InputError("omega must be positive")
        return cls(K_P=omega**2 * np.eye(dim), K_D=2.0 * omega * np.eye(dim))


@dataclass
class ControlCommand:
    """A control law's output: the generalized torque tau_c and the task error e, e_dot.

    An allocator turns tau_c into actuator torques u; the residual
    phi = tau_c - P B u gives the disturbance tracking_disturbance(frame, phi).
    """

    tau_c: np.ndarray
    e: np.ndarray
    e_dot: np.ndarray


def tracking_torque(
    frame: ConstraintFrame,
    task: TaskMap,
    x_d: np.ndarray,
    x_d_dot: np.ndarray,
    x_d_ddot: np.ndarray,
    gains: ControllerGains,
) -> ControlCommand:
    """Operational-space tracking law.

    tau_c = P C qd - P tau_g + P M (Lambda^+ (xdd_d + K_D ed + K_P e) - Gamma qd)
    with e = x_d - x.  Exactly realized, the closed loop obeys
    edd + K_D ed + K_P e = 0.
    """
    l = task.l
    K_P, K_D = _checked_dims(gains, l, l)
    x_d = np.asarray(x_d, dtype=float)
    x_d_dot = np.asarray(x_d_dot, dtype=float)
    x_d_ddot = np.asarray(x_d_ddot, dtype=float)
    for name, v in (("x_d", x_d), ("x_d_dot", x_d_dot), ("x_d_ddot", x_d_ddot)):
        if v.shape != (l,) or not np.isfinite(v).all():
            raise InputError(f"{name} must be a finite vector of length {l}")

    e = x_d - task.x
    e_dot = x_d_dot - task.x_dot
    x_cmd = x_d_ddot + K_D.dot(e_dot) + K_P.dot(e)
    qd = frame.state.q_dot
    P = frame.P
    tau_c = P.dot(frame.C.dot(qd)) - P.dot(frame.tau_g) + P.dot(frame.M).dot(
        task.Lambda_pinv.dot(x_cmd) - task.Gamma_ctl.dot(qd)
    )
    return ControlCommand(tau_c=tau_c, e=e, e_dot=e_dot)


def regulation_torque(
    frame: ConstraintFrame,
    task: TaskMap,
    x_d: np.ndarray,
    gains: ControllerGains,
) -> ControlCommand:
    """Set-point regulation law tau_c = P(-tau_g - K_D qd + Lambda^T K_P e).

    K_D acts on the full joint velocity here (n x n).  Along the closed loop
    the function V = qd^T M_bar qd / 2 + e^T K_P e / 2 is non-increasing and
    the state settles on e = 0, qd = 0.
    """
    K_P, K_D = _checked_dims(gains, task.l, frame.n, "K_D (joint-space)")
    x_d = np.asarray(x_d, dtype=float)
    if x_d.shape != (task.l,) or not np.isfinite(x_d).all():
        raise InputError(f"x_d must be a finite vector of length {task.l}")
    e = x_d - task.x
    tau_c = frame.P.dot(-frame.tau_g - K_D.dot(frame.state.q_dot) + task.Lambda.T.dot(K_P.dot(e)))
    return ControlCommand(tau_c=tau_c, e=e, e_dot=-task.x_dot)


def regulation_lyapunov(frame: ConstraintFrame, e: np.ndarray, K_P: np.ndarray) -> float:
    """V = qd^T M_bar qd / 2 + e^T K_P e / 2 at the frame's velocity qd."""
    q_dot = frame.state.q_dot
    e = np.asarray(e, dtype=float)
    return float((0.5 * q_dot).dot(frame.M_bar).dot(q_dot) + (0.5 * e).dot(np.asarray(K_P, dtype=float)).dot(e))


def min_norm_actuation(frame: ConstraintFrame, tau_c: np.ndarray) -> np.ndarray:
    """Least-norm actuator torques with P B u = tau_c.

    u = (P B)^+ tau_c.  Raises InputError when tau_c is not a finite n-vector, and
    ActuationError when tau_c is outside the range of P B (relative residual
    above 1e-8), i.e. the actuators cannot span the admissible force space.
    """
    tau_c = _as_tau_c(frame, tau_c)
    PB = frame.P.dot(frame.model.actuation)  # finite, as P and B are (RobotModel checks B): no re-validation
    u = _pinv_from_svd(*_svd_cutoff(PB)).dot(tau_c)
    r = tau_c - PB.dot(u)
    residual = math.sqrt(r.dot(r))
    if residual > 1e-8 * max(1.0, math.sqrt(tau_c.dot(tau_c))):
        raise ActuationError(
            f"requested generalized force is not realizable: residual {residual:.3e} "
            "(actuation matrix does not span the admissible force space)"
        )
    return u


def tracking_disturbance(frame: ConstraintFrame, phi: np.ndarray) -> np.ndarray:
    """Disturbance d = M_bar^-1 phi entering the task error dynamics.

    With the tracking law in closed loop, Lambda^+ (edd + K_D ed + K_P e) = d.
    """
    phi = np.asarray(phi, dtype=float)
    return frame.M_bar_inv.dot(phi)
