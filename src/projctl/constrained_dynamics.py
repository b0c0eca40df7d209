"""Non-minimal constrained dynamics built on the null-space projector.

The dynamics stay n x n whatever the active contact set: with P the
orthogonal projector onto null(A), the constrained inertia is
M_bar = P M P + nu (I - P) and the matching Coriolis matrix is
C_bar = P C P + P M P_dot - nu L, so a contact switch changes P, never a
dimension.  :func:`build_frame` evaluates the model and this algebra once at
a state and returns a :class:`ConstraintFrame`, the one per-state record: it
carries the model and state it was built from, so every per-state function
(the integrator stage, the task map, the control laws, the torque program and
the contact forces) takes the frame alone.  M_bar^-1 is formed with the
frame, since both of its callers read it; the oblique force projector
S = I - M M_bar^-1 P, the bias map Q = M Omega + C and the contact-force map
(F, f0) below are formed on first use, so each caller pays only for what it
reads:

- a control tick reads all of it (task map, control law, torque allocator,
  :func:`contact_forces`);
- an integrator stage reads only the acceleration of :func:`constrained_accel`,
  qdd = M_bar^-1 (P (B u + tau_g) - C_bar qd), and never forms S, Q or (F, f0).

The frame, the one per-state record, is a plain dataclass: a frozen one sets
each field through object.__setattr__, about three times the cost, and one is
built at every RK4 stage.  Nothing assigns to it once built.
:func:`contact_forces` returns arrays: the (k, 3) forces and their margins.

The contact forces are affine in the actuator torques, lambda(u) =
A^+T S (B u + tau_g - Q qd) = F u + f0; ``ConstraintFrame.force_map`` alone
forms (F, f0), and the contact forces and the torque program's rows read it.

A^+, P and rank come from ``constraint_geometry._projector``, which keeps its
last result keyed by a bytes copy of A, so frames at one q and active set
share one SVD and its read-only A^+ and P.  L, Omega and P_dot come from
``constraint_geometry._rate``, the formula ``projector_rate`` also uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

# build_frame calls _projector and _rate, not null_projector / projector_rate;
# those two stay importable from this module for profilers that rebind them here.
from .constraint_geometry import (  # noqa: F401
    _identity,
    _inv,
    _projector,
    _rate,
    null_projector,
    projector_rate,
)
from .errors import InputError


@dataclass(frozen=True)
class ContactSpec:
    """One frictional point contact.

    jacobian(q) returns the 3xn row block (x, y, z) mapping generalized
    velocity to the negative contact-point velocity, so that the associated
    multipliers are the force applied to the robot with z along the outward
    normal.  jacobian_rate(q, qd) returns d/dt of that block.  point(q), when
    given, returns the 3-vector contact-point position; only the run report's
    slip measure (runner.contact_slip) reads it.
    """

    jacobian: Callable[[np.ndarray], np.ndarray]
    friction: float
    jacobian_rate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    point: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""

    def __post_init__(self):
        if not self.friction > 0:
            raise InputError(f"friction coefficient must be positive, got {self.friction}")


@dataclass(frozen=True)
class RobotModel:
    """Generalized-coordinate robot with frictional point contacts.

    Attributes:
        mass_matrix: q -> (n, n) symmetric positive-definite inertia.
        coriolis_matrix: (q, qd) -> (n, n) Coriolis matrix consistent with the
            inertia in the sense that d/dt(M) - 2C is skew-symmetric.
        gravity: q -> (n,) generalized gravity force (enters the dynamics on
            the applied-force side).
        actuation: constant (n, p) map B from actuator torques to generalized
            forces; the model reads n and p, its two attributes, from B's shape.
        contacts: all contact candidates; a state selects the active subset.
        u_min, u_max: (p,) actuator torque box.
        motor_resistance: (p,) winding resistances (ohm).
        torque_constant: (p,) torque constants (N*m/A).
        W: (p, p) motor weighting diag(R / K_t^2), so u^T W u is the copper
            loss; formed from the two above.
    """

    mass_matrix: Callable[[np.ndarray], np.ndarray]
    coriolis_matrix: Callable[[np.ndarray, np.ndarray], np.ndarray]
    gravity: Callable[[np.ndarray], np.ndarray]
    actuation: np.ndarray
    contacts: Tuple[ContactSpec, ...]
    u_min: np.ndarray
    u_max: np.ndarray
    motor_resistance: np.ndarray
    torque_constant: np.ndarray
    name: str = "robot"
    n: int = field(init=False)
    p: int = field(init=False)
    W: np.ndarray = field(init=False)

    def __post_init__(self):
        B = np.asarray(self.actuation, dtype=float)
        if B.ndim != 2:
            raise InputError(f"actuation matrix must be 2-d, got shape {B.shape}")
        if not np.isfinite(B).all():
            raise InputError("actuation matrix entries must be finite")
        object.__setattr__(self, "actuation", B)
        object.__setattr__(self, "n", B.shape[0])
        object.__setattr__(self, "p", B.shape[1])
        object.__setattr__(self, "contacts", tuple(self.contacts))
        for attr in ("u_min", "u_max", "motor_resistance", "torque_constant"):
            v = np.asarray(getattr(self, attr), dtype=float)
            if v.shape != (self.p,) or not np.isfinite(v).all():
                raise InputError(f"{attr} must be {self.p} finite numbers, got {v.tolist()}")
            object.__setattr__(self, attr, v)
        if not np.all(self.u_min < self.u_max):
            raise InputError("u_min must be strictly below u_max componentwise")
        if np.any(self.torque_constant == 0.0):
            raise InputError("torque_constant entries must be nonzero")
        if np.any(self.motor_resistance <= 0.0):
            raise InputError("motor_resistance entries must be positive")
        object.__setattr__(self, "W", np.diag(self.motor_resistance / self.torque_constant**2))

    @property
    def k(self) -> int:
        return len(self.contacts)

    def contact_stack(self, q: np.ndarray, active: Sequence[int]) -> np.ndarray:
        """Stacked (3k_active, n) Jacobian of the active contacts."""
        if len(active) == 0:
            return np.zeros((0, self.n))
        blocks = [self.contacts[i].jacobian(q) for i in active]
        return np.asarray(blocks[0]) if len(blocks) == 1 else np.concatenate(blocks)

    def contact_stack_rate(self, q: np.ndarray, q_dot: np.ndarray, active: Sequence[int]) -> np.ndarray:
        """d/dt of contact_stack, stacked from each active contact's jacobian_rate."""
        if len(active) == 0:
            return np.zeros((0, self.n))
        blocks = [self.contacts[i].jacobian_rate(q, q_dot) for i in active]
        return np.asarray(blocks[0]) if len(blocks) == 1 else np.concatenate(blocks)


@dataclass(frozen=True)
class RobotState:
    """Time, configuration, velocity and the distinct indices of active contacts."""

    t: float
    q: np.ndarray
    q_dot: np.ndarray
    active_contacts: Tuple[int, ...] = ()

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        qd = np.asarray(self.q_dot, dtype=float)
        if q.shape != qd.shape or q.ndim != 1:
            raise InputError("q and q_dot must be 1-d vectors of equal length")
        active = tuple(self.active_contacts)
        if len(set(active)) != len(active):  # a repeat stacks one contact twice, splitting its force
            raise InputError(f"active_contacts {active} repeats a contact")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "q_dot", qd)
        object.__setattr__(self, "active_contacts", active)


@dataclass
class ConstraintFrame:
    """All projection-derived quantities evaluated at one state.

    The frame is the one per-state input: model and state are the ones it was
    built from, so callers pass the frame alone and read the actuation, the
    velocity and the active contacts through it.  A is the active contact
    stack, with A_pinv, P and rank as null_projector(A) and Omega and P_dot as
    projector_rate gives them.  M_bar_inv is formed with the frame, as every
    caller reads it; S, Q and the force map (F, f0) are computed on first use
    and then kept: an integrator stage reads none of them, a control tick
    reads all three.
    """

    A: np.ndarray
    A_pinv: np.ndarray
    P: np.ndarray
    rank: int
    Omega: np.ndarray
    P_dot: np.ndarray
    M: np.ndarray
    C: np.ndarray
    tau_g: np.ndarray
    M_bar: np.ndarray
    M_bar_inv: np.ndarray
    C_bar: np.ndarray
    model: RobotModel
    state: RobotState

    @property
    def n(self) -> int:
        return self.M.shape[0]

    @cached_property
    def S(self) -> np.ndarray:
        """Oblique force projector I - M M_bar^-1 P."""
        return _identity(self.n) - self.M.dot(self.M_bar_inv).dot(self.P)

    @cached_property
    def Q(self) -> np.ndarray:
        """Bias map M Omega + C."""
        return self.M.dot(self.Omega) + self.C

    @cached_property
    def force_map(self) -> Tuple[np.ndarray, np.ndarray]:
        """(F, f0) = (A^+T (S B), A^+T (S (tau_g - Q qd))): lambda(u) = F u + f0 is the minimum-norm
        solution of A^T lam = S (B u + tau_g - Q qd), which S keeps consistent."""
        A_pinv_T = self.A_pinv.T
        F = A_pinv_T.dot(self.S.dot(self.model.actuation))
        f0 = A_pinv_T.dot(self.S.dot(self.tau_g - self.Q.dot(self.state.q_dot)))
        return F, f0


def cone_margins(forces: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """mu lambda_z - ||(lambda_x, lambda_y)|| per contact: in the cone iff it and lambda_z are positive."""
    lam = forces.reshape(-1, 3)
    return mu * lam[:, 2] - np.hypot(lam[:, 0], lam[:, 1])


def _default_nu(M: np.ndarray) -> float:
    """trace(M)/n, the default nu; raises InputError when M is not finite."""
    if not np.isfinite(M).all():
        raise InputError("mass_matrix returned non-finite entries")
    return float(np.trace(M)) / M.shape[0]


def build_frame(model: RobotModel, state: RobotState, nu: Optional[float] = None) -> ConstraintFrame:
    """Assemble the constraint frame at a state.

    Evaluates M, C, tau_g, A and A_dot once, validates what the model's
    callbacks return (shapes, finite A and A_dot) and nu > 0, then forms
    A^+, P, L and M_bar, M_bar^-1, C_bar, with the product P M they share
    formed once.
    nu defaults to trace(M(q))/n, for which M must be finite; callers that
    integrate over time should fix it once at the initial state so M_bar stays
    smooth in time.
    """
    q, qd, active = state.q, state.q_dot, state.active_contacts
    M = np.asarray(model.mass_matrix(q), dtype=float)
    C = np.asarray(model.coriolis_matrix(q, qd), dtype=float)
    tau_g = np.asarray(model.gravity(q), dtype=float)
    n = model.n
    if M.shape != (n, n) or C.shape != (n, n) or tau_g.shape != (n,):
        raise InputError("model callbacks returned inconsistent shapes")

    A = np.asarray(model.contact_stack(q, active), dtype=float)
    A_dot = model.contact_stack_rate(q, qd, active)
    if A.shape != (3 * len(active), n) or A_dot.shape != A.shape:
        raise InputError(f"contact stack is {A.shape} with rate {A_dot.shape}, expected {(3 * len(active), n)}")
    if not (np.isfinite(A).all() and np.isfinite(A_dot).all()):
        raise InputError("contact stack or its rate contains non-finite entries")

    if nu is None:
        nu = _default_nu(M)
    if not nu > 0:
        raise InputError(f"nu must be positive, got {nu}")

    A_pinv, P, rank = _projector(A)
    L, Omega, P_dot = _rate(A_pinv, A_dot, P)

    PM = P.dot(M)
    M_bar = PM.dot(P) + nu * (_identity(n) - P)
    M_bar = 0.5 * (M_bar + M_bar.T)
    C_bar = P.dot(C).dot(P) + PM.dot(P_dot) - nu * L
    return ConstraintFrame(
        A=A,
        A_pinv=A_pinv,
        P=P,
        rank=rank,
        Omega=Omega,
        P_dot=P_dot,
        M=M,
        C=C,
        tau_g=tau_g,
        M_bar=M_bar,
        M_bar_inv=_inv(M_bar),
        C_bar=C_bar,
        model=model,
        state=state,
    )


def constrained_accel(frame: ConstraintFrame, u: np.ndarray) -> np.ndarray:
    """Generalized acceleration under the active constraints.

    qdd = M_bar^-1 (P B u + P tau_g - C_bar qd); the component outside the
    admissible subspace automatically satisfies (I - P) qdd = Omega qd.
    """
    return _accel(frame, frame.model.actuation.dot(np.asarray(u, dtype=float)))


def _accel(frame: ConstraintFrame, Bu: np.ndarray) -> np.ndarray:
    """constrained_accel from the generalized actuation force B u, which an RK4 step forms once."""
    return frame.M_bar_inv.dot(frame.P.dot(Bu + frame.tau_g) - frame.C_bar.dot(frame.state.q_dot))


def _as_tau_c(frame: ConstraintFrame, tau_c) -> np.ndarray:
    """tau_c as a float array; InputError unless it is a finite n-vector (a NaN passes any residual test)."""
    tau_c = np.asarray(tau_c, dtype=float)
    if tau_c.shape != (frame.n,) or not np.isfinite(tau_c).all():
        raise InputError(f"tau_c must have shape ({frame.n},) and be finite, got {tau_c.tolist()}")
    return tau_c


def contact_forces(frame: ConstraintFrame, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(lam, margins): the (k, 3) contact forces F u + f0 (ConstraintFrame.force_map), one (x, y, z)
    row per active contact and the minimum-norm solution when A is rank-deficient, and their cone_margins.
    With no active contact they are empty, of shapes (0, 3) and (0,)."""
    active = frame.state.active_contacts
    F, f0 = frame.force_map
    lam = (F.dot(np.asarray(u, dtype=float)) + f0).reshape(-1, 3)
    mu = np.array([frame.model.contacts[i].friction for i in active])
    return lam, cone_margins(lam, mu)
