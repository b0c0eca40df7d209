"""Desk-scale planar robot models with exact symbolic dynamics.

Both models live in the x-z plane with gravity along -z.  Inertia, Coriolis
and gravity terms are derived symbolically once per model structure (cached)
and evaluated through lambdified callables, so d/dt(M) - 2C is skew-symmetric
to machine precision and contact Jacobian rates are analytic.

Contact blocks follow the package convention: each 3xn block maps generalized
velocity to the negative contact-point velocity (rows x, y, z; the y row is
identically zero for these planar models), which makes the associated
multipliers the physical force applied to the robot with +z the outward
normal.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np
import sympy as sp

from .constrained_dynamics import ContactSpec, RobotModel
from .errors import InputError
from .task_space import TaskDef


# ---------------------------------------------------------------------------
# symbolic helpers


def _christoffel(M: sp.Matrix, q, qd) -> sp.Matrix:
    n = len(q)
    dM = [[[sp.diff(M[i, j], q[k]) for k in range(n)] for j in range(n)] for i in range(n)]
    C = sp.zeros(n, n)
    for i in range(n):
        for j in range(n):
            C[i, j] = (
                sum((dM[i][j][k] + dM[i][k][j] - dM[j][k][i]) * qd[k] for k in range(n))
                / 2
            )
    return C


def _lam(args, expr):
    return sp.lambdify(args, expr, modules="numpy", cse=True)


def _planar_lagrangian(q, qd, bodies, g):
    """M, C, tau_g for a set of planar bodies.

    bodies: list of (mass, inertia, com_xz (2-vector expr), angle expr).
    """
    n = len(q)
    M = sp.zeros(n, n)
    V = sp.S.Zero
    for mass, inertia, com, ang in bodies:
        Jv = com.jacobian(q)
        Jw = sp.Matrix([[sp.diff(ang, qi) for qi in q]])
        M += mass * (Jv.T * Jv) + inertia * (Jw.T * Jw)
        V += mass * g * com[1]
    C = _christoffel(M, q, qd)
    tau_g = sp.Matrix([-sp.diff(V, qi) for qi in q])
    return M, C, tau_g


def _contact_functions(point_xz: sp.Matrix, q, qd, args):
    """Lambdified 3xn contact block, its rate, and the 3-d contact point."""
    J = point_xz.jacobian(q)
    n = len(q)
    A = sp.zeros(3, n)
    A[0, :] = -J[0, :]
    A[2, :] = -J[1, :]
    A_dot = sp.zeros(3, n)
    for k in range(n):
        A_dot += sp.diff(A, q[k]) * qd[k]
    return _lam(args, A), _lam(args, A_dot), _lam(args, point_xz)


def _bind(f, prm, n: int, rate: bool = False):
    """f as a model callback: q -> f(q, 0, prm), or (q, qd) -> f(q, qd, prm) when rate.
    f gets Python floats, with no zeros array or numpy scalars formed per call; each
    result is bit-equal to f called on numpy float64 scalars."""
    if rate:
        return lambda q, qd: np.asarray(f(*np.asarray(q).tolist(), *np.asarray(qd).tolist(), *prm), dtype=float)
    zeros = (0.0,) * n
    return lambda q: np.asarray(f(*np.asarray(q).tolist(), *zeros, *prm), dtype=float)


def _in_plane(point_xz: np.ndarray) -> np.ndarray:
    """The 3-d point (x, 0, z) of a lambdified 2x1 (x, z) contact point."""
    return np.array([point_xz[0, 0], 0.0, point_xz[1, 0]])


def _is_number(value) -> bool:
    """A finite real number that is not a boolean."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _check_fields(params, positive=()) -> None:
    """Each field of a params dataclass must be a finite number or, if annotated Tuple[float, ...],
    a list or tuple of that many (kept as a tuple); a field defaulting to None may be None, and
    those named in positive must be > 0.  Messages start with the field's name."""
    for f in fields(params):
        value = getattr(params, f.name)
        size = str(f.type).count("float") if "Tuple" in str(f.type) else None
        if value is None and f.default is None:
            continue
        entries = (value,) if size is None else tuple(value) if isinstance(value, (list, tuple)) else ()
        if len(entries) != (size or 1) or not all(map(_is_number, entries)):
            want = f"a list of {size} finite numbers" if size else "a finite number"
            raise InputError(f"{f.name} must be {want}, got {value!r}")
        if f.name in positive and min(entries) <= 0:
            raise InputError(f"{f.name} must be positive, got {value!r}")
        if size:
            object.__setattr__(params, f.name, entries)


# ---------------------------------------------------------------------------
# three-link planar arm pressing its tip on a surface


@lru_cache(maxsize=None)
def _arm_symbolics(n_links: int):
    q = sp.symbols(f"q:{n_links}")
    qd = sp.symbols(f"dq:{n_links}")
    lengths = sp.symbols(f"len:{n_links}", positive=True)
    masses = sp.symbols(f"mass:{n_links}", positive=True)
    inertias = sp.symbols(f"rotin:{n_links}", positive=True)
    g = sp.Symbol("grav")
    args = (*q, *qd, *lengths, *masses, *inertias, g)

    bodies = []
    joint = sp.Matrix([0, 0])
    angle = sp.S.Zero
    tip = None
    for j in range(n_links):
        angle = angle + q[j]
        direction = sp.Matrix([sp.cos(angle), sp.sin(angle)])
        com = joint + (lengths[j] / 2) * direction
        bodies.append((masses[j], inertias[j], com, angle))
        joint = joint + lengths[j] * direction
        tip = joint
    M, C, tau_g = _planar_lagrangian(list(q), list(qd), bodies, g)
    fA, fAdot, fpoint = _contact_functions(tip, list(q), list(qd), args)
    return {
        "M": _lam(args, M),
        "C": _lam(args, C),
        "tau_g": _lam(args, tau_g),
        "A": fA,
        "A_dot": fAdot,
        "point": fpoint,
    }


@dataclass(frozen=True)
class ArmParams:
    """Parameters of the three-link pressing arm."""

    lengths: Tuple[float, float, float] = (0.45, 0.40, 0.35)
    masses: Tuple[float, float, float] = (1.6, 1.2, 0.8)
    inertias: Optional[Tuple[float, float, float]] = None
    gravity: float = 9.81
    friction: float = 0.6
    torque_limit: float = 25.0
    motor_resistance: Tuple[float, float, float] = (1.2, 1.0, 0.8)
    torque_constant: Tuple[float, float, float] = (0.9, 1.0, 1.1)

    def __post_init__(self):
        _check_fields(self, positive=("lengths", "masses", "inertias", "torque_limit"))
        if self.gravity < 0:
            raise InputError(f"gravity must be nonnegative, got {self.gravity!r}")

    def resolved_inertias(self) -> Tuple[float, ...]:
        if self.inertias is not None:
            return tuple(self.inertias)
        # uniform rods about their centers
        return tuple(m * l * l / 12.0 for m, l in zip(self.masses, self.lengths))


def planar_arm_contact(params: Optional[ArmParams] = None) -> RobotModel:
    """Three-link planar arm whose tip presses on a frictional surface.

    n = p = 3, one contact at the tip pinning its in-plane translation, which
    leaves a single admissible degree of freedom (l = 1).  The two-parameter
    actuation redundancy is what the torque optimizer exploits.
    """
    params = params or ArmParams()
    n = 3
    funcs = _arm_symbolics(n)
    prm = (*params.lengths, *params.masses, *params.resolved_inertias(), params.gravity)
    tip = ContactSpec(
        jacobian=_bind(funcs["A"], prm, n),
        jacobian_rate=_bind(funcs["A_dot"], prm, n, rate=True),
        point=lambda q, f=_bind(funcs["point"], prm, n): _in_plane(f(q)),
        friction=params.friction,
        name="tip",
    )
    lim = float(params.torque_limit)
    return RobotModel(
        n=n,
        p=n,
        mass_matrix=_bind(funcs["M"], prm, n),
        coriolis_matrix=_bind(funcs["C"], prm, n, rate=True),
        gravity=lambda q, f=_bind(funcs["tau_g"], prm, n): f(q).ravel(),
        actuation=np.eye(n),
        contacts=(tip,),
        u_min=-lim * np.ones(n),
        u_max=lim * np.ones(n),
        motor_resistance=np.asarray(params.motor_resistance, dtype=float),
        torque_constant=np.asarray(params.torque_constant, dtype=float),
        name="planar_arm",
    )


# ---------------------------------------------------------------------------
# floating-base planar biped with two single-link legs


@lru_cache(maxsize=None)
def _biped_symbolics():
    bx, bz, th, y0, y1 = sp.symbols("bx bz bth hip0 hip1")
    q = (bx, bz, th, y0, y1)
    qd = sp.symbols("dbx dbz dbth dhip0 dhip1")
    mt, It, ct = sp.symbols("mt It ct", positive=True)
    ml, Il, ll = sp.symbols("ml Il ll", positive=True)
    g = sp.Symbol("grav")
    args = (*q, *qd, mt, It, ct, ml, Il, ll, g)

    torso_com = sp.Matrix([bx - ct * sp.sin(th), bz + ct * sp.cos(th)])
    bodies = [(mt, It, torso_com, th)]
    feet = []
    for y in (y0, y1):
        psi = th + y
        direction = sp.Matrix([sp.sin(psi), -sp.cos(psi)])
        hip = sp.Matrix([bx, bz])
        com = hip + (ll / 2) * direction
        bodies.append((ml, Il, com, psi))
        feet.append(hip + ll * direction)
    M, C, tau_g = _planar_lagrangian(list(q), list(qd), bodies, g)
    contact_funcs = [_contact_functions(f, list(q), list(qd), args) for f in feet]
    return {
        "M": _lam(args, M),
        "C": _lam(args, C),
        "tau_g": _lam(args, tau_g),
        "contacts": contact_funcs,
    }


@dataclass(frozen=True)
class BipedParams:
    """Parameters of the floating-base planar biped (point feet)."""

    torso_mass: float = 8.0
    torso_inertia: float = 0.15
    torso_com_offset: float = 0.25
    leg_mass: float = 1.0
    leg_inertia: Optional[float] = None
    leg_length: float = 0.8
    gravity: float = 9.81
    friction: float = 0.7
    torque_limit: float = 60.0
    motor_resistance: Tuple[float, float] = (1.0, 1.0)
    torque_constant: Tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        positive = ("torso_mass", "torso_inertia", "leg_mass", "leg_inertia", "leg_length", "torque_limit")
        _check_fields(self, positive)

    def resolved_leg_inertia(self) -> float:
        if self.leg_inertia is not None:
            return float(self.leg_inertia)
        return self.leg_mass * self.leg_length**2 / 12.0


def floating_biped(params: Optional[BipedParams] = None) -> RobotModel:
    """Planar biped: unactuated base (x, z, pitch) plus two hip-actuated legs.

    n = 5, p = 2 with the actuation matrix selecting only the hip joints, so
    the base coordinates are reachable only through the contacts.  Both point
    feet are contact candidates; schedules switch them on and off.
    """
    params = params or BipedParams()
    funcs = _biped_symbolics()
    prm = (
        params.torso_mass,
        params.torso_inertia,
        params.torso_com_offset,
        params.leg_mass,
        params.resolved_leg_inertia(),
        params.leg_length,
        params.gravity,
    )
    n, p = 5, 2
    contacts = []
    for i, (fA, fAdot, fpoint) in enumerate(funcs["contacts"]):
        contacts.append(
            ContactSpec(
                jacobian=_bind(fA, prm, n),
                jacobian_rate=_bind(fAdot, prm, n, rate=True),
                point=lambda q, f=_bind(fpoint, prm, n): _in_plane(f(q)),
                friction=params.friction,
                name=f"foot{i}",
            )
        )
    B = np.zeros((n, p))
    B[3, 0] = 1.0
    B[4, 1] = 1.0
    lim = float(params.torque_limit)
    return RobotModel(
        n=n,
        p=p,
        mass_matrix=_bind(funcs["M"], prm, n),
        coriolis_matrix=_bind(funcs["C"], prm, n, rate=True),
        gravity=lambda q, f=_bind(funcs["tau_g"], prm, n): f(q).ravel(),
        actuation=B,
        contacts=tuple(contacts),
        u_min=-lim * np.ones(p),
        u_max=lim * np.ones(p),
        motor_resistance=np.asarray(params.motor_resistance, dtype=float),
        torque_constant=np.asarray(params.torque_constant, dtype=float),
        name="floating_biped",
    )


def standing_pose(params: Optional[BipedParams] = None, splay: float = 0.25) -> np.ndarray:
    """Biped configuration with both feet on z = 0 and the base centered."""
    params = params or BipedParams()
    return np.array([0.0, params.leg_length * np.cos(splay), 0.0, -splay, splay])


# ---------------------------------------------------------------------------
# task factories


def link_orientation_task(n: int) -> TaskDef:
    """Absolute orientation of the final link of a serial chain."""
    J = np.ones((1, n))
    return TaskDef(
        name="link_orientation",
        dim=1,
        value=lambda q: np.array([float(np.sum(q))]),
        jacobian=lambda q: J,
        jacobian_rate=lambda q, qd: np.zeros((1, n)),
    )


def base_pitch_task(n: int = 5) -> TaskDef:
    J = np.zeros((1, n))
    J[0, 2] = 1.0
    return TaskDef(
        name="base_pitch",
        dim=1,
        value=lambda q: np.array([q[2]]),
        jacobian=lambda q: J,
        jacobian_rate=lambda q, qd: np.zeros((1, n)),
    )


def base_pose_task(n: int = 5) -> TaskDef:
    J = np.zeros((3, n))
    J[0, 0] = J[1, 1] = J[2, 2] = 1.0
    return TaskDef(
        name="base_pose",
        dim=3,
        value=lambda q: np.asarray(q[:3], dtype=float).copy(),
        jacobian=lambda q: J,
        jacobian_rate=lambda q, qd: np.zeros((3, n)),
    )


def joint_task(indices: Sequence[int], n: int) -> TaskDef:
    """The joint coordinates q[indices]: a nonempty list or tuple of distinct integers in [0, n)."""
    idx = tuple(indices) if isinstance(indices, (list, tuple)) else ()
    in_range = all(isinstance(i, numbers.Integral) and not isinstance(i, bool) and 0 <= i < n for i in idx)
    if not (idx and in_range and len(set(idx)) == len(idx)):
        raise InputError(f"joint task indices must be distinct integers in [0, {n}), got {indices!r}")
    idx = tuple(int(i) for i in idx)
    J = np.zeros((len(idx), n))
    for row, i in enumerate(idx):
        J[row, i] = 1.0
    return TaskDef(
        name=f"joint{list(idx)}",
        dim=len(idx),
        value=lambda q: np.asarray(q, dtype=float)[list(idx)].copy(),
        jacobian=lambda q: J,
        jacobian_rate=lambda q, qd: np.zeros((len(idx), n)),
    )


def make_task(model: RobotModel, kind: str, **kwargs) -> TaskDef:
    if kind == "link_orientation":
        return link_orientation_task(model.n)
    if kind == "base_pitch":
        return base_pitch_task(model.n)
    if kind == "base_pose":
        return base_pose_task(model.n)
    if kind == "joint":
        return joint_task(kwargs.get("indices"), model.n)
    raise InputError(f"unknown task type '{kind}'")


MODEL_CATALOG = {
    "planar_arm": "3-link planar arm, tip pressing on a surface (n=3, p=3, k=1)",
    "floating_biped": "planar floating-base biped with two point feet (n=5, p=2, k=2)",
}


def build_model(kind: str, params: Optional[dict] = None) -> RobotModel:
    params = params or {}
    if kind == "planar_arm":
        return planar_arm_contact(ArmParams(**params))
    if kind == "floating_biped":
        return floating_biped(BipedParams(**params))
    raise InputError(f"unknown model '{kind}'; known: {sorted(MODEL_CATALOG)}")
