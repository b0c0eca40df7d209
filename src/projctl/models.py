"""Desk-scale planar robot models with exact dynamics from generated code.

Both models live in the x-z plane with gravity along -z.  A planar model is
declared by its actuation matrix B, its feet (contact points) and a parameter
tuple; everything else goes through one builder.  Its inertia, Coriolis and
gravity terms and each foot's contact block, rate and point are plain
functions in _planar_dynamics, which tools/generate_dynamics.py writes from the
symbolic pipeline in tests/oracles.py (Lagrangian, Christoffel symbols,
lambdify), so d/dt(M) - 2C is skew-symmetric to machine precision and contact
Jacobian rates are analytic, with nothing derived at run time.  They evaluate
cos and sin with math on Python floats.  _planar_model binds them to the
parameter tuple and assembles the RobotModel.  Every bundled task is linear,
x = J q with constant J, built by _constant_task.

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
from typing import Optional, Sequence, Tuple

import numpy as np

from . import _planar_dynamics
from .constrained_dynamics import ContactSpec, RobotModel
from .errors import InputError
from .task_space import TaskDef


def _bind(f, prm, n: int, rate: bool = False):
    """f as a model callback: q -> f(q, 0, prm), or (q, qd) -> f(q, qd, prm) when rate.
    f gets Python floats, with no zeros array formed per call, and its math cos/sin keep
    them Python floats up to the returned array; each result is bit-equal to f's
    arithmetic on numpy float64 scalars with numpy's cos/sin.  Where numpy would return
    inf or nan, math raises (cos of an infinite angle, a float power out of range); that
    is an InputError naming f."""

    def call(*args):
        try:
            return np.asarray(f(*args, *prm), dtype=float)
        except (ValueError, OverflowError) as exc:
            raise InputError(f"{f.__name__}: non-finite or out-of-range state ({exc})") from exc

    if rate:
        return lambda q, qd: call(*np.asarray(q).tolist(), *np.asarray(qd).tolist())
    zeros = (0.0,) * n
    return lambda q: call(*np.asarray(q).tolist(), *zeros)


def _in_plane(point_xz: np.ndarray) -> np.ndarray:
    """The 3-d point (x, 0, z) of a generated 2x1 (x, z) contact point."""
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


def _planar_model(name: str, prefix: str, prm, B: np.ndarray, feet: Sequence[str], params) -> RobotModel:
    """The RobotModel of the generated functions _planar_dynamics.<prefix>_* bound to the
    parameter tuple prm, with actuation B, one contact per foot name, and params' friction,
    torque limit and motors."""
    n, p = B.shape

    def generated(quantity):
        return getattr(_planar_dynamics, f"{prefix}_{quantity}")

    contacts = tuple(
        ContactSpec(
            jacobian=_bind(generated(f"A{i}"), prm, n),
            jacobian_rate=_bind(generated(f"A_dot{i}"), prm, n, rate=True),
            point=lambda q, f=_bind(generated(f"point{i}"), prm, n): _in_plane(f(q)),
            friction=params.friction,
            name=foot,
        )
        for i, foot in enumerate(feet)
    )
    lim = float(params.torque_limit)
    return RobotModel(
        mass_matrix=_bind(generated("M"), prm, n),
        coriolis_matrix=_bind(generated("C"), prm, n, rate=True),
        gravity=lambda q, f=_bind(generated("tau_g"), prm, n): f(q).ravel(),
        actuation=B,
        contacts=contacts,
        u_min=-lim * np.ones(p),
        u_max=lim * np.ones(p),
        motor_resistance=np.asarray(params.motor_resistance, dtype=float),
        torque_constant=np.asarray(params.torque_constant, dtype=float),
        name=name,
    )


# ---------------------------------------------------------------------------
# three-link planar arm pressing its tip on a surface


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
    prm = (*params.lengths, *params.masses, *params.resolved_inertias(), params.gravity)
    return _planar_model("planar_arm", "arm", prm, np.eye(3), ("tip",), params)


# ---------------------------------------------------------------------------
# floating-base planar biped with two single-link legs


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
    prm = (
        params.torso_mass,
        params.torso_inertia,
        params.torso_com_offset,
        params.leg_mass,
        params.resolved_leg_inertia(),
        params.leg_length,
        params.gravity,
    )
    B = np.zeros((5, 2))
    B[3, 0] = 1.0
    B[4, 1] = 1.0
    return _planar_model("floating_biped", "biped", prm, B, ("foot0", "foot1"), params)


def standing_pose(params: Optional[BipedParams] = None) -> np.ndarray:
    """Biped configuration with both feet on z = 0, each leg splayed 0.25 rad, and the base centered."""
    params = params or BipedParams()
    splay = 0.25
    return np.array([0.0, params.leg_length * np.cos(splay), 0.0, -splay, splay])


# ---------------------------------------------------------------------------
# task factories


def _constant_task(name: str, J: np.ndarray, value) -> TaskDef:
    """The task x = value(q) = J q with constant J, so J_dot = 0; J and the zero rate are shared and read-only."""
    rate = np.zeros_like(J)
    J.flags.writeable = rate.flags.writeable = False
    return TaskDef(name=name, dim=J.shape[0], value=value, jacobian=lambda q: J, jacobian_rate=lambda q, qd: rate)


def link_orientation_task(n: int) -> TaskDef:
    """Absolute orientation of the final link of a serial chain."""
    return _constant_task("link_orientation", np.ones((1, n)), lambda q: np.array([float(np.sum(q))]))


def _require_floating_base(name: str, n: int) -> None:
    """Base tasks read the floating base's (x, z, pitch) = q[:3], so they need n >= 3."""
    if n < 3:
        raise InputError(f"{name} task needs n >= 3 coordinates (the base's x, z and pitch), got n = {n}")


def base_pitch_task(n: int = 5) -> TaskDef:
    _require_floating_base("base_pitch", n)
    return _constant_task("base_pitch", np.eye(1, n, 2), lambda q: np.array([q[2]]))


def base_pose_task(n: int = 5) -> TaskDef:
    _require_floating_base("base_pose", n)
    return _constant_task("base_pose", np.eye(3, n), lambda q: np.asarray(q[:3], dtype=float).copy())


def joint_task(indices: Sequence[int], n: int) -> TaskDef:
    """The joint coordinates q[indices]: a nonempty list or tuple of distinct integers in [0, n)."""
    idx = tuple(indices) if isinstance(indices, (list, tuple)) else ()
    in_range = all(isinstance(i, numbers.Integral) and not isinstance(i, bool) and 0 <= i < n for i in idx)
    if not (idx and in_range and len(set(idx)) == len(idx)):
        raise InputError(f"joint task indices must be distinct integers in [0, {n}), got {indices!r}")
    idx = [int(i) for i in idx]
    return _constant_task(f"joint{idx}", np.eye(n)[idx], lambda q: np.asarray(q, dtype=float)[idx])


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


# model kind -> (params dataclass, builder, description)
MODEL_CATALOG = {
    "planar_arm": (ArmParams, planar_arm_contact, "3-link planar arm, tip pressing on a surface (n=3, p=3, k=1)"),
    "floating_biped": (BipedParams, floating_biped, "planar floating-base biped with two point feet (n=5, p=2, k=2)"),
}


def build_model(kind: str, params: Optional[dict] = None) -> RobotModel:
    params = params or {}
    if not (isinstance(kind, str) and kind in MODEL_CATALOG):
        raise InputError(f"unknown model '{kind}'; known: {sorted(MODEL_CATALOG)}")
    params_cls, build, _ = MODEL_CATALOG[kind]
    known = {f.name for f in fields(params_cls)}
    for key in params:
        if key not in known:
            raise InputError(f"{key} is not a parameter of '{kind}'; known: {sorted(known)}")
    return build(params_cls(**params))
