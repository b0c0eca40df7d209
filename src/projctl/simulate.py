"""Fixed-step constrained simulation with scheduled contact switching.

Each control tick builds one ConstraintFrame and hands it alone to the task
map, the control law, the torque allocator and the contact forces; the frame
carries the model and state they read.  The integrator then advances the
projected dynamics with classical RK4 under a zero-order-hold actuation; each
stage builds a frame and reads only its acceleration.  After each step the
velocity is projected back onto the active null space; that projection is what
holds the contacts, with no position-level correction.  Contact switches are
schedule-driven: activating a contact maps the velocity by P, the Euclidean
projection onto the new admissible space (not an impact law; see
switch_contacts); all matrices stay n x n throughout, so the controller code
path never changes.  A contact-free state is the same path with an empty
stack: A is (0, n), P = I, the contact forces are empty and the drift is 0.0.

SimTrace.columns() is the one statement of the trace CSV layout: to_csv
writes its header and rows from it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .constrained_dynamics import (
    ConstraintFrame,
    RobotModel,
    RobotState,
    _accel,
    build_frame,
    contact_forces,
)
from .constraint_geometry import null_projector
from .control_laws import (
    ControllerGains,
    min_norm_actuation,
    regulation_lyapunov,
    regulation_torque,
    tracking_disturbance,
    tracking_torque,
)
from .errors import RUN_ERRORS, InputError, SimulationError, SolverError
from .task_space import TaskDef, build_task
from .torque_qcqp import (
    assemble_cone_constraints,
    assemble_program,
    relax_program,
    solve_barrier,
)


# largest ||A(q) q_dot|| a step may leave after its velocity projection
DRIFT_HARD_LIMIT = 1e-6
# a normal force or cone margin at or below this, or a torque this far outside its box (step warns), is a violation
VIOLATION_TOL = 1e-9
Trajectory = Callable[[float], Tuple[np.ndarray, np.ndarray, np.ndarray]]  # t -> (x_d, x_d_dot, x_d_ddot)
REFERENCE_PARTS = ("x_d", "x_d_dot", "x_d_ddot")


def constant_reference(x_d) -> Trajectory:
    """t -> (x_d, 0, 0): the fixed x_d, and one zero vector as both of its derivatives."""
    x_d = np.atleast_1d(np.asarray(x_d, dtype=float))
    zero = np.zeros_like(x_d)
    return lambda t: (x_d, zero, zero)


def sinusoid_reference(center, amplitude, frequency_hz, phase=None) -> Trajectory:
    """t -> (x_d, x_d_dot, x_d_ddot) of x_d = center + amplitude sin(2 pi frequency_hz t + phase),
    with analytic derivatives; the last three arguments take 1 or len(center) entries.  Raises
    InputError, its message starting with the field's name, where x_d or a derivative's gain overflows."""
    center = np.atleast_1d(np.asarray(center, dtype=float))

    def per_entry(value, name):
        value = np.atleast_1d(np.asarray(value, dtype=float))
        if value.shape not in ((1,), center.shape):
            raise InputError(f"{name} must have 1 or {center.size} entries, got shape {value.shape}")
        return np.broadcast_to(value, center.shape)

    amplitude = per_entry(amplitude, "amplitude")
    frequency_hz = per_entry(frequency_hz, "frequency_hz")
    phase = np.zeros_like(center) if phase is None else per_entry(phase, "phase")
    # |x_d|'s bound and the gains below, as Python floats in numpy's order: a float overflows with no warning
    for c, a, f in zip(center.tolist(), amplitude.tolist(), frequency_hz.tolist()):
        w = 2.0 * math.pi * f
        for name, value in (("amplitude", abs(c) + abs(a)), ("frequency_hz", a * w), ("frequency_hz", a * (w * w))):
            if not math.isfinite(value):
                raise InputError(f"{name} overflows: |center| + |amplitude|, a w and a w^2 (w = 2 pi f) must be finite")
    # the constant gains, formed once: a * w * cos(.) already evaluates as (a * w) * cos(.)
    omega = 2.0 * np.pi * frequency_hz
    rate_gain, accel_gain = amplitude * omega, -amplitude * omega**2

    def reference(t):
        angle = omega * t + phase
        s = np.sin(angle)
        return center + amplitude * s, rate_gain * np.cos(angle), accel_gain * s

    return reference


@dataclass(frozen=True)
class OptimizerSpec:
    """Torque allocation choice: min_norm, qcqp or qcqp_relaxed, and the penalty weight rho of
    qcqp_relaxed.  The barrier solver's constants are those of torque_qcqp."""

    kind: str = "min_norm"
    rho: float = 10.0

    def __post_init__(self):
        if self.kind not in ("min_norm", "qcqp", "qcqp_relaxed"):
            raise InputError(f"unknown optimizer '{self.kind}'")
        if not 0 < self.rho < math.inf:
            raise InputError(f"rho must be positive and finite, got {self.rho}")


@dataclass(frozen=True)
class Scenario:
    """Everything a deterministic run needs.

    Construction checks, once, what a run does not change, so the control laws check nothing per tick:
    the controller's name; dt and duration positive and finite, duration a whole number of steps;
    the initial q's length n; distinct indices in [0, k) in the initial and each scheduled contact set;
    finite, strictly increasing schedule times; K_P l x l and K_D l x l for tracking, n x n for
    regulation (l = task.dim; the message starts with the field's name); and the shape (l,) of each
    part of reference(0.0).  A sample's finiteness depends on t: simulate checks it every tick.
    """

    model: RobotModel
    initial: RobotState
    task: TaskDef
    reference: Trajectory
    controller: str  # "tracking" | "regulation"
    gains: ControllerGains
    optimizer: OptimizerSpec
    duration: float
    dt: float = 1e-3  # integrator step
    schedule: Tuple[Tuple[float, Tuple[int, ...]], ...] = ()
    name: str = "scenario"

    def __post_init__(self):
        if self.controller not in ("tracking", "regulation"):
            raise InputError(f"unknown controller '{self.controller}'")
        if not 0 < self.dt < np.inf:
            raise InputError(f"dt must be positive and finite, got {self.dt}")
        if not 0 < self.duration < math.inf:
            raise InputError(f"duration must be positive and finite, got {self.duration}")
        if abs(self.n_steps * self.dt - self.duration) > 1e-9:
            raise InputError(f"duration must be an integer multiple of integrator.dt = {self.dt}")
        if self.initial.q.shape != (self.model.n,):
            raise InputError(f"initial q has shape {self.initial.q.shape}, but the model has n={self.model.n}")
        for t, active in ((None, self.initial.active_contacts), *self.schedule):
            if len(set(active)) != len(active) or any(i < 0 or i >= self.model.k for i in active):
                where = "initial active set" if t is None else f"schedule set at t={t}"
                rule = f"contact indices must be distinct integers in [0, {self.model.k})"
                raise InputError(f"{where} {tuple(active)}: {rule}")
        times = [t for t, _ in self.schedule]
        if not all(math.isfinite(t) for t in times):
            raise InputError(f"schedule times must be finite, got {times}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise InputError("schedule times must be strictly increasing")
        l = self.task.dim
        kd_dim = l if self.controller == "tracking" else self.model.n
        for name, K, dim in (("K_P", self.gains.K_P, l), ("K_D", self.gains.K_D, kd_dim)):
            if K.shape != (dim, dim):
                raise InputError(f"{name} must be {dim}x{dim} for the {self.controller} law, got {K.shape}")
        for name, part in zip(REFERENCE_PARTS, self.reference(0.0)):
            if np.asarray(part).shape != (l,):
                raise InputError(f"reference {name} must have shape ({l},), got {np.shape(part)}")

    @property
    def n_steps(self) -> int:
        """Integrator steps in the run; the trace holds one more row, for t = 0."""
        return int(round(self.duration / self.dt))


@dataclass
class SimTrace:
    """Column-oriented record of one run (one row per step, including t=0)."""

    name: str
    t: np.ndarray
    q: np.ndarray
    q_dot: np.ndarray
    x: np.ndarray
    x_d: np.ndarray
    e_norm: np.ndarray
    u: np.ndarray
    lam: np.ndarray  # (steps, 3k) stacked per model contact, zeros when inactive
    margins: np.ndarray  # (steps, k), zeros when inactive
    p_loss: np.ndarray
    lyapunov: np.ndarray
    phi_norm: np.ndarray
    d_norm: np.ndarray
    newton_iters: np.ndarray
    centering: np.ndarray
    eta: np.ndarray
    status: List[str]
    drift: np.ndarray
    active: List[Tuple[int, ...]]

    @property
    def steps(self) -> int:
        return self.t.size

    def active_mask(self) -> np.ndarray:
        """(steps, k) booleans: row i has contact c active."""
        k = self.margins.shape[1]
        return np.array([[c in contacts for c in range(k)] for contacts in self.active], dtype=bool)

    def columns(self) -> List[Tuple[str, Sequence]]:
        """(CSV header, per-step values) of every trace column, in file order."""
        cols: List[Tuple[str, Sequence]] = [("t", self.t)]
        for prefix, block in (("q", self.q), ("dq", self.q_dot), ("x", self.x), ("xd", self.x_d)):
            cols += [(f"{prefix}{i}", block[:, i]) for i in range(block.shape[1])]
        cols.append(("e_norm", self.e_norm))
        cols += [(f"u{i}", self.u[:, i]) for i in range(self.u.shape[1])]
        for c in range(self.margins.shape[1]):
            cols += [(f"lam_{axis}_{c}", self.lam[:, 3 * c + j]) for j, axis in enumerate("xyz")]
            cols.append((f"margin_{c}", self.margins[:, c]))
        cols += [("p_loss", self.p_loss), ("lyapunov", self.lyapunov), ("phi_norm", self.phi_norm),
                 ("d_norm", self.d_norm), ("newton_iters", self.newton_iters), ("eta", self.eta),
                 ("status", self.status)]
        return cols

    def to_csv(self) -> str:
        """Header line, then one line per step: every number to 17 significant digits, the status as is."""
        cols = self.columns()
        row_format = ",".join("%s" if name == "status" else "%.17g" for name, _ in cols)
        rows = zip(*(values if name == "status" else values.tolist() for name, values in cols))
        lines = [",".join(name for name, _ in cols)] + [row_format % row for row in rows]
        return "\n".join(lines) + "\n"


def switch_contacts(state: RobotState, new_active: Sequence[int], model: RobotModel) -> RobotState:
    """Replace the active set; newly activated contacts absorb velocity.

    Activation maps q_dot to P q_dot, its Euclidean projection onto the new
    null space; deactivation keeps the velocity untouched.  Dimensions never
    change.  P q_dot is not the plastic impact law M_bar^-1 P M q_dot, whose
    impulse lies in range(A^T): at biped_switch's touchdown P q_dot keeps
    0.003 of the 2.470 J of kinetic energy, where the impact law keeps 1.651 J.
    """
    new = tuple(sorted(int(i) for i in new_active))
    if any(i < 0 or i >= model.k for i in new):
        raise InputError(f"active set {new} references unknown contacts (k={model.k})")
    if new == tuple(sorted(state.active_contacts)):
        return state
    q_dot = state.q_dot
    if set(new) - set(state.active_contacts):
        _, q_dot = _project_velocity(model, state.q, new, q_dot)
    return RobotState(t=state.t, q=state.q, q_dot=q_dot, active_contacts=new)


def _project_velocity(model: RobotModel, q: np.ndarray, active: Sequence[int], q_dot: np.ndarray):
    """(A, P q_dot): the active contacts' stack A at q, and q_dot projected onto its null space."""
    A = model.contact_stack(q, active)
    return A, null_projector(A).P.dot(q_dot)


def _unchecked(state: RobotState, **changes) -> RobotState:
    """state with the given fields replaced, skipping RobotState's checks: for values
    the simulator formed itself from a checked state."""
    new = object.__new__(RobotState)
    vars(new).update(vars(state), **changes)
    return new


def step(model: RobotModel, state: RobotState, u: np.ndarray, dt: float) -> RobotState:
    """Advance one RK4 step of dt under constant u, then re-project the velocity.

    Each of the four stages builds a frame at its own (q, q_dot).  B u is
    formed once per step, since u is held over it, and each stage velocity
    qd + c dt k_v once: it is both that stage's velocity argument and its k_q.
    The post-state is finite and satisfies ||A(q) q_dot|| <= DRIFT_HARD_LIMIT,
    or a SimulationError is raised.
    """
    if (u < model.u_min - VIOLATION_TOL).any() or (u > model.u_max + VIOLATION_TOL).any():
        warnings.warn("actuation outside its box limits", stacklevel=2)
    Bu = model.actuation.dot(u)

    def accel(q, q_dot):
        return _accel(build_frame(model, _unchecked(state, q=q, q_dot=q_dot)), Bu)

    q, qd = state.q, state.q_dot
    k1v = accel(q, qd)
    k1q = qd
    k2q = qd + 0.5 * dt * k1v
    k2v = accel(q + 0.5 * dt * k1q, k2q)
    k3q = qd + 0.5 * dt * k2v
    k3v = accel(q + 0.5 * dt * k2q, k3q)
    k4q = qd + dt * k3v
    k4v = accel(q + dt * k3q, k4q)
    q_new = q + (dt / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
    qd_new = qd + (dt / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
    if not (np.isfinite(q_new).all() and np.isfinite(qd_new).all()):
        raise SimulationError(f"non-finite state at t={state.t + dt:.4f}")

    A_new, qd_new = _project_velocity(model, q_new, state.active_contacts, qd_new)
    r = A_new.dot(qd_new)  # empty with no active contact, so drift 0.0
    drift = math.sqrt(r.dot(r))
    if not drift <= DRIFT_HARD_LIMIT:
        raise SimulationError(
            f"constraint drift {drift:.3e} exceeds {DRIFT_HARD_LIMIT:.1e} at t={state.t + dt:.4f}"
        )
    return _unchecked(state, t=state.t + dt, q=q_new, q_dot=qd_new)


def _allocate(scenario: Scenario, frame: ConstraintFrame, tau_c, prev_u):
    """Dispatch to the torque allocator.

    Returns (u, newton_iters, centering_steps, eta, status).
    """
    spec = scenario.optimizer
    if spec.kind == "min_norm":
        u = min_norm_actuation(frame, tau_c)
        return u, 0, 0, 0.0, "optimal"
    cones = assemble_cone_constraints(frame)
    program = assemble_program(frame, tau_c, cones=cones)
    if spec.kind == "qcqp_relaxed":
        program = relax_program(program, frame, spec.rho)
    report = solve_barrier(program, u0=prev_u)
    if report.status not in ("optimal", "relaxed"):
        raise SolverError(
            f"torque program {report.status} "
            f"(kkt={report.kkt_residual:.2e}, gap={report.duality_gap:.2e})"
        )
    return report.u_star, report.newton_iters, report.centering_steps, report.eta_final, report.status


def simulate(scenario: Scenario) -> SimTrace:
    """Run a scenario to completion and return its trace.

    Deterministic: no randomness anywhere, so identical scenarios produce
    identical traces, and every tick takes one path whatever the active set.
    An error of errors.RUN_ERRORS raised on the way keeps its type; its
    message starts with where it happened: "step i, t=..., active [...]: ".
    """
    model = scenario.model
    dt = scenario.dt
    n_steps = scenario.n_steps

    state = scenario.initial
    # enforce the velocity-level constraint at the start
    _, q_dot = _project_velocity(model, state.q, state.active_contacts, state.q_dot)
    state = replace(state, q_dot=q_dot)

    cols: Dict[str, list] = {f.name: [] for f in fields(SimTrace) if f.name != "name"}

    pending = list(scenario.schedule)
    prev_u = None
    try:
        for i in range(n_steps + 1):
            t = i * dt
            while pending and pending[0][0] <= t + 0.5 * dt:
                _, new_set = pending.pop(0)
                state = switch_contacts(state, new_set, model)
            state = _unchecked(state, t=t)

            frame = build_frame(model, state)
            task = build_task(frame, scenario.task)
            x_d, x_d_dot, x_d_ddot = sample = scenario.reference(t)  # Scenario checked its shape
            if not (np.isfinite(x_d).all() and np.isfinite(x_d_dot).all() and np.isfinite(x_d_ddot).all()):
                got = [np.asarray(part).tolist() for part in sample]
                raise InputError(f"reference sample ({', '.join(REFERENCE_PARTS)}) must be finite, got {got}")
            if scenario.controller == "tracking":
                cmd = tracking_torque(frame, task, x_d, x_d_dot, x_d_ddot, scenario.gains)
            else:
                cmd = regulation_torque(frame, task, x_d, scenario.gains)
            u, n_newton, n_center, eta, status = _allocate(scenario, frame, cmd.tau_c, prev_u)
            prev_u = u
            phi = cmd.tau_c - frame.P.dot(model.actuation.dot(u))
            d = tracking_disturbance(frame, phi)

            lam_row, margin_row = np.zeros(3 * model.k), np.zeros(model.k)
            active = list(state.active_contacts)
            lam_row.reshape(-1, 3)[active], margin_row[active] = contact_forces(frame, u)

            cols["t"].append(t)
            cols["q"].append(state.q.copy())
            cols["q_dot"].append(state.q_dot.copy())
            cols["x"].append(task.x.copy())
            cols["x_d"].append(np.asarray(x_d, dtype=float).copy())
            cols["e_norm"].append(math.sqrt(cmd.e.dot(cmd.e)))
            cols["u"].append(u.copy())
            cols["lam"].append(lam_row)
            cols["margins"].append(margin_row)
            cols["p_loss"].append(float(u.dot(model.W).dot(u)))
            cols["lyapunov"].append(regulation_lyapunov(frame, cmd.e, scenario.gains.K_P))
            cols["phi_norm"].append(math.sqrt(phi.dot(phi)))
            cols["d_norm"].append(math.sqrt(d.dot(d)))
            cols["newton_iters"].append(n_newton)
            cols["centering"].append(n_center)
            cols["eta"].append(eta)
            cols["status"].append(status)
            r = frame.A.dot(state.q_dot)  # empty with no active contact, so drift 0.0
            cols["drift"].append(math.sqrt(r.dot(r)))
            cols["active"].append(state.active_contacts)

            if i < n_steps:
                state = step(model, state, u, dt)
    except RUN_ERRORS as exc:
        raise type(exc)(f"step {i}, t={t:.4f}, active {list(state.active_contacts)}: {exc}") from exc

    # status and active stay lists; every other column becomes an array
    lists = ("status", "active")
    return SimTrace(name=scenario.name, **{k: v if k in lists else np.asarray(v) for k, v in cols.items()})
