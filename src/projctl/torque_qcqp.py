"""Power-minimizing torque allocation as a log-barrier QCQP.

The program over actuator torques u is

    minimize    u^T W u                      (motor power loss)
    subject to  P B u = tau_c                (task-space equality)
                c(u) >= 0                    (cones, unilaterality, torque box)

where c(u) stacks, per contact, the linear normal-force row
z_i^T u + alpha_i and the quadratic cone row u^T G_i u + gamma_i^T u + beta_i,
followed by the box rows u_max - u and u - u_min, plus any appended moment
rows.  The builders take the ConstraintFrame alone: its model gives B, W, the
box and the friction coefficients, its state the active contacts.  Every
contact row, and each force-regulation equality, is read from the affine force
map lambda(u) = F u + f0, formed once per frame (force_map); a TorqueProgram
stacks its rows on first read.  It is solved
by following the central path of the barrier problem

    minimize    u^T W u - eta * sum_i log c_i(u)    s.t.  P B u = tau_c

with an equality-constrained (infeasible-start) Newton method for each fixed
eta, shrinking eta from ETA0 by KAPPA until the duality-gap bound r * eta
drops to EPS.

The friction rows keep the cone nonlinear.  Because lambda(u) is affine in u,
the pair lambda_z > 0, mu^2 lambda_z^2 - ||lambda_t||^2 > 0 is a second-order
cone, whose barrier -log(mu^2 lambda_z^2 - ||lambda_t||^2) is convex on the
cone's interior; linear rows have convex barriers too.  The barrier problem
is therefore convex, its Hessian is positive definite (W is), and Newton
needs no Hessian repair.  A quadratic row built by hand must keep this
property: it must be such a second-order-cone row, or concave (G negative
semidefinite).

The relaxed variant removes the equality and minimizes
u^T W' u - rho b^T u, the expansion of u^T W u + rho ||d(u)||^2 with
d(u) = M_bar^-1 (tau_c - P B u), trading task fidelity against power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .constrained_dynamics import ConstraintFrame
from .constraint_geometry import _identity
from .errors import InputError

# relative tolerance on the component of tau_c outside range(P)
TAU_C_TOL = 1e-8
# barrier weight eta of the first centering step
ETA0 = 1.0
# factor that shrinks eta after each centering step
KAPPA = 0.2
# a solve is certified once its duality-gap bound r * eta is at most EPS
EPS = 1e-8
# a centering step ends once the KKT residual norm is at most NEWTON_TOL
NEWTON_TOL = 1e-10
# Newton steps allowed per centering step
MAX_NEWTON = 100
# centering steps allowed per solve; a solve that reaches it without the gap certificate fails
MAX_CENTERING = 80
# Armijo sufficient-decrease fraction of the residual-norm line search
LS_ALPHA = 0.25
# step shrink factor of the backtracking line search
LS_BETA = 0.5
# a strictly feasible start keeps every constraint row above MARGIN_SCALE * program.scale()
MARGIN_SCALE = 1e-9
# smoothed-max descent iterations allowed in phase 1
PHASE1_MAX_ITER = 600


def motor_weighting(R, K_t) -> np.ndarray:
    """Diagonal weighting with W_jj = R_j / K_t_j^2, so u^T W u = i^T R i."""
    R = np.asarray(R, dtype=float)
    K_t = np.asarray(K_t, dtype=float)
    if R.shape != K_t.shape or R.ndim != 1:
        raise InputError("R and K_t must be 1-d vectors of equal length")
    if np.any(K_t == 0.0):
        raise InputError("torque constants must be nonzero")
    if np.any(R <= 0.0):
        raise InputError("winding resistances must be positive")
    return _motor_weighting(R, K_t)


def _motor_weighting(R: np.ndarray, K_t: np.ndarray) -> np.ndarray:
    """diag(R / K_t^2) from checked float vectors, such as a RobotModel's."""
    return np.diag(R / K_t**2)


def power_loss(u, W) -> float:
    """Instantaneous dissipated power u^T W u (watt)."""
    u = np.asarray(u, dtype=float)
    W = np.asarray(W, dtype=float)
    if W.shape != (u.size, u.size):
        raise InputError(f"W must be {u.size}x{u.size}, got {W.shape}")
    return float(u @ W @ u)


@dataclass
class ConeConstraint:
    """Per-contact cone data in torque space.

    z^T u + alpha reproduces the normal force lambda_z(u); the quadratic form
    u^T G u + gamma^T u + beta reproduces mu^2 lambda_z^2 - lambda_x^2
    - lambda_y^2 (assemble_cone_constraints reads both from lambda(u) = F u + f0).
    """

    z: np.ndarray
    alpha: float
    G: np.ndarray
    gamma: np.ndarray
    beta: float


def assemble_cone_constraints(frame: ConstraintFrame) -> List[ConeConstraint]:
    """Cone coefficients for every active contact of the frame's state.

    With F_i, f_i the contact's three rows of the force map
    lambda(u) = F u + f0 (x, y, z) and D = diag(-1, -1, mu^2):
    z = F_i[2], alpha = f_i[2], G = F_i^T D F_i, gamma = 2 F_i^T D f_i and
    beta = f_i^T D f_i, so u^T G u + gamma^T u + beta = lambda_i^T D lambda_i.
    """
    active, contacts = frame.state.active_contacts, frame.model.contacts
    if len(active) == 0:
        raise InputError("cone constraints need at least one active contact")
    F, f0 = frame.force_map
    out = []
    for idx, contact in enumerate(active):
        F_i, f_i = F[3 * idx : 3 * idx + 3], f0[3 * idx : 3 * idx + 3]
        D = np.array([-1.0, -1.0, contacts[contact].friction ** 2])
        DF_i, Df_i = D[:, None] * F_i, D * f_i
        out.append(
            ConeConstraint(
                z=F_i[2], alpha=float(f_i[2]), G=F_i.T @ DF_i, gamma=2.0 * (F_i.T @ Df_i), beta=float(f_i @ Df_i)
            )
        )
    return out


@dataclass
class Relaxation:
    rho: float
    W_prime: np.ndarray
    b: np.ndarray


@dataclass
class TorqueProgram:
    """Data of one torque-allocation instance.

    Constraint stack order (length r = 2(k + p) + extra rows): per contact the
    linear row then the quadratic row, box upper u_max - u, box lower
    u - u_min, then appended linear extension rows.  The stack is built on
    first read: c(u) = lin u + off, plus u^T G_j u on quadratic row 2j + 1.
    """

    W: np.ndarray
    eq_mat: np.ndarray
    eq_rhs: np.ndarray
    cones: Tuple[ConeConstraint, ...]
    u_min: np.ndarray
    u_max: np.ndarray
    extra_z: np.ndarray = field(default=None)  # (j, p)
    extra_alpha: np.ndarray = field(default=None)  # (j,)
    relaxation: Optional[Relaxation] = None

    def __post_init__(self):
        if self.extra_z is None:
            self.extra_z = np.zeros((0, self.p))
            self.extra_alpha = np.zeros(0)

    @cached_property
    def lin(self) -> np.ndarray:  # (r, p)
        cone_lin = np.array([(c.z, c.gamma) for c in self.cones], dtype=float).reshape(2 * self.k, self.p)
        return np.vstack([cone_lin, _box_rows(self.p), self.extra_z])

    @cached_property
    def off(self) -> np.ndarray:  # (r,)
        cone_off = np.array([(c.alpha, c.beta) for c in self.cones], dtype=float).reshape(2 * self.k)
        return np.concatenate([cone_off, self.u_max, -self.u_min, self.extra_alpha])

    @cached_property
    def G(self) -> np.ndarray:  # (k, p, p)
        return np.array([c.G for c in self.cones], dtype=float).reshape(self.k, self.p, self.p)

    @cached_property
    def G_flat(self) -> np.ndarray:  # G as (k, p * p)
        return self.G.reshape(self.k, self.p * self.p)

    @cached_property
    def obj_quad(self) -> np.ndarray:  # (p, p): W, or W' when relaxed
        return self.W if self.relaxation is None else self.relaxation.W_prime

    @cached_property
    def obj_lin(self) -> np.ndarray:  # (p,)
        return np.zeros(self.p) if self.relaxation is None else -self.relaxation.rho * self.relaxation.b

    @cached_property
    def obj_hess(self) -> np.ndarray:  # 2 obj_quad
        return 2.0 * self.obj_quad

    @cached_property
    def quad(self) -> slice:  # the quadratic rows 1, 3, ..., 2k - 1 of the stack
        return slice(1, 2 * self.k, 2)

    @property
    def p(self) -> int:
        return self.W.shape[0]

    @property
    def k(self) -> int:
        return len(self.cones)

    @property
    def r(self) -> int:
        return self.lin.shape[0]

    @property
    def relaxed(self) -> bool:
        return self.relaxation is not None

    # objective in the active mode (power, or power + rho ||d||^2 expansion)
    def objective_quad(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.obj_quad, self.obj_lin

    def objective(self, u: np.ndarray) -> float:
        Wq, lin = self.objective_quad()
        return float(u @ Wq @ u + lin @ u)

    def constraint_values(self, u: np.ndarray) -> np.ndarray:
        return _values(self.lin, self.off, self.G, self.quad, np.asarray(u, dtype=float))

    def constraint_gradients(self, u: np.ndarray) -> np.ndarray:
        return _gradients(self.lin, self.G, self.quad, np.asarray(u, dtype=float))

    def scale(self) -> float:
        cone_off = np.abs(self.off[: 2 * self.k])
        return max(1.0, float(np.abs(self.u_max - self.u_min).max()), float(cone_off.max(initial=0.0)))


@lru_cache(maxsize=None)
def _box_rows(p: int) -> np.ndarray:
    """The read-only (2p, p) gradient rows [-I; I] of the torque box, formed once per p."""
    rows = np.vstack([-np.eye(p), np.eye(p)])
    rows.flags.writeable = False
    return rows


def assemble_program(
    frame: ConstraintFrame,
    tau_c: np.ndarray,
    cones: Optional[Sequence[ConeConstraint]] = None,
) -> TorqueProgram:
    """Bundle the equality map, cone rows and torque box of the frame's model into a program.

    tau_c must lie in the admissible force space (range of P).
    """
    model, n = frame.model, frame.n
    tau_c = np.asarray(tau_c, dtype=float)
    if tau_c.shape != (n,):
        raise InputError(f"tau_c must have shape ({n},)")
    r = (_identity(n) - frame.P) @ tau_c
    off = math.sqrt(r.dot(r))
    if off > TAU_C_TOL * max(1.0, math.sqrt(tau_c.dot(tau_c))):
        raise InputError(f"tau_c has a component outside range(P): {off:.3e}")
    cones = list(cones) if cones is not None else assemble_cone_constraints(frame)
    return TorqueProgram(
        W=_motor_weighting(model.motor_resistance, model.torque_constant),
        eq_mat=frame.P @ model.actuation,
        eq_rhs=tau_c,
        cones=tuple(cones),
        u_min=model.u_min.copy(),
        u_max=model.u_max.copy(),
    )


def relax_program(program: TorqueProgram, frame: ConstraintFrame, rho: float) -> TorqueProgram:
    """Replace the equality by the trade-off objective u^T W' u - rho b^T u.

    W' = W + rho B'^T Minv2 B' and b = 2 B'^T Minv2 tau_c with B' = P B and
    Minv2 = M_bar^-2, the exact expansion of ||u||_W^2 + rho ||d(u)||^2 up to
    a constant.
    """
    if rho <= 0:
        raise InputError("rho must be positive")
    Minv2 = frame.M_bar_inv @ frame.M_bar_inv
    E = program.eq_mat  # P B
    W_prime = program.W + rho * (E.T @ Minv2 @ E)
    W_prime = 0.5 * (W_prime + W_prime.T)
    b = 2.0 * (E.T @ (Minv2 @ program.eq_rhs))
    return replace(
        program,
        relaxation=Relaxation(rho=float(rho), W_prime=W_prime, b=b),
        eq_mat=np.zeros((0, program.p)),
        eq_rhs=np.zeros(0),
    )


def add_moment_constraints(program: TorqueProgram, frame: ConstraintFrame, selector: np.ndarray) -> TorqueProgram:
    """Append rows enforcing selected multiplier combinations to be <= 0.

    selector maps the stacked multipliers to the moments of interest
    (lambda_m = selector @ lambda); each appended row is -lambda_m(u) >= 0.
    """
    selector = np.atleast_2d(np.asarray(selector, dtype=float))
    m = frame.bundle.m
    if selector.shape[0] == 0:
        return program
    if selector.shape[1] != m:
        raise InputError(f"selector must have {m} columns, got {selector.shape[1]}")
    F, f0 = frame.force_map
    return replace(
        program,
        extra_z=np.vstack([program.extra_z, -(selector @ F)]),
        extra_alpha=np.concatenate([program.extra_alpha, -(selector @ f0)]),
    )


def add_force_regulation(
    program: TorqueProgram,
    frame: ConstraintFrame,
    selector: np.ndarray,
    lambda_desired: np.ndarray,
) -> TorqueProgram:
    """Append equality rows pinning selected multipliers to desired values.

    lambda_e(u) = selector @ lambda(u) = lambda_desired joins the equality
    block; infeasible targets surface as infeasible_equality at solve time.
    """
    selector = np.atleast_2d(np.asarray(selector, dtype=float))
    lambda_desired = np.atleast_1d(np.asarray(lambda_desired, dtype=float))
    m = frame.bundle.m
    if selector.shape[1] != m:
        raise InputError(f"selector must have {m} columns, got {selector.shape[1]}")
    if lambda_desired.shape != (selector.shape[0],):
        raise InputError("lambda_desired length must match selector row count")
    F, f0 = frame.force_map
    return replace(
        program,
        eq_mat=np.vstack([program.eq_mat, selector @ F]),
        eq_rhs=np.concatenate([program.eq_rhs, lambda_desired - selector @ f0]),
    )


# ---------------------------------------------------------------------------
# solver


@dataclass
class PhaseOneResult:
    u: np.ndarray
    feasible: bool
    margin: float
    iters: int


@dataclass
class SolverReport:
    u_star: Optional[np.ndarray]
    omega: Optional[np.ndarray]
    eta_final: float
    newton_iters: int
    centering_steps: int
    duality_gap: float
    objective: float
    kkt_residual: float
    constraint_margins: Optional[np.ndarray]
    status: str


def phase1_feasible_point(program: TorqueProgram, u_seed: Optional[np.ndarray] = None) -> PhaseOneResult:
    """Find a strictly feasible start, or certify that none exists.

    Tries cheap candidates first (the seed, the least-squares equality
    solution, B^T tau_c via the equality data, the box center), then descends
    a smoothed max of the violated constraints.  The start need not meet the
    equality rows: solve_barrier's infeasible-start Newton method reaches them.
    """
    margin = MARGIN_SCALE * program.scale()
    p = program.p
    center = 0.5 * (program.u_min + program.u_max)
    if np.any(program.u_max - program.u_min <= 2 * margin):
        return PhaseOneResult(u=center, feasible=False, margin=float("-inf"), iters=0)

    candidates = []
    if u_seed is not None:
        candidates.append(np.asarray(u_seed, dtype=float))
    if program.eq_mat.shape[0]:
        sol, *_ = np.linalg.lstsq(program.eq_mat, program.eq_rhs, rcond=None)
        candidates.append(sol)
        candidates.append(program.eq_mat.T @ program.eq_rhs)
    candidates.append(center)
    candidates.append(np.zeros(p))

    best = None
    best_margin = -np.inf
    for cand in candidates:
        cand = np.clip(cand, program.u_min + 2 * margin, program.u_max - 2 * margin)
        worst = float(program.constraint_values(cand).min())
        if worst > best_margin:
            best, best_margin = cand, worst
        if worst > 2 * margin:
            return PhaseOneResult(u=cand, feasible=True, margin=worst, iters=0)

    # smoothed-max descent on f(u) = s * log sum exp(-c_i(u)/s)
    u = best.copy()
    s = max(0.05 * program.scale(), 10 * margin)
    iters = 0
    for iters in range(1, PHASE1_MAX_ITER + 1):
        c = program.constraint_values(u)
        worst = float(c.min())
        if worst > 2 * margin:
            break
        w = np.exp(-(c - c.min()) / s)
        w /= w.sum()
        grad = -(program.constraint_gradients(u).T @ w)
        gnorm2 = float(grad @ grad)
        if gnorm2 <= 1e-24:
            break
        step = min(1.0, program.scale() / np.sqrt(gnorm2))
        f0 = -worst
        improved = False
        for _ in range(40):
            u_try = u - step * grad
            f_try = -float(program.constraint_values(u_try).min())
            # sufficient decrease, so a narrow feasible dip is not stepped over
            if f_try <= f0 - 0.25 * step * gnorm2:
                u = u_try
                improved = True
                break
            step *= 0.5
        if not improved:
            if s > 1e-6 * program.scale():
                s *= 0.2
            else:
                break
    worst = float(program.constraint_values(u).min())
    return PhaseOneResult(u=u, feasible=worst > margin, margin=worst, iters=iters)


# The barrier formulas take a program's arrays (TorqueProgram.lin, off, G, G_flat, quad, obj_hess,
# obj_lin), which solve_barrier reads once per solve.


def _values(lin: np.ndarray, off: np.ndarray, G: np.ndarray, quad: slice, u: np.ndarray) -> np.ndarray:
    """c(u) = lin u + off, plus u^T G_j u on quadratic row j, of a float vector u."""
    vals = lin @ u
    vals[quad] += (u @ G) @ u
    return vals + off


def _gradients(lin: np.ndarray, G: np.ndarray, quad: slice, u: np.ndarray) -> np.ndarray:
    """grad c(u) of a float vector u."""
    grads = lin.copy()
    grads[quad] += 2.0 * (G @ u)
    return grads


def _gradient_parts(obj_hess: np.ndarray, obj_lin: np.ndarray, u: np.ndarray, c: np.ndarray, grads: np.ndarray):
    """The eta-free terms (a, b) of the barrier gradient a - eta * b, from the rows c(u) and their gradients.

    a = 2 obj_quad u + obj_lin is the objective's gradient, formed as obj_hess u (doubling
    is exact, so it rounds as 2 (obj_quad u)), and b = grad c^T (1 / c).
    """
    return obj_hess @ u + obj_lin, grads.T @ (1.0 / c)


def _barrier_hessian(
    obj_hess: np.ndarray, G_flat: np.ndarray, quad: slice, c: np.ndarray, grads: np.ndarray, eta: float
) -> np.ndarray:
    """Hessian of the barrier objective; positive definite for second-order-cone rows."""
    # 2 sum_j (eta / c_j) G_j by np.tensordot's product; doubling is exact unless 2 eta / c_j is subnormal or inf
    G_term = np.dot(((2.0 * eta) / c[quad])[None], G_flat).reshape(obj_hess.shape)
    H = obj_hess + eta * ((grads.T * (1.0 / c**2)) @ grads) - G_term
    return 0.5 * (H + H.T)


def barrier_value(program: TorqueProgram, u: np.ndarray, eta: float) -> float:
    """psi(u, eta) = objective(u) - eta sum_i log c_i(u); +inf outside, and where a row is NaN."""
    u = np.asarray(u, dtype=float)
    c = program.constraint_values(u)
    if not np.minimum.reduce(c) > 0:
        return np.inf
    return program.objective(u) - eta * float(np.log(c).sum())


def barrier_gradient(program: TorqueProgram, u: np.ndarray, eta: float) -> np.ndarray:
    """Gradient of the barrier objective at an interior point."""
    u = np.asarray(u, dtype=float)
    grads = program.constraint_gradients(u)
    a, b = _gradient_parts(program.obj_hess, program.obj_lin, u, program.constraint_values(u), grads)
    return a - eta * b


def solve_barrier(program: TorqueProgram, u0: Optional[np.ndarray] = None) -> SolverReport:
    """Follow the central path to the program's solution, warm-started from u0 if given.

    From eta = ETA0, an infeasible-start Newton method solves the barrier
    problem's KKT system in (u, omega) to NEWTON_TOL; eta then shrinks by
    KAPPA until the duality-gap bound r*eta falls to EPS.  Backtracking keeps
    every iterate strictly inside c(u) > 0.  The system is sized to the rank
    of the equality block: at rank 0 (a relaxed program has no equality rows)
    it is H du = grad, and omega keeps its zero start.  It is solved for the
    residual, not its negation, and the step taken is minus the solution.

    Each quantity is formed where its inputs change:

    - once per program, on first read: the rows lin, off and G (also as a
      (k, p^2) matrix), the objective pair and its doubled quadratic term;
    - once per solve: those arrays and the quadratic-row slice, bound to
      locals; when the program has equality rows, their SVD, the
      reduced block E and its transpose; when rank > 0, the KKT matrix
      [[H, E^T], [E, 0]]; at the start, c(u) (for a warm start, the rows its
      feasibility test computed), grad c(u), the eta-free terms below and,
      when rank > 0, the residual's equality rows E u - rhs;
    - once per centering step: the residual's gradient rows at the new eta,
      from the carried eta-free terms, and the residual norm;
    - once per Newton step: the Hessian H (written into the KKT matrix when
      rank > 0) and one linear solve;
    - once per line-search trial: c(u) and, only for a strictly feasible
      trial, grad c(u), the eta-free terms a = 2 obj_quad u + obj_lin and
      b = grad c^T (1 / c) (with E^T nu and E u when rank > 0), the
      residual (the gradient a - eta * b, then the equality rows) and its
      norm.  A full step (t = 1) subtracts du without a multiply.

    The accepted trial's c, grad c, eta-free terms, residual and its norm
    start the next Newton step.  None of them but the residual's gradient rows
    (and so its norm) depends on eta, so the rest also start the next
    centering step.
    """
    p = program.p
    r = program.r
    margin = MARGIN_SCALE * program.scale()
    lin, off, G, G_flat, quad = program.lin, program.off, program.G, program.G_flat, program.quad
    obj_hess, obj_lin = program.obj_hess, program.obj_lin

    def failure(status, u=None):
        return SolverReport(
            u_star=u,
            omega=None,
            eta_final=float("nan"),
            newton_iters=0,
            centering_steps=0,
            duality_gap=float("inf"),
            objective=float("nan") if u is None else power_loss(u, program.W),
            kkt_residual=float("inf"),
            constraint_margins=None if u is None else program.constraint_values(u),
            status=status,
        )

    # reduce the equality block to full row rank E (rank x p) and test
    # consistency; a program without equality rows has rank 0 and an empty lift
    rank, lift = 0, np.zeros((0, 0))
    if program.eq_mat.shape[0]:
        U, s, _ = np.linalg.svd(program.eq_mat)
        smax = s[0] if s.size and s[0] > 0 else 1.0
        rank = int(np.sum(s > 1e-10 * smax))
        lift = U[:, :rank]
        E = lift.T @ program.eq_mat
        E_T = E.T
        rhs = lift.T @ program.eq_rhs
        resid = program.eq_rhs - lift @ rhs
        if np.linalg.norm(resid) > 1e-8 * max(1.0, np.linalg.norm(program.eq_rhs)):
            return failure("infeasible_equality")

    c = None if u0 is None else _values(lin, off, G, quad, np.asarray(u0, dtype=float))
    if c is None or not np.all(c > margin):
        phase1 = phase1_feasible_point(program, u_seed=u0)
        if not phase1.feasible:
            return failure("infeasible_inequality", u=phase1.u)
        u = phase1.u
        c = program.constraint_values(u)
    else:
        u = np.asarray(u0, dtype=float).copy()

    if rank:
        # KKT matrix [[H, E^T], [E, 0]]; each Newton step rewrites only H
        KKT = np.zeros((p + rank, p + rank))
        KKT[:p, p:] = E_T
        KKT[p:, :p] = E

    nu_dual = np.zeros(rank)
    eta = ETA0
    total_newton = 0
    centering = 0
    kkt_res = float("inf")

    # the eta-free terms (a, b) of the gradient a - eta * b and, when rank > 0, the
    # equality rows of the residual [a - eta * b + E^T nu; E u - rhs] carry over
    grads = _gradients(lin, G, quad, u)
    a, b = _gradient_parts(obj_hess, obj_lin, u, c, grads)
    if rank:
        res = np.concatenate((np.empty(p), E @ u - rhs))
    while True:
        converged = False
        if rank:  # only the gradient rows of the residual depend on eta
            np.add(a - eta * b, E_T @ nu_dual, out=res[:p])
        else:
            res = a - eta * b
        res_norm = math.sqrt(res.dot(res))  # then carried from each accepted trial
        for _ in range(MAX_NEWTON):
            kkt_res = res_norm
            if kkt_res <= NEWTON_TOL:
                converged = True
                break
            if rank:
                KKT[:p, :p] = _barrier_hessian(obj_hess, G_flat, quad, c, grads, eta)
            else:  # no equality rows: the KKT system is H du = res
                KKT = _barrier_hessian(obj_hess, G_flat, quad, c, grads, eta)
            # the Newton step is -(du, dnu): pivoting by |.| and round-to-nearest are
            # sign-symmetric, so the solution for res is exactly minus that for -res
            try:
                sol = np.linalg.solve(KKT, res)
            except np.linalg.LinAlgError:
                sol, *_ = np.linalg.lstsq(KKT, res, rcond=None)
            du, dnu = sol[:p], sol[p:]

            # backtracking: stay strictly feasible, then Armijo on the residual;
            # t * x == x at t = 1, so a full step subtracts du unscaled
            t = 1.0
            while t > 1e-14:
                u_try = u - (du if t == 1.0 else t * du)
                c_try = _values(lin, off, G, quad, u_try)
                if not np.minimum.reduce(c_try) > 0.0:  # a NaN row fails too
                    t *= LS_BETA
                    continue
                grads_try = _gradients(lin, G, quad, u_try)
                a_try, b_try = _gradient_parts(obj_hess, obj_lin, u_try, c_try, grads_try)
                if rank:
                    nu_try = nu_dual - (dnu if t == 1.0 else t * dnu)
                    res_try = np.empty(p + rank)
                    np.add(a_try - eta * b_try, E_T @ nu_try, out=res_try[:p])
                    np.subtract(E @ u_try, rhs, out=res_try[p:])
                else:
                    nu_try, res_try = nu_dual, a_try - eta * b_try
                norm_try = math.sqrt(res_try.dot(res_try))
                if norm_try <= (1.0 - LS_ALPHA * t) * kkt_res + 1e-16:
                    u, nu_dual, c, grads, a, b, res = u_try, nu_try, c_try, grads_try, a_try, b_try, res_try
                    res_norm = norm_try
                    break
                t *= LS_BETA
            total_newton += 1
            if t <= 1e-14:  # no trial was accepted
                break
        centering += 1
        if not converged:
            # round-off floor on badly scaled instances: accept when the
            # residual is small relative to the objective gradient magnitude
            grad_scale = max(1.0, float(np.linalg.norm(a)))
            converged = kkt_res <= 1e3 * NEWTON_TOL * grad_scale
        if not converged:
            status = "failed"
            break
        if r * eta <= EPS:
            status = "relaxed" if program.relaxed else "optimal"
            break
        if centering >= MAX_CENTERING:  # stopped without the gap certificate
            status = "failed"
            break
        eta *= KAPPA

    return SolverReport(
        u_star=u,
        omega=lift @ nu_dual,
        eta_final=eta,
        newton_iters=total_newton,
        centering_steps=centering,
        duality_gap=r * eta,
        objective=float(u @ program.W @ u),
        kkt_residual=kkt_res,
        constraint_margins=c,
        status=status,
    )
