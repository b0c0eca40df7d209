"""Power-minimizing torque allocation as a log-barrier QCQP.

The program over actuator torques u is

    minimize    u^T W u                      (motor power loss)
    subject to  P B u = tau_c                (task-space equality)
                c(u) >= 0                    (cones, unilaterality, torque box)

where c(u) stacks, per active contact i, the linear normal-force row
lin[2i] u + off[2i] and the quadratic cone row
u^T G[i] u + lin[2i + 1] u + off[2i + 1], followed by the box rows u_max - u
and u - u_min.  The builders take the ConstraintFrame alone: its model gives
B, W, the box and the friction coefficients, its state the active contacts.
assemble_cone_constraints reads every contact row from the affine force map
lambda(u) = F u + f0, formed once per frame (force_map), and returns them as
the program's arrays (lin, off, G); its docstring states their row order.
TorqueProgram.from_cones appends the box rows below them, and relax_program
keeps the rows.  It is solved by following the central path of the barrier
problem

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
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .constrained_dynamics import ConstraintFrame, _as_tau_c
from .constraint_geometry import RANK_TOL, _identity, _solve, _svd
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


def assemble_cone_constraints(frame: ConstraintFrame) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cone rows (lin (2k, p), off (2k,), G (k, p, p)) of the k active contacts, in program row order.

    With no active contact (k = 0) the arrays are empty and the program is its box and equality rows.

    With F_i, f_i contact i's three rows of the force map lambda(u) = F u + f0
    (x, y, z) and D = diag(-1, -1, mu^2): row 2i is the normal force, lin = F_i[2]
    and off = f_i[2]; row 2i + 1 is the cone, lin = 2 F_i^T D f_i, off = f_i^T D f_i
    and G[i] = F_i^T D F_i, so that u^T G[i] u + lin u + off = lambda_i^T D lambda_i.
    """
    active, contacts = frame.state.active_contacts, frame.model.contacts
    F, f0 = frame.force_map
    k, p = len(active), F.shape[1]
    lin, off, G = np.empty((2 * k, p)), np.empty(2 * k), np.empty((k, p, p))
    for idx, contact in enumerate(active):
        F_i, f_i = F[3 * idx : 3 * idx + 3], f0[3 * idx : 3 * idx + 3]
        D = np.array([-1.0, -1.0, contacts[contact].friction ** 2])
        DF_i, Df_i = D[:, None] * F_i, D * f_i
        lin[2 * idx], off[2 * idx] = F_i[2], f_i[2]
        lin[2 * idx + 1], off[2 * idx + 1] = 2.0 * F_i.T.dot(Df_i), f_i.dot(Df_i)
        G[idx] = F_i.T.dot(DF_i)
    return lin, off, G


@dataclass
class TorqueProgram:
    """Data of one torque-allocation instance: minimize u^T obj_quad u + obj_lin^T u
    s.t. eq_mat u = eq_rhs and c(u) = lin u + off (plus u^T G_j u on row 2j + 1) >= 0.

    The r = 2(k + p) rows are the cone rows in the order assemble_cone_constraints
    states (per contact the linear row, then the quadratic row), then box upper
    u_max - u and box lower u - u_min, appended by from_cones.  relax_program
    replaces the objective (W, 0) and the equality rows, not the rows.
    """

    W: np.ndarray
    eq_mat: np.ndarray
    eq_rhs: np.ndarray
    lin: np.ndarray  # (r, p)
    off: np.ndarray  # (r,)
    G: np.ndarray  # (k, p, p)
    u_min: np.ndarray
    u_max: np.ndarray
    obj_quad: np.ndarray  # (p, p): W, or W' when relaxed
    obj_lin: np.ndarray  # (p,)
    rho: Optional[float] = None

    @classmethod
    def from_cones(cls, W, eq_mat, eq_rhs, cones, u_min, u_max) -> "TorqueProgram":
        """The strict program: the cone rows cones = (lin, off, G), as assemble_cone_constraints
        returns them, with the box rows appended below."""
        cone_lin, cone_off, G = cones
        return cls(
            W=W, eq_mat=eq_mat, eq_rhs=eq_rhs,
            lin=np.vstack([cone_lin, _box_rows(W.shape[0])]),
            off=np.concatenate([cone_off, u_max, -u_min]),
            G=G, u_min=u_min, u_max=u_max, obj_quad=W, obj_lin=np.zeros(W.shape[0]),
        )

    @property
    def G_flat(self) -> np.ndarray:  # G as (k, p * p)
        return self.G.reshape(self.k, self.p * self.p)

    @property
    def obj_hess(self) -> np.ndarray:  # 2 obj_quad
        return 2.0 * self.obj_quad

    @property
    def quad(self) -> slice:  # the quadratic rows 1, 3, ..., 2k - 1 of the stack
        return slice(1, 2 * self.k, 2)

    @property
    def p(self) -> int:
        return self.W.shape[0]

    @property
    def k(self) -> int:
        return self.G.shape[0]

    @property
    def r(self) -> int:
        return self.lin.shape[0]

    def objective(self, u: np.ndarray) -> float:
        return float(u.dot(self.obj_quad).dot(u) + self.obj_lin.dot(u))

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
    cones: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> TorqueProgram:
    """Bundle the equality map, cone rows and torque box of the frame's model into a program.

    tau_c must be finite and lie in the admissible force space (range of P).
    """
    model, n = frame.model, frame.n
    tau_c = _as_tau_c(frame, tau_c)
    r = (_identity(n) - frame.P).dot(tau_c)
    off = math.sqrt(r.dot(r))
    if off > TAU_C_TOL * max(1.0, math.sqrt(tau_c.dot(tau_c))):
        raise InputError(f"tau_c has a component outside range(P): {off:.3e}")
    return TorqueProgram.from_cones(
        W=model.W,
        eq_mat=frame.P.dot(model.actuation),
        eq_rhs=tau_c,
        cones=assemble_cone_constraints(frame) if cones is None else cones,
        u_min=model.u_min.copy(),
        u_max=model.u_max.copy(),
    )


def relax_program(program: TorqueProgram, frame: ConstraintFrame, rho: float) -> TorqueProgram:
    """Replace the equality by the trade-off objective u^T W' u - rho b^T u.

    W' = W + rho B'^T Minv2 B' and b = 2 B'^T Minv2 tau_c with B' = P B and
    Minv2 = M_bar^-2, the exact expansion of ||u||_W^2 + rho ||d(u)||^2 up to
    a constant.
    """
    if not 0 < rho < math.inf:
        raise InputError(f"rho must be positive and finite, got {rho}")
    Minv2 = frame.M_bar_inv.dot(frame.M_bar_inv)
    E = program.eq_mat  # P B
    W_prime = program.W + rho * E.T.dot(Minv2).dot(E)
    W_prime = 0.5 * (W_prime + W_prime.T)
    b = 2.0 * E.T.dot(Minv2.dot(program.eq_rhs))
    rho = float(rho)
    return replace(
        program, obj_quad=W_prime, obj_lin=-rho * b, rho=rho, eq_mat=np.zeros((0, program.p)), eq_rhs=np.zeros(0)
    )


# ---------------------------------------------------------------------------
# solver


@dataclass
class PhaseOneResult:
    u: np.ndarray
    feasible: bool


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
        return PhaseOneResult(u=center, feasible=False)

    candidates = []
    if u_seed is not None:
        candidates.append(np.asarray(u_seed, dtype=float))
    if program.eq_mat.shape[0]:
        sol, *_ = np.linalg.lstsq(program.eq_mat, program.eq_rhs, rcond=None)
        candidates.append(sol)
        candidates.append(program.eq_mat.T.dot(program.eq_rhs))
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
            return PhaseOneResult(u=cand, feasible=True)

    # smoothed-max descent on f(u) = s * log sum exp(-c_i(u)/s)
    u = best.copy()
    s = max(0.05 * program.scale(), 10 * margin)
    for _ in range(PHASE1_MAX_ITER):
        c = program.constraint_values(u)
        worst = float(c.min())
        if worst > 2 * margin:
            break
        w = np.exp(-(c - c.min()) / s)
        w /= w.sum()
        grad = -program.constraint_gradients(u).T.dot(w)
        gnorm2 = float(grad.dot(grad))
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
    return PhaseOneResult(u=u, feasible=float(program.constraint_values(u).min()) > margin)


# The barrier formulas take a program's arrays (TorqueProgram.lin, off, G, G_flat, quad, obj_hess,
# obj_lin), which solve_barrier reads once per solve.


def _values(lin: np.ndarray, off: np.ndarray, G: np.ndarray, quad: slice, u: np.ndarray) -> np.ndarray:
    """c(u) = lin u + off, plus u^T G_j u on quadratic row j, of a float vector u."""
    vals = lin.dot(u)
    vals[quad] += (u @ G) @ u  # keeps @: batched G
    return vals + off


def _gradients(lin: np.ndarray, G: np.ndarray, quad: slice, u: np.ndarray) -> np.ndarray:
    """grad c(u) of a float vector u."""
    grads = lin.copy()
    grads[quad] += 2.0 * (G @ u)  # keeps @: batched G
    return grads


def _gradient_parts(obj_hess: np.ndarray, obj_lin: np.ndarray, u: np.ndarray, c: np.ndarray, grads: np.ndarray):
    """The eta-free terms (a, b) of the barrier gradient a - eta * b, from the rows c(u) and their gradients.

    a = 2 obj_quad u + obj_lin is the objective's gradient, formed as obj_hess u (doubling
    is exact, so it rounds as 2 (obj_quad u)), and b = grad c^T (1 / c).
    """
    return obj_hess.dot(u) + obj_lin, grads.T.dot(1.0 / c)


def _barrier_hessian(
    obj_hess: np.ndarray, G_flat: np.ndarray, quad: slice, c: np.ndarray, grads: np.ndarray, eta: float
) -> np.ndarray:
    """Hessian of the barrier objective; positive definite for second-order-cone rows."""
    # 2 sum_j (eta / c_j) G_j by np.tensordot's product; doubling is exact unless 2 eta / c_j is subnormal or inf
    G_term = np.dot(((2.0 * eta) / c[quad])[None], G_flat).reshape(obj_hess.shape)
    H = obj_hess + eta * (grads.T * (1.0 / c**2)).dot(grads) - G_term
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

    - once per solve: the program's rows lin, off and G (also as a (k, p^2)
      matrix), the quadratic-row slice, the objective's linear term and its
      doubled quadratic term, bound to locals; when the program has equality
      rows, their SVD, the reduced block E and its transpose; when rank > 0,
      the KKT matrix [[H, E^T], [E, 0]]; at the start, c(u) (for a warm
      start, the rows its feasibility test computed), grad c(u), the eta-free
      terms below and, when rank > 0, the residual's equality rows E u - rhs;
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
            objective=float("nan") if u is None else float(u.dot(program.W).dot(u)),
            kkt_residual=float("inf"),
            constraint_margins=None if u is None else program.constraint_values(u),
            status=status,
        )

    # reduce the equality block to full row rank E (rank x p) and test
    # consistency; a program without equality rows has rank 0 and an empty lift
    rank, lift = 0, np.zeros((0, 0))
    if program.eq_mat.shape[0]:
        U, s, _ = _svd(program.eq_mat, full=True)
        smax = s[0] if s.size and s[0] > 0 else 1.0
        rank = int(np.sum(s > RANK_TOL * smax))
        lift = U[:, :rank]
        E = lift.T @ program.eq_mat  # keeps @: column slice lift
        E_T = E.T
        rhs = lift.T @ program.eq_rhs  # keeps @: column slice lift
        resid = program.eq_rhs - lift @ rhs  # keeps @: column slice lift
        if math.sqrt(resid.dot(resid)) > 1e-8 * max(1.0, math.sqrt(program.eq_rhs.dot(program.eq_rhs))):
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
        res = np.concatenate((np.empty(p), E.dot(u) - rhs))
    while True:
        converged = False
        if rank:  # only the gradient rows of the residual depend on eta
            np.add(a - eta * b, E_T.dot(nu_dual), out=res[:p])
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
                sol = _solve(KKT, res)
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
                    np.add(a_try - eta * b_try, E_T.dot(nu_try), out=res_try[:p])
                    np.subtract(E.dot(u_try), rhs, out=res_try[p:])
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
            grad_scale = max(1.0, math.sqrt(a.dot(a)))
            converged = kkt_res <= 1e3 * NEWTON_TOL * grad_scale
        if not converged:
            status = "failed"
            break
        if r * eta <= EPS:
            status = "optimal" if program.rho is None else "relaxed"
            break
        if centering >= MAX_CENTERING:  # stopped without the gap certificate
            status = "failed"
            break
        eta *= KAPPA

    return SolverReport(
        u_star=u,
        omega=lift @ nu_dual,  # keeps @: column slice lift
        eta_final=eta,
        newton_iters=total_newton,
        centering_steps=centering,
        duality_gap=r * eta,
        objective=float(u.dot(program.W).dot(u)),
        kkt_residual=kkt_res,
        constraint_margins=c,
        status=status,
    )
