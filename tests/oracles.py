"""Independent oracles used across the test suite.

These deliberately avoid the projection formulation: accelerations and
contact forces come from the KKT saddle-point system

    [ M   A^T ] [qdd]   [ B u + tau_g - C qd ]
    [ A   0   ] [lam] = [ -A_dot qd          ]

solved by least squares (min-norm multipliers for rank-deficient stacks).

The planar models' dynamics have two references here.  The symbolic pipeline
(_arm_symbolics, _biped_symbolics) derives M, C (Christoffel symbols), tau_g
and each foot's contact block in sympy and lambdifies them;
tools/generate_dynamics.py prints these lambdified functions into
src/projctl/_planar_dynamics.py, so the package's callbacks must match them
bit for bit.  planar_dynamics_reference recomputes the same quantities from
numeric per-body kinematics, with no sympy.
"""

from functools import lru_cache

import numpy as np
import sympy as sp

from projctl import torque_qcqp
from projctl.constraint_geometry import RANK_TOL, null_projector
from projctl.constrained_dynamics import ContactSpec, RobotModel, RobotState, build_frame, constrained_accel
from projctl.errors import InputError, SimulationError
from projctl.models import ArmParams, BipedParams, _bind, _in_plane
from projctl.simulate import DRIFT_HARD_LIMIT
from projctl.task_space import TaskDef
from projctl.torque_qcqp import (
    LS_ALPHA,
    LS_BETA,
    MARGIN_SCALE,
    MAX_CENTERING,
    MAX_NEWTON,
    SolverReport,
    phase1_feasible_point,
)


def saddle_point(M, C, tau_g, B, A, A_dot, q_dot, u):
    """Solve the saddle-point system; returns (qdd, lam)."""
    n = M.shape[0]
    m = A.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = M
    K[:n, n:] = A.T
    K[n:, :n] = A
    rhs = np.concatenate([B @ u + tau_g - C @ q_dot, -A_dot @ q_dot])
    sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    return sol[:n], sol[n:]


def saddle_point_state(model, state, u):
    q, qd = state.q, state.q_dot
    return saddle_point(
        model.mass_matrix(q),
        model.coriolis_matrix(q, qd),
        model.gravity(q),
        model.actuation,
        model.contact_stack(q, state.active_contacts),
        model.contact_stack_rate(q, qd, state.active_contacts),
        qd,
        np.asarray(u, dtype=float),
    )


def grid_polish_optimum(program, levels=8, pts=15, span=None):
    """Exhaustive grid search with local refinement, independent of the solver.

    When equality rows are present the search runs over the reduced variable v
    with u = u_p + Z v (u_p the least-squares equality solution, Z a null-space
    basis), so every candidate satisfies the equality exactly.
    """
    p = program.p
    if program.eq_mat.shape[0]:
        u_p, *_ = np.linalg.lstsq(program.eq_mat, program.eq_rhs, rcond=None)
        _, s, Vt = np.linalg.svd(program.eq_mat)
        smax = s[0] if s.size and s[0] > 0 else 1.0
        rank = int(np.sum(s > 1e-10 * smax))
        Z = Vt[rank:].T
    else:
        u_p = np.zeros(p)
        Z = np.eye(p)
    d = Z.shape[1]
    if d == 0:
        return program.objective(u_p), u_p
    half = span if span is not None else float(
        np.linalg.norm(program.u_max - program.u_min) + np.linalg.norm(u_p) + 1.0
    )
    center = np.zeros(d)
    best_v, best_obj = None, np.inf
    for _ in range(levels):
        axes = [np.linspace(center[i] - half, center[i] + half, pts) for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        V = np.stack([g.ravel() for g in mesh], axis=1)
        for v in V:
            u = u_p + Z @ v
            if np.all(program.constraint_values(u) >= 0.0):
                obj = program.objective(u)
                if obj < best_obj:
                    best_obj, best_v = obj, v.copy()
        if best_v is None:
            pts = 2 * pts + 1  # densify until a feasible cell is found
            continue
        center = best_v
        half *= 2.5 / (pts - 1)
    if best_v is None:
        raise RuntimeError("grid oracle found no feasible point")
    return best_obj, u_p + Z @ best_v


def integrate_saddle(model, q0, qd0, active, u_fn, dt, steps):
    """RK4 on the saddle-point acceleration; no projection, no stabilization."""
    q, qd = q0.copy(), qd0.copy()
    t = 0.0

    def accel(q, qd, t):
        qdd, _ = saddle_point(
            model.mass_matrix(q),
            model.coriolis_matrix(q, qd),
            model.gravity(q),
            model.actuation,
            model.contact_stack(q, active),
            model.contact_stack_rate(q, qd, active),
            qd,
            u_fn(t, q, qd),
        )
        return qdd

    out = [(q.copy(), qd.copy())]
    for _ in range(steps):
        k1q, k1v = qd, accel(q, qd, t)
        k2q, k2v = qd + 0.5 * dt * k1v, accel(q + 0.5 * dt * k1q, qd + 0.5 * dt * k1v, t + 0.5 * dt)
        k3q, k3v = qd + 0.5 * dt * k2v, accel(q + 0.5 * dt * k2q, qd + 0.5 * dt * k2v, t + 0.5 * dt)
        k4q, k4v = qd + dt * k3v, accel(q + dt * k3q, qd + dt * k3v, t + dt)
        q = q + (dt / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
        qd = qd + (dt / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        t += dt
        out.append((q.copy(), qd.copy()))
    return out


def step_reference(model, state, u, dt):
    """simulate.step written plainly: a validated state and constrained_accel per stage,
    each half-step velocity written where it is used, the drift by np.linalg.norm."""
    active = state.active_contacts

    def accel(q, q_dot):
        stage = RobotState(t=state.t, q=q, q_dot=q_dot, active_contacts=active)
        return constrained_accel(build_frame(model, stage), u)

    q, qd = state.q, state.q_dot
    k1v = accel(q, qd)
    k1q = qd
    k2v = accel(q + 0.5 * dt * k1q, qd + 0.5 * dt * k1v)
    k2q = qd + 0.5 * dt * k1v
    k3v = accel(q + 0.5 * dt * k2q, qd + 0.5 * dt * k2v)
    k3q = qd + 0.5 * dt * k2v
    k4v = accel(q + dt * k3q, qd + dt * k3v)
    k4q = qd + dt * k3v
    q_new = q + (dt / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
    qd_new = qd + (dt / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)

    A_new = model.contact_stack(q_new, active)
    if A_new.shape[0]:
        qd_new = null_projector(A_new).P @ qd_new
        drift = float(np.linalg.norm(A_new @ qd_new))
        if drift > DRIFT_HARD_LIMIT:
            raise SimulationError(f"constraint drift {drift:.3e} exceeds {DRIFT_HARD_LIMIT:.1e}")
    return RobotState(t=state.t + dt, q=q_new, q_dot=qd_new, active_contacts=active)


def contact_forces_reference(frame, model, state, u):
    """Stacked contact forces A^+T S (B u + tau_g - Q qd), evaluated in that order."""
    w = frame.S @ (model.actuation @ np.asarray(u, dtype=float) + frame.tau_g - frame.Q @ state.q_dot)
    return frame.A_pinv.T @ w


def cone_rows_reference(frame, model, state):
    """(z, alpha, G, gamma, beta) per active contact, expanded through the n x n form
    Pi = S^T (mu^2 a_z a_z^T - a_x a_x^T - a_y a_y^T) S with a_* the A^+ columns."""
    B, S, A_pinv = model.actuation, frame.S, frame.A_pinv
    w0 = frame.tau_g - frame.Q @ state.q_dot
    rows = []
    for idx, contact in enumerate(state.active_contacts):
        mu = model.contacts[contact].friction
        a_x, a_y, a_z = A_pinv[:, 3 * idx], A_pinv[:, 3 * idx + 1], A_pinv[:, 3 * idx + 2]
        Pi = S.T @ (-np.outer(a_x, a_x) - np.outer(a_y, a_y) + mu**2 * np.outer(a_z, a_z)) @ S
        rows.append((B.T @ (S.T @ a_z), a_z @ (S @ w0), B.T @ Pi @ B, 2.0 * (B.T @ (Pi @ w0)), w0 @ Pi @ w0))
    return rows


def task_identities_reference(frame, task):
    """The task map's projector-identity residuals (range_in_null, pinv_in_null, pinv_product),
    formed eagerly from the frame."""
    P, Lam, Lam_pinv = frame.P, task.Lambda, task.Lambda_pinv
    n = P.shape[0]
    r_range = float(np.abs(P @ Lam.T - Lam.T).max())
    r_pinv = float(np.abs((np.eye(n) - P) @ Lam_pinv).max())
    if task.l == n - frame.rank:  # full span
        r_prod = float(np.abs(Lam_pinv @ Lam - P).max())
    else:
        r_prod = float(np.linalg.eigvalsh(P - Lam_pinv @ Lam).min())
    return r_range, r_pinv, r_prod


def stack_cone_rows(rows, p):
    """The program's cone rows (lin, off, G) from per-contact (z, alpha, G, gamma, beta):
    contact i's linear row z, alpha at 2i, then its quadratic row gamma, beta at 2i + 1."""
    k = len(rows)
    lin = np.array([row for z, _, _, gamma, _ in rows for row in (z, gamma)], dtype=float).reshape(2 * k, p)
    off = np.array([v for _, alpha, _, _, beta in rows for v in (alpha, beta)], dtype=float).reshape(2 * k)
    return lin, off, np.array([G for _, _, G, _, _ in rows], dtype=float).reshape(k, p, p)


def constraint_rows(cones, program, u):
    """c(u) and its gradient rows written out row by row: one cone (z, alpha, G, gamma, beta)
    at a time, then the program's box."""
    u = np.asarray(u, dtype=float)
    vals, grads = [], []
    for z, alpha, G, gamma, beta in cones:
        vals += [z @ u + alpha, u @ G @ u + gamma @ u + beta]
        grads += [z, 2.0 * (G @ u) + gamma]
    eye = np.eye(program.p)
    for j in range(program.p):
        vals.append(program.u_max[j] - u[j])
        grads.append(-eye[j])
    for j in range(program.p):
        vals.append(u[j] - program.u_min[j])
        grads.append(eye[j])
    return np.array(vals), np.array(grads).reshape(len(vals), program.p)


def solve_barrier_reference(program, u0=None):
    """The barrier solver written plainly: every quantity recomputed where it is
    used, with the per-step formulas inline.  `solve_barrier` must return the
    same report, bit for bit.  ETA0, KAPPA, EPS and NEWTON_TOL are read from
    the torque_qcqp module at call time, so a test that patches one there
    changes both solvers."""
    p = program.p
    r = program.r
    margin = MARGIN_SCALE * program.scale()

    def failure(status, u=None):
        return SolverReport(
            u_star=u,
            omega=None,
            eta_final=float("nan"),
            newton_iters=0,
            centering_steps=0,
            duality_gap=float("inf"),
            objective=float("nan") if u is None else float(u @ program.W @ u),
            kkt_residual=float("inf"),
            constraint_margins=None if u is None else program.constraint_values(u),
            status=status,
        )

    U, s, _ = np.linalg.svd(program.eq_mat)
    smax = s[0] if s.size and s[0] > 0 else 1.0
    rank = int(np.sum(s > 1e-10 * smax))
    lift = U[:, :rank]
    E = lift.T @ program.eq_mat
    rhs = lift.T @ program.eq_rhs
    resid = program.eq_rhs - lift @ rhs
    if np.linalg.norm(resid) > 1e-8 * max(1.0, np.linalg.norm(program.eq_rhs)):
        return failure("infeasible_equality")

    if u0 is None or not np.all(program.constraint_values(np.asarray(u0, dtype=float)) > margin):
        phase1 = phase1_feasible_point(program, u_seed=u0)
        if not phase1.feasible:
            return failure("infeasible_inequality", u=phase1.u)
        u = phase1.u
    else:
        u = np.asarray(u0, dtype=float).copy()

    KKT = np.zeros((p + rank, p + rank))
    KKT[:p, p:] = E.T
    KKT[p:, :p] = E

    nu_dual = np.zeros(rank)
    eta = torque_qcqp.ETA0
    total_newton = 0
    centering = 0
    kkt_res = float("inf")

    def residual(u, nu, c, grads):
        Wq, lin = program.obj_quad, program.obj_lin
        grad = 2.0 * (Wq @ u) + lin - eta * (grads.T @ (1.0 / c))
        return np.concatenate([grad + E.T @ nu, E @ u - rhs])

    def hessian(c, grads):
        Wq = program.obj_quad
        quad = eta / c[1 : 2 * program.k : 2]
        H = 2.0 * Wq + eta * ((grads.T * (1.0 / c**2)) @ grads) - 2.0 * np.tensordot(quad, program.G, axes=1)
        return 0.5 * (H + H.T)

    while True:
        converged = False
        c = program.constraint_values(u)
        grads = program.constraint_gradients(u)
        res = residual(u, nu_dual, c, grads)
        for _ in range(MAX_NEWTON):
            kkt_res = float(np.linalg.norm(res))
            if kkt_res <= torque_qcqp.NEWTON_TOL:
                converged = True
                break
            KKT[:p, :p] = hessian(c, grads)
            try:
                sol = np.linalg.solve(KKT, -res)
            except np.linalg.LinAlgError:
                sol, *_ = np.linalg.lstsq(KKT, -res, rcond=None)
            du, dnu = sol[:p], sol[p:]
            t = 1.0
            accepted = False
            while t > 1e-14:
                u_try = u + t * du
                c_try = program.constraint_values(u_try)
                if not np.all(c_try > 0.0):
                    t *= LS_BETA
                    continue
                nu_try = nu_dual + t * dnu
                grads_try = program.constraint_gradients(u_try)
                res_try = residual(u_try, nu_try, c_try, grads_try)
                if np.linalg.norm(res_try) <= (1.0 - LS_ALPHA * t) * kkt_res + 1e-16:
                    u, nu_dual, c, grads, res = u_try, nu_try, c_try, grads_try, res_try
                    accepted = True
                    break
                t *= LS_BETA
            total_newton += 1
            if not accepted:
                break
        centering += 1
        if not converged:
            Wq, lin = program.obj_quad, program.obj_lin
            grad_scale = max(1.0, float(np.linalg.norm(2.0 * (Wq @ u) + lin)))
            converged = kkt_res <= 1e3 * torque_qcqp.NEWTON_TOL * grad_scale
        if not converged:
            status = "failed"
            break
        if r * eta <= torque_qcqp.EPS:
            status = "optimal" if program.rho is None else "relaxed"
            break
        if centering >= MAX_CENTERING:
            status = "failed"
            break
        eta *= torque_qcqp.KAPPA

    return SolverReport(
        u_star=u,
        omega=lift @ nu_dual,
        eta_final=eta,
        newton_iters=total_newton,
        centering_steps=centering,
        duality_gap=r * eta,
        objective=float(u @ program.W @ u),
        kkt_residual=kkt_res,
        constraint_margins=program.constraint_values(u),
        status=status,
    )


def _fmt(v):
    return format(float(v), ".17g")


def trace_csv_reference(trace):
    """The trace CSV spelled out twice, as a header list and a per-step row loop that must agree."""
    n, l, p, k = trace.q.shape[1], trace.x.shape[1], trace.u.shape[1], trace.margins.shape[1]
    cols = ["t"]
    cols += [f"q{i}" for i in range(n)]
    cols += [f"dq{i}" for i in range(n)]
    cols += [f"x{i}" for i in range(l)]
    cols += [f"xd{i}" for i in range(l)]
    cols += ["e_norm"]
    cols += [f"u{i}" for i in range(p)]
    for i in range(k):
        cols += [f"lam_x_{i}", f"lam_y_{i}", f"lam_z_{i}", f"margin_{i}"]
    cols += ["p_loss", "lyapunov", "phi_norm", "d_norm", "newton_iters", "eta", "status"]
    lines = [",".join(cols)]
    for i in range(trace.steps):
        row = [_fmt(trace.t[i])]
        row += [_fmt(v) for v in trace.q[i]]
        row += [_fmt(v) for v in trace.q_dot[i]]
        row += [_fmt(v) for v in trace.x[i]]
        row += [_fmt(v) for v in trace.x_d[i]]
        row.append(_fmt(trace.e_norm[i]))
        row += [_fmt(v) for v in trace.u[i]]
        for c in range(k):
            row += [_fmt(trace.lam[i, 3 * c + j]) for j in range(3)]
            row.append(_fmt(trace.margins[i, c]))
        row += [
            _fmt(trace.p_loss[i]),
            _fmt(trace.lyapunov[i]),
            _fmt(trace.phi_norm[i]),
            _fmt(trace.d_norm[i]),
            str(int(trace.newton_iters[i])),
            _fmt(trace.eta[i]),
            trace.status[i],
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def count_violations_reference(trace, u_min, u_max, tol=1e-9):
    """Steps violating unilaterality, the friction cone or the torque box, one step at a time."""
    bad = 0
    for i in range(trace.steps):
        cone_bad = False
        for c in trace.active[i]:
            if trace.lam[i, 3 * c + 2] <= tol or trace.margins[i, c] <= tol:
                cone_bad = True
        box_bad = bool(np.any(trace.u[i] < u_min - tol) or np.any(trace.u[i] > u_max + tol))
        if cone_bad or box_bad:
            bad += 1
    return bad


def projector_reference(A):
    """(A^+, P, rank) of a finite 2-d A from a fresh SVD on every call, with rank
    counted by np.sum over the singular values and P = I - V1 V1^T symmetrized."""
    m, n = A.shape
    if min(A.shape) == 0:
        return np.zeros((n, m)), np.eye(n), 0
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > RANK_TOL * smax)) if smax > 0 else 0
    if rank == 0:
        return np.zeros((n, m)), np.eye(n), 0
    inv_s = np.zeros_like(s)
    inv_s[:rank] = 1.0 / s[:rank]
    A_pinv = (Vt.T * inv_s) @ U.T
    V1 = Vt[:rank].T
    P = np.eye(n) - V1 @ V1.T
    P = 0.5 * (P + P.T)
    return A_pinv, P, rank


# ---------------------------------------------------------------------------
# symbolic planar dynamics: the source of src/projctl/_planar_dynamics.py


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
    """Lambdified 3xn contact block, its rate, and the 2x1 (x, z) contact point."""
    J = point_xz.jacobian(q)
    n = len(q)
    A = sp.zeros(3, n)
    A[0, :] = -J[0, :]
    A[2, :] = -J[1, :]
    A_dot = sp.zeros(3, n)
    for k in range(n):
        A_dot += sp.diff(A, q[k]) * qd[k]
    return _lam(args, A), _lam(args, A_dot), _lam(args, point_xz)


def _planar_functions(q, qd, args, bodies, g, feet):
    """Lambdified M, C and tau_g of a set of planar bodies, and (A, A_dot, point) for each foot point."""
    M, C, tau_g = _planar_lagrangian(list(q), list(qd), bodies, g)
    contacts = [_contact_functions(foot, list(q), list(qd), args) for foot in feet]
    return {"M": _lam(args, M), "C": _lam(args, C), "tau_g": _lam(args, tau_g), "contacts": contacts}


@lru_cache(maxsize=None)
def _arm_symbolics():
    """The three-link arm, argument order (q, qd, lengths, masses, inertias, gravity)."""
    q = sp.symbols("q:3")
    qd = sp.symbols("dq:3")
    lengths = sp.symbols("len:3", positive=True)
    masses = sp.symbols("mass:3", positive=True)
    inertias = sp.symbols("rotin:3", positive=True)
    g = sp.Symbol("grav")
    args = (*q, *qd, *lengths, *masses, *inertias, g)

    bodies = []
    joint = sp.Matrix([0, 0])
    angle = sp.S.Zero
    for j in range(3):
        angle = angle + q[j]
        direction = sp.Matrix([sp.cos(angle), sp.sin(angle)])
        com = joint + (lengths[j] / 2) * direction
        bodies.append((masses[j], inertias[j], com, angle))
        joint = joint + lengths[j] * direction
    return _planar_functions(q, qd, args, bodies, g, [joint])


@lru_cache(maxsize=None)
def _biped_symbolics():
    """The floating-base biped, argument order (q, qd, torso mass, inertia and com offset,
    leg mass, inertia and length, gravity)."""
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
    return _planar_functions(q, qd, args, bodies, g, feet)


# ---------------------------------------------------------------------------
# numeric per-body kinematics: the planar dynamics without sympy
#
# Every point of these models is  x(q) = L q + sum_j c_j u(w_j . q + phase_j)  with
# u(a) = (cos a, sin a) and constant L, c_j, w_j, phase_j, and every body angle is
# w . q.  So the Jacobian is L + sum_j c_j u'(a_j) w_j^T, its rate is
# -sum_j c_j (w_j . qd) u(a_j) w_j^T, and with constant angle Jacobians
# M = sum m Jv^T Jv + I w w^T, the Christoffel C reduces to sum m Jv^T Jv_dot, and
# tau_g = -g sum m (z row of Jv).


def _planar_bodies(kind, params):
    """(n, g, bodies, feet) of the planar_arm or floating_biped: bodies are
    (mass, inertia, com point, angle row) and points are (L, [(c, w, phase), ...])."""
    if kind == "planar_arm":
        params = params or ArmParams()
        n, L = 3, np.zeros((2, 3))
        rows = np.tril(np.ones((3, 3)))  # link j's angle is q0 + ... + qj
        links = [(length, rows[j], 0.0) for j, length in enumerate(params.lengths)]
        bodies = [
            (m, inertia, (L, links[:j] + [(links[j][0] / 2, rows[j], 0.0)]), rows[j])
            for j, (m, inertia) in enumerate(zip(params.masses, params.resolved_inertias()))
        ]
        return n, params.gravity, bodies, [(L, links)]
    params = params or BipedParams()
    n, base = 5, np.eye(2, 5)
    pitch = np.eye(5)[2]
    bodies = [(params.torso_mass, params.torso_inertia, (base, [(params.torso_com_offset, pitch, np.pi / 2)]), pitch)]
    feet = []
    for hip in (3, 4):
        leg = pitch + np.eye(5)[hip]  # (sin, -cos) of the leg angle is u(angle - pi/2)
        com = (base, [(params.leg_length / 2, leg, -np.pi / 2)])
        bodies.append((params.leg_mass, params.resolved_leg_inertia(), com, leg))
        feet.append((base, [(params.leg_length, leg, -np.pi / 2)]))
    return n, params.gravity, bodies, feet


def _point_kinematics(point, q, qd):
    """(x, J, J_dot) of a point (L, terms) at (q, qd)."""
    L, terms = point
    x, J, J_dot = L @ q, L.astype(float), np.zeros_like(L, dtype=float)
    for c, w, phase in terms:
        a = w @ q + phase
        u, du = np.array([np.cos(a), np.sin(a)]), np.array([-np.sin(a), np.cos(a)])
        x = x + c * u
        J = J + c * np.outer(du, w)
        J_dot = J_dot - c * (w @ qd) * np.outer(u, w)
    return x, J, J_dot


def planar_dynamics_reference(kind, params, q, qd):
    """M, C, tau_g and per-foot (A, A_dot, point) of the default or given-params planar_arm
    or floating_biped at (q, qd), from numeric per-body kinematics alone."""
    n, g, bodies, feet = _planar_bodies(kind, params)
    M, C, tau_g = np.zeros((n, n)), np.zeros((n, n)), np.zeros(n)
    for mass, inertia, com, angle in bodies:
        _, Jv, Jv_dot = _point_kinematics(com, q, qd)
        M += mass * Jv.T @ Jv + inertia * np.outer(angle, angle)
        C += mass * Jv.T @ Jv_dot
        tau_g -= g * mass * Jv[1]
    contacts = []
    for foot in feet:
        x, J, J_dot = _point_kinematics(foot, q, qd)
        A, A_dot = np.zeros((3, n)), np.zeros((3, n))
        A[[0, 2]], A_dot[[0, 2]] = -J, -J_dot
        contacts.append((A, A_dot, np.array([x[0], 0.0, x[1]])))
    return {"M": M, "C": C, "tau_g": tau_g, "contacts": contacts}


def model_callbacks_reference(kind):
    """name -> callback of the default planar_arm or floating_biped, each calling its
    lambdified function on numpy scalars: q and qd unpacked with *, and a fresh
    np.zeros(n) velocity where the function takes none.  Contact callbacks are named
    jacobian_i, jacobian_rate_i and point_i for contact i."""
    if kind == "planar_arm":
        n, funcs, params = 3, _arm_symbolics(), ArmParams()
        prm = (*params.lengths, *params.masses, *params.resolved_inertias(), params.gravity)
    else:
        n, funcs, params = 5, _biped_symbolics(), BipedParams()
        prm = (params.torso_mass, params.torso_inertia, params.torso_com_offset, params.leg_mass,
               params.resolved_leg_inertia(), params.leg_length, params.gravity)
    contacts = funcs["contacts"]

    def call(f, q, qd=None):
        qd = np.zeros(n) if qd is None else qd
        return np.asarray(f(*q, *qd, *prm), dtype=float)

    callbacks = {
        "mass_matrix": lambda q: call(funcs["M"], q),
        "coriolis_matrix": lambda q, qd: call(funcs["C"], q, qd),
        "gravity": lambda q: call(funcs["tau_g"], q).ravel(),
    }
    for i, (fA, fAdot, fpoint) in enumerate(contacts):
        callbacks[f"jacobian_{i}"] = lambda q, f=fA: call(f, q)
        callbacks[f"jacobian_rate_{i}"] = lambda q, qd, f=fAdot: call(f, q, qd)
        callbacks[f"point_{i}"] = lambda q, f=fpoint: _in_plane(call(f, q))
    return callbacks


def planar_arm_reference(params=None):
    """The three-link arm assembled field by field, with no shared model builder."""
    params = params or ArmParams()
    n = 3
    funcs = _arm_symbolics()
    (fA, fAdot, fpoint), = funcs["contacts"]
    prm = (*params.lengths, *params.masses, *params.resolved_inertias(), params.gravity)
    tip = ContactSpec(
        jacobian=_bind(fA, prm, n),
        jacobian_rate=_bind(fAdot, prm, n, rate=True),
        point=lambda q, f=_bind(fpoint, prm, n): _in_plane(f(q)),
        friction=params.friction,
        name="tip",
    )
    lim = float(params.torque_limit)
    return RobotModel(
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


def floating_biped_reference(params=None):
    """The floating-base biped assembled field by field, with no shared model builder."""
    params = params or BipedParams()
    funcs = _biped_symbolics()
    prm = (params.torso_mass, params.torso_inertia, params.torso_com_offset, params.leg_mass,
           params.resolved_leg_inertia(), params.leg_length, params.gravity)
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


def task_reference(kind, n, indices=None):
    """The bundled task of the given kind, each with its own hand-written Jacobian and a
    fresh zero rate on every call."""
    if kind == "link_orientation":
        J = np.ones((1, n))
        return TaskDef(name="link_orientation", dim=1, value=lambda q: np.array([float(np.sum(q))]),
                       jacobian=lambda q: J, jacobian_rate=lambda q, qd: np.zeros((1, n)))
    if kind == "base_pitch":
        J = np.zeros((1, n))
        J[0, 2] = 1.0
        return TaskDef(name="base_pitch", dim=1, value=lambda q: np.array([q[2]]),
                       jacobian=lambda q: J, jacobian_rate=lambda q, qd: np.zeros((1, n)))
    if kind == "base_pose":
        J = np.zeros((3, n))
        J[0, 0] = J[1, 1] = J[2, 2] = 1.0
        return TaskDef(name="base_pose", dim=3, value=lambda q: np.asarray(q[:3], dtype=float).copy(),
                       jacobian=lambda q: J, jacobian_rate=lambda q, qd: np.zeros((3, n)))
    if kind == "joint":
        idx = tuple(int(i) for i in indices)
        J = np.zeros((len(idx), n))
        for row, i in enumerate(idx):
            J[row, i] = 1.0
        return TaskDef(name=f"joint{list(idx)}", dim=len(idx),
                       value=lambda q: np.asarray(q, dtype=float)[list(idx)].copy(),
                       jacobian=lambda q: J, jacobian_rate=lambda q, qd: np.zeros((len(idx), n)))
    raise InputError(f"unknown task type '{kind}'")
