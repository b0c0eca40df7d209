"""Independent oracles used across the test suite.

These deliberately avoid the projection formulation: accelerations and
contact forces come from the KKT saddle-point system

    [ M   A^T ] [qdd]   [ B u + tau_g - C qd ]
    [ A   0   ] [lam] = [ -A_dot qd          ]

solved by least squares (min-norm multipliers for rank-deficient stacks).
"""

import numpy as np

from projctl.constraint_geometry import RANK_TOL
from projctl.models import ArmParams, BipedParams, _arm_symbolics, _biped_symbolics, _in_plane
from projctl.task_space import TaskIdentities
from projctl.torque_qcqp import BarrierParams, SolverReport, phase1_feasible_point, power_loss


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


def contact_forces_reference(frame, model, state, u):
    """Stacked contact forces A^+T S (B u + tau_g - Q qd), evaluated in that order."""
    w = frame.S @ (model.actuation @ np.asarray(u, dtype=float) + frame.tau_g - frame.Q @ state.q_dot)
    return frame.bundle.A_pinv.T @ w


def cone_rows_reference(frame, model, state):
    """(z, alpha, G, gamma, beta) per active contact, expanded through the n x n form
    Pi = S^T (mu^2 a_z a_z^T - a_x a_x^T - a_y a_y^T) S with a_* the A^+ columns."""
    B, S, A_pinv = model.actuation, frame.S, frame.bundle.A_pinv
    w0 = frame.tau_g - frame.Q @ state.q_dot
    rows = []
    for idx, contact in enumerate(state.active_contacts):
        mu = model.contacts[contact].friction
        a_x, a_y, a_z = A_pinv[:, 3 * idx], A_pinv[:, 3 * idx + 1], A_pinv[:, 3 * idx + 2]
        Pi = S.T @ (-np.outer(a_x, a_x) - np.outer(a_y, a_y) + mu**2 * np.outer(a_z, a_z)) @ S
        rows.append((B.T @ (S.T @ a_z), a_z @ (S @ w0), B.T @ Pi @ B, 2.0 * (B.T @ (Pi @ w0)), w0 @ Pi @ w0))
    return rows


def selected_force_rows(frame, model, state, selector):
    """(T B, T w0) with T = selector A^+T S and w0 = tau_g - Q qd: selector @ lambda(u)
    is T B u + T w0."""
    T = selector @ frame.bundle.A_pinv.T @ frame.S
    return T @ model.actuation, T @ (frame.tau_g - frame.Q @ state.q_dot)


def task_identities_reference(frame, task):
    """The task map's projector-identity residuals, formed eagerly from the frame."""
    P, Lam, Lam_pinv = frame.P, task.Lambda, task.Lambda_pinv
    n = P.shape[0]
    r_range = float(np.abs(P @ Lam.T - Lam.T).max())
    r_pinv = float(np.abs((np.eye(n) - P) @ Lam_pinv).max())
    if task.l == n - frame.bundle.rank:  # full span
        r_prod = float(np.abs(Lam_pinv @ Lam - P).max())
    else:
        r_prod = float(np.linalg.eigvalsh(P - Lam_pinv @ Lam).min())
    return TaskIdentities(range_in_null=r_range, pinv_in_null=r_pinv, pinv_product=r_prod)


def constraint_rows(program, u):
    """c(u) and its gradient rows written out row by row, one contact at a time."""
    u = np.asarray(u, dtype=float)
    vals, grads = [], []
    for cone in program.cones:
        vals += [cone.z @ u + cone.alpha, u @ cone.G @ u + cone.gamma @ u + cone.beta]
        grads += [cone.z, 2.0 * (cone.G @ u) + cone.gamma]
    eye = np.eye(program.p)
    for j in range(program.p):
        vals.append(program.u_max[j] - u[j])
        grads.append(-eye[j])
    for j in range(program.p):
        vals.append(u[j] - program.u_min[j])
        grads.append(eye[j])
    for z, alpha in zip(program.extra_z, program.extra_alpha):
        vals.append(z @ u + alpha)
        grads.append(z)
    return np.array(vals), np.array(grads).reshape(len(vals), program.p)


def solve_barrier_reference(program, params=None, u0=None):
    """The barrier solver written plainly: every quantity recomputed where it is
    used, with the per-step formulas inline.  `solve_barrier` must return the
    same report, bit for bit."""
    params = params or BarrierParams()
    p = program.p
    r = program.r
    margin = params.margin_scale * program.scale()

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
        phase1 = phase1_feasible_point(program, params, u_seed=u0)
        if not phase1.feasible:
            return failure("infeasible_inequality", u=phase1.u)
        u = phase1.u
    else:
        u = np.asarray(u0, dtype=float).copy()

    KKT = np.zeros((p + rank, p + rank))
    KKT[:p, p:] = E.T
    KKT[p:, :p] = E

    nu_dual = np.zeros(rank)
    eta = params.eta0
    total_newton = 0
    centering = 0
    path = []
    kkt_res = float("inf")

    def residual(u, nu, c, grads):
        Wq, lin = program.objective_quad()
        grad = 2.0 * (Wq @ u) + lin - eta * (grads.T @ (1.0 / c))
        return np.concatenate([grad + E.T @ nu, E @ u - rhs])

    def hessian(c, grads):
        Wq, _ = program.objective_quad()
        quad = eta / c[1 : 2 * program.k : 2]
        H = 2.0 * Wq + eta * ((grads.T * (1.0 / c**2)) @ grads) - 2.0 * np.tensordot(quad, program.G, axes=1)
        return 0.5 * (H + H.T)

    while True:
        converged = False
        c = program.constraint_values(u)
        grads = program.constraint_gradients(u)
        res = residual(u, nu_dual, c, grads)
        for _ in range(params.max_newton):
            kkt_res = float(np.linalg.norm(res))
            if kkt_res <= params.newton_tol:
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
                    t *= params.ls_beta
                    continue
                nu_try = nu_dual + t * dnu
                grads_try = program.constraint_gradients(u_try)
                res_try = residual(u_try, nu_try, c_try, grads_try)
                if np.linalg.norm(res_try) <= (1.0 - params.ls_alpha * t) * kkt_res + 1e-16:
                    u, nu_dual, c, grads, res = u_try, nu_try, c_try, grads_try, res_try
                    accepted = True
                    break
                t *= params.ls_beta
            total_newton += 1
            if not accepted:
                break
        centering += 1
        path.append((eta, power_loss(u, program.W)))
        if not converged:
            Wq, lin = program.objective_quad()
            grad_scale = max(1.0, float(np.linalg.norm(2.0 * (Wq @ u) + lin)))
            converged = kkt_res <= 1e3 * params.newton_tol * grad_scale
        if not converged:
            status = "failed"
            break
        if r * eta <= params.eps or centering >= params.max_centering:
            status = "relaxed" if program.relaxed else "optimal"
            break
        eta *= params.kappa

    return SolverReport(
        u_star=u,
        omega=lift @ nu_dual,
        eta_final=eta,
        newton_iters=total_newton,
        centering_steps=centering,
        duality_gap=r * eta,
        objective=power_loss(u, program.W),
        kkt_residual=kkt_res,
        constraint_margins=program.constraint_values(u),
        status=status,
        path=tuple(path),
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


def model_callbacks_reference(kind):
    """name -> callback of the default planar_arm or floating_biped, each calling its
    lambdified function on numpy scalars: q and qd unpacked with *, and a fresh
    np.zeros(n) velocity where the function takes none.  Contact callbacks are named
    jacobian_i, jacobian_rate_i and point_i for contact i."""
    if kind == "planar_arm":
        n, funcs, params = 3, _arm_symbolics(3), ArmParams()
        prm = (*params.lengths, *params.masses, *params.resolved_inertias(), params.gravity)
        contacts = [(funcs["A"], funcs["A_dot"], funcs["point"])]
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
