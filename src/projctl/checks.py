"""Runnable property suites behind the `projctl check` command.

Each check regenerates its random inputs from a seed, verifies one family of
invariants and returns a result with the worst residual observed.  The heavier
simulation-based acceptance criteria live in the pytest suite; these checks
cover the algebraic core in a few seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .constrained_dynamics import ConstraintFrame, RobotState, build_frame, contact_forces
from .constraint_geometry import RANK_TOL, null_projector, projector_rate, pseudo_inverse
from .control_laws import ControllerGains, tracking_torque
from .models import floating_biped, make_task, planar_arm_contact, standing_pose
from .task_space import TaskMap, build_task, task_accel_decompose
from .torque_qcqp import (
    EPS,
    NEWTON_TOL,
    assemble_program,
    barrier_gradient,
    barrier_value,
    relax_program,
    solve_barrier,
)

ARM_HOME = np.array([-0.6, -0.5, -0.4])


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, worst: float, bound: float, extra: str = "") -> CheckResult:
    note = f"worst residual {worst:.3e} (bound {bound:.1e})"
    if extra:
        note += f"; {extra}"
    return CheckResult(name=name, passed=worst <= bound, detail=note)


def _random_stack(rng) -> np.ndarray:
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 7))
    A = rng.standard_normal((m, n))
    if rng.random() < 0.25 and m >= 2:
        A[-1] = A[0] * rng.standard_normal()
    if rng.random() < 0.1 and n >= 2:
        A[:, -1] = 0.0
    return A


def projection_algebra(seed: int = 0) -> CheckResult:
    """P^2 = P, P = P^T, P A^T = 0, trace(P) = n - r, Moore-Penrose identities."""
    samples = 1000
    rng = np.random.default_rng(seed)
    worst = 0.0
    deficient = 0
    for _ in range(samples):
        A = _random_stack(rng)
        n = A.shape[1]
        b = null_projector(A)
        if b.rank < min(A.shape):
            deficient += 1
        Ap = b.A_pinv
        scale = max(1.0, float(np.abs(A).max()))
        worst = max(
            worst,
            float(np.abs(b.P @ b.P - b.P).max()),
            float(np.abs(b.P - b.P.T).max()),
            float(np.abs(b.P @ A.T).max()) / scale,
            abs(float(np.trace(b.P)) - (n - b.rank)),
            float(np.abs(A @ Ap @ A - A).max()) / scale,
            float(np.abs(Ap @ A @ Ap - Ap).max()) / max(1.0, float(np.abs(Ap).max())),
            float(np.abs((A @ Ap) - (A @ Ap).T).max()),
            float(np.abs((Ap @ A) - (Ap @ A).T).max()),
        )
    return _result(
        "projection_algebra", worst, 1e-10, f"{samples} stacks, {deficient} rank-deficient"
    )


def rate_identities(seed: int = 0) -> CheckResult:
    """P_dot = L + L^T vs central differences; Omega qd = P_dot qd on null(A)."""
    samples = 100
    rng = np.random.default_rng(seed)
    h = 1e-6
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        A0 = rng.standard_normal((m, n))
        A1 = 0.5 * rng.standard_normal((m, n))
        A2 = 0.5 * rng.standard_normal((m, n))
        t = float(rng.uniform(0, 2 * np.pi))

        def stack(tt):
            return A0 + A1 * np.sin(tt) + A2 * np.cos(tt)

        A = stack(t)
        A_dot = A1 * np.cos(t) - A2 * np.sin(t)
        _, Omega, P_dot = projector_rate(A, A_dot)
        qd = null_projector(A).P @ rng.standard_normal(n)
        fd = (null_projector(stack(t + h)).P - null_projector(stack(t - h)).P) / (2 * h)
        worst = max(worst, float(np.abs(P_dot - fd).max()), float(np.abs(Omega @ qd - P_dot @ qd).max()))
    return _result("rate_identities", worst, 1e-6, f"{samples} smooth stacks, h = 1e-6")


def tikhonov_limit(seed: int = 0) -> CheckResult:
    """||A^T (A A^T + eps I)^-1 - A^+|| decreases monotonically as eps -> 0."""
    samples = 50
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(samples):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 1, 8))
        A = rng.standard_normal((m, n))
        if np.linalg.matrix_rank(A) < m:
            continue
        Ap = pseudo_inverse(A)
        errs = [
            np.linalg.norm(A.T @ np.linalg.inv(A @ A.T + eps * np.eye(m)) - Ap)
            for eps in (1e-2, 1e-4, 1e-6)
        ]
        ok = ok and errs[0] > errs[1] > errs[2]
    return CheckResult("tikhonov_limit", ok, f"{samples} full-row-rank samples, eps = 1e-2..1e-6")


def constrained_inertia(seed: int = 0) -> CheckResult:
    """Positive-definiteness, the norm bound and the spectrum-union property."""
    samples = 400
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        G = rng.standard_normal((n, n))
        M = G.T @ G + 0.1 * np.eye(n)
        A = rng.standard_normal((m, n))
        nu = float(rng.uniform(0.2, 5.0))
        b = null_projector(A)
        P, r = b.P, b.rank
        M_bar = P @ M @ P + nu * (np.eye(n) - P)
        M_bar = 0.5 * (M_bar + M_bar.T)
        eig = np.linalg.eigvalsh(M_bar)
        if eig.min() <= 0:
            return CheckResult("constrained_inertia", False, "lost positive-definiteness")
        if np.linalg.norm(M_bar, 2) > max(nu, np.linalg.norm(M, 2)) + 1e-12:
            return CheckResult("constrained_inertia", False, "norm bound violated")
        expected = np.sort(np.concatenate([np.full(r, nu), np.sort(np.linalg.eigvalsh(P @ M @ P))[r:]]))
        worst = max(worst, float(np.abs(np.sort(eig) - expected).max()))
    return _result("constrained_inertia", worst, 1e-8, f"{samples} random (M, A, nu)")


def oblique_projector(seed: int = 0) -> CheckResult:
    """S^2 = S and P M_bar = M_bar P; S is generally non-symmetric."""
    samples = 200
    rng = np.random.default_rng(seed)
    worst = 0.0
    witnessed = False
    for _ in range(samples):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        G = rng.standard_normal((n, n))
        M = G.T @ G + 0.1 * np.eye(n)
        A = rng.standard_normal((m, n))
        nu = float(rng.uniform(0.2, 5.0))
        P = null_projector(A).P
        M_bar = P @ M @ P + nu * (np.eye(n) - P)
        S = np.eye(n) - M @ np.linalg.inv(M_bar) @ P
        worst = max(
            worst,
            float(np.abs(S @ S - S).max()) / max(1.0, float(np.abs(S).max())),
            float(np.abs(P @ M_bar - M_bar @ P).max()) / max(1.0, float(np.abs(M_bar).max())),
        )
        if np.abs(S - S.T).max() > 1e-6:
            witnessed = True
    res = _result("oblique_projector", worst, 1e-10, f"{samples} samples")
    if not witnessed:
        return CheckResult("oblique_projector", False, "no non-symmetric witness found")
    return res


def _states(rng, model, home, count: int):
    states = []
    for _ in range(count):
        q = home + 0.2 * rng.standard_normal(model.n)
        A = model.contact_stack(q, (0,))
        s = np.linalg.svd(A, compute_uv=False)
        if s[s > RANK_TOL * s[0]].min() < 0.2:
            continue
        P = null_projector(A).P
        states.append(RobotState(t=0.0, q=q, q_dot=P @ (0.3 * rng.standard_normal(model.n)), active_contacts=(0,)))
    return states


def task_identities(frame: ConstraintFrame, task: TaskMap) -> Tuple[float, float, float]:
    """(range_in_null, pinv_in_null, pinv_product) = (||P Lambda^T - Lambda^T||, ||(I - P) Lambda^+||,
    ||Lambda^+ Lambda - P||), the task map's projector-identity residuals; for an under-spanning task
    (l < n - rank(A)) pinv_product is the most negative eigenvalue of P - Lambda^+ Lambda instead."""
    P, Lam, Lam_pinv = frame.P, task.Lambda, task.Lambda_pinv
    r_range = float(np.abs(P.dot(Lam.T) - Lam.T).max())
    r_pinv = float(np.abs((np.eye(frame.n) - P).dot(Lam_pinv)).max())
    if task.l == frame.n - frame.rank:
        r_prod = float(np.abs(Lam_pinv.dot(Lam) - P).max())
    else:
        r_prod = float(np.linalg.eigvalsh(P - Lam_pinv.dot(Lam)).min())
    return r_range, r_pinv, r_prod


def identity_residual(frame: ConstraintFrame, task: TaskMap) -> float:
    """The worst task_identities residual, an under-spanning task's min eig(P - Lambda^+ Lambda) as max(0, -eig)."""
    r_range, r_pinv, r_prod = task_identities(frame, task)
    return max(r_range, r_pinv, max(0.0, -r_prod) if task.l < frame.n - frame.rank else r_prod)


def task_map_identities(seed: int = 0) -> CheckResult:
    """Range/annihilation identities of the task map plus the accel round trip, on the arm's link
    orientation (spans its 1 admissible dof) and the single-support biped's base pitch (1 of 3)."""
    samples = 40
    rng = np.random.default_rng(seed)
    worst = 0.0
    counts = []
    for model, home, task_name in (
        (planar_arm_contact(), ARM_HOME, "link_orientation"),
        (floating_biped(), standing_pose(), "base_pitch"),
    ):
        task_def = make_task(model, task_name)
        states = _states(rng, model, home, samples)
        counts.append(len(states))
        for state in states:
            frame = build_frame(model, state)
            task = build_task(frame, task_def)
            xdd = rng.standard_normal(1)
            qdd = task_accel_decompose(task, frame, xdd)
            back = task.Lambda_dot @ state.q_dot + task.Lambda @ qdd
            worst = max(worst, identity_residual(frame, task), float(np.abs(back - xdd).max()))
    detail = "{} full-span arm states, {} under-spanning single-support biped states".format(*counts)
    return _result("task_map_identities", worst, 1e-9, detail)


def cone_transcription(seed: int = 0) -> CheckResult:
    """Linear/quadratic cone rows reproduce the contact-force components."""
    samples = 20
    rng = np.random.default_rng(seed)
    arm = planar_arm_contact()
    task_def = make_task(arm, "link_orientation")
    gains = ControllerGains.critically_damped(1, 5.0)
    worst = 0.0
    for state in _states(rng, arm, ARM_HOME, samples):
        frame = build_frame(arm, state)
        task = build_task(frame, task_def)
        cmd = tracking_torque(frame, task, task.x + 0.1, np.zeros(1), np.zeros(1), gains)
        program = assemble_program(frame, cmd.tau_c)
        mu = arm.contacts[0].friction
        for _ in range(5):
            u = rng.uniform(arm.u_min, arm.u_max)
            (lam,), _ = contact_forces(frame, u)  # the arm has one contact
            c = program.constraint_values(u)
            scale = max(1.0, abs(lam[2]), lam[2] ** 2)
            worst = max(worst, abs(c[0] - lam[2]) / scale)
            expected = mu**2 * lam[2] ** 2 - lam[0] ** 2 - lam[1] ** 2
            worst = max(worst, abs(c[1] - expected) / max(1.0, abs(expected)))
    return _result("cone_transcription", worst, 1e-8, f"{samples} states x 5 torques")


def solver_certificates(seed: int = 0) -> CheckResult:
    """Duality gap, stationarity, closed-form agreement and gradient checks."""
    rng = np.random.default_rng(seed)
    arm = planar_arm_contact()
    task_def = make_task(arm, "link_orientation")
    gains = ControllerGains.critically_damped(1, 5.0)
    issues = []
    worst_gap = 0.0
    worst_grad = 0.0
    for state in _states(rng, arm, ARM_HOME, 6):
        frame = build_frame(arm, state)
        task = build_task(frame, task_def)
        cmd = tracking_torque(frame, task, task.x + 0.1, np.zeros(1), np.zeros(1), gains)
        program = assemble_program(frame, cmd.tau_c)
        report = solve_barrier(program)
        if report.status != "optimal":
            issues.append(f"status {report.status}")
            continue
        worst_gap = max(worst_gap, report.duality_gap)
        if np.any(report.constraint_margins <= 0):
            issues.append("boundary violation at optimum")
        grad = barrier_gradient(program, report.u_star, report.eta_final)
        stat = np.linalg.norm(grad + program.eq_mat.T @ report.omega)
        if stat > 10 * NEWTON_TOL:
            issues.append(f"stationarity {stat:.2e}")
        # finite-difference gradient of the barrier objective
        u0 = report.u_star
        fd = np.zeros_like(u0)
        h = 1e-6
        for j in range(u0.size):
            e = np.zeros_like(u0)
            e[j] = h
            fd[j] = (barrier_value(program, u0 + e, report.eta_final)
                     - barrier_value(program, u0 - e, report.eta_final)) / (2 * h)
        worst_grad = max(worst_grad, float(np.abs(grad - fd).max()) / max(1.0, float(np.abs(grad).max())))
    passed = not issues and worst_gap <= EPS and worst_grad <= 1e-6
    detail = f"gap {worst_gap:.2e}, grad fd {worst_grad:.2e}"
    if issues:
        detail += "; " + "; ".join(issues)
    return CheckResult("solver_certificates", passed, detail)


def relaxation_tradeoff(seed: int = 0) -> CheckResult:
    """W' stays positive-definite and ||d|| falls monotonically in rho."""
    biped = floating_biped()
    q0 = standing_pose()
    state = RobotState(t=0.0, q=q0, q_dot=np.zeros(5), active_contacts=(0,))
    frame = build_frame(biped, state)
    task = build_task(frame, make_task(biped, "base_pitch"))
    gains = ControllerGains.critically_damped(1, 4.0)
    cmd = tracking_torque(frame, task, task.x + 0.15, np.zeros(1), np.zeros(1), gains)
    program = assemble_program(frame, cmd.tau_c)
    norms = []
    for rho in (1.0, 10.0, 100.0):
        relaxed = relax_program(program, frame, rho)
        if np.linalg.eigvalsh(relaxed.obj_quad).min() <= 0:
            return CheckResult("relaxation_tradeoff", False, f"W' lost definiteness at rho={rho}")
        report = solve_barrier(relaxed)
        if report.status != "relaxed":
            return CheckResult("relaxation_tradeoff", False, f"solve failed at rho={rho}: {report.status}")
        d = frame.M_bar_inv @ (cmd.tau_c - program.eq_mat @ report.u_star)
        norms.append(float(np.linalg.norm(d)))
    ok = norms[0] > norms[1] > norms[2]
    return CheckResult(
        "relaxation_tradeoff", ok, "||d|| over rho {1,10,100}: " + ", ".join(f"{v:.4f}" for v in norms)
    )


ALL_CHECKS: List[Callable[..., CheckResult]] = [
    projection_algebra,
    rate_identities,
    tikhonov_limit,
    constrained_inertia,
    oblique_projector,
    task_map_identities,
    cone_transcription,
    solver_certificates,
    relaxation_tradeoff,
]


def run_all(seed: int = 0, quiet: bool = False) -> List[CheckResult]:
    results = []
    for fn in ALL_CHECKS:
        res = fn(seed=seed)
        results.append(res)
        if not quiet:
            print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}")
    return results
