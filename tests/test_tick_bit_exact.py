"""The control tick and one integrator step keep the exact floating-point
operations of the eager algebra written with the @ operator.

TestFrameBitExact (test_constrained_dynamics.py) pins the frame and its
acceleration; this pins what a control tick builds on the frame: the task
map, both control laws, the minimum-norm allocation, the force map and the
contact forces, the cone rows, the strict and relaxed program's matrices, and
one RK4 step.  Each quantity is compared with np.array_equal against its
eager expression, fed the library's own inputs, so a product whose rounding
changes fails here by name.

Both bundled models' B only selects columns (the arm's is I, the biped's
picks the two hips), so a product with B is an exact column copy however it
is associated.  Each model therefore also runs with a dense, well-conditioned
B (gear coupling), under which re-associating such a product fails.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from projctl.constrained_dynamics import RobotState, build_frame, contact_forces
from projctl.constraint_geometry import _svd_cutoff, null_projector
from projctl.control_laws import (
    ControllerGains,
    min_norm_actuation,
    regulation_lyapunov,
    regulation_torque,
    tracking_disturbance,
    tracking_torque,
)
from projctl.errors import TaskInconsistencyError
from projctl.models import base_pitch_task, base_pose_task, joint_task, link_orientation_task
from projctl.simulate import step
from projctl.task_space import build_task
from projctl.torque_qcqp import assemble_cone_constraints, assemble_program, relax_program

from conftest import ARM_HOME, BIPED_HOME

# (active set, task) pairs whose task keeps full row rank near the home posture
ARM_CASES = [((0,), link_orientation_task(3)), ((), link_orientation_task(3)), ((), joint_task([0, 2], 3))]
BIPED_CASES = [
    ((), base_pose_task()),
    ((), base_pitch_task()),
    ((0,), base_pitch_task()),
    ((0, 1), base_pitch_task()),
]


# coupled actuation maps of full column rank: singular values 0.44 to 1.39 (arm), 0.76 to 1.37 (biped)
ARM_COUPLED = np.array([[1.0, 0.3, -0.2], [0.25, 1.0, 0.4], [-0.15, 0.35, 1.0]])
BIPED_COUPLED = np.array([[0.2, -0.1], [0.15, 0.3], [-0.25, 0.1], [1.0, 0.35], [0.3, 1.0]])


def unit_vectors(size):
    return st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size).map(np.array)


def eager_pinv(U, s, Vt, rank):
    inv_s = np.zeros_like(s)
    inv_s[:rank] = 1.0 / s[:rank]
    return (Vt.T * inv_s) @ U.T


def eager_task(frame, task):
    q, qd, P = frame.state.q, frame.state.q_dot, frame.P
    J = task.jacobian(q)
    Lam = J @ P
    Lam_pinv = eager_pinv(*np.linalg.svd(Lam, full_matrices=False), task.dim)
    Lam_dot = task.jacobian_rate(q, qd) @ P + J @ frame.P_dot
    return {
        "Lambda": Lam,
        "Lambda_pinv": Lam_pinv,
        "Lambda_dot": Lam_dot,
        "Gamma_ctl": Lam_pinv @ Lam_dot - frame.Omega,
        "x_dot": Lam @ qd,
    }


def eager_tracking(frame, task, x_d, x_d_dot, x_d_ddot, gains):
    qd, P = frame.state.q_dot, frame.P
    e, e_dot = x_d - task.x, x_d_dot - task.x_dot
    x_cmd = x_d_ddot + gains.K_D @ e_dot + gains.K_P @ e
    return P @ (frame.C @ qd) - P @ frame.tau_g + P @ frame.M @ (task.Lambda_pinv @ x_cmd - task.Gamma_ctl @ qd)


def eager_regulation(frame, task, x_d, gains):
    e = x_d - task.x
    return frame.P @ (-frame.tau_g - gains.K_D @ frame.state.q_dot + task.Lambda.T @ (gains.K_P @ e))


def eager_force_map(frame):
    S, A_pinv_T, qd = frame.S, frame.A_pinv.T, frame.state.q_dot
    return A_pinv_T @ (S @ frame.model.actuation), A_pinv_T @ (S @ (frame.tau_g - frame.Q @ qd))


def eager_cones(frame):
    F, f0 = eager_force_map(frame)
    lin, off, G = [], [], []
    for idx, contact in enumerate(frame.state.active_contacts):
        F_i, f_i = F[3 * idx : 3 * idx + 3], f0[3 * idx : 3 * idx + 3]
        D = np.array([-1.0, -1.0, frame.model.contacts[contact].friction ** 2])
        lin += [F_i[2], 2.0 * (F_i.T @ (D * f_i))]
        off += [f_i[2], f_i @ (D * f_i)]
        G.append(F_i.T @ (D[:, None] * F_i))
    return np.array(lin), np.array(off), np.array(G)


def eager_relaxed_objective(frame, tau_c, rho):
    E = frame.P @ frame.model.actuation
    Minv2 = frame.M_bar_inv @ frame.M_bar_inv
    W_prime = frame.model.W + rho * (E.T @ Minv2 @ E)
    return 0.5 * (W_prime + W_prime.T), -rho * (2.0 * (E.T @ (Minv2 @ tau_c)))


def eager_step(model, state, u, dt):
    Bu = model.actuation @ u

    def accel(q, q_dot):
        f = build_frame(model, RobotState(t=state.t, q=q, q_dot=q_dot, active_contacts=state.active_contacts))
        return f.M_bar_inv @ (f.P @ (Bu + f.tau_g) - f.C_bar @ q_dot)

    q, qd = state.q, state.q_dot
    k1v = accel(q, qd)
    k2q = qd + 0.5 * dt * k1v
    k2v = accel(q + 0.5 * dt * qd, k2q)
    k3q = qd + 0.5 * dt * k2v
    k3v = accel(q + 0.5 * dt * k2q, k3q)
    k4q = qd + dt * k3v
    k4v = accel(q + dt * k3q, k4q)
    q_new = q + (dt / 6.0) * (qd + 2 * k2q + 2 * k3q + k4q)
    qd_new = qd + (dt / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
    if state.active_contacts:
        qd_new = null_projector(model.contact_stack(q_new, state.active_contacts)).P @ qd_new
    return q_new, qd_new


def assert_equal(got, want, name):
    assert np.array_equal(got, want), name


def assert_tick_bit_exact(model, q, qd, case, u, ref, rho):
    active, task_def = case
    state = RobotState(t=0.0, q=q, q_dot=qd, active_contacts=active)
    frame = build_frame(model, state)
    try:
        task = build_task(frame, task_def)
    except TaskInconsistencyError:  # a drawn posture where the task leaves the motion space
        assume(False)
    for name, want in eager_task(frame, task_def).items():
        assert_equal(getattr(task, name), want, name)

    l, n = task.l, model.n
    x_d, x_d_dot, x_d_ddot = ref[:l], 0.5 * ref[-l:], 2.0 * ref[:l]
    tracking_gains = ControllerGains.critically_damped(l, 4.0)
    tau_c = tracking_torque(frame, task, x_d, x_d_dot, x_d_ddot, tracking_gains).tau_c
    assert_equal(tau_c, eager_tracking(frame, task, x_d, x_d_dot, x_d_ddot, tracking_gains), "tracking tau_c")
    regulation_gains = ControllerGains(K_P=16.0 * np.eye(l), K_D=2.0 * np.eye(n))
    cmd = regulation_torque(frame, task, x_d, regulation_gains)
    assert_equal(cmd.tau_c, eager_regulation(frame, task, x_d, regulation_gains), "regulation tau_c")
    want = 0.5 * qd @ frame.M_bar @ qd + 0.5 * cmd.e @ regulation_gains.K_P @ cmd.e
    assert_equal(regulation_lyapunov(frame, cmd.e, regulation_gains.K_P), want, "regulation_lyapunov")
    assert_equal(tracking_disturbance(frame, tau_c), frame.M_bar_inv @ tau_c, "tracking_disturbance")

    # a torque P B u is in range(P B), so every model can realize it
    PB = frame.P @ model.actuation
    realizable = PB @ u
    want = eager_pinv(*_svd_cutoff(PB)) @ realizable
    assert_equal(min_norm_actuation(frame, realizable), want, "min_norm_actuation")

    if active:
        F, f0 = eager_force_map(frame)
        assert_equal(frame.force_map[0], F, "F")
        assert_equal(frame.force_map[1], f0, "f0")
        assert_equal(contact_forces(frame, u)[0].ravel(), F @ u + f0, "contact_forces")
        for name, got, want in zip(("lin", "off", "G"), assemble_cone_constraints(frame), eager_cones(frame)):
            assert_equal(got, want, name)
        program = assemble_program(frame, tau_c)
        assert_equal(program.eq_mat, PB, "eq_mat")
        relaxed = relax_program(program, frame, rho)
        obj_quad, obj_lin = eager_relaxed_objective(frame, tau_c, rho)
        assert_equal(relaxed.obj_quad, obj_quad, "obj_quad")
        assert_equal(relaxed.obj_lin, obj_lin, "obj_lin")

    stepped = step(model, state, u, 1e-3)
    q_new, qd_new = eager_step(model, state, u, 1e-3)
    assert_equal(stepped.q, q_new, "step q")
    assert_equal(stepped.q_dot, qd_new, "step q_dot")


def with_actuation(model, B):
    return model if B is None else dataclasses.replace(model, actuation=B)


class TestTickBitExact:
    @pytest.mark.parametrize("B", [None, ARM_COUPLED], ids=["selecting", "coupled"])
    @settings(max_examples=40, deadline=None)
    @given(
        dq=unit_vectors(3),
        qd=unit_vectors(3),
        du=unit_vectors(3),
        case=st.sampled_from(ARM_CASES),
        ref=unit_vectors(2),
        rho=st.floats(1.0, 500.0),
    )
    def test_arm(self, arm, B, dq, qd, du, case, ref, rho):
        assert_tick_bit_exact(with_actuation(arm, B), ARM_HOME + 0.3 * dq, qd, case, 5.0 * du, ref, rho)

    @pytest.mark.parametrize("B", [None, BIPED_COUPLED], ids=["selecting", "coupled"])
    @settings(max_examples=40, deadline=None)
    @given(
        dq=unit_vectors(5),
        qd=unit_vectors(5),
        du=unit_vectors(2),
        case=st.sampled_from(BIPED_CASES),
        ref=unit_vectors(3),
        rho=st.floats(1.0, 500.0),
    )
    def test_biped(self, biped, B, dq, qd, du, case, ref, rho):
        assert_tick_bit_exact(with_actuation(biped, B), BIPED_HOME + 0.2 * dq, qd, case, 20.0 * du, ref, rho)
