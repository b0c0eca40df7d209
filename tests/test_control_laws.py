import numpy as np
import pytest

from projctl.constrained_dynamics import RobotState, build_frame, constrained_accel
from projctl.control_laws import (
    ControllerGains,
    min_norm_actuation,
    regulation_torque,
    tracking_disturbance,
    tracking_torque,
)
from projctl.errors import ActuationError, InputError
from projctl.models import joint_task, link_orientation_task, make_task
from projctl.task_space import build_task

from conftest import ARM_HOME, BIPED_HOME, manifold_state, point_mass_model, random_manifold_state


def arm_setup(arm, state):
    frame = build_frame(arm, state)
    task = build_task(frame, link_orientation_task(3))
    return frame, task


GAINS1 = ControllerGains.critically_damped(1, 5.0)


class TestControllerGains:
    @pytest.mark.parametrize(
        "K_P, K_D, field",
        [
            (np.eye(2), -np.eye(2), "K_D"),
            (np.zeros((1, 1)), np.eye(1), "K_P"),
            (np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2), "K_P"),
            (np.eye(2), np.array([[1.0, np.nan], [np.nan, 1.0]]), "K_D"),
            (np.ones((2, 3)), np.eye(2), "K_P"),
            (np.ones(2), np.eye(2), "K_P"),
            (np.eye(1), np.zeros((0, 0)), "K_D"),
        ],
    )
    def test_rejected_at_construction_naming_the_field(self, K_P, K_D, field):
        with pytest.raises(InputError, match=f"^{field} "):
            ControllerGains(K_P=K_P, K_D=K_D)


class TestTrackingTorque:
    def test_zero_on_reference_at_rest(self):
        # gravity-free copy of the arm
        from projctl.models import ArmParams, planar_arm_contact

        arm0 = planar_arm_contact(ArmParams(gravity=0.0))
        state = manifold_state(arm0, ARM_HOME, scale=0.0)
        frame, task = arm_setup(arm0, state)
        cmd = tracking_torque(frame, task, task.x, np.zeros(1), np.zeros(1), GAINS1)
        assert np.allclose(cmd.tau_c, 0.0, atol=1e-12)
        assert np.allclose(cmd.e, 0.0)

    def test_reduces_to_computed_torque(self):
        # unconstrained point mass, x = q: tau_c = M (xdd_d + K_P e)
        model = point_mass_model(mass=2.0, g=0.0)
        state = RobotState(t=0.0, q=np.array([0.1, -0.2, 0.3]), q_dot=np.zeros(3), active_contacts=())
        frame = build_frame(model, state)
        from projctl.task_space import TaskDef

        task = build_task(
            frame,
            TaskDef("config", 3, lambda q: np.asarray(q, float).copy(), lambda q: np.eye(3),
                    lambda q, qd: np.zeros((3, 3))),
        )
        gains = ControllerGains.critically_damped(3, 2.0)
        x_d = np.array([0.2, 0.2, 0.2])
        xdd_d = np.array([0.5, 0.0, -0.5])
        cmd = tracking_torque(frame, task, x_d, np.zeros(3), xdd_d, gains)
        expected = 2.0 * (xdd_d + gains.K_P @ (x_d - state.q))
        assert np.allclose(cmd.tau_c, expected, atol=1e-10)

    def test_admissible_force_space_membership(self, arm, rng):
        for _ in range(20):
            state = random_manifold_state(arm, rng, ARM_HOME)
            frame, task = arm_setup(arm, state)
            cmd = tracking_torque(frame, task, task.x + 0.1, np.zeros(1), np.zeros(1), GAINS1)
            assert np.abs((np.eye(3) - frame.P) @ cmd.tau_c).max() <= 1e-10

    def test_closed_loop_error_dynamics(self, arm, rng):
        # exact allocation: edd + K_D ed + K_P e = 0 to integration precision
        for _ in range(15):
            state = random_manifold_state(arm, rng, ARM_HOME)
            frame, task = arm_setup(arm, state)
            x_d = task.x + rng.uniform(-0.2, 0.2, size=1)
            x_d_dot = rng.uniform(-0.5, 0.5, size=1)
            x_d_ddot = rng.uniform(-1.0, 1.0, size=1)
            cmd = tracking_torque(frame, task, x_d, x_d_dot, x_d_ddot, GAINS1)
            u = min_norm_actuation(frame, cmd.tau_c)
            qdd = constrained_accel(frame, u)
            xdd = task.Lambda_dot @ state.q_dot + task.Lambda @ qdd
            e = x_d - task.x
            e_dot = x_d_dot - task.x_dot
            zeta = (x_d_ddot - xdd) + GAINS1.K_D @ e_dot + GAINS1.K_P @ e
            assert np.abs(zeta).max() <= 1e-6


class TestRegulationTorque:
    def gains(self, n):
        return ControllerGains(K_P=25.0 * np.eye(1), K_D=8.0 * np.eye(n))

    def test_zero_at_goal_without_gravity(self):
        from projctl.models import ArmParams, planar_arm_contact

        arm0 = planar_arm_contact(ArmParams(gravity=0.0))
        state = manifold_state(arm0, ARM_HOME, scale=0.0)
        frame, task = arm_setup(arm0, state)
        cmd = regulation_torque(frame, task, task.x, self.gains(3))
        assert np.allclose(cmd.tau_c, 0.0, atol=1e-12)

    def test_gravity_compensation_at_goal(self, arm):
        state = manifold_state(arm, ARM_HOME, scale=0.0)
        frame, task = arm_setup(arm, state)
        cmd = regulation_torque(frame, task, task.x, self.gains(3))
        assert np.allclose(cmd.tau_c, -frame.P @ frame.tau_g, atol=1e-12)

    def test_admissible_force_space_membership(self, arm, rng):
        state = random_manifold_state(arm, rng, ARM_HOME)
        frame, task = arm_setup(arm, state)
        cmd = regulation_torque(frame, task, task.x + 0.1, self.gains(3))
        assert np.abs((np.eye(3) - frame.P) @ cmd.tau_c).max() <= 1e-10


class TestMinNormActuation:
    def test_zero(self, arm, rng):
        state = random_manifold_state(arm, rng, ARM_HOME)
        frame, _ = arm_setup(arm, state)
        assert np.allclose(min_norm_actuation(frame, np.zeros(3)), 0.0)

    def test_identity_case(self):
        model = point_mass_model()
        state = RobotState(t=0.0, q=np.zeros(3), q_dot=np.zeros(3), active_contacts=())
        frame = build_frame(model, state)
        tau = np.array([1.0, 2.0, 3.0])
        assert np.allclose(min_norm_actuation(frame, tau), tau)

    def test_minimality_against_nullspace_perturbations(self, arm, rng):
        for _ in range(10):
            state = random_manifold_state(arm, rng, ARM_HOME)
            frame, task = arm_setup(arm, state)
            cmd = tracking_torque(frame, task, task.x + 0.15, np.zeros(1), np.zeros(1), GAINS1)
            u = min_norm_actuation(frame, cmd.tau_c)
            PB = frame.P @ arm.actuation
            _, _, Vt = np.linalg.svd(PB)
            rank = np.linalg.matrix_rank(PB, tol=1e-10)
            null_basis = Vt[rank:].T
            for _ in range(20):
                w = null_basis @ rng.standard_normal(null_basis.shape[1])
                u_alt = u + w
                assert np.abs(PB @ u_alt - cmd.tau_c).max() <= 1e-9
                assert np.linalg.norm(u_alt) >= np.linalg.norm(u) - 1e-12

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda biped: make_task(biped, "base_pitch"), id="base_pitch"),
            # a 3-d task with 2 actuated hips: range(Lambda^T) is not inside range(B)
            pytest.param(lambda biped: joint_task([0, 2, 4], 5), id="three_joints"),
        ],
    )
    def test_underactuated_raises(self, biped, rng, make):
        # single support: admissible force space is 3-d but only 2 actuators
        state = random_manifold_state(biped, rng, BIPED_HOME, active=(0,))
        frame = build_frame(biped, state)
        task = build_task(frame, make(biped))
        l = task.l
        gains = ControllerGains.critically_damped(l, 5.0)
        cmd = tracking_torque(frame, task, task.x + 0.1, np.zeros(l), np.zeros(l), gains)
        with pytest.raises(ActuationError):
            min_norm_actuation(frame, cmd.tau_c)

    @pytest.mark.parametrize(
        "case, sufficient",
        [("arm_link_orientation", True), ("biped_three_joints", False)],
    )
    def test_rank_criterion_matches_actuation_error(self, arm, biped, rng, case, sufficient):
        # range(Lambda^T) inside range(B) iff rank([B | Lambda^T]) = rank(B); the
        # run-time test of the same fact is min_norm_actuation's ActuationError
        if case == "arm_link_orientation":
            model, state = arm, random_manifold_state(arm, rng, ARM_HOME)
            tdef = link_orientation_task(3)
        else:
            model, state = biped, random_manifold_state(biped, rng, BIPED_HOME, active=(0,))
            tdef = joint_task([0, 2, 4], 5)
        frame = build_frame(model, state)
        task = build_task(frame, tdef)
        B = model.actuation
        rank_B = np.linalg.matrix_rank(B)
        assert (np.linalg.matrix_rank(np.hstack([B, task.Lambda.T])) == rank_B) == sufficient
        if not sufficient:
            assert rank_B == 2
        gains = ControllerGains.critically_damped(task.l, 5.0)
        zero = np.zeros(task.l)
        cmd = tracking_torque(frame, task, task.x + 0.1, zero, zero, gains)
        if sufficient:
            u = min_norm_actuation(frame, cmd.tau_c)
            assert np.abs(frame.P @ B @ u - cmd.tau_c).max() <= 1e-9
        else:
            with pytest.raises(ActuationError):
                min_norm_actuation(frame, cmd.tau_c)

    @pytest.mark.parametrize("shape", [(2,), (3, 3), (3, 1)])
    def test_tau_c_must_be_an_n_vector(self, arm, shape):
        frame, _ = arm_setup(arm, manifold_state(arm, ARM_HOME))
        with pytest.raises(InputError, match=r"tau_c must have shape \(3,\)"):
            min_norm_actuation(frame, np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_tau_c_must_be_finite(self, arm, bad):
        # a NaN residual is not above the tolerance, so only an explicit check rejects it
        frame, _ = arm_setup(arm, manifold_state(arm, ARM_HOME))
        with pytest.raises(InputError, match=r"tau_c must have shape \(3,\) and be finite"):
            min_norm_actuation(frame, np.array([bad, 0.0, 0.0]))


class TestTrackingDisturbance:
    def test_zero_phi(self, arm, rng):
        state = random_manifold_state(arm, rng, ARM_HOME)
        frame, _ = arm_setup(arm, state)
        assert np.allclose(tracking_disturbance(frame, np.zeros(3)), 0.0)

    def test_fully_constrained(self):
        # P = 0, so M_bar = nu I and d = phi / nu
        model = point_mass_model()
        state = RobotState(t=0.0, q=np.zeros(3), q_dot=np.zeros(3), active_contacts=(0,))
        frame = build_frame(model, state)
        phi = np.array([0.3, -0.2, 0.1])
        assert np.allclose(tracking_disturbance(frame, phi), phi / model.nu, atol=1e-12)

    @pytest.mark.parametrize("case", ["arm", "biped_single_support"])
    def test_error_dynamics_identity(self, arm, biped, rng, case):
        # with an arbitrary (wrong) u: zeta == Lambda d exactly, on-manifold, for every task.  The arm's
        # task spans its one admissible direction, so there Lambda^+ zeta == d too; the single-support
        # biped's base pitch is one of three admissible directions, and Lambda^+ zeta is far from d
        model, home = (arm, ARM_HOME) if case == "arm" else (biped, BIPED_HOME)
        task_def = link_orientation_task(3) if case == "arm" else make_task(biped, "base_pitch")
        for _ in range(15):
            state = random_manifold_state(model, rng, home, active=(0,))
            frame = build_frame(model, state)
            task = build_task(frame, task_def)
            x_d = task.x + 0.1
            x_d_dot, x_d_ddot = np.zeros(1), np.zeros(1)
            cmd = tracking_torque(frame, task, x_d, x_d_dot, x_d_ddot, GAINS1)
            u = rng.uniform(model.u_min, model.u_max)
            d = tracking_disturbance(frame, cmd.tau_c - frame.P @ (model.actuation @ u))
            qdd = constrained_accel(frame, u)
            xdd = task.Lambda_dot @ state.q_dot + task.Lambda @ qdd
            zeta = (x_d_ddot - xdd) + GAINS1.K_D @ cmd.e_dot + GAINS1.K_P @ cmd.e
            assert np.abs(zeta - task.Lambda @ d).max() <= 1e-8
            spans = np.abs(task.Lambda_pinv @ zeta - d).max() <= 1e-8
            assert spans == (case == "arm")
