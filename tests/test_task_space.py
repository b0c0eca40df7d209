import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projctl.constrained_dynamics import RobotState, build_frame, constrained_accel
from projctl.constraint_geometry import pseudo_inverse
from projctl.errors import InputError, TaskInconsistencyError
from projctl.models import base_pose_task, joint_task, link_orientation_task, make_task
from projctl.task_space import TaskDef, build_task, check_feasibility, task_accel_decompose

from conftest import ARM_HOME, BIPED_HOME, manifold_state, random_manifold_state
from oracles import task_identities_reference


def identity_task(n):
    return TaskDef(
        name="full_config",
        dim=n,
        value=lambda q: np.asarray(q, dtype=float).copy(),
        jacobian=lambda q: np.eye(n),
        jacobian_rate=lambda q, qd: np.zeros((n, n)),
    )


class TestBuildTask:
    def test_unconstrained_identity_task(self, arm):
        state = RobotState(t=0.0, q=ARM_HOME, q_dot=np.zeros(3), active_contacts=())
        frame = build_frame(arm, state)
        task = build_task(frame, identity_task(3))
        assert np.allclose(task.Lambda, np.eye(3))
        assert np.allclose(task.Lambda_pinv, np.eye(3))
        assert np.allclose(task.Gamma_ctl, 0.0, atol=1e-12)

    def test_full_span_pinv_product(self, arm, rng):
        for _ in range(20):
            state = random_manifold_state(arm, rng, ARM_HOME)
            frame = build_frame(arm, state)
            task = build_task(frame, link_orientation_task(3))
            assert task.full_span
            assert task.identities.pinv_product <= 1e-10
            assert np.abs(task.Lambda_pinv @ task.Lambda - frame.P).max() <= 1e-10

    def test_constrained_direction_rejected(self, arm, rng):
        # the tip height is pinned by the contact, so it cannot be a task
        def tip_z(q):
            return np.array([arm.contacts[0].point(q)[2]])

        state = random_manifold_state(arm, rng, ARM_HOME)
        frame = build_frame(arm, state)
        bad = TaskDef(name="tip_height", dim=1, value=tip_z)
        with pytest.raises(TaskInconsistencyError):
            build_task(frame, bad)

    def test_eq13_identities(self, arm, biped, rng):
        for model, home, tdef in (
            (arm, ARM_HOME, link_orientation_task(3)),
            (biped, BIPED_HOME, make_task(biped, "base_pitch")),
        ):
            for _ in range(15):
                state = random_manifold_state(model, rng, home)
                frame = build_frame(model, state)
                task = build_task(frame, tdef)
                assert task.identities.range_in_null <= 1e-10
                assert task.identities.pinv_in_null <= 1e-10

    def test_underspan_projector_ordering(self, biped, rng):
        # single support leaves 3 admissible dofs; a 1-d task under-spans
        state = random_manifold_state(biped, rng, BIPED_HOME, active=(0,))
        frame = build_frame(biped, state)
        task = build_task(frame, make_task(biped, "base_pitch"))
        assert not task.full_span
        assert task.identities.pinv_product >= -1e-9  # P - Lambda^+ Lambda >= 0

    @pytest.mark.parametrize("bad", ["value", "jacobian"])
    def test_non_finite_task_rejected(self, arm, bad):
        state = manifold_state(arm, ARM_HOME, scale=0.0)
        frame = build_frame(arm, state)
        task = TaskDef(
            name="broken",
            dim=1,
            value=lambda q: np.array([np.inf if bad == "value" else float(np.sum(q))]),
            jacobian=lambda q: np.array([[1.0, np.nan if bad == "jacobian" else 1.0, 1.0]]),
        )
        with pytest.raises(InputError, match="non-finite"):
            build_task(frame, task)

    def test_fd_jacobian_matches_analytic(self, arm, rng):
        state = random_manifold_state(arm, rng, ARM_HOME)
        frame = build_frame(arm, state)
        analytic = build_task(frame, link_orientation_task(3))
        fd_def = TaskDef(name="fd", dim=1, value=lambda q: np.array([float(np.sum(q))]))
        numeric = build_task(frame, fd_def)
        assert np.abs(analytic.Lambda - numeric.Lambda).max() <= 1e-7
        assert np.abs(analytic.Lambda_dot - numeric.Lambda_dot).max() <= 1e-5


class TestTaskMapMatchesOracle:
    """Lambda^+ from build_task's one SVD is pseudo_inverse(Lambda) bit for bit,
    and the identities read on demand equal the eager residuals."""

    @staticmethod
    def check(model, state, tdef):
        frame = build_frame(model, state)
        task = build_task(frame, tdef)
        assert "identities" not in vars(task)
        assert np.array_equal(task.Lambda_pinv, pseudo_inverse(task.Lambda))
        assert task.identities == task_identities_reference(frame, task)
        return task

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_arm(self, arm, seed):
        state = random_manifold_state(arm, np.random.default_rng(seed), ARM_HOME)
        assert self.check(arm, state, link_orientation_task(3)).full_span

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        case=st.sampled_from([("base_pitch", (0, 1)), ("base_pitch", (0,)), ("joints", (0,))]),
    )
    def test_biped(self, biped, seed, case):
        kind, active = case
        tdef = joint_task([0, 2, 4], 5) if kind == "joints" else make_task(biped, kind)
        state = random_manifold_state(biped, np.random.default_rng(seed), BIPED_HOME, active=active)
        task = self.check(biped, state, tdef)
        # a 1-d task under-spans the 3 admissible dofs of single support
        assert task.full_span == (kind == "joints" or active == (0, 1))


class TestCheckFeasibility:
    def test_fully_actuated(self, arm, rng):
        state = random_manifold_state(arm, rng, ARM_HOME)
        frame = build_frame(arm, state)
        task = build_task(frame, link_orientation_task(3))
        report = check_feasibility(frame, task)
        assert report.task_consistent
        assert report.actuation_sufficient

    def test_underactuated_three_dof_task(self, biped, rng):
        # 3-d task in single support, but only 2 hips actuated:
        # rank([B | Lambda^T]) > rank(B)
        state = random_manifold_state(biped, rng, BIPED_HOME, active=(0,))
        frame = build_frame(biped, state)
        task = build_task(frame, joint_task([0, 2, 4], 5))
        report = check_feasibility(frame, task)
        assert report.task_consistent
        assert not report.actuation_sufficient
        assert report.rank_B == 2

    def test_base_pose_unreachable_in_single_support(self, biped, rng):
        # a pinned point foot ties base x and z to the stance-leg angle, so
        # the 3-d base pose is not an independent task
        state = random_manifold_state(biped, rng, BIPED_HOME, active=(0,))
        frame = build_frame(biped, state)
        with pytest.raises(TaskInconsistencyError):
            build_task(frame, base_pose_task(5))

    def test_built_tasks_always_consistent(self, arm, biped, rng):
        for model, home, kind in ((arm, ARM_HOME, "link_orientation"), (biped, BIPED_HOME, "base_pitch")):
            for _ in range(10):
                state = random_manifold_state(model, rng, home)
                frame = build_frame(model, state)
                task = build_task(frame, make_task(model, kind))
                assert check_feasibility(frame, task).task_consistent


class TestTaskAccelDecompose:
    def test_rest_zero(self, arm, rng):
        state = manifold_state(arm, ARM_HOME, rng=rng, scale=0.0)
        frame = build_frame(arm, state)
        task = build_task(frame, link_orientation_task(3))
        qdd = task_accel_decompose(task, frame, np.zeros(1))
        assert np.allclose(qdd, 0.0, atol=1e-12)

    def test_unconstrained_identity(self, arm):
        state = RobotState(t=0.0, q=ARM_HOME, q_dot=np.zeros(3), active_contacts=())
        frame = build_frame(arm, state)
        task = build_task(frame, identity_task(3))
        xdd = np.array([0.3, -0.1, 0.2])
        assert np.allclose(task_accel_decompose(task, frame, xdd), xdd)

    def test_round_trip(self, arm, biped, rng):
        # x_ddot = Lambda_dot qd + Lambda qdd must be reproduced exactly
        cases = [
            (arm, ARM_HOME, link_orientation_task(3), None),
            (biped, BIPED_HOME, joint_task([0, 2, 4], 5), (0,)),
        ]
        for model, home, tdef, active in cases:
            for _ in range(25):
                state = random_manifold_state(model, rng, home, active=active)
                frame = build_frame(model, state)
                task = build_task(frame, tdef)
                xdd = rng.standard_normal(task.l)
                qdd = task_accel_decompose(task, frame, xdd)
                back = task.Lambda_dot @ state.q_dot + task.Lambda @ qdd
                assert np.abs(back - xdd).max() <= 1e-9

    def test_consistent_with_dynamics(self, arm, rng):
        # accelerations produced by the dynamics decompose back to x_ddot
        for _ in range(10):
            state = random_manifold_state(arm, rng, ARM_HOME)
            frame = build_frame(arm, state)
            task = build_task(frame, link_orientation_task(3))
            u = rng.uniform(arm.u_min, arm.u_max)
            qdd = constrained_accel(frame, u)
            xdd = task.Lambda_dot @ state.q_dot + task.Lambda @ qdd
            qdd_back = task_accel_decompose(task, frame, xdd)
            assert np.abs(qdd_back - qdd).max() <= 1e-8


def test_joint_task_selection(biped, rng):
    state = random_manifold_state(biped, rng, BIPED_HOME)
    frame = build_frame(biped, state)
    task = build_task(frame, joint_task([2], 5))
    assert task.l == 1
    assert np.isclose(task.x[0], state.q[2])
