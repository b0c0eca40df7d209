from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projctl.constrained_dynamics import (
    RobotState,
    build_frame,
    cone_margins,
    constrained_accel,
    contact_forces,
)
from projctl.constraint_geometry import null_projector, projector_rate
from projctl.errors import InputError
from projctl.torque_qcqp import assemble_cone_constraints

from conftest import ARM_HOME, BIPED_HOME, point_mass_model, random_manifold_state
from oracles import integrate_saddle, saddle_point_state


def toy_model(M, A_block, n=None):
    """Inline model with constant inertia and a constant 3-row contact."""
    from projctl.constrained_dynamics import ContactSpec, RobotModel

    n = n or M.shape[0]
    block = np.zeros((3, n))
    block[: A_block.shape[0], :] = A_block
    contact = ContactSpec(
        jacobian=lambda q: block,
        jacobian_rate=lambda q, qd: np.zeros((3, n)),
        friction=0.5,
    )
    return RobotModel(
        mass_matrix=lambda q: M,
        coriolis_matrix=lambda q, qd: np.zeros((n, n)),
        gravity=lambda q: np.zeros(n),
        actuation=np.eye(n),
        contacts=(contact,),
        u_min=-10 * np.ones(n),
        u_max=10 * np.ones(n),
        motor_resistance=np.ones(n),
        torque_constant=np.ones(n),
    )


class TestBuildFrame:
    def test_no_contacts_reduces_to_plain_dynamics(self, arm):
        state = RobotState(t=0.0, q=ARM_HOME, q_dot=np.array([0.1, 0.2, -0.1]), active_contacts=())
        frame = build_frame(arm, state)
        assert np.allclose(frame.M_bar, frame.M, atol=1e-12)
        assert np.allclose(frame.C_bar, frame.C, atol=1e-12)
        assert np.allclose(frame.S, 0.0, atol=1e-12)

    def test_fully_constrained(self):
        model = point_mass_model()
        state = RobotState(t=0.0, q=np.zeros(3), q_dot=np.zeros(3), active_contacts=(0,))
        frame = build_frame(model, state, nu=1.0)
        assert np.allclose(frame.P, 0.0, atol=1e-12)
        assert np.allclose(frame.M_bar, np.eye(3), atol=1e-12)
        assert np.allclose(frame.S, np.eye(3), atol=1e-12)

    def test_hand_example(self):
        # M = diag(2, 3), single row [1, 0], nu = 1 -> P = diag(0, 1), M_bar = diag(1, 3)
        model = toy_model(np.diag([2.0, 3.0]), np.array([[1.0, 0.0]]))
        state = RobotState(t=0.0, q=np.zeros(2), q_dot=np.zeros(2), active_contacts=(0,))
        frame = build_frame(model, state, nu=1.0)
        assert np.allclose(frame.P, np.diag([0.0, 1.0]), atol=1e-12)
        assert np.allclose(frame.M_bar, np.diag([1.0, 3.0]), atol=1e-12)

    def test_bad_nu(self, arm):
        state = RobotState(t=0.0, q=ARM_HOME, q_dot=np.zeros(3), active_contacts=(0,))
        with pytest.raises(InputError):
            build_frame(arm, state, nu=-1.0)

    @pytest.mark.parametrize("entry", [(1, 1), (0, 1)], ids=["diagonal", "off_diagonal"])
    def test_default_nu_names_a_non_finite_mass_matrix(self, entry):
        # with a NaN off the diagonal trace(M)/n is finite, and only the check on M stops a NaN frame
        M = np.eye(3)
        M[entry] = M[entry[::-1]] = np.nan
        model = replace(point_mass_model(), mass_matrix=lambda q: M)
        state = RobotState(t=0.0, q=np.zeros(3), q_dot=np.zeros(3), active_contacts=())
        with pytest.raises(InputError, match="mass_matrix returned non-finite entries"):
            build_frame(model, state)

    def test_state_rejects_a_repeated_contact(self):
        # a repeat stacks one contact twice and splits its force; a Scenario's initial state is a RobotState too
        with pytest.raises(InputError, match=r"active_contacts \(0, 0\) repeats a contact"):
            RobotState(t=0.0, q=ARM_HOME, q_dot=np.zeros(3), active_contacts=(0, 0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_actuation(self, arm, bad):
        B = np.array(arm.actuation)
        B[1, 2] = bad
        with pytest.raises(InputError, match="actuation matrix entries must be finite"):
            replace(arm, actuation=B)


class TestInertiaProperties:
    def test_random_matrix_suite(self, rng):
        # positive definiteness, norm bound and the spectrum union property
        for _ in range(300):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 5))
            G = rng.standard_normal((n, n))
            M = G.T @ G + 0.1 * np.eye(n)
            A = rng.standard_normal((m, n))
            if rng.random() < 0.25 and m >= 2:
                A[-1] = 2.0 * A[0]
            nu = float(rng.uniform(0.2, 5.0))
            bundle = null_projector(A)
            P = bundle.P
            r = bundle.rank
            M_bar = P @ M @ P + nu * (np.eye(n) - P)
            M_bar = 0.5 * (M_bar + M_bar.T)
            eig = np.linalg.eigvalsh(M_bar)
            assert eig.min() > 0
            assert np.linalg.norm(M_bar, 2) <= max(nu, np.linalg.norm(M, 2)) + 1e-12

            pm = np.linalg.eigvalsh(P @ M @ P)
            expected = np.sort(np.concatenate([np.full(r, nu), pm[n - (n - r):][-(n - r):] if n > r else np.empty(0)]))
            expected = np.sort(np.concatenate([np.full(r, nu), np.sort(pm)[r:]]))
            assert np.allclose(np.sort(eig), expected, atol=1e-8)

            # lower bound: min eig >= min(nu, smallest eigenvalue of M on null(A))
            if n > r:
                _, _, Vt = np.linalg.svd(A)
                Z = Vt[np.linalg.matrix_rank(A):].T
                if Z.shape[1] == n - r:
                    bound = min(nu, np.linalg.eigvalsh(Z.T @ M @ Z).min())
                    assert eig.min() >= bound - 1e-9

    def test_mbar_rate_skew_on_models(self, arm, biped, rng):
        # h = 1e-5 balances truncation against difference-quotient roundoff
        h = 1e-5
        cases = [(arm, ARM_HOME, None), (biped, BIPED_HOME, None)]
        for model, home, _ in cases:
            for _ in range(20):
                state = random_manifold_state(model, rng, home, spread=0.15)
                nu = float(np.trace(model.mass_matrix(state.q)) / model.n)

                def mbar(q, qd):
                    s = RobotState(t=0.0, q=q, q_dot=qd, active_contacts=state.active_contacts)
                    return build_frame(model, s, nu=nu).M_bar

                frame = build_frame(model, state, nu=nu)
                step = h * state.q_dot
                Md = (mbar(state.q + step, state.q_dot) - mbar(state.q - step, state.q_dot)) / (2 * h)
                D = Md - 2.0 * frame.C_bar
                assert np.abs(D + D.T).max() <= 1e-8

    def test_oblique_projector_identities(self, arm, biped, rng):
        witnessed_nonsymmetric = False
        for model, home in ((arm, ARM_HOME), (biped, BIPED_HOME)):
            for _ in range(15):
                state = random_manifold_state(model, rng, home, spread=0.2)
                frame = build_frame(model, state)
                S, P, M_bar = frame.S, frame.P, frame.M_bar
                assert np.abs(S @ S - S).max() <= 1e-10
                assert np.abs(P @ M_bar - M_bar @ P).max() <= 1e-10
                if np.abs(S - S.T).max() > 1e-6:
                    witnessed_nonsymmetric = True
        assert witnessed_nonsymmetric


class TestConstrainedAccel:
    def test_static_equilibrium(self):
        model = point_mass_model()
        state = RobotState(t=0.0, q=np.zeros(3), q_dot=np.zeros(3), active_contacts=(0,))
        frame = build_frame(model, state, nu=1.0)
        qdd = constrained_accel(frame, np.zeros(3))
        assert np.allclose(qdd, 0.0, atol=1e-12)

    def test_free_motion(self, arm):
        state = RobotState(t=0.0, q=ARM_HOME, q_dot=np.zeros(3), active_contacts=())
        frame = build_frame(arm, state)
        u = np.array([1.0, -2.0, 0.5])
        qdd = constrained_accel(frame, u)
        M = arm.mass_matrix(state.q)
        expected = np.linalg.solve(M, u + arm.gravity(state.q))
        assert np.allclose(qdd, expected, atol=1e-10)

    def test_matches_saddle_point_oracle(self, arm, biped, rng):
        for model, home in ((arm, ARM_HOME), (biped, BIPED_HOME)):
            for _ in range(25):
                state = random_manifold_state(model, rng, home, spread=0.2)
                u = rng.uniform(model.u_min, model.u_max)
                frame = build_frame(model, state)
                qdd = constrained_accel(frame, u)
                qdd_oracle, _ = saddle_point_state(model, state, u)
                assert np.abs(qdd - qdd_oracle).max() <= 1e-8

    def test_orthogonal_component_is_omega_qdot(self, arm, rng):
        for _ in range(20):
            state = random_manifold_state(arm, rng, ARM_HOME, spread=0.2)
            u = rng.uniform(arm.u_min, arm.u_max)
            frame = build_frame(arm, state)
            qdd = constrained_accel(frame, u)
            lhs = (np.eye(arm.n) - frame.P) @ qdd
            rhs = frame.Omega @ state.q_dot
            assert np.abs(lhs - rhs).max() <= 1e-8


def unit_vectors(size):
    return st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size).map(np.array)


def eager_frame(model, state, u, nu=None):
    """The frame algebra written out eagerly on the public projector API."""
    q, qd, active = state.q, state.q_dot, state.active_contacts
    M, C, tau_g = model.mass_matrix(q), model.coriolis_matrix(q, qd), model.gravity(q)
    A = model.contact_stack(q, active)
    L, Omega, P_dot = projector_rate(A, model.contact_stack_rate(q, qd, active))
    nu = float(np.trace(M)) / model.n if nu is None else nu
    P, I = null_projector(A).P, np.eye(model.n)
    M_bar = P @ M @ P + nu * (I - P)
    M_bar = 0.5 * (M_bar + M_bar.T)
    C_bar = P @ C @ P + P @ M @ P_dot - nu * L
    M_bar_inv = np.linalg.inv(M_bar)
    return {
        "M_bar": M_bar,
        "C_bar": C_bar,
        "M_bar_inv": M_bar_inv,
        "S": I - M @ M_bar_inv @ P,
        "Q": M @ Omega + C,
        "qdd": M_bar_inv @ (P @ (model.actuation @ u + tau_g) - C_bar @ qd),
    }


class TestFrameBitExact:
    """build_frame and constrained_accel, the integrator's per-stage path, keep
    the exact floating-point operations of the eager algebra."""

    @staticmethod
    def assert_bit_exact(model, q, qd, active, u, nu):
        state = RobotState(t=0.0, q=q, q_dot=qd, active_contacts=active)
        expected = eager_frame(model, state, u, nu)
        frame = build_frame(model, state, nu=nu)
        assert np.array_equal(constrained_accel(frame, u), expected["qdd"])
        for name in ("M_bar", "C_bar", "M_bar_inv", "S", "Q"):
            assert np.array_equal(getattr(frame, name), expected[name]), name

    @settings(max_examples=40, deadline=None)
    @given(dq=unit_vectors(3), qd=unit_vectors(3), du=unit_vectors(3), nu=st.none() | st.floats(0.1, 5.0))
    def test_arm_tip_contact(self, arm, dq, qd, du, nu):
        self.assert_bit_exact(arm, ARM_HOME + 0.3 * dq, qd, (0,), 5.0 * du, nu)

    @settings(max_examples=40, deadline=None)
    @given(
        dq=unit_vectors(5),
        qd=unit_vectors(5),
        du=unit_vectors(2),
        active=st.sampled_from([(), (0,), (0, 1)]),
        nu=st.none() | st.floats(0.1, 5.0),
    )
    def test_biped_active_sets(self, biped, dq, qd, du, active, nu):
        self.assert_bit_exact(biped, BIPED_HOME + 0.2 * dq, qd, active, 20.0 * du, nu)

    @settings(max_examples=25, deadline=None)
    @given(base=unit_vectors(3), hip=st.floats(-0.5, 0.5), qd=unit_vectors(5), du=unit_vectors(2))
    def test_coincident_feet_rank_deficient(self, biped, base, hip, qd, du):
        q = np.concatenate([BIPED_HOME[:3] + 0.1 * base, [hip, hip]])
        assert null_projector(biped.contact_stack(q, (0, 1))).rank < 6
        self.assert_bit_exact(biped, q, qd, (0, 1), 20.0 * du, None)

    def test_rejects_non_finite_contact_rate(self):
        model = toy_model(np.eye(2), np.array([[1.0, 0.0]]))
        contact = replace(model.contacts[0], jacobian_rate=lambda q, qd: np.full((3, 2), np.nan))
        model = replace(model, contacts=(contact,))
        state = RobotState(t=0.0, q=np.zeros(2), q_dot=np.zeros(2), active_contacts=(0,))
        with pytest.raises(InputError):
            build_frame(model, state)


class TestContactForces:
    def test_zero_case(self):
        model = toy_model(np.diag([1.0, 1.0]), np.array([[1.0, 0.0]]))
        state = RobotState(t=0.0, q=np.zeros(2), q_dot=np.zeros(2), active_contacts=(0,))
        frame = build_frame(model, state, nu=1.0)
        lam, _ = contact_forces(frame, np.zeros(2))
        assert np.allclose(lam, 0.0, atol=1e-12)

    def test_point_mass_statics(self):
        mass, g = 2.0, 9.81
        model = point_mass_model(mass=mass, g=g)
        state = RobotState(t=0.0, q=np.zeros(3), q_dot=np.zeros(3), active_contacts=(0,))
        frame = build_frame(model, state, nu=1.0)
        lam, margins = contact_forces(frame, np.zeros(3))
        assert np.allclose(lam, [[0.0, 0.0, mass * g]], atol=1e-10)
        assert margins[0] > 0
        assert frame.rank == frame.A.shape[0]

    def test_matches_saddle_point_oracle(self, arm, biped, rng):
        for model, home in ((arm, ARM_HOME), (biped, BIPED_HOME)):
            for _ in range(30):
                state = random_manifold_state(model, rng, home, spread=0.2)
                u = rng.uniform(model.u_min, model.u_max)
                frame = build_frame(model, state)
                lam, _ = contact_forces(frame, u)
                _, lam_oracle = saddle_point_state(model, state, u)
                assert np.abs(lam.ravel() - lam_oracle).max() <= 1e-8

    def test_planar_stack_flagged_degenerate(self, arm, rng):
        state = random_manifold_state(arm, rng, ARM_HOME)
        frame = build_frame(arm, state)
        assert frame.rank < frame.A.shape[0]  # the y row of a planar contact is zero

    @pytest.mark.parametrize("active", [(0,), (1,), (0, 1)])
    def test_every_planar_contact_set_is_rank_deficient(self, biped, rng, active):
        state = random_manifold_state(biped, rng, BIPED_HOME, active=active)
        frame = build_frame(biped, state)
        assert frame.rank < frame.A.shape[0]

    def test_rank_deficient_forces_are_minimum_norm(self, arm, biped, rng):
        # the minimum-norm forces lie in range(A): nothing on a planar contact's zero y row
        for model, home in ((arm, ARM_HOME), (biped, BIPED_HOME)):
            for _ in range(10):
                state = random_manifold_state(model, rng, home)
                frame = build_frame(model, state)
                lam, _ = contact_forces(frame, rng.uniform(model.u_min, model.u_max))
                assert np.abs(lam[:, 1]).max() <= 1e-10 * max(1.0, np.abs(lam).max())

    def test_empty_active_set_gives_empty_rows(self, arm):
        # k = 0 is an ordinary active set: no force rows, as no cone rows
        state = RobotState(t=0.0, q=ARM_HOME, q_dot=np.array([0.1, 0.2, -0.1]), active_contacts=())
        frame = build_frame(arm, state)
        lam, margins = contact_forces(frame, np.ones(3))
        assert lam.shape == (0, 3) and margins.shape == (0,)
        lin, off, G = assemble_cone_constraints(frame)
        assert lin.shape == (0, 3) and off.shape == (0,) and G.shape == (0, 3, 3)


class TestProjectedEquationOfMotion:
    def test_residual_along_oracle_trajectory(self, arm):
        # P (M qdd + C qd - B u - tau_g) = 0 along a saddle-point-integrated run
        q0 = ARM_HOME.copy()
        P0 = null_projector(arm.contact_stack(q0, (0,))).P
        qd0 = P0 @ np.array([0.4, -0.2, 0.3])
        u_fn = lambda t, q, qd: np.array([0.5 * np.sin(3 * t), -0.3, 0.2])
        traj = integrate_saddle(arm, q0, qd0, (0,), u_fn, 1e-3, 300)
        t = 0.0
        for q, qd in traj[:: 30]:
            state = RobotState(t=t, q=q, q_dot=qd, active_contacts=(0,))
            u = u_fn(t, q, qd)
            qdd, _ = saddle_point_state(arm, state, u)
            res = null_projector(arm.contact_stack(q, (0,))).P @ (
                arm.mass_matrix(q) @ qdd
                + arm.coriolis_matrix(q, qd) @ qd
                - arm.actuation @ u
                - arm.gravity(q)
            )
            assert np.abs(res).max() <= 1e-8
            t += 30 * 1e-3


def test_cone_margin_helper():
    forces = np.array([3.0, 4.0, 10.0])
    assert np.isclose(cone_margins(forces, np.array([0.8]))[0], 0.8 * 10.0 - 5.0)
