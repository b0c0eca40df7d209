import dataclasses
import importlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from projctl.constrained_dynamics import RobotModel, RobotState, build_frame, contact_forces
from projctl.control_laws import ControllerGains, tracking_torque
from projctl.errors import InputError, SolverError
from projctl.models import MODEL_CATALOG, build_model, make_task
from projctl import torque_qcqp
from projctl.task_space import build_task
from projctl.torque_qcqp import (
    _barrier_hessian,
    EPS,
    ETA0,
    KAPPA,
    MAX_CENTERING,
    NEWTON_TOL,
    TorqueProgram,
    assemble_cone_constraints,
    assemble_program,
    barrier_gradient,
    barrier_value,
    phase1_feasible_point,
    relax_program,
    solve_barrier,
)
from projctl.runner import load_config, load_scenario
from projctl.simulate import simulate

from conftest import (
    ARM_HOME,
    BIPED_HOME,
    CONFIGS,
    manifold_state,
    point_mass_model,
    random_manifold_state,
    short_scenario,
)
from oracles import (
    cone_rows_reference,
    constraint_rows,
    contact_forces_reference,
    grid_polish_optimum,
    solve_barrier_reference,
    stack_cone_rows,
    synthetic_program,
)


def model_weighting(R, K_t):
    """RobotModel.W of a model with p = len(R) directly driven joints and these motors."""
    p = len(R)
    return RobotModel(
        mass_matrix=None,
        coriolis_matrix=None,
        gravity=None,
        actuation=np.eye(p),
        contacts=(),
        u_min=-np.ones(p),
        u_max=np.ones(p),
        motor_resistance=R,
        torque_constant=K_t,
    ).W


class TestMotorWeighting:
    def test_unit_motors(self):
        assert np.allclose(model_weighting(np.ones(3), np.ones(3)), np.eye(3))

    def test_scalar_arithmetic(self):
        assert np.allclose(model_weighting(np.array([2.0]), np.array([2.0])), [[0.5]])

    def test_ohms_law_identity(self, rng):
        for _ in range(30):
            p = int(rng.integers(1, 6))
            R = rng.uniform(0.5, 3.0, p)
            K_t = rng.uniform(0.3, 2.0, p) * rng.choice([-1.0, 1.0], p)
            u = rng.uniform(-10, 10, p)
            W = model_weighting(R, K_t)
            i = u / K_t
            assert abs(u @ W @ u - i @ (R * i)) <= 1e-12 * max(1.0, abs(i @ (R * i)))

    def test_zero_torque_constant(self):
        with pytest.raises(InputError):
            model_weighting(np.ones(2), np.array([1.0, 0.0]))


class TestReportedObjective:
    """The report's objective is the dissipated power u^T W u (watt) at its u_star."""

    def test_zero_torque_dissipates_nothing(self):
        # a zero target pins u = 0
        program = synthetic_program(np.eye(2), eq=(np.eye(2), np.zeros(2)))
        report = solve_barrier(program)
        assert report.status == "optimal"
        assert report.objective == pytest.approx(0.0, abs=1e-14)

    def test_componentwise_copper_loss(self, arm, rng):
        # u^T W u = sum_j R_j (u_j / K_t_j)^2 with the arm's own motors
        state = random_manifold_state(arm, rng, ARM_HOME)
        _, program = arm_program(arm, state)
        report = solve_barrier(program)
        assert report.status == "optimal"
        i = report.u_star / arm.torque_constant
        assert report.objective == pytest.approx(float(np.sum(arm.motor_resistance * i**2)), rel=1e-12)

    def test_failure_reports_the_power_at_the_phase_one_point(self):
        program = synthetic_program(np.diag([2.0, 3.0]), u_box=1e-16)
        report = solve_barrier(program)
        assert report.status == "infeasible_inequality"
        u = report.u_star
        assert report.objective == float(u @ program.W @ u)


def arm_program(arm, state, error=0.1):
    frame = build_frame(arm, state)
    task = build_task(frame, make_task(arm, "link_orientation"))
    gains = ControllerGains.critically_damped(1, 5.0)
    cmd = tracking_torque(frame, task, task.x + error, np.zeros(1), np.zeros(1), gains)
    return frame, assemble_program(frame, cmd.tau_c)


class TestConeConstraints:
    def test_roundtrip_against_contact_forces(self, arm, biped, rng):
        for model, home in ((arm, ARM_HOME), (biped, BIPED_HOME)):
            for _ in range(15):
                state = random_manifold_state(model, rng, home)
                frame = build_frame(model, state)
                lin, off, G = assemble_cone_constraints(frame)
                for _ in range(10):
                    u = rng.uniform(model.u_min, model.u_max)
                    lam, _ = contact_forces(frame, u)
                    for i, contact in enumerate(state.active_contacts):
                        mu = model.contacts[contact].friction
                        normal = lin[2 * i] @ u + off[2 * i]
                        quad = u @ G[i] @ u + lin[2 * i + 1] @ u + off[2 * i + 1]
                        lam_x, lam_y, lam_z = lam[i]
                        scale = max(1.0, abs(lam_z))
                        assert abs(normal - lam_z) <= 1e-8 * scale
                        expected = mu**2 * lam_z**2 - lam_x**2 - lam_y**2
                        assert abs(quad - expected) <= 1e-8 * max(1.0, abs(expected))

    def test_point_mass_statics(self):
        mass, g = 2.0, 9.81
        model = point_mass_model(mass=mass, g=g)
        state = RobotState(t=0.0, q=np.zeros(3), q_dot=np.zeros(3), active_contacts=(0,))
        frame = build_frame(model, state)
        lin, off, _ = assemble_cone_constraints(frame)
        assert lin[0] @ np.zeros(3) + off[0] == pytest.approx(mass * g, rel=1e-12)

    def test_no_active_contact_gives_empty_rows(self, arm):
        state = RobotState(t=0.0, q=ARM_HOME, q_dot=np.zeros(3), active_contacts=())
        lin, off, G = assemble_cone_constraints(build_frame(arm, state))
        assert (lin.shape, off.shape, G.shape) == ((0, 3), (0,), (0, 3, 3))


def _free_arm(kind):
    """compare_cone.json cut to 0.05 s with no active contact, under the given allocator."""
    cfg = load_config(CONFIGS / "compare_cone.json")
    cfg["duration"] = 0.05
    cfg["initial_state"]["active_contacts"] = []
    cfg["optimizer"] = {"type": kind}
    return simulate(load_scenario(cfg))


def _biped_flight(optimizer):
    """biped_switch.json cut to 0.05 s with a flight phase from 0.01 s to 0.03 s."""
    cfg = load_config(CONFIGS / "biped_switch.json")
    cfg["duration"] = 0.05
    cfg["contacts"]["schedule"] = [[0.01, []], [0.03, [0, 1]]]
    cfg["optimizer"] = optimizer
    return load_scenario(cfg)


class TestNoActiveContact:
    """With no active contact the torque program is its box and equality rows alone."""

    def test_free_arm_qcqp_matches_min_norm(self):
        # P = I and B = I, so the equality rows fix u = tau_c, which is min_norm's u
        qcqp, min_norm = _free_arm("qcqp"), _free_arm("min_norm")
        assert set(qcqp.status) == {"optimal"} and qcqp.active[0] == ()
        assert np.allclose(qcqp.u, min_norm.u, rtol=0.0, atol=1e-9)

    def test_biped_flight_phase_relaxed(self):
        trace = simulate(_biped_flight({"type": "qcqp_relaxed", "rho": 200.0}))
        flight = [i for i, active in enumerate(trace.active) if active == ()]
        assert len(flight) == 20 and trace.active[-1] == (0, 1)
        assert set(trace.status) == {"relaxed"}

    def test_biped_flight_phase_strict_is_infeasible(self):
        # in flight P = I, and P B u = tau_c has 5 rows for 2 actuators
        with pytest.raises(SolverError, match=r"^step 10, t=0\.0100, active \[\]: torque program infeasible_equality"):
            simulate(_biped_flight({"type": "qcqp"}))


def assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


class TestForceMapMatchesOracle:
    """Contact forces and cone rows, both read from the affine map
    lambda(u) = F u + f0, agree with the expressions that expand
    A^+T S (B u + tau_g - Q qd) directly."""

    @staticmethod
    def check(model, state, seed):
        rng = np.random.default_rng(seed)
        frame = build_frame(model, state)
        for _ in range(5):
            u = rng.uniform(2 * model.u_min, 2 * model.u_max)
            want = contact_forces_reference(frame, model, state, u)
            assert_close(contact_forces(frame, u)[0].ravel(), want)
        lin, off, G = assemble_cone_constraints(frame)
        reference = cone_rows_reference(frame, model, state)
        k = len(reference)
        assert (lin.shape, off.shape, G.shape) == ((2 * k, model.p), (2 * k,), (k, model.p, model.p))
        # row order: contact i's linear row at 2i, its quadratic row at 2i + 1
        for i, (z, alpha, G_i, gamma, beta) in enumerate(reference):
            assert_close(lin[2 * i], z)
            assert_close(off[2 * i], alpha)
            assert_close(lin[2 * i + 1], gamma)
            assert_close(off[2 * i + 1], beta)
            assert_close(G[i], G_i)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_arm(self, arm, seed):
        self.check(arm, random_manifold_state(arm, np.random.default_rng(seed), ARM_HOME), seed)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), active=st.sampled_from([(0,), (0, 1)]))
    def test_biped(self, biped, seed, active):
        state = random_manifold_state(biped, np.random.default_rng(seed), BIPED_HOME, active=active)
        self.check(biped, state, seed)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), hip=st.floats(-0.5, 0.5))
    def test_coincident_feet_rank_deficient(self, biped, seed, hip):
        rng = np.random.default_rng(seed)
        q = np.concatenate([BIPED_HOME[:3] + 0.1 * rng.standard_normal(3), [hip, hip]])
        state = manifold_state(biped, q, rng=rng, active=(0, 1))
        assert build_frame(biped, state).rank < 6
        self.check(biped, state, seed)


class TestAssembleProgram:
    def test_row_count(self, arm, rng):
        state = random_manifold_state(arm, rng, ARM_HOME)
        _, program = arm_program(arm, state)
        # k = 1 contact, p = 3: r = 2(k + p) = 8
        assert program.r == 8
        assert program.constraint_values(np.zeros(3)).shape == (8,)

    def test_stack_matches_direct_inequalities(self, arm, rng):
        state = random_manifold_state(arm, rng, ARM_HOME)
        frame, program = arm_program(arm, state)
        for _ in range(10):
            u = rng.uniform(arm.u_min, arm.u_max)
            c = program.constraint_values(u)
            lam_x, lam_y, lam_z = contact_forces(frame, u)[0][0]
            mu = arm.contacts[0].friction
            assert c[0] == pytest.approx(lam_z, abs=1e-8 * max(1, abs(lam_z)))
            assert c[1] == pytest.approx(
                mu**2 * lam_z**2 - lam_x**2 - lam_y**2, abs=1e-7 * max(1, lam_z**2)
            )
            assert np.allclose(c[2:5], arm.u_max - u)
            assert np.allclose(c[5:8], u - arm.u_min)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_stacked_rows_match_per_row_oracle(self, arm, biped, rng, k):
        if k == 1:
            model, home, task_name = arm, ARM_HOME, "link_orientation"
        else:
            model, home, task_name = biped, BIPED_HOME, "base_pitch"
        state = random_manifold_state(model, rng, home)
        frame = build_frame(model, state)
        task = build_task(frame, make_task(model, task_name))
        gains = ControllerGains.critically_damped(1, 5.0)
        cmd = tracking_torque(frame, task, task.x + 0.1, np.zeros(1), np.zeros(1), gains)
        cones = assemble_cone_constraints(frame) if k else stack_cone_rows((), model.p)
        reference = cone_rows_reference(frame, model, state) if k else ()
        program = assemble_program(frame, cmd.tau_c, cones=cones)
        assert program.k == k
        assert program.r == 2 * (k + model.p)
        for _ in range(20):
            u = rng.uniform(2 * model.u_min, 2 * model.u_max)
            for stacked, rows in zip(
                (program.constraint_values(u), program.constraint_gradients(u)), constraint_rows(reference, program, u)
            ):
                assert np.all(np.abs(stacked - rows) <= 1e-12 * np.maximum(1.0, np.abs(rows)))

    def test_keeps_the_given_cone_rows(self, biped, rng):
        state = random_manifold_state(biped, rng, BIPED_HOME, active=(0, 1))
        frame = build_frame(biped, state)
        rows = assemble_cone_constraints(frame)
        program = assemble_program(frame, frame.P @ rng.standard_normal(biped.n), cones=rows)
        assert program.G is rows[2]
        assert np.array_equal(program.lin[:4], rows[0]) and np.array_equal(program.off[:4], rows[1])

    def test_tau_c_outside_range_P(self, arm, rng):
        state = random_manifold_state(arm, rng, ARM_HOME)
        frame = build_frame(arm, state)
        bad = (np.eye(3) - frame.P) @ np.array([1.0, 2.0, 3.0]) + 1e-3
        with pytest.raises(InputError):
            assemble_program(frame, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_tau_c_must_be_finite(self, arm, rng, bad):
        # a NaN or inf range(P) residual is not above the tolerance, so only an explicit check rejects it
        frame = build_frame(arm, random_manifold_state(arm, rng, ARM_HOME))
        with pytest.raises(InputError, match=r"tau_c must have shape \(3,\) and be finite"):
            assemble_program(frame, np.array([bad, 0.0, 0.0]))


class TestPhaseOne:
    def test_passthrough_when_feasible(self, arm, rng):
        state = random_manifold_state(arm, rng, ARM_HOME)
        frame, program = arm_program(arm, state)
        res = phase1_feasible_point(program)
        assert res.feasible
        assert np.all(program.constraint_values(res.u) > 0)

    def test_empty_box_certificate(self):
        W = np.eye(2)
        program = TorqueProgram.from_cones(
            W=W,
            eq_mat=np.zeros((0, 2)),
            eq_rhs=np.zeros(0),
            cones=stack_cone_rows((), 2),
            u_min=np.zeros(2),
            u_max=np.zeros(2) + 1e-15,
        )
        res = phase1_feasible_point(program)
        assert not res.feasible

    def test_tight_cone_strictly_feasible(self):
        # one narrow quadratic corridor: 1 - (u0 - 2)^2 - u1^2 >= 0
        # (z, alpha, G, gamma, beta)
        cone = (np.array([0.0, 1.0]), 5.0, -np.eye(2), np.array([4.0, 0.0]), -3.0)
        program = synthetic_program(np.eye(2), u_box=6.0, cones=(cone,))
        res = phase1_feasible_point(program)
        assert res.feasible
        assert np.all(program.constraint_values(res.u) > 0)


def with_force_equality(program, frame, selector, target):
    """program with the equality rows selector @ lambda(u) = target appended, read from the
    frame's force map lambda(u) = F u + f0."""
    F, f0 = frame.force_map
    return dataclasses.replace(
        program,
        eq_mat=np.vstack([program.eq_mat, selector @ F]),
        eq_rhs=np.concatenate([program.eq_rhs, target - selector @ f0]),
    )


class TestSolveBarrier:
    def test_singular_newton_matrix_takes_a_least_squares_step(self, monkeypatch):
        # _solve raises LinAlgError on a singular Newton matrix; solve_barrier then steps by lstsq
        hessian, lstsq = torque_qcqp._barrier_hessian, np.linalg.lstsq
        calls = []

        def singular_first(*args):
            H = hessian(*args)
            if not calls:
                H[1] = H[:, 1] = 0.0
            return H

        def spy(a, b, rcond=None):
            calls.append(a.copy())
            return lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(torque_qcqp, "_barrier_hessian", singular_first)
        monkeypatch.setattr(np.linalg, "lstsq", spy)
        program = dataclasses.replace(synthetic_program(np.eye(2)), obj_lin=np.array([1.0, -0.5]))
        report = solve_barrier(program)
        assert len(calls) == 1 and calls[0][1].tolist() == [0.0, 0.0]
        assert report.status == "optimal"

    def test_unconstrained_limit(self):
        # E = I: the equality pins u = tau_c exactly; the barrier must agree
        tau = np.array([0.7, -0.3])
        program = synthetic_program(np.eye(2), u_box=10.0, eq=(np.eye(2), tau))
        report = solve_barrier(program)
        assert report.status == "optimal"
        assert np.abs(report.u_star - tau).max() <= 1e-8

    def test_duality_gap_and_stationarity(self, arm, rng):
        for _ in range(5):
            state = random_manifold_state(arm, rng, ARM_HOME)
            frame, program = arm_program(arm, state)
            report = solve_barrier(program)
            assert report.status == "optimal"
            assert report.duality_gap <= EPS
            assert np.all(report.constraint_margins > 0)
            # stationarity: grad psi + E^T omega = 0 at the reported point
            grad = barrier_gradient(program, report.u_star, report.eta_final)
            res = grad + program.eq_mat.T @ report.omega
            assert np.linalg.norm(res) <= NEWTON_TOL * 10

    def test_weighted_least_norm_closed_form(self):
        # z-pinned point mass: equality fixes u0, u1; cones stay inactive
        model = point_mass_model(mass=2.0, g=9.81)
        from projctl.constrained_dynamics import ContactSpec, RobotModel

        block = np.zeros((3, 3))
        block[2, 2] = -1.0
        contact = ContactSpec(jacobian=lambda q: block, jacobian_rate=lambda q, qd: np.zeros((3, 3)), friction=0.8)
        model = RobotModel(
            mass_matrix=model.mass_matrix, coriolis_matrix=model.coriolis_matrix,
            gravity=model.gravity, actuation=np.eye(3), contacts=(contact,),
            u_min=-50 * np.ones(3), u_max=50 * np.ones(3),
            motor_resistance=np.array([1.0, 2.0, 4.0]), torque_constant=np.ones(3),
        )
        state = RobotState(t=0.0, q=np.zeros(3), q_dot=np.zeros(3), active_contacts=(0,))
        frame = build_frame(model, state)
        tau_c = frame.P @ np.array([3.0, -1.5, 0.0])
        program = assemble_program(frame, tau_c)
        report = solve_barrier(program)
        assert report.status == "optimal"
        E, W = program.eq_mat, program.W
        Winv = np.linalg.inv(W)
        u_cf = Winv @ E.T @ np.linalg.pinv(E @ Winv @ E.T) @ tau_c
        assert np.abs(report.u_star - u_cf).max() <= 1e-6

    def test_grid_oracle_equivalence_toys(self, rng):
        # p <= 3 toy programs: relative objective gap <= 1e-3 vs grid + polish
        # (z, alpha, G, gamma, beta)
        corridor = (np.array([0.3, 1.0]), 4.0, np.diag([-0.5, -0.2]), np.array([0.8, -0.4]), 6.0)
        toys = [
            synthetic_program(np.diag([1.0, 2.0]), u_box=4.0, cones=(corridor,)),
            synthetic_program(
                np.diag([1.0, 3.0]), u_box=4.0,
                eq=(np.array([[1.0, 0.5]]), np.array([1.2])), cones=(corridor,),
            ),
            synthetic_program(
                np.diag([2.0, 1.0, 0.5]), u_box=3.0,
                eq=(np.array([[1.0, 1.0, -0.5]]), np.array([0.8])),
            ),
        ]
        for program in toys:
            report = solve_barrier(program)
            assert report.status == "optimal"
            obj_oracle, _ = grid_polish_optimum(program)
            obj = program.objective(report.u_star)
            assert obj <= obj_oracle + 1e-3 * max(1.0, abs(obj_oracle))
            assert abs(obj - obj_oracle) <= 1e-3 * max(1.0, abs(obj_oracle))

    def test_barrier_gradient_matches_finite_differences(self, arm, rng):
        state = random_manifold_state(arm, rng, ARM_HOME)
        frame, program = arm_program(arm, state)
        res = phase1_feasible_point(program)
        u = res.u
        for eta in (1.0, 1e-2):
            grad = barrier_gradient(program, u, eta)
            fd = np.zeros_like(u)
            h = 1e-6
            for j in range(u.size):
                e = np.zeros_like(u)
                e[j] = h
                fd[j] = (barrier_value(program, u + e, eta) - barrier_value(program, u - e, eta)) / (2 * h)
            scale = max(1.0, np.abs(grad).max())
            assert np.abs(grad - fd).max() <= 1e-6 * scale

    def test_central_path_objective_monotone(self, arm, rng, monkeypatch):
        # a solve with EPS = r * eta_j stops at centering step j, on the iterate the
        # full solve reaches there; eta_j is formed by the loop's own products
        state = random_manifold_state(arm, rng, ARM_HOME)
        _, program = arm_program(arm, state)
        steps = solve_barrier(program).centering_steps
        objs, eta = [], ETA0
        for j in range(1, steps + 1):
            monkeypatch.setattr(torque_qcqp, "EPS", program.r * eta)
            report = solve_barrier(program)
            assert report.centering_steps == j  # the patched EPS took effect
            objs.append(report.objective)
            eta *= KAPPA
        assert len(objs) == steps > 1
        for a, b in zip(objs, objs[1:]):
            assert b <= a + 1e-7 * max(1.0, abs(a))

    def test_barrier_value_is_inf_where_a_row_is_nan(self):
        _, program = first_tick_program(short_scenario("biped_switch.json", 0.001))
        u = np.array([np.nan, 0.0])
        assert np.isnan(program.constraint_values(u)).any()
        assert barrier_value(program, u, 1.0) == np.inf

    def test_infeasible_equality(self, biped, rng):
        # single support: 3 admissible force directions, 2 actuators
        state = random_manifold_state(biped, rng, BIPED_HOME, active=(0,))
        frame = build_frame(biped, state)
        task = build_task(frame, make_task(biped, "base_pitch"))
        gains = ControllerGains.critically_damped(1, 4.0)
        cmd = tracking_torque(frame, task, task.x + 0.2, np.zeros(1), np.zeros(1), gains)
        program = assemble_program(frame, cmd.tau_c)
        report = solve_barrier(program)
        assert report.status == "infeasible_equality"

    def test_infeasible_inequality_certificate(self):
        program = synthetic_program(np.eye(2), u_box=1e-16)
        report = solve_barrier(program)
        assert report.status == "infeasible_inequality"

    @pytest.mark.parametrize("kind", sorted(MODEL_CATALOG))
    def test_constants_reach_the_gap_certificate(self, kind):
        # the gap bound r * eta after the last centering step allowed reaches EPS on the
        # model's largest program (all contacts active, r = 2(k + p) rows)
        model = build_model(kind)
        assert 2 * (model.k + model.p) * ETA0 * KAPPA ** (MAX_CENTERING - 1) <= EPS

    def test_centering_cap_without_certificate_fails(self, monkeypatch):
        scenario, program = centering_cap_case(monkeypatch)
        report = solve_barrier(program)
        assert report.centering_steps == MAX_CENTERING  # the patched KAPPA took effect
        assert report.duality_gap > EPS
        assert report.status == "failed"
        with pytest.raises(SolverError, match=r"^step 0, t=0\.0000, active \[0\]: torque program failed .*gap=3\.6"):
            simulate(scenario)


def centering_cap_case(monkeypatch):
    """compare_cone cut to one step, and the torque program of its first tick, with
    torque_qcqp.KAPPA patched to 0.99 until the test ends.  MAX_CENTERING steps shrink
    eta only to 0.99^79, so the barrier loop stops at the cap with r * eta far above EPS."""
    monkeypatch.setattr(torque_qcqp, "KAPPA", 0.99)
    scenario = short_scenario("compare_cone.json", 0.001)
    _, program = first_tick_program(scenario)
    return scenario, program


def first_tick_program(scenario):
    """The frame of a scenario's initial state and the strict torque program of its first tick."""
    frame = build_frame(scenario.model, scenario.initial)
    task = build_task(frame, scenario.task)
    cmd = tracking_torque(frame, task, *scenario.reference(0.0), scenario.gains)
    return frame, assemble_program(frame, cmd.tau_c)


def same_value(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=True)
        )
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


class TestSolverMatchesReference:
    """solve_barrier returns, field for field, the same report as the plain
    loop in oracles.solve_barrier_reference: every iterate is bit for bit the
    same, from any start and with appended equality rows."""

    CASES = {
        "arm": ("link_orientation", (0,)),
        "biped_single": ("base_pitch", (0,)),
        "biped_double": ("base_pitch", (0, 1)),
    }

    @settings(max_examples=40, deadline=None)
    @given(
        case=st.sampled_from(sorted(CASES)),
        seed=st.integers(0, 2**32 - 1),
        relaxed=st.booleans(),
        start=st.sampled_from(["none", "warm", "infeasible"]),
        extension=st.sampled_from(["none", "force"]),
        error=st.floats(-0.3, 0.3),
    )
    def test_reports_bit_identical(self, arm, biped, case, seed, relaxed, start, extension, error):
        task_name, active = self.CASES[case]
        model, home = (arm, ARM_HOME) if case == "arm" else (biped, BIPED_HOME)
        rng = np.random.default_rng(seed)
        state = random_manifold_state(model, rng, home, active=active)
        frame = build_frame(model, state)
        task = build_task(frame, make_task(model, task_name))
        gains = ControllerGains.critically_damped(1, 5.0)
        cmd = tracking_torque(frame, task, task.x + error, np.zeros(1), np.zeros(1), gains)
        program = assemble_program(frame, cmd.tau_c)
        if relaxed:
            program = relax_program(program, frame, 10.0)
        if extension == "force":
            # pin lambda_z of the first contact near its value at a feasible point: one more
            # equality row, so the strict arm's block has rank 2
            selector = np.zeros((1, frame.A.shape[0]))
            selector[0, 2] = 1.0
            base = phase1_feasible_point(program).u
            target = (selector @ contact_forces(frame, base)[0].ravel()) * rng.uniform(0.9, 1.1)
            program = with_force_equality(program, frame, selector, target)
        if start == "none":
            u0 = None
        elif start == "warm":
            u0 = solve_barrier_reference(program).u_star
            if u0 is not None:
                u0 = u0 + 1e-3 * rng.standard_normal(model.p)
        else:
            u0 = 2.0 * model.u_max  # outside the torque box: phase 1 runs from this seed
        expected = solve_barrier_reference(program, u0=u0)
        report = solve_barrier(program, u0=u0)
        event(f"{case} {'relaxed' if relaxed else 'qcqp'} {start} {extension}: {report.status}")
        self.assert_same_report(report, expected)

    def test_stopped_at_the_centering_cap(self, monkeypatch):
        # the case TestSolveBarrier.test_centering_cap_without_certificate_fails pins as failed
        _, program = centering_cap_case(monkeypatch)
        report = solve_barrier(program)
        assert report.centering_steps == MAX_CENTERING  # the patched KAPPA took effect
        self.assert_same_report(report, solve_barrier_reference(program))

    @pytest.mark.parametrize("target, status", [(0.0, "relaxed"), (1.0, "infeasible_equality")])
    def test_equality_rows_of_rank_zero(self, target, status):
        # a relaxed program has no equality rows; an all-zero row adds one of
        # rank 0, consistent only with a zero target
        scenario = short_scenario("biped_switch.json", 0.001)
        frame, program = first_tick_program(scenario)
        program = relax_program(program, frame, scenario.optimizer.rho)
        program = dataclasses.replace(program, eq_mat=np.zeros((1, program.p)), eq_rhs=np.array([target]))
        assert program.eq_mat.shape == (1, program.p) and not program.eq_mat.any()
        report = solve_barrier(program)
        assert report.status == status
        if status == "relaxed":
            assert report.omega.shape == (1,)
        self.assert_same_report(report, solve_barrier_reference(program))

    @pytest.mark.parametrize(
        "config, schedule, cones",
        [
            ("biped_switch.json", None, [2] * 51),
            ("compare_cone.json", None, [1] * 51),
            # both contact switches moved into the run: single-support and switch ticks too
            ("biped_switch.json", [[0.02, [0]], [0.035, [0, 1]]], [2] * 20 + [1] * 15 + [2] * 16),
        ],
        ids=["biped_switch.json", "compare_cone.json", "biped_switch_early"],
    )
    def test_replay_of_bundled_runs(self, monkeypatch, config, schedule, cones):
        # every solve of a short bundled run, warm-started from the previous
        # tick's u* as the simulator does, against the oracle on the same input
        cfg = load_config(CONFIGS / config)
        cfg["duration"] = 0.05
        if schedule is not None:
            cfg["contacts"]["schedule"] = schedule
        calls = []

        def recording(program, u0=None):
            u0_copy = None if u0 is None else u0.copy()
            report = solve_barrier(program, u0=u0)
            calls.append((program, u0_copy, report))
            return report

        # projctl.simulate, the attribute, is the function; the module is in sys.modules
        monkeypatch.setattr(importlib.import_module("projctl.simulate"), "solve_barrier", recording)
        simulate(load_scenario(cfg))
        assert sum(u0 is not None for _, u0, _ in calls) == 50
        assert [program.k for program, _, _ in calls] == cones  # active contacts per solve
        for program, u0, report in calls:
            self.assert_same_report(report, solve_barrier_reference(program, u0=u0))

    @staticmethod
    def assert_same_report(report, expected):
        for f in dataclasses.fields(report):
            got, want = getattr(report, f.name), getattr(expected, f.name)
            assert same_value(got, want), f"{f.name}: {got!r} != {want!r}"


class TestBarrierConvexity:
    """The cone rows are second-order cones, so at every strictly feasible u the
    barrier Hessian is positive definite on null(E) with no repair.

    Near an active cone row eta / c^2 outgrows the objective curvature by more
    than 1 / eps, so the float Hessian's smallest eigenvalue on null(E) is lost
    in rounding; definiteness is asserted on the same formula evaluated in
    50-digit arithmetic, and the float Hessian is held to the same floor up to
    its rounding."""

    @staticmethod
    def exact_hessian_on(program, u, eta, Z):
        """Z^T H Z, with H from _barrier_hessian evaluated in 50-digit arithmetic
        from the exact binary values of the program's rows, u, eta and Z."""
        with mpmath.workdps(50):
            mp = np.frompyfunc(mpmath.mpf, 1, 1)
            u, lin, G = mp(u), mp(program.lin), mp(program.G)
            c = lin @ u + mp(program.off)
            grads = lin.copy()
            for j in range(program.k):
                c[2 * j + 1] += u @ G[j] @ u
                grads[2 * j + 1] += 2 * (G[j] @ u)
            assert all(ci > 0 for ci in c)
            H = _barrier_hessian(program.obj_hess, program.G_flat, program.quad, c, grads, mpmath.mpf(eta))
            HZ = mp(Z).T @ H @ mp(Z)
            return float(min(mpmath.eigsy(mpmath.matrix(HZ.tolist()), eigvals_only=True)))

    @staticmethod
    def assert_positive_definite(model, home, task_name, active, seed, relaxed, theta, log_eta):
        rng = np.random.default_rng(seed)
        state = random_manifold_state(model, rng, home, active=active)
        frame = build_frame(model, state)
        task = build_task(frame, make_task(model, task_name))
        gains = ControllerGains.critically_damped(1, 5.0)
        cmd = tracking_torque(frame, task, task.x + 0.1, np.zeros(1), np.zeros(1), gains)
        program = assemble_program(frame, cmd.tau_c)
        if relaxed:
            program = relax_program(program, frame, 10.0)
        start = phase1_feasible_point(program)
        report = solve_barrier(program)
        assume(start.feasible and report.status in ("optimal", "relaxed"))
        # the strictly feasible set is convex: every point between two interior
        # points is interior, and theta -> 1 approaches the active cone rows
        u = (1.0 - theta) * start.u + theta * report.u_star
        c = program.constraint_values(u)
        assert np.all(c > 0.0)
        eta = 10.0**log_eta
        H = _barrier_hessian(program.obj_hess, program.G_flat, program.quad, c, program.constraint_gradients(u), eta)
        _, s, Vt = np.linalg.svd(program.eq_mat)
        Z = Vt[int(np.sum(s > 1e-10 * s.max(initial=0.0))) :].T  # basis of null(E); I when relaxed
        HZ = Z.T @ H @ Z
        floor = np.linalg.eigvalsh(2.0 * Z.T @ program.obj_quad @ Z).min()  # the barrier part is PSD
        assert floor > 0.0
        lo = TestBarrierConvexity.exact_hessian_on(program, u, eta, Z)
        assert lo > 0.0
        assert lo >= floor - 1e-12 * np.abs(HZ).max()
        assert np.linalg.eigvalsh(HZ).min() >= floor - 1e-12 * np.abs(HZ).max()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        relaxed=st.booleans(),
        theta=st.floats(0.0, 1.0),
        log_eta=st.floats(-8.0, 0.0),
    )
    def test_arm(self, arm, seed, relaxed, theta, log_eta):
        self.assert_positive_definite(arm, ARM_HOME, "link_orientation", (0,), seed, relaxed, theta, log_eta)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        relaxed=st.booleans(),
        theta=st.floats(0.0, 1.0),
        log_eta=st.floats(-8.0, 0.0),
    )
    def test_biped_double_support(self, biped, seed, relaxed, theta, log_eta):
        self.assert_positive_definite(biped, BIPED_HOME, "base_pitch", (0, 1), seed, relaxed, theta, log_eta)


class TestRelaxation:
    def biped_single_support(self, biped, rng):
        state = random_manifold_state(biped, rng, BIPED_HOME, active=(0,))
        frame = build_frame(biped, state)
        task = build_task(frame, make_task(biped, "base_pitch"))
        gains = ControllerGains.critically_damped(1, 4.0)
        cmd = tracking_torque(frame, task, task.x + 0.15, np.zeros(1), np.zeros(1), gains)
        program = assemble_program(frame, cmd.tau_c)
        return frame, program, cmd.tau_c

    def test_rho_zero_limit(self, biped, rng):
        frame, program, _ = self.biped_single_support(biped, rng)
        for rho in (1e-2, 1e-4, 1e-6):
            relaxed = relax_program(program, frame, rho)
            gap = np.abs(relaxed.obj_quad - program.W).max()
            assert gap <= rho * np.abs(frame.M_bar_inv).max() ** 2 * 100
        assert np.abs(relax_program(program, frame, 1e-9).obj_quad - program.W).max() <= 1e-6

    @pytest.mark.parametrize("rho", [np.nan, np.inf, 0.0])
    def test_rho_must_be_positive_and_finite(self, biped, rng, rho):
        frame, program, _ = self.biped_single_support(biped, rng)
        with pytest.raises(InputError, match="rho must be positive and finite"):
            relax_program(program, frame, rho)

    def test_relaxed_program_shares_the_strict_rows(self, biped, rng):
        frame, program, _ = self.biped_single_support(biped, rng)
        relaxed = relax_program(program, frame, 10.0)
        assert relaxed.lin is program.lin and relaxed.off is program.off and relaxed.G is program.G
        assert (relaxed.rho, program.rho) == (10.0, None)
        assert program.obj_quad is program.W and not program.obj_lin.any()

    def test_disturbance_decreases_with_rho(self, biped, rng):
        frame, program, tau_c = self.biped_single_support(biped, rng)
        norms = []
        for rho in (1.0, 10.0, 100.0):
            relaxed = relax_program(program, frame, rho)
            report = solve_barrier(relaxed)
            assert report.status == "relaxed"
            d = frame.M_bar_inv @ (tau_c - program.eq_mat @ report.u_star)
            norms.append(np.linalg.norm(d))
            assert np.linalg.eigvalsh(relaxed.obj_quad).min() > 0
        assert norms[0] > norms[1] > norms[2]

    def test_relaxed_gradient_matches_finite_differences(self, biped, rng):
        frame, program, tau_c = self.biped_single_support(biped, rng)
        rho = 10.0
        relaxed = relax_program(program, frame, rho)
        Wp, lin = relaxed.obj_quad, relaxed.obj_lin

        def full(u):
            d = frame.M_bar_inv @ (tau_c - program.eq_mat @ u)
            return float(u @ program.W @ u + rho * d @ d)

        rng2 = np.random.default_rng(3)
        for _ in range(5):
            u = rng2.uniform(-5, 5, program.p)
            grad = 2.0 * Wp @ u + lin
            fd = np.zeros_like(u)
            h = 1e-6
            for j in range(u.size):
                e = np.zeros_like(u)
                e[j] = h
                fd[j] = (full(u + e) - full(u - e)) / (2 * h)
            assert np.abs(grad - fd).max() <= 1e-6 * max(1.0, np.abs(grad).max())


class TestExtensions:
    """Equality rows appended to a strict program: a reachable force target is met, an
    unreachable one is reported as infeasible_equality."""

    def standing_setup(self, biped):
        state = manifold_state(biped, BIPED_HOME, scale=0.0)
        frame = build_frame(biped, state)
        task = build_task(frame, make_task(biped, "base_pitch"))
        gains = ControllerGains.critically_damped(1, 4.0)
        cmd = tracking_torque(frame, task, task.x, np.zeros(1), np.zeros(1), gains)
        program = assemble_program(frame, cmd.tau_c)
        return state, frame, program

    def test_force_regulation_roundtrip(self, biped, rng):
        state, frame, program = self.standing_setup(biped)
        base = solve_barrier(program)
        assert base.status == "optimal"
        sel = np.zeros((1, 6))
        sel[0, 2] = 1.0  # normal force on foot 0
        # a reachable target must respect the task equality: perturb the base
        # optimum along null(P B), where the force can still move
        _, _, Vt = np.linalg.svd(program.eq_mat)
        rank = np.linalg.matrix_rank(program.eq_mat, tol=1e-10)
        null_dir = Vt[rank:].T[:, 0]
        u_probe = base.u_star + 0.8 * null_dir
        target = np.array([(sel @ contact_forces(frame, u_probe)[0].ravel()).item()])
        regulated = with_force_equality(program, frame, sel, target)
        report = solve_barrier(regulated)
        assert report.status == "optimal"
        achieved = (sel @ contact_forces(frame, report.u_star)[0].ravel()).item()
        assert abs(achieved - target[0]) <= 1e-6 * max(1.0, abs(target[0]))

    def test_force_regulation_unreachable(self, biped):
        state, frame, program = self.standing_setup(biped)
        sel = np.zeros((1, 6))
        sel[0, 2] = 1.0
        regulated = with_force_equality(program, frame, sel, np.array([1e6]))
        report = solve_barrier(regulated)
        assert report.status == "infeasible_equality"
