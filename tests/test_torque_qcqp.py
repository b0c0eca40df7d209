import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from projctl.constrained_dynamics import RobotState, build_frame, contact_forces
from projctl.control_laws import ControllerGains, tracking_torque
from projctl.errors import InputError, SolverError
from projctl.models import make_task
from projctl.task_space import build_task
from projctl.torque_qcqp import (
    _barrier_hessian,
    BarrierParams,
    ConeConstraint,
    TorqueProgram,
    add_force_regulation,
    add_moment_constraints,
    assemble_cone_constraints,
    assemble_program,
    barrier_gradient,
    barrier_value,
    motor_weighting,
    phase1_feasible_point,
    power_loss,
    relax_program,
    solve_barrier,
)
from projctl.simulate import simulate

from conftest import (
    ARM_HOME,
    BIPED_HOME,
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
    selected_force_rows,
    solve_barrier_reference,
)


class TestMotorWeighting:
    def test_unit_motors(self):
        assert np.allclose(motor_weighting(np.ones(3), np.ones(3)), np.eye(3))

    def test_scalar_arithmetic(self):
        assert np.allclose(motor_weighting(np.array([2.0]), np.array([2.0])), [[0.5]])

    def test_ohms_law_identity(self, rng):
        for _ in range(30):
            p = int(rng.integers(1, 6))
            R = rng.uniform(0.5, 3.0, p)
            K_t = rng.uniform(0.3, 2.0, p) * rng.choice([-1.0, 1.0], p)
            u = rng.uniform(-10, 10, p)
            W = motor_weighting(R, K_t)
            i = u / K_t
            assert abs(u @ W @ u - i @ (R * i)) <= 1e-12 * max(1.0, abs(i @ (R * i)))

    def test_zero_torque_constant(self):
        with pytest.raises(InputError):
            motor_weighting(np.ones(2), np.array([1.0, 0.0]))


class TestPowerLoss:
    def test_zero(self):
        assert power_loss(np.zeros(2), np.eye(2)) == 0.0

    def test_pythagorean(self):
        assert power_loss(np.array([3.0, 4.0]), np.eye(2)) == pytest.approx(25.0)

    def test_componentwise(self, rng):
        R = np.array([1.5, 0.5, 2.0])
        K_t = np.array([0.8, 1.0, 1.2])
        u = rng.uniform(-5, 5, 3)
        expected = float(np.sum(R * (u / K_t) ** 2))
        assert power_loss(u, motor_weighting(R, K_t)) == pytest.approx(expected, rel=1e-12)


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
                cones = assemble_cone_constraints(frame)
                for _ in range(10):
                    u = rng.uniform(model.u_min, model.u_max)
                    wrench = contact_forces(frame, u)
                    lam = wrench.per_contact()
                    for i, cone in enumerate(cones):
                        mu = model.contacts[state.active_contacts[i]].friction
                        lin = cone.z @ u + cone.alpha
                        quad = u @ cone.G @ u + cone.gamma @ u + cone.beta
                        lam_x, lam_y, lam_z = lam[i]
                        scale = max(1.0, abs(lam_z))
                        assert abs(lin - lam_z) <= 1e-8 * scale
                        expected = mu**2 * lam_z**2 - lam_x**2 - lam_y**2
                        assert abs(quad - expected) <= 1e-8 * max(1.0, abs(expected))

    def test_point_mass_statics(self):
        mass, g = 2.0, 9.81
        model = point_mass_model(mass=mass, g=g)
        state = RobotState(t=0.0, q=np.zeros(3), q_dot=np.zeros(3), active_contacts=(0,))
        frame = build_frame(model, state, nu=1.0)
        (cone,) = assemble_cone_constraints(frame)
        assert cone.z @ np.zeros(3) + cone.alpha == pytest.approx(mass * g, rel=1e-12)

    def test_requires_active_contacts(self, arm):
        state = RobotState(t=0.0, q=ARM_HOME, q_dot=np.zeros(3), active_contacts=())
        frame = build_frame(arm, state)
        with pytest.raises(InputError):
            assemble_cone_constraints(frame)


def assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


class TestForceMapMatchesOracle:
    """Contact forces, cone rows, moment rows and force-regulation rows, all read
    from the affine map lambda(u) = F u + f0, agree with the expressions that
    expand A^+T S (B u + tau_g - Q qd) directly."""

    @staticmethod
    def check(model, state, seed):
        rng = np.random.default_rng(seed)
        frame = build_frame(model, state)
        m, p = frame.bundle.m, model.p
        for _ in range(5):
            u = rng.uniform(2 * model.u_min, 2 * model.u_max)
            want = contact_forces_reference(frame, model, state, u)
            assert_close(contact_forces(frame, u).forces, want)
        for cone, (z, alpha, G, gamma, beta) in zip(
            assemble_cone_constraints(frame), cone_rows_reference(frame, model, state), strict=True
        ):
            for got, want in ((cone.z, z), (cone.alpha, alpha), (cone.G, G), (cone.gamma, gamma), (cone.beta, beta)):
                assert_close(got, want)
        empty = synthetic_program(np.eye(p))
        selector = rng.standard_normal((2, m))
        sel_F, sel_f0 = selected_force_rows(frame, model, state, selector)
        moment = add_moment_constraints(empty, frame, selector)
        assert_close(moment.extra_z, -sel_F)
        assert_close(moment.extra_alpha, -sel_f0)
        target = rng.standard_normal(2)
        regulated = add_force_regulation(empty, frame, selector, target)
        assert_close(regulated.eq_mat, sel_F)
        assert_close(regulated.eq_rhs, target - sel_f0)

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
        assert build_frame(biped, state).bundle.rank < 6
        self.check(biped, state, seed)


class TestAssembleProgram:
    def test_row_count(self, arm, rng):
        state = random_manifold_state(arm, rng, ARM_HOME)
        _, program = arm_program(arm, state)
        # k = 1 contact, p = 3: r = 2(k + p) = 8
        assert program.r == 8
        assert program.constraint_values(np.zeros(3)).shape == (8,)

    def test_moment_rows_extend_count(self, biped, rng):
        state = random_manifold_state(biped, rng, BIPED_HOME)
        frame = build_frame(biped, state)
        task = build_task(frame, make_task(biped, "base_pitch"))
        gains = ControllerGains.critically_damped(1, 4.0)
        cmd = tracking_torque(frame, task, task.x, np.zeros(1), np.zeros(1), gains)
        program = assemble_program(frame, cmd.tau_c)
        assert program.r == 2 * (2 + 2)
        sel = np.zeros((2, 6))
        sel[0, 2], sel[0, 5] = -0.2, 0.2
        sel[1, 2], sel[1, 5] = 0.1, -0.1
        extended = add_moment_constraints(program, frame, sel)
        assert extended.r == program.r + 2

    def test_stack_matches_direct_inequalities(self, arm, rng):
        state = random_manifold_state(arm, rng, ARM_HOME)
        frame, program = arm_program(arm, state)
        for _ in range(10):
            u = rng.uniform(arm.u_min, arm.u_max)
            c = program.constraint_values(u)
            wrench = contact_forces(frame, u)
            lam_x, lam_y, lam_z = wrench.per_contact()[0]
            mu = arm.contacts[0].friction
            assert c[0] == pytest.approx(lam_z, abs=1e-8 * max(1, abs(lam_z)))
            assert c[1] == pytest.approx(
                mu**2 * lam_z**2 - lam_x**2 - lam_y**2, abs=1e-7 * max(1, lam_z**2)
            )
            assert np.allclose(c[2:5], arm.u_max - u)
            assert np.allclose(c[5:8], u - arm.u_min)

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("moment_rows", [0, 2])
    def test_stacked_rows_match_per_row_oracle(self, arm, biped, rng, k, moment_rows):
        if k == 1:
            model, home, task_name = arm, ARM_HOME, "link_orientation"
        else:
            model, home, task_name = biped, BIPED_HOME, "base_pitch"
        state = random_manifold_state(model, rng, home)
        frame = build_frame(model, state)
        task = build_task(frame, make_task(model, task_name))
        gains = ControllerGains.critically_damped(1, 5.0)
        cmd = tracking_torque(frame, task, task.x + 0.1, np.zeros(1), np.zeros(1), gains)
        program = assemble_program(frame, cmd.tau_c, cones=None if k else ())
        assert program.k == k
        program = add_moment_constraints(
            program, frame, rng.standard_normal((moment_rows, frame.bundle.m))
        )
        assert program.r == 2 * (k + model.p) + moment_rows
        for _ in range(20):
            u = rng.uniform(2 * model.u_min, 2 * model.u_max)
            for stacked, rows in zip(
                (program.constraint_values(u), program.constraint_gradients(u)), constraint_rows(program, u)
            ):
                assert np.all(np.abs(stacked - rows) <= 1e-12 * np.maximum(1.0, np.abs(rows)))

    def test_tau_c_outside_range_P(self, arm, rng):
        state = random_manifold_state(arm, rng, ARM_HOME)
        frame = build_frame(arm, state)
        bad = (np.eye(3) - frame.P) @ np.array([1.0, 2.0, 3.0]) + 1e-3
        with pytest.raises(InputError):
            assemble_program(frame, bad)


class TestPhaseOne:
    def test_passthrough_when_feasible(self, arm, rng):
        state = random_manifold_state(arm, rng, ARM_HOME)
        frame, program = arm_program(arm, state)
        res = phase1_feasible_point(program)
        assert res.feasible
        assert np.all(program.constraint_values(res.u) > 0)

    def test_empty_box_certificate(self):
        W = np.eye(2)
        program = TorqueProgram(
            W=W,
            eq_mat=np.zeros((0, 2)),
            eq_rhs=np.zeros(0),
            cones=(),
            u_min=np.zeros(2),
            u_max=np.zeros(2) + 1e-15,
        )
        res = phase1_feasible_point(program)
        assert not res.feasible

    def test_tight_cone_strictly_feasible(self):
        # one narrow quadratic corridor: 1 - (u0 - 2)^2 - u1^2 >= 0
        cone = ConeConstraint(
            z=np.array([0.0, 1.0]),
            alpha=5.0,
            G=-np.eye(2),
            gamma=np.array([4.0, 0.0]),
            beta=-3.0,
        )
        program = TorqueProgram(
            W=np.eye(2),
            eq_mat=np.zeros((0, 2)),
            eq_rhs=np.zeros(0),
            cones=(cone,),
            u_min=-6 * np.ones(2),
            u_max=6 * np.ones(2),
        )
        res = phase1_feasible_point(program)
        assert res.feasible
        assert np.all(program.constraint_values(res.u) > 0)


def synthetic_program(W, u_box=5.0, eq=None, cones=()):
    p = W.shape[0]
    eq_mat, eq_rhs = (np.zeros((0, p)), np.zeros(0)) if eq is None else eq
    return TorqueProgram(
        W=np.asarray(W, dtype=float),
        eq_mat=np.asarray(eq_mat, dtype=float),
        eq_rhs=np.asarray(eq_rhs, dtype=float),
        cones=tuple(cones),
        u_min=-u_box * np.ones(p),
        u_max=u_box * np.ones(p),
    )


class TestSolveBarrier:
    def test_unconstrained_limit(self):
        # E = I: the equality pins u = tau_c exactly; the barrier must agree
        tau = np.array([0.7, -0.3])
        program = synthetic_program(np.eye(2), u_box=10.0, eq=(np.eye(2), tau))
        report = solve_barrier(program)
        assert report.status == "optimal"
        assert np.abs(report.u_star - tau).max() <= 1e-8

    def test_duality_gap_and_stationarity(self, arm, rng):
        params = BarrierParams()
        for _ in range(5):
            state = random_manifold_state(arm, rng, ARM_HOME)
            frame, program = arm_program(arm, state)
            report = solve_barrier(program, params)
            assert report.status == "optimal"
            assert report.duality_gap <= params.eps
            assert np.all(report.constraint_margins > 0)
            # stationarity: grad psi + E^T omega = 0 at the reported point
            grad = barrier_gradient(program, report.u_star, report.eta_final)
            res = grad + program.eq_mat.T @ report.omega
            assert np.linalg.norm(res) <= params.newton_tol * 10

    def test_weighted_least_norm_closed_form(self):
        # z-pinned point mass: equality fixes u0, u1; cones stay inactive
        model = point_mass_model(mass=2.0, g=9.81)
        from projctl.constrained_dynamics import ContactSpec, RobotModel

        block = np.zeros((3, 3))
        block[2, 2] = -1.0
        contact = ContactSpec(jacobian=lambda q: block, jacobian_rate=lambda q, qd: np.zeros((3, 3)), friction=0.8)
        model = RobotModel(
            n=3, p=3,
            mass_matrix=model.mass_matrix, coriolis_matrix=model.coriolis_matrix,
            gravity=model.gravity, actuation=np.eye(3), contacts=(contact,),
            u_min=-50 * np.ones(3), u_max=50 * np.ones(3),
            motor_resistance=np.array([1.0, 2.0, 4.0]), torque_constant=np.ones(3),
        )
        state = RobotState(t=0.0, q=np.zeros(3), q_dot=np.zeros(3), active_contacts=(0,))
        frame = build_frame(model, state, nu=1.0)
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
        corridor = ConeConstraint(
            z=np.array([0.3, 1.0]), alpha=4.0,
            G=np.diag([-0.5, -0.2]), gamma=np.array([0.8, -0.4]), beta=6.0,
        )
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

    def test_central_path_objective_monotone(self, arm, rng):
        state = random_manifold_state(arm, rng, ARM_HOME)
        _, program = arm_program(arm, state)
        report = solve_barrier(program)
        objs = [obj for _, obj in report.path]
        for a, b in zip(objs, objs[1:]):
            assert b <= a + 1e-7 * max(1.0, abs(a))

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

    def test_centering_cap_without_certificate_fails(self):
        # with kappa = 0.99, max_centering steps shrink eta only to 0.99^79, so
        # the loop stops at the cap with r * eta far above eps; the config
        # loader refuses such a kappa, so it is set through the API
        scenario = short_scenario("compare_cone.json", 0.001)
        barrier = dataclasses.replace(scenario.optimizer.barrier, kappa=0.99)
        scenario = dataclasses.replace(scenario, optimizer=dataclasses.replace(scenario.optimizer, barrier=barrier))
        model, state = scenario.model, scenario.initial
        frame = build_frame(model, state)
        task = build_task(frame, scenario.task)
        ref = scenario.reference
        cmd = tracking_torque(frame, task, ref.value(0.0), ref.rate(0.0), ref.accel(0.0), scenario.gains)
        params = scenario.optimizer.barrier
        report = solve_barrier(assemble_program(frame, cmd.tau_c), params)
        assert report.centering_steps == params.max_centering
        assert report.duality_gap > params.eps
        assert report.status == "failed"
        with pytest.raises(SolverError, match=r"failed at t=0\.0000 .*gap=3\.6"):
            simulate(scenario)


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
    same, from any start and on extended programs."""

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
        extension=st.sampled_from(["none", "moment", "force"]),
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
        m = frame.bundle.m
        if extension == "moment":
            # lambda_z of the first contact plus a small mix of the others stays >= 0
            selector = -0.05 * rng.standard_normal((1, m))
            selector[0, 2] -= 1.0
            program = add_moment_constraints(program, frame, selector)
        elif extension == "force":
            # pin lambda_z of the first contact near its value at a feasible point
            selector = np.zeros((1, m))
            selector[0, 2] = 1.0
            base = phase1_feasible_point(program).u
            target = (selector @ contact_forces(frame, base).forces) * rng.uniform(0.9, 1.1)
            program = add_force_regulation(program, frame, selector, target)
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
            HZ = mp(Z).T @ _barrier_hessian(program, c, grads, mpmath.mpf(eta)) @ mp(Z)
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
        H = _barrier_hessian(program, c, program.constraint_gradients(u), eta)
        _, s, Vt = np.linalg.svd(program.eq_mat)
        Z = Vt[int(np.sum(s > 1e-10 * s.max(initial=0.0))) :].T  # basis of null(E); I when relaxed
        HZ = Z.T @ H @ Z
        Wq, _ = program.objective_quad()
        floor = np.linalg.eigvalsh(2.0 * Z.T @ Wq @ Z).min()  # the barrier part is PSD
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
            gap = np.abs(relaxed.relaxation.W_prime - program.W).max()
            assert gap <= rho * np.abs(frame.M_bar_inv).max() ** 2 * 100
        assert np.abs(relax_program(program, frame, 1e-9).relaxation.W_prime - program.W).max() <= 1e-6

    def test_disturbance_decreases_with_rho(self, biped, rng):
        frame, program, tau_c = self.biped_single_support(biped, rng)
        norms = []
        for rho in (1.0, 10.0, 100.0):
            relaxed = relax_program(program, frame, rho)
            report = solve_barrier(relaxed)
            assert report.status == "relaxed"
            d = frame.M_bar_inv @ (tau_c - program.eq_mat @ report.u_star)
            norms.append(np.linalg.norm(d))
            assert np.linalg.eigvalsh(relaxed.relaxation.W_prime).min() > 0
        assert norms[0] > norms[1] > norms[2]

    def test_relaxed_gradient_matches_finite_differences(self, biped, rng):
        frame, program, tau_c = self.biped_single_support(biped, rng)
        rho = 10.0
        relaxed = relax_program(program, frame, rho)
        Wp, lin = relaxed.objective_quad()

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
    def standing_setup(self, biped):
        state = manifold_state(biped, BIPED_HOME, scale=0.0)
        frame = build_frame(biped, state)
        task = build_task(frame, make_task(biped, "base_pitch"))
        gains = ControllerGains.critically_damped(1, 4.0)
        cmd = tracking_torque(frame, task, task.x, np.zeros(1), np.zeros(1), gains)
        program = assemble_program(frame, cmd.tau_c)
        return state, frame, program

    def test_empty_selector_unchanged(self, biped):
        state, frame, program = self.standing_setup(biped)
        out = add_moment_constraints(program, frame, np.zeros((0, 6)))
        assert out.r == program.r

    def test_moment_row_roundtrip(self, biped, rng):
        state, frame, program = self.standing_setup(biped)
        w = 0.19792317
        sel = np.zeros((1, 6))
        sel[0, 2], sel[0, 5] = -w, w  # pitch moment about the base midpoint
        extended = add_moment_constraints(program, frame, sel)
        for _ in range(10):
            u = rng.uniform(biped.u_min, biped.u_max)
            lam = contact_forces(frame, u).forces
            lam_m = (sel @ lam).item()
            c = extended.constraint_values(u)
            assert c[-1] == pytest.approx(-lam_m, abs=1e-8 * max(1.0, abs(lam_m)))

    def test_symmetric_load_is_boundary(self, biped):
        state, frame, program = self.standing_setup(biped)
        w = 0.19792317
        sel = np.zeros((1, 6))
        sel[0, 2], sel[0, 5] = -w, w
        extended = add_moment_constraints(program, frame, sel)
        u_sym = np.zeros(2)
        c = extended.constraint_values(u_sym)
        assert abs(c[-1]) <= 1e-9  # exactly on the constraint boundary
        assert not np.all(c > 1e-9)

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
        target = np.array([(sel @ contact_forces(frame, u_probe).forces).item()])
        regulated = add_force_regulation(program, frame, sel, target)
        report = solve_barrier(regulated)
        assert report.status == "optimal"
        achieved = (sel @ contact_forces(frame, report.u_star).forces).item()
        assert abs(achieved - target[0]) <= 1e-6 * max(1.0, abs(target[0]))

    def test_force_regulation_passthrough(self, biped):
        state, frame, program = self.standing_setup(biped)
        base = solve_barrier(program)
        sel = np.zeros((1, 6))
        sel[0, 2] = 1.0
        current = np.array([(sel @ contact_forces(frame, base.u_star).forces).item()])
        regulated = add_force_regulation(program, frame, sel, current)
        # the previous optimum still satisfies the enlarged equality block
        resid = regulated.eq_mat @ base.u_star - regulated.eq_rhs
        assert np.abs(resid).max() <= 1e-8

    def test_force_regulation_unreachable(self, biped):
        state, frame, program = self.standing_setup(biped)
        sel = np.zeros((1, 6))
        sel[0, 2] = 1.0
        regulated = add_force_regulation(program, frame, sel, np.array([1e6]))
        report = solve_barrier(regulated)
        assert report.status == "infeasible_equality"
