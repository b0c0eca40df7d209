import dataclasses
import importlib
import inspect
import sys
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from projctl.constrained_dynamics import ConstraintFrame, RobotState, build_frame
from projctl.constraint_geometry import null_projector
from projctl.control_laws import ControllerGains
from projctl.errors import ActuationError, InputError, SimulationError, SolverError, TaskInconsistencyError
from projctl.models import (
    ArmParams,
    BipedParams,
    base_pitch_task,
    base_pose_task,
    build_model,
    floating_biped,
    joint_task,
    make_task,
    planar_arm_contact,
)
from projctl.runner import load_config, load_scenario
from projctl.simulate import (
    OptimizerSpec,
    Scenario,
    constant_reference,
    simulate,
    sinusoid_reference,
    step,
    switch_contacts,
)
from projctl.torque_qcqp import assemble_program, solve_barrier
from projctl.control_laws import tracking_torque
from projctl.task_space import build_task

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
    floating_biped_reference,
    integrate_saddle,
    model_callbacks_reference,
    planar_arm_reference,
    planar_dynamics_reference,
    step_reference,
    task_reference,
)


class TestPlanarArmModel:
    def test_no_gravity_at_rest(self):
        arm0 = planar_arm_contact(ArmParams(gravity=0.0))
        q = ARM_HOME
        assert np.allclose(arm0.gravity(q), 0.0)
        assert np.allclose(arm0.coriolis_matrix(q, np.zeros(3)) @ np.zeros(3), 0.0)

    def test_mass_matrix_positive_definite_sweep(self, arm, rng):
        for _ in range(1000):
            q = rng.uniform(-np.pi, np.pi, 3)
            assert np.linalg.eigvalsh(arm.mass_matrix(q)).min() > 0

    def test_coriolis_skew_identity(self, arm, rng):
        h = 1e-5
        for _ in range(50):
            q = rng.uniform(-np.pi, np.pi, 3)
            qd = rng.standard_normal(3)
            C = arm.coriolis_matrix(q, qd)
            Md = (arm.mass_matrix(q + h * qd) - arm.mass_matrix(q - h * qd)) / (2 * h)
            D = Md - 2 * C
            assert np.abs(D + D.T).max() <= 1e-9

    def test_rejects_nonphysical(self):
        with pytest.raises(InputError):
            planar_arm_contact(ArmParams(masses=(1.0, -1.0, 1.0)))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("u_min", [-np.inf, -25.0, -25.0]),
            ("u_max", [25.0, np.inf, 25.0]),
            ("motor_resistance", [1.2, 1.0, np.nan]),
            ("torque_constant", [np.nan, 1.0, 1.1]),
        ],
    )
    def test_robot_model_rejects_nonfinite_vectors(self, arm, field, value):
        with pytest.raises(InputError, match=f"{field} must be 3 finite numbers"):
            dataclasses.replace(arm, **{field: np.array(value)})

    def test_n_and_p_come_from_the_actuation_matrix(self, arm):
        assert (arm.n, arm.p) == (3, 3)
        vectors = ("u_min", "u_max", "motor_resistance", "torque_constant")
        two = dataclasses.replace(
            arm, actuation=arm.actuation[:, :2], **{name: getattr(arm, name)[:2] for name in vectors}
        )
        assert (two.n, two.p) == (3, 2) and two.W.shape == (2, 2)

    def test_actuation_must_be_2d(self, arm):
        with pytest.raises(InputError, match="actuation matrix must be 2-d"):
            dataclasses.replace(arm, actuation=np.ones(3))

    def test_n_is_not_an_argument(self, arm):
        given = {f.name: getattr(arm, f.name) for f in dataclasses.fields(arm) if f.init}
        with pytest.raises(TypeError):
            type(arm)(n=3, **given)

    @pytest.mark.parametrize("indices", [5, [0.7], [True], "0", [0, 0], []])
    def test_joint_task_rejects_bad_indices(self, indices):
        with pytest.raises(InputError):
            joint_task(indices, 3)

    @pytest.mark.parametrize("factory", [base_pitch_task, base_pose_task])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_base_tasks_need_three_coordinates(self, factory, n):
        with pytest.raises(InputError, match=f"n = {n}"):
            factory(n)


class TestBipedModel:
    def test_actuation_excludes_base(self, biped):
        # columns of B live entirely in the joint coordinates
        assert np.allclose(biped.actuation[:3, :], 0.0)
        assert np.linalg.matrix_rank(biped.actuation) == 2

    def test_coriolis_skew_identity(self, biped, rng):
        h = 1e-5
        for _ in range(30):
            q = BIPED_HOME + 0.3 * rng.standard_normal(5)
            qd = rng.standard_normal(5)
            C = biped.coriolis_matrix(q, qd)
            Md = (biped.mass_matrix(q + h * qd) - biped.mass_matrix(q - h * qd)) / (2 * h)
            D = Md - 2 * C
            assert np.abs(D + D.T).max() <= 1e-9

    def test_standing_qcqp_presses_both_feet(self, biped):
        state = manifold_state(biped, BIPED_HOME, scale=0.0)
        frame = build_frame(biped, state)
        task = build_task(frame, make_task(biped, "base_pitch"))
        gains = ControllerGains.critically_damped(1, 4.0)
        cmd = tracking_torque(frame, task, task.x, np.zeros(1), np.zeros(1), gains)
        report = solve_barrier(assemble_program(frame, cmd.tau_c))
        assert report.status == "optimal"
        from projctl.constrained_dynamics import contact_forces

        lam, margins = contact_forces(frame, report.u_star)
        assert np.all(lam[:, 2] > 0)
        assert np.all(margins > 0)

    def test_catalog_builder(self):
        model = build_model("floating_biped", {"gravity": 5.0})
        assert model.name == "floating_biped"
        with pytest.raises(InputError):
            build_model("hexapod")
        with pytest.raises(InputError, match=r"^leg_mas is not a parameter of 'floating_biped'"):
            build_model("floating_biped", {"leg_mas": 1.0})


class TestStep:
    def test_zero_dynamics_fixed_point(self):
        arm0 = planar_arm_contact(ArmParams(gravity=0.0))
        state = manifold_state(arm0, ARM_HOME, scale=0.0)
        out = step(arm0, state, np.zeros(3), 1e-3)
        assert np.abs(out.q - state.q).max() <= 1e-15
        assert np.abs(out.q_dot).max() <= 1e-15

    def test_energy_conservation_without_gravity(self, rng):
        arm0 = planar_arm_contact(ArmParams(gravity=0.0))
        state = manifold_state(arm0, ARM_HOME, rng=rng, scale=0.6)
        E0 = 0.5 * state.q_dot @ arm0.mass_matrix(state.q) @ state.q_dot
        for _ in range(1000):
            state = step(arm0, state, np.zeros(3), 1e-3)
        E1 = 0.5 * state.q_dot @ arm0.mass_matrix(state.q) @ state.q_dot
        assert abs(E1 - E0) <= 1e-6 * max(1.0, E0)

    def test_matches_saddle_point_integration(self, arm):
        q0 = ARM_HOME.copy()
        state = manifold_state(arm, q0, scale=0.0)
        qd0 = state.q_dot.copy()
        u = np.array([0.2, -0.1, 0.05])
        dt = 5e-4  # the swing reaches ~10 rad/s; both integrators need this step
        s = state
        for _ in range(2000):
            s = step(arm, s, u, dt)
        oracle = integrate_saddle(arm, q0, qd0, (0,), lambda t, q, qd: u, dt, 2000)
        q_oracle, qd_oracle = oracle[-1]
        assert np.abs(s.q - q_oracle).max() <= 1e-5
        assert np.abs(s.q_dot - qd_oracle).max() <= 1e-5

    def test_drift_stays_small(self, arm, rng):
        state = random_manifold_state(arm, rng, ARM_HOME, spread=0.1)
        for _ in range(200):
            state = step(arm, state, np.zeros(3), 1e-3)
            A = arm.contact_stack(state.q, state.active_contacts)
            assert np.linalg.norm(A @ state.q_dot) <= 1e-8

    def test_stage_frames_form_no_force_maps(self, arm, biped, monkeypatch):
        # each stage builds a frame but reads only its acceleration: S, Q and
        # the force map, computed on first use, are never formed inside step
        # (the package's `simulate` function shadows the submodule attribute)
        sim = importlib.import_module("projctl.simulate")
        frames = []

        def recording_build_frame(*args, **kwargs):
            frames.append(build_frame(*args, **kwargs))
            return frames[-1]

        monkeypatch.setattr(sim, "build_frame", recording_build_frame)
        for model, home in ((arm, ARM_HOME), (biped, BIPED_HOME)):
            state = manifold_state(model, home, scale=0.3)
            frames.clear()
            step(model, state, np.zeros(model.p), 1e-3)
            assert len(frames) == 4
            for frame in frames:
                assert "M_bar_inv" in vars(frame)
                assert "S" not in vars(frame) and "Q" not in vars(frame)
                assert "force_map" not in vars(frame)

    def test_out_of_box_warns(self, arm):
        state = manifold_state(arm, ARM_HOME, scale=0.0)
        with pytest.warns(UserWarning):
            step(arm, state, 100.0 * np.ones(3), 1e-3)

    @pytest.mark.parametrize(
        "kind, home, active",
        [("planar_arm", ARM_HOME, (0,)), ("floating_biped", BIPED_HOME, (0,)), ("floating_biped", BIPED_HOME, (0, 1))],
        ids=["arm", "biped_single", "biped_double"],
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_the_plain_step_bit_for_bit(self, kind, home, active, data):
        # step forms B u and each stage velocity once; the plain step forms them where they are used.
        # One coordinate starts at 0, so its q_new is the RK4 increment alone and a change in how
        # the increment rounds shows; on a coordinate of size 1 the increment's last bits are lost.
        model = model_of(kind)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        q = random_manifold_state(model, rng, home, active=active).q.copy()
        q[data.draw(st.integers(0, model.n - 1), label="zero")] = 0.0
        state = manifold_state(model, q, rng=rng, active=active)
        share = data.draw(arrays(np.float64, model.p, elements=st.floats(0.0, 1.0)), label="share")
        u = model.u_min + share * (model.u_max - model.u_min)
        dt = data.draw(st.sampled_from([1e-3, 5e-4]), label="dt")
        nu = data.draw(st.none() | st.floats(0.1, 5.0), label="nu")
        got, want = step(model, state, u, dt, nu=nu), step_reference(model, state, u, dt, nu=nu)
        assert bits(got.q) == bits(want.q)
        assert bits(got.q_dot) == bits(want.q_dot)
        assert (got.t, got.active_contacts) == (want.t, want.active_contacts)

    @pytest.mark.parametrize("callback", ["mass_matrix", "gravity"])
    @pytest.mark.parametrize("active", [(), (0,)], ids=["free", "contact"])
    def test_non_finite_state_raises(self, callback, active):
        # without contacts no drift test runs; with one the drift is NaN.  An infinite mass matrix
        # would make numpy warn first, which filterwarnings = error turns into a failure
        model = point_mass_model()
        nan = {"mass_matrix": lambda q: np.full((3, 3), np.nan), "gravity": lambda q: np.array([0.0, np.nan, -1.0])}
        model = dataclasses.replace(model, **{callback: nan[callback]})
        state = RobotState(t=0.25, q=np.zeros(3), q_dot=np.zeros(3), active_contacts=active)
        with pytest.raises(SimulationError, match=r"non-finite state at t=0\.2510"):
            step(model, state, np.zeros(3), 1e-3, nu=2.0)


class TestLeanControlTick:
    """A control tick forms each per-state quantity once: one force map, one
    row stack (which the relaxed program shares), and no task-identity residuals."""

    @pytest.mark.parametrize("config", ["compare_cone.json", "biped_switch.json"])
    def test_each_quantity_formed_once_per_tick(self, config, monkeypatch):
        sim = importlib.import_module("projctl.simulate")
        force_map = ConstraintFrame.__dict__["force_map"]
        form_force_map = force_map.func
        formed, programs, solved, tasks = [], [], [], []

        def recording(fn, out, pick=lambda args, result: result):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                out.append(pick(args, result))
                return result

            return wrapper

        monkeypatch.setattr(force_map, "func", recording(form_force_map, formed, lambda args, _: args[0]))
        monkeypatch.setattr(sim, "assemble_program", recording(sim.assemble_program, programs))
        monkeypatch.setattr(sim, "relax_program", recording(sim.relax_program, programs))
        monkeypatch.setattr(sim, "solve_barrier", recording(sim.solve_barrier, solved, lambda args, _: args[0]))
        monkeypatch.setattr(sim, "build_task", recording(sim.build_task, tasks))
        trace = simulate(short_scenario(config, 0.05))

        ticks = trace.steps
        assert ticks == 51
        assert len(formed) == ticks and len({id(frame) for frame in formed}) == ticks
        per_tick = len(programs) // ticks  # assemble_program, then relax_program when relaxed
        assert len(solved) == ticks and all(a is b for a, b in zip(programs[per_tick - 1 :: per_tick], solved))
        assert len({id(program.lin) for program in programs}) == ticks
        assert len(tasks) == ticks


model_of = lru_cache(maxsize=None)(build_model)


def model_callbacks(model):
    """name -> callback, contact callbacks named as in oracles.model_callbacks_reference."""
    callbacks = {name: getattr(model, name) for name in ("mass_matrix", "coriolis_matrix", "gravity")}
    for i, contact in enumerate(model.contacts):
        callbacks.update({f"jacobian_{i}": contact.jacobian, f"jacobian_rate_{i}": contact.jacobian_rate,
                          f"point_{i}": contact.point})
    return callbacks


class TestModelCallbacks:
    """The generated callbacks give every bit that the sympy pipeline's lambdified
    functions, called on numpy scalars, give."""

    @pytest.mark.parametrize("kind", ["floating_biped", "planar_arm"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bit_equal_to_the_numpy_scalar_form(self, kind, data):
        model = model_of(kind)
        q = data.draw(arrays(np.float64, model.n, elements=st.floats(-10.0, 10.0)))
        qd = data.draw(arrays(np.float64, model.n, elements=st.floats(-50.0, 50.0)))
        reference = model_callbacks_reference(kind)
        callbacks = model_callbacks(model)
        assert callbacks.keys() == reference.keys()
        for name, callback in callbacks.items():
            args = (q, qd) if name.startswith(("coriolis", "jacobian_rate")) else (q,)
            got, want = callback(*args), reference[name](*args)
            assert got.dtype == np.float64 and got.shape == want.shape, name
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("kind", ["floating_biped", "planar_arm"])
    def test_an_infinite_angle_is_an_input_error(self, kind):
        # math's cos and sin raise on an infinite argument, where numpy's returned nan
        model = model_of(kind)
        q = np.zeros(model.n)
        q[2] = np.inf  # the arm's third joint, the biped's base pitch
        with pytest.raises(InputError, match=r"_M: non-finite or out-of-range state \(math domain error\)"):
            build_frame(model, RobotState(0.0, q, np.zeros(model.n)))


def positive(size=None, lo=0.1, hi=5.0):
    value = st.floats(lo, hi)
    return value if size is None else st.tuples(*[value] * size)


ARM_PARAMS = st.builds(
    ArmParams, lengths=positive(3, 0.1, 1.0), masses=positive(3), inertias=st.none() | positive(3, 0.01, 1.0),
    gravity=st.floats(0.0, 20.0), friction=positive(), torque_limit=positive(None, 1.0, 100.0),
    motor_resistance=positive(3), torque_constant=positive(3),
)
BIPED_PARAMS = st.builds(
    BipedParams, torso_mass=positive(), torso_inertia=positive(None, 0.01, 1.0), torso_com_offset=st.floats(-0.5, 0.5),
    leg_mass=positive(), leg_inertia=st.none() | positive(None, 0.01, 1.0), leg_length=positive(None, 0.2, 1.5),
    gravity=st.floats(0.0, 20.0), friction=positive(), torque_limit=positive(None, 1.0, 100.0),
    motor_resistance=positive(2), torque_constant=positive(2),
)


def bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


class TestDynamicsMatchNumericKinematics:
    """M, C, tau_g and each contact's A, A_dot and point agree, to 1e-12 relative, with
    numeric per-body kinematics (C = sum m Jv^T Jv_dot), which use no sympy."""

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("planar_arm", None),
            ("planar_arm", ArmParams(lengths=(0.3, 0.7, 0.2), masses=(2.5, 0.4, 1.1), inertias=(0.02, 0.3, 0.05),
                                     gravity=3.7)),
            ("floating_biped", None),
            ("floating_biped", BipedParams(torso_mass=5.5, torso_inertia=0.4, torso_com_offset=-0.15, leg_mass=2.2,
                                           leg_inertia=0.07, leg_length=1.1, gravity=12.5)),
        ],
        ids=["arm_default", "arm_params", "biped_default", "biped_params"],
    )
    def test_random_states(self, kind, params, rng):
        model = (planar_arm_contact if kind == "planar_arm" else floating_biped)(params)
        for _ in range(200):
            q, qd = rng.uniform(-3.0, 3.0, model.n), rng.uniform(-10.0, 10.0, model.n)
            want = planar_dynamics_reference(kind, params, q, qd)
            pairs = [(model.mass_matrix(q), want["M"]), (model.coriolis_matrix(q, qd), want["C"]),
                     (model.gravity(q), want["tau_g"])]
            for contact, (A, A_dot, point) in zip(model.contacts, want["contacts"], strict=True):
                pairs += [(contact.jacobian(q), A), (contact.jacobian_rate(q, qd), A_dot), (contact.point(q), point)]
            for got, ref in pairs:
                assert got.shape == ref.shape
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class TestBuildersMatchReference:
    """The shared planar builder and constant-Jacobian task give what each model and
    task, written out on its own, gives: the same fields, and every value bit for bit."""

    @pytest.mark.parametrize(
        "build, reference, params",
        [(planar_arm_contact, planar_arm_reference, ARM_PARAMS),
         (floating_biped, floating_biped_reference, BIPED_PARAMS)],
        ids=["planar_arm", "floating_biped"],
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_model(self, build, reference, params, data):
        prm = data.draw(st.none() | params)
        got, want = build(prm), reference(prm)
        assert (got.name, got.n, got.p) == (want.name, want.n, want.p)
        for name in ("actuation", "u_min", "u_max", "motor_resistance", "torque_constant"):
            assert bits(getattr(got, name)) == bits(getattr(want, name)), name
        assert [(c.name, c.friction) for c in got.contacts] == [(c.name, c.friction) for c in want.contacts]
        q = data.draw(arrays(np.float64, got.n, elements=st.floats(-3.0, 3.0)))
        qd = data.draw(arrays(np.float64, got.n, elements=st.floats(-10.0, 10.0)))
        reference_callbacks = model_callbacks(want)
        for name, callback in model_callbacks(got).items():
            args = (q, qd) if name.startswith(("coriolis", "jacobian_rate")) else (q,)
            assert bits(callback(*args)) == bits(reference_callbacks[name](*args)), name

    @pytest.mark.parametrize("kind", ["planar_arm", "floating_biped"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_task(self, kind, data):
        model = model_of(kind)
        n = model.n
        task_kind = data.draw(st.sampled_from(["link_orientation", "base_pitch", "base_pose", "joint"]))
        indices = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        kwargs = {"indices": indices} if task_kind == "joint" else {}
        got, want = make_task(model, task_kind, **kwargs), task_reference(task_kind, n, indices)
        assert (got.name, got.dim) == (want.name, want.dim)
        q = data.draw(arrays(np.float64, n, elements=st.floats(-10.0, 10.0)))
        qd = data.draw(arrays(np.float64, n, elements=st.floats(-50.0, 50.0)))
        assert bits(got.value(q)) == bits(want.value(q))
        assert bits(got.jacobian(q)) == bits(want.jacobian(q))
        assert bits(got.jacobian_rate(q, qd)) == bits(want.jacobian_rate(q, qd))
        assert not (got.jacobian(q).flags.writeable or got.jacobian_rate(q, qd).flags.writeable)


class TestSharedContactSVD:
    """One contact-stack SVD per (q, active set): the post-step projection, the next
    control frame and the next step's first RK4 stage share it, and every frame still
    evaluates all five model callbacks."""

    def test_four_stack_svds_per_step(self, monkeypatch):
        geometry = importlib.import_module("projctl.constraint_geometry")
        sim = importlib.import_module("projctl.simulate")
        svd_cutoff, build = geometry._svd_cutoff, sim.build_frame
        svds, calls, frames = [], Counter(), []

        def counting_svd(A):
            if sys._getframe(1).f_code.co_name == "_projector":
                svds.append(A.shape)
            return svd_cutoff(A)

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        def checked_frame(*args, **kwargs):
            before = Counter(calls)
            frame = build(*args, **kwargs)
            frames.append(calls - before)
            return frame

        scenario = short_scenario("arm_tracking.json", 0.05)
        model = scenario.model
        tip = model.contacts[0]
        counted_tip = dataclasses.replace(
            tip, jacobian=counted("A", tip.jacobian), jacobian_rate=counted("A_dot", tip.jacobian_rate)
        )
        counted_model = dataclasses.replace(
            model,
            mass_matrix=counted("M", model.mass_matrix),
            coriolis_matrix=counted("C", model.coriolis_matrix),
            gravity=counted("tau_g", model.gravity),
            contacts=(counted_tip,),
        )
        geometry._projector(np.zeros((0, 1)))  # keep no arm stack from an earlier run
        monkeypatch.setattr(geometry, "_svd_cutoff", counting_svd)
        monkeypatch.setattr(sim, "build_frame", checked_frame)
        simulate(dataclasses.replace(scenario, model=counted_model))

        steps = scenario.n_steps
        assert steps == 50
        # four per step: three RK4 stages and the post-step projection; at t = 0 the
        # initial projection serves the first tick and stages 1 and 2 (q_dot = 0 keeps q)
        assert len(svds) == 4 * steps
        assert len(frames) == (steps + 1) + 4 * steps
        assert all(set(frame) == {"M", "C", "tau_g", "A", "A_dot"} for frame in frames)


class TestFrameIsThePerStateInput:
    """Every per-state function reads the model and state through the frame."""

    def test_frame_keeps_its_model_and_state(self, arm):
        state = manifold_state(arm, ARM_HOME, scale=0.3)
        frame = build_frame(arm, state)
        assert frame.model is arm
        assert frame.state is state
        assert not {"q_dot", "B", "active"} & {f.name for f in dataclasses.fields(ConstraintFrame)}

    PER_STATE = [
        ("constrained_dynamics", "constrained_accel"),
        ("constrained_dynamics", "contact_forces"),
        ("torque_qcqp", "assemble_cone_constraints"),
        ("torque_qcqp", "assemble_program"),
        ("task_space", "build_task"),
        ("task_space", "task_accel_decompose"),
        ("control_laws", "tracking_torque"),
        ("control_laws", "regulation_torque"),
        ("control_laws", "regulation_lyapunov"),
        ("control_laws", "min_norm_actuation"),
        ("simulate", "_allocate"),
    ]

    @pytest.mark.parametrize("module, name", PER_STATE)
    def test_takes_the_frame_alone(self, module, name):
        fn = importlib.import_module(f"projctl.{module}")
        for part in name.split("."):
            fn = getattr(fn, part)
        params = inspect.signature(fn).parameters
        assert "frame" in params
        assert not {"model", "state", "B", "q_dot"} & set(params)

    def test_step_projects_once(self, arm, monkeypatch):
        # the stages read only their frames' accelerations; only the post-step
        # velocity projection calls null_projector
        sim = importlib.import_module("projctl.simulate")
        calls = []

        def counting_null_projector(A):
            calls.append(A)
            return null_projector(A)

        monkeypatch.setattr(sim, "null_projector", counting_null_projector)
        state = manifold_state(arm, ARM_HOME, scale=0.3)
        for _ in range(3):
            calls.clear()
            state = step(arm, state, np.zeros(3), 1e-3)
            assert len(calls) == 1


class TestSwitchContacts:
    def test_same_set_is_identity(self, biped):
        state = manifold_state(biped, BIPED_HOME, scale=0.2)
        assert switch_contacts(state, (0, 1), biped) is state

    def test_deactivate_all(self, biped, rng):
        state = random_manifold_state(biped, rng, BIPED_HOME)
        free = switch_contacts(state, (), biped)
        assert free.active_contacts == ()
        assert np.allclose(free.q_dot, state.q_dot)  # releasing keeps velocity
        frame = build_frame(biped, free)
        assert np.allclose(frame.P, np.eye(5))

    def test_activation_projects_velocity(self, biped, rng):
        state = random_manifold_state(biped, rng, BIPED_HOME, active=(0,))
        both = switch_contacts(state, (0, 1), biped)
        A = biped.contact_stack(both.q, (0, 1))
        assert np.linalg.norm(A @ both.q_dot) <= 1e-10

    def test_unknown_contact_rejected(self, biped):
        state = manifold_state(biped, BIPED_HOME, scale=0.0)
        with pytest.raises(InputError):
            switch_contacts(state, (3,), biped)

    def test_repeated_contact_rejected(self, biped):
        # a repeated index stacks one contact twice, and the copies would split its force
        state = manifold_state(biped, BIPED_HOME, scale=0.0, active=(0,))
        with pytest.raises(InputError, match=r"active_contacts \(1, 1\) repeats a contact"):
            switch_contacts(state, (1, 1), biped)


class TestSimulate:
    def arm_scenario(self, arm, optimizer="min_norm", duration=0.2):
        state0 = manifold_state(arm, ARM_HOME, scale=0.0)
        x0 = float(ARM_HOME.sum())
        ref = sinusoid_reference(center=[x0 + 0.1], amplitude=[0.05], frequency_hz=[0.5])
        return Scenario(
            model=arm,
            initial=state0,
            task=make_task(arm, "link_orientation"),
            reference=ref,
            controller="tracking",
            gains=ControllerGains.critically_damped(1, 5.0),
            optimizer=OptimizerSpec(kind=optimizer),
            duration=duration,
            dt=1e-3,
            name="arm_test",
        )

    def test_record_count_and_columns(self, arm):
        trace = simulate(self.arm_scenario(arm))
        assert trace.steps == 201
        columns = trace.columns()
        assert columns[0][0] == "t" and columns[-1][0] == "status"
        assert all(len(values) == trace.steps for _, values in columns)

    def test_deterministic_repeat(self, arm):
        t1 = simulate(self.arm_scenario(arm))
        t2 = simulate(self.arm_scenario(arm))
        assert t1.to_csv() == t2.to_csv()

    def test_drift_invariant_along_run(self, arm):
        trace = simulate(self.arm_scenario(arm, duration=0.5))
        assert trace.drift.max() <= 1e-8

    def test_switch_schedule_structural(self, biped):
        state0 = manifold_state(biped, BIPED_HOME, scale=0.0)
        scn = Scenario(
            model=biped,
            initial=state0,
            task=make_task(biped, "base_pitch"),
            reference=constant_reference([0.0]),
            controller="tracking",
            gains=ControllerGains.critically_damped(1, 4.0),
            optimizer=OptimizerSpec(kind="qcqp_relaxed", rho=200.0),
            duration=0.6,
            dt=1e-3,
            schedule=((0.2, (0,)), (0.4, (0, 1))),
            name="switch_test",
        )
        trace = simulate(scn)
        assert trace.steps == 601
        active_sets = {a for a in trace.active}
        assert (0,) in active_sets and (0, 1) in active_sets
        # all matrices stayed n x n: q/lam columns never changed shape
        assert trace.q.shape == (601, 5)
        assert trace.lam.shape == (601, 6)
        # inactive contact rows are zeroed
        single = [i for i, a in enumerate(trace.active) if a == (0,)]
        assert np.allclose(trace.lam[single, 3:6], 0.0)

    @pytest.mark.parametrize(
        "args, name",
        [
            (([0.0], [0.1, 0.2], [1.0]), "amplitude"),
            (([0.0, 0.0], [0.1], [1.0, 2.0, 3.0]), "frequency_hz"),
            (([0.0, 0.0], [0.1], [1.0], [0.0, 0.0, 0.0]), "phase"),
            (([0.0, 0.0], [[0.1, 0.1]], [1.0]), "amplitude"),
        ],
    )
    def test_sinusoid_lengths_must_match(self, args, name):
        with pytest.raises(InputError, match=name):
            sinusoid_reference(*args)

    def test_sinusoid_shares_single_entries(self):
        ref = sinusoid_reference([0.0, 1.0], 0.5, [1.0], [0.0, np.pi / 2])
        assert np.allclose(ref.value(0.0), [0.0, 1.5])
        assert np.allclose(ref.rate(0.0), [np.pi, 0.0])

    def test_duration_must_match_dt(self, arm):
        scn = self.arm_scenario(arm)
        with pytest.raises(InputError, match="duration must be an integer multiple"):
            Scenario(**{**scn.__dict__, "duration": 0.2005})

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
    def test_dt_must_be_positive_and_finite(self, arm, dt):
        scn = self.arm_scenario(arm)
        with pytest.raises(InputError, match="dt must be positive and finite"):
            Scenario(**{**scn.__dict__, "dt": dt})

    @pytest.mark.parametrize("duration", [np.nan, np.inf])
    def test_duration_must_be_positive_and_finite(self, arm, duration):
        scn = self.arm_scenario(arm)
        with pytest.raises(InputError, match="duration must be positive and finite"):
            Scenario(**{**scn.__dict__, "duration": duration})

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_schedule_times_must_be_finite(self, arm, t):
        # a switch at t = NaN would never fire
        scn = self.arm_scenario(arm)
        with pytest.raises(InputError, match="schedule times must be finite"):
            Scenario(**{**scn.__dict__, "schedule": ((t, (0,)),)})

    @pytest.mark.parametrize("rho", [np.nan, np.inf, -1.0])
    def test_rho_must_be_positive_and_finite(self, rho):
        with pytest.raises(InputError, match="rho must be positive and finite"):
            OptimizerSpec("qcqp_relaxed", rho=rho)

    def test_non_finite_mass_matrix_is_named(self, arm):
        # simulate fixes nu = trace(M)/n at the initial state
        model = dataclasses.replace(arm, mass_matrix=lambda q: np.full((3, 3), np.nan))
        scn = dataclasses.replace(self.arm_scenario(arm), model=model)
        with pytest.raises(InputError, match="mass_matrix returned non-finite entries"):
            simulate(scn)

    @pytest.mark.parametrize("size", [2, 4])
    def test_initial_q_must_fit_the_model(self, arm, size):
        scn = self.arm_scenario(arm)
        initial = RobotState(t=0.0, q=np.zeros(size), q_dot=np.zeros(size), active_contacts=(0,))
        with pytest.raises(InputError, match=f"initial q has shape \\({size},\\)"):
            Scenario(**{**scn.__dict__, "initial": initial})

    def test_contact_free_run_records_empty_contacts(self):
        # k = 0 takes the contact path with an empty stack: zero force columns and drift 0.0
        cfg = load_config(CONFIGS / "arm_tracking.json")
        cfg["duration"], cfg["initial_state"]["active_contacts"] = 0.05, []
        trace = simulate(load_scenario(cfg))
        assert trace.active == [()] * trace.steps
        assert not trace.lam.any() and not trace.margins.any()
        assert (trace.drift == 0.0).all()

    def test_flight_phase_records_empty_contacts(self):
        cfg = load_config(CONFIGS / "biped_switch.json")
        cfg["duration"], cfg["contacts"]["schedule"] = 0.1, [[0.01, []], [0.05, [0, 1]]]
        trace = simulate(load_scenario(cfg))
        flight = [i for i, a in enumerate(trace.active) if a == ()]
        stance = [i for i, a in enumerate(trace.active) if a == (0, 1)]
        assert flight and stance and len(flight) + len(stance) == trace.steps
        assert not trace.lam[flight].any() and not trace.margins[flight].any()
        assert (trace.drift[flight] == 0.0).all()
        assert trace.lam[stance].any()

    def test_unknown_initial_contact_rejected(self, arm):
        scn = self.arm_scenario(arm)
        initial = RobotState(t=0.0, q=scn.initial.q, q_dot=scn.initial.q_dot, active_contacts=(1,))
        with pytest.raises(InputError, match="initial active set"):
            Scenario(**{**scn.__dict__, "initial": initial})

    def test_regulation_lyapunov_monotone(self, arm):
        state0 = manifold_state(arm, ARM_HOME, scale=0.0)
        x0 = float(ARM_HOME.sum())
        scn = Scenario(
            model=arm,
            initial=state0,
            task=make_task(arm, "link_orientation"),
            reference=constant_reference([x0 + 0.1]),
            controller="regulation",
            gains=ControllerGains(K_P=16.0 * np.eye(1), K_D=10.0 * np.eye(3)),
            optimizer=OptimizerSpec(kind="min_norm"),
            duration=1.0,
            dt=1e-3,
            name="regulation_test",
        )
        trace = simulate(scn)
        dV = np.diff(trace.lyapunov)
        assert dV.max() <= 1e-9
        assert trace.e_norm[-1] < trace.e_norm[0]


class TestRunErrorsNameWhereTheyHappened:
    """A run-time error leaves simulate with its own type and a message that starts with
    the step index, t and the active set."""

    def fail_on_call(self, monkeypatch, name, call, error):
        """Rebind simulate's name so that its call-th call raises error."""
        sim = importlib.import_module("projctl.simulate")
        real, calls = getattr(sim, name), []

        def patched(*args, **kwargs):
            calls.append(None)
            if len(calls) == call:
                raise error
            return real(*args, **kwargs)

        monkeypatch.setattr(sim, name, patched)

    def raised(self, error_type, scenario):
        with pytest.raises(error_type) as err:
            simulate(scenario)
        assert type(err.value) is error_type
        return str(err.value)

    def test_actuation_error(self, monkeypatch):
        message = "requested generalized force is not realizable"
        self.fail_on_call(monkeypatch, "min_norm_actuation", 3, ActuationError(message))
        got = self.raised(ActuationError, short_scenario("arm_tracking.json", 0.01))
        assert got == f"step 2, t=0.0020, active [0]: {message}"

    def test_solver_error(self):
        # the strict qcqp in single support is equality-infeasible
        got = self.raised(SolverError, short_scenario("biped_single_relaxed.json", 0.01, type="qcqp"))
        assert got == "step 0, t=0.0000, active [0]: torque program infeasible_equality (kkt=inf, gap=inf)"

    def test_drift_simulation_error(self, monkeypatch):
        monkeypatch.setattr(importlib.import_module("projctl.simulate"), "DRIFT_HARD_LIMIT", -1.0)
        got = self.raised(SimulationError, short_scenario("arm_tracking.json", 0.01))
        assert got.startswith("step 0, t=0.0000, active [0]: constraint drift ")

    def test_input_error(self, monkeypatch):
        # a state-dependent InputError: the third build_frame is step 0's second RK4 stage
        message = "contact stack or its rate contains non-finite entries"
        self.fail_on_call(monkeypatch, "build_frame", 3, InputError(message))
        got = self.raised(InputError, short_scenario("arm_tracking.json", 0.01))
        assert got == f"step 0, t=0.0000, active [0]: {message}"

    def test_task_inconsistency_error(self, monkeypatch):
        self.fail_on_call(monkeypatch, "build_task", 5, TaskInconsistencyError("task map lost rank"))
        got = self.raised(TaskInconsistencyError, short_scenario("biped_single_relaxed.json", 0.01))
        assert got == "step 4, t=0.0040, active [0]: task map lost rank"
