"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite takes about two minutes because several criteria run
full desk-scale simulations through the bundled configs.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from projctl.checks import (
    constrained_inertia,
    oblique_projector,
    projection_algebra,
    rate_identities,
    task_identities,
)
from projctl.constrained_dynamics import RobotState, build_frame, contact_forces
from projctl.control_laws import ControllerGains, tracking_torque
from projctl.models import make_task
from projctl.runner import compare_controllers, contact_slip, load_config, load_scenario, run_scenario
from projctl.simulate import simulate
from projctl.task_space import build_task
from projctl.torque_qcqp import (
    TorqueProgram,
    assemble_program,
    barrier_gradient,
    barrier_value,
    relax_program,
    solve_barrier,
)

from conftest import ARM_HOME, BIPED_HOME, manifold_state, random_manifold_state
from oracles import grid_polish_optimum, saddle_point_state, stack_cone_rows

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
SLIP_BOUND = 1e-9  # m, largest slip of an active contact point from where its run began


def run_slips(config, traces):
    """The slip of each run in a comparison of the given config."""
    contacts = load_scenario(load_config(CONFIGS / config)).model.contacts
    return [contact_slip(trace, contacts) for trace in traces.values()]


def announce(num, detail):
    print(f"\nPASS criterion {num}: {detail}", flush=True)


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def arm_tracking_run(outdir):
    t0 = time.perf_counter()
    trace, report, _ = run_scenario(CONFIGS / "arm_tracking.json", out_dir=str(outdir / "run7"), quiet=True)
    return trace, report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def biped_switch_run(outdir):
    trace, report, _ = run_scenario(CONFIGS / "biped_switch.json", out_dir=str(outdir / "run13"), quiet=True)
    return trace, report


def test_criterion_01_projection_algebra():
    t0 = time.perf_counter()
    res = projection_algebra(seed=0)
    elapsed = time.perf_counter() - t0
    assert res.passed, res.detail
    assert elapsed <= 5.0
    announce(1, f"{res.detail}, runtime {elapsed:.2f} s")


def test_criterion_02_rate_identities():
    res = rate_identities(seed=0)
    assert res.passed, res.detail
    announce(2, res.detail)


def test_criterion_03_inertia_properties(arm, biped, rng, arm_tracking_run, biped_switch_run):
    res = constrained_inertia(seed=0)
    assert res.passed, res.detail

    # skew-symmetry of d/dt(M_bar) - 2 C_bar along simulated trajectories
    h = 1e-5
    worst = 0.0
    for model, (trace, *_rest) in ((arm, arm_tracking_run), (biped, biped_switch_run)):
        idx = np.linspace(0, trace.steps - 1, 24).astype(int)
        for i in idx:
            active = trace.active[i]
            state = RobotState(t=trace.t[i], q=trace.q[i], q_dot=trace.q_dot[i], active_contacts=active)
            nu = float(np.trace(model.mass_matrix(trace.q[0]))) / model.n

            def mbar(q):
                s = RobotState(t=0.0, q=q, q_dot=state.q_dot, active_contacts=active)
                return build_frame(model, s, nu=nu).M_bar

            frame = build_frame(model, state, nu=nu)
            stepv = h * state.q_dot
            Md = (mbar(state.q + stepv) - mbar(state.q - stepv)) / (2 * h)
            D = Md - 2.0 * frame.C_bar
            worst = max(worst, float(np.abs(D + D.T).max()))
    assert worst <= 1e-8
    announce(3, f"{res.detail}; trajectory skew residual {worst:.2e} (bound 1e-8)")


def test_criterion_04_oblique_projector(arm, biped, rng):
    res = oblique_projector(seed=0)
    assert res.passed, res.detail
    worst = 0.0
    witness = 0.0
    for model, home in ((arm, ARM_HOME), (biped, BIPED_HOME)):
        for _ in range(10):
            state = random_manifold_state(model, rng, home)
            frame = build_frame(model, state)
            worst = max(
                worst,
                float(np.abs(frame.S @ frame.S - frame.S).max()),
                float(np.abs(frame.P @ frame.M_bar - frame.M_bar @ frame.P).max()),
            )
            witness = max(witness, float(np.abs(frame.S - frame.S.T).max()))
    assert worst <= 1e-10
    assert witness > 1e-3  # S is genuinely oblique on the bundled models
    announce(4, f"{res.detail}; model frames residual {worst:.2e}, asymmetry witness {witness:.2f}")


def test_criterion_05_contact_force_oracle(arm, biped, rng):
    worst = 0.0
    for model, home in ((arm, ARM_HOME), (biped, BIPED_HOME)):
        for _ in range(200):
            state = random_manifold_state(model, rng, home, spread=0.2)
            u = rng.uniform(model.u_min, model.u_max)
            frame = build_frame(model, state)
            lam, _ = contact_forces(frame, u)
            _, lam_oracle = saddle_point_state(model, state, u)
            worst = max(worst, float(np.abs(lam.ravel() - lam_oracle).max()))
    assert worst <= 1e-8
    announce(5, f"400 random (state, u) pairs, worst residual {worst:.2e} (bound 1e-8)")


def test_criterion_06_task_map_identities(arm, biped, rng):
    worst = 0.0
    cases = [
        (arm, ARM_HOME, make_task(arm, "link_orientation"), None),
        (biped, BIPED_HOME, make_task(biped, "base_pitch"), None),
    ]
    for model, home, tdef, active in cases:
        for _ in range(40):
            state = random_manifold_state(model, rng, home, active=active)
            frame = build_frame(model, state)
            task = build_task(frame, tdef)
            range_in_null, pinv_in_null, pinv_product = task_identities(frame, task)
            worst = max(worst, range_in_null, pinv_in_null)
            if task.l == frame.n - frame.rank:  # full span
                worst = max(worst, pinv_product)
            xdd = rng.standard_normal(task.l)
            qdd = task.Lambda_pinv @ xdd - task.Gamma_ctl @ state.q_dot
            back = task.Lambda_dot @ state.q_dot + task.Lambda @ qdd
            worst = max(worst, float(np.abs(back - xdd).max()))
    assert worst <= 1e-9
    announce(6, f"identities + accel round trip on both models, worst {worst:.2e} (bound 1e-9)")


def test_criterion_07_tracking(arm_tracking_run):
    trace, report, elapsed = arm_tracking_run
    e0 = trace.e_norm[0]
    assert 0.05 <= e0 <= 0.2  # initial error of order 0.1
    assert trace.e_norm[-1] <= 1e-3 * e0
    envelope = np.maximum(1.3 * np.exp(-2.5 * trace.t) * e0, 1e-3 * e0)
    violations = int(np.sum(trace.e_norm > envelope))
    assert violations <= 0.05 * trace.steps
    assert trace.drift.max() <= 1e-8
    assert report.max_slip <= SLIP_BOUND
    assert elapsed <= 30.0
    announce(
        7,
        f"|e(5s)|/|e(0)| = {trace.e_norm[-1] / e0:.2e}, envelope violations "
        f"{violations}/{trace.steps}, drift {trace.drift.max():.1e}, slip {report.max_slip:.1e} m, "
        f"runtime {elapsed:.1f} s",
    )


def test_criterion_08_regulation(outdir):
    trace, report, _ = run_scenario(CONFIGS / "arm_regulation.json", out_dir=str(outdir / "run8"), quiet=True)
    dV = np.diff(trace.lyapunov)
    assert dV.max() <= 1e-9
    assert trace.e_norm[-1] <= 1e-4
    assert report.max_slip <= SLIP_BOUND
    announce(8, f"max per-step dV = {dV.max():.2e} (bound 1e-9), final |e| = {trace.e_norm[-1]:.2e}, "
             f"slip {report.max_slip:.1e} m")


def bundled_programs(arm, biped, rng):
    """Small program collection: synthetic toys plus model instances."""
    # (z, alpha, G, gamma, beta)
    corridor = (np.array([0.3, 1.0]), 4.0, np.diag([-0.5, -0.2]), np.array([0.8, -0.4]), 6.0)

    def toy(W, u_box, eq=None, cones=()):
        p = np.asarray(W).shape[0]
        eq_mat, eq_rhs = (np.zeros((0, p)), np.zeros(0)) if eq is None else eq
        return TorqueProgram.from_cones(
            W=np.asarray(W, float), eq_mat=np.asarray(eq_mat, float),
            eq_rhs=np.asarray(eq_rhs, float), cones=stack_cone_rows(cones, p),
            u_min=-u_box * np.ones(p), u_max=u_box * np.ones(p),
        )

    toys = [
        toy(np.diag([1.0, 2.0]), 4.0, cones=(corridor,)),
        toy(np.diag([1.0, 3.0]), 4.0, eq=(np.array([[1.0, 0.5]]), np.array([1.2])), cones=(corridor,)),
        toy(np.diag([2.0, 1.0, 0.5]), 3.0, eq=(np.array([[1.0, 1.0, -0.5]]), np.array([0.8]))),
    ]
    gains = ControllerGains.critically_damped(1, 5.0)
    model_programs = []
    for model, home, kind in ((arm, ARM_HOME, "link_orientation"), (biped, BIPED_HOME, "base_pitch")):
        state = random_manifold_state(model, rng, home, spread=0.1)
        frame = build_frame(model, state)
        task = build_task(frame, make_task(model, kind))
        cmd = tracking_torque(frame, task, task.x + 0.1, np.zeros(1), np.zeros(1), gains)
        model_programs.append(assemble_program(frame, cmd.tau_c))
    return toys, model_programs


def test_criterion_09_qcqp_solver(arm, biped, rng):
    toys, model_programs = bundled_programs(arm, biped, rng)

    # (a) duality gap at exit on every bundled program
    gaps = []
    for program in toys + model_programs:
        report = solve_barrier(program)
        assert report.status == "optimal", report.status
        assert report.duality_gap <= 1e-8
        gaps.append(report.duality_gap)

    # (b) inactive inequalities match the weighted least-norm closed form
    state = manifold_state(arm, ARM_HOME, scale=0.0)
    frame = build_frame(arm, state)
    task = build_task(frame, make_task(arm, "link_orientation"))
    gains = ControllerGains.critically_damped(1, 5.0)
    cmd = tracking_torque(frame, task, task.x + 0.05, np.zeros(1), np.zeros(1), gains)
    program = assemble_program(frame, cmd.tau_c)
    report = solve_barrier(program)
    assert report.status == "optimal"
    assert report.constraint_margins.min() > 1.0  # genuinely inactive
    E, W = program.eq_mat, program.W
    Winv = np.linalg.inv(W)
    u_cf = Winv @ E.T @ np.linalg.pinv(E @ Winv @ E.T) @ cmd.tau_c
    closed_form_err = float(np.abs(report.u_star - u_cf).max())
    assert closed_form_err <= 1e-6

    # (c) toy objectives within 1e-3 relative of the grid + polish oracle
    worst_rel = 0.0
    for program in toys:
        rep = solve_barrier(program)
        obj_oracle, _ = grid_polish_optimum(program)
        rel = abs(program.objective(rep.u_star) - obj_oracle) / max(1.0, abs(obj_oracle))
        worst_rel = max(worst_rel, rel)
    assert worst_rel <= 1e-3

    # (d) barrier gradient vs central finite differences
    res = phase1 = None
    from projctl.torque_qcqp import phase1_feasible_point

    phase1 = phase1_feasible_point(model_programs[0])
    u0 = phase1.u
    worst_grad = 0.0
    for eta in (1.0, 1e-3):
        grad = barrier_gradient(model_programs[0], u0, eta)
        fd = np.zeros_like(u0)
        h = 1e-6
        for j in range(u0.size):
            e = np.zeros_like(u0)
            e[j] = h
            fd[j] = (barrier_value(model_programs[0], u0 + e, eta)
                     - barrier_value(model_programs[0], u0 - e, eta)) / (2 * h)
        worst_grad = max(worst_grad, float(np.abs(grad - fd).max()) / max(1.0, float(np.abs(grad).max())))
    assert worst_grad <= 1e-6

    announce(
        9,
        f"gap max {max(gaps):.1e} <= 1e-8; closed form {closed_form_err:.1e} <= 1e-6; "
        f"grid oracle rel {worst_rel:.1e} <= 1e-3; gradient fd {worst_grad:.1e} <= 1e-6",
    )


def test_criterion_10_cone_enforcement(outdir):
    traces, report, _ = compare_controllers(
        CONFIGS / "compare_cone.json", out_dir=str(outdir / "run10"), quiet=True
    )
    rows = {row.optimizer: row for row in report.rows}
    assert rows["min_norm"].violation_count >= 1
    assert rows["qcqp"].violation_count == 0
    assert max(run_slips("compare_cone.json", traces)) <= SLIP_BOUND and report.max_slip <= SLIP_BOUND
    qc = traces["qcqp"]
    for i in range(qc.steps):
        for c in qc.active[i]:
            assert qc.lam[i, 3 * c + 2] > 0
            assert qc.margins[i, c] > 0
        assert np.all(qc.u[i] >= -25.0 - 1e-9) and np.all(qc.u[i] <= 25.0 + 1e-9)
    announce(
        10,
        f"min_norm violations = {rows['min_norm'].violation_count}, "
        f"qcqp violations = 0 across {qc.steps} steps, slip {report.max_slip:.1e} m",
    )


def test_criterion_11_power_dominance(outdir):
    traces, report, _ = compare_controllers(
        CONFIGS / "compare_hetero.json", out_dir=str(outdir / "run11"), quiet=True
    )
    rows = {row.optimizer: row for row in report.rows}
    mn, qc = rows["min_norm"], rows["qcqp"]
    assert mn.violation_count == 0 and qc.violation_count == 0
    assert max(run_slips("compare_hetero.json", traces)) <= SLIP_BOUND and report.max_slip <= SLIP_BOUND
    assert qc.dissipated_energy <= mn.dissipated_energy
    reduction = 1.0 - qc.dissipated_energy / mn.dissipated_energy
    assert reduction >= 0.05
    announce(
        11,
        f"energy min_norm = {mn.dissipated_energy:.4f} J, qcqp = {qc.dissipated_energy:.4f} J "
        f"({100 * reduction:.1f}% reduction, required >= 5%), slip {report.max_slip:.1e} m",
    )


def test_criterion_12_tradeoff_relaxation(biped, outdir):
    cfg = load_config(CONFIGS / "biped_single_relaxed.json")
    scenario = load_scenario(cfg, name="relax12")

    # pure qcqp on this scenario is equality-infeasible
    state0 = scenario.initial
    frame = build_frame(scenario.model, state0)
    task = build_task(frame, scenario.task)
    cmd = tracking_torque(frame, task, task.x + 0.15, np.zeros(1), np.zeros(1), scenario.gains)
    program = assemble_program(frame, cmd.tau_c)
    assert solve_barrier(program).status == "infeasible_equality"

    norms = []
    for rho in (1.0, 10.0, 100.0):
        relaxed = relax_program(program, frame, rho)
        assert np.linalg.eigvalsh(relaxed.obj_quad).min() > 0
        rep = solve_barrier(relaxed)
        assert rep.status == "relaxed"
        d = frame.M_bar_inv @ (cmd.tau_c - program.eq_mat @ rep.u_star)
        norms.append(float(np.linalg.norm(d)))
    assert norms[0] > norms[1] > norms[2]

    # W' > 0 at every step of the bundled relaxed run
    trace = simulate(scenario)
    nu = float(np.trace(scenario.model.mass_matrix(trace.q[0]))) / scenario.model.n
    wprime_min = np.inf
    for i in range(trace.steps):
        st = RobotState(t=trace.t[i], q=trace.q[i], q_dot=trace.q_dot[i], active_contacts=trace.active[i])
        fr = build_frame(scenario.model, st, nu=nu)
        Minv2 = fr.M_bar_inv @ fr.M_bar_inv
        E = fr.P @ scenario.model.actuation
        W = np.diag(scenario.model.motor_resistance / scenario.model.torque_constant**2)
        Wp = W + scenario.optimizer.rho * (E.T @ Minv2 @ E)
        wprime_min = min(wprime_min, float(np.linalg.eigvalsh(0.5 * (Wp + Wp.T)).min()))
    assert wprime_min > 0

    # relaxed-objective gradient vs finite differences
    rho = 10.0
    relaxed = relax_program(program, frame, rho)
    Wp, lin = relaxed.obj_quad, relaxed.obj_lin
    rng2 = np.random.default_rng(5)
    worst_grad = 0.0
    for _ in range(5):
        u = rng2.uniform(-5, 5, program.p)

        def full(v):
            d = frame.M_bar_inv @ (cmd.tau_c - program.eq_mat @ v)
            return float(v @ program.W @ v + rho * (d @ d))

        grad = 2.0 * Wp @ u + lin
        fd = np.zeros_like(u)
        h = 1e-6
        for j in range(u.size):
            e = np.zeros_like(u)
            e[j] = h
            fd[j] = (full(u + e) - full(u - e)) / (2 * h)
        worst_grad = max(worst_grad, float(np.abs(grad - fd).max()) / max(1.0, float(np.abs(grad).max())))
    assert worst_grad <= 1e-6

    announce(
        12,
        f"||d|| over rho (1, 10, 100) = ({norms[0]:.4f}, {norms[1]:.4f}, {norms[2]:.4f}) "
        f"monotone; min eig W' = {wprime_min:.3e} > 0; gradient fd {worst_grad:.1e}",
    )


def test_criterion_13_contact_switching(biped_switch_run):
    trace, report = biped_switch_run
    assert trace.q.shape[1] == 5 and trace.lam.shape[1] == 6  # fixed n and 3k columns

    switch_steps = [i for i in range(1, trace.steps) if trace.active[i] != trace.active[i - 1]]
    assert len(switch_steps) == 2
    for i in switch_steps:
        assert trace.drift[i] <= 1e-10

    # error re-converges after each switch
    for i in switch_steps:
        window = trace.e_norm[i:]
        peak = window.max()
        assert window[-1] <= 0.25 * max(peak, 1e-6)
    assert trace.e_norm[-1] <= 5e-3
    assert report.violation_count == 0
    assert report.max_slip <= SLIP_BOUND
    announce(
        13,
        f"switches at steps {switch_steps}, post-switch drift <= "
        f"{max(trace.drift[i] for i in switch_steps):.1e}, final |e| = {trace.e_norm[-1]:.2e}, "
        f"slip {report.max_slip:.1e} m",
    )
