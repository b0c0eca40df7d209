"""The run's outputs: trace CSV layout, violation count, contact slip and compare rows."""

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from projctl.constrained_dynamics import ContactSpec
from projctl.runner import (
    VIOLATION_TOL,
    build_report,
    compare_controllers,
    contact_slip,
    count_violations,
    load_config,
    load_scenario,
)
from projctl.simulate import SimTrace, simulate

from conftest import short_scenario
from oracles import count_violations_reference, trace_csv_reference

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TOL = VIOLATION_TOL
U_MIN, U_MAX = -1.0, 1.0
# values on both sides of each test: lam_z and margins against TOL, u against the box [U_MIN, U_MAX]
EDGES = (-1.0, 0.0, TOL, 2 * TOL, 0.5, U_MIN - 2 * TOL, U_MIN - 0.5 * TOL, U_MAX + 0.5 * TOL, U_MAX + 2 * TOL)
VALUES = st.one_of(st.sampled_from(EDGES), st.floats(-1e3, 1e3), st.floats(allow_nan=True, allow_infinity=True))


def synthetic_trace(steps, n, l, p, k, values, active, status, newton):
    def block(width):
        return values[: steps * width].reshape(steps, width)

    return SimTrace(
        name="synthetic",
        t=block(1)[:, 0],
        q=block(n),
        q_dot=block(n)[::-1],
        x=block(l),
        x_d=block(l)[::-1],
        e_norm=block(2)[:, 1],
        u=block(p),
        lam=block(3 * k),
        margins=block(k + 1)[:, 1:],
        p_loss=block(3)[:, 2],
        lyapunov=block(1)[::-1, 0],
        phi_norm=block(2)[::-1, 0],
        d_norm=block(3)[:, 1],
        newton_iters=np.asarray(newton),
        centering=np.asarray(newton) // 2,
        eta=block(4)[:, 3],
        status=list(status),
        drift=np.zeros(steps),
        active=list(active),
    )


@st.composite
def traces(draw):
    steps = draw(st.integers(1, 6))
    k = draw(st.sampled_from((1, 2)))
    n, l, p = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    width = max(n, l, p, 3 * k, k + 1, 4)
    values = draw(arrays(np.float64, steps * width, elements=VALUES))
    subsets = [(), *((c,) for c in range(k)), tuple(range(k))]
    active = draw(st.lists(st.sampled_from(subsets), min_size=steps, max_size=steps))
    status = draw(st.lists(st.sampled_from(("optimal", "relaxed")), min_size=steps, max_size=steps))
    newton = draw(st.lists(st.integers(0, 60), min_size=steps, max_size=steps))
    return synthetic_trace(steps, n, l, p, k, values, active, status, newton)


class TestTraceCsv:
    @settings(max_examples=150, deadline=None)
    @given(traces())
    def test_csv_matches_the_per_step_formatter(self, trace):
        assert trace.to_csv() == trace_csv_reference(trace)

    def test_two_contact_biped_header(self):
        trace = simulate(load_scenario(dict(load_config(CONFIGS / "biped_switch.json"), duration=0.002)))
        assert trace.margins.shape[1] == 2
        assert trace.to_csv().splitlines()[0] == (
            "t,q0,q1,q2,q3,q4,dq0,dq1,dq2,dq3,dq4,x0,xd0,e_norm,u0,u1,"
            "lam_x_0,lam_y_0,lam_z_0,margin_0,lam_x_1,lam_y_1,lam_z_1,margin_1,"
            "p_loss,lyapunov,phi_norm,d_norm,newton_iters,eta,status"
        )


class TestViolationCount:
    @settings(max_examples=300, deadline=None)
    @given(traces())
    def test_count_matches_the_per_step_loop(self, trace):
        u_min, u_max = np.full(trace.u.shape[1], U_MIN), np.full(trace.u.shape[1], U_MAX)
        assert count_violations(trace, u_min, u_max) == count_violations_reference(trace, u_min, u_max, TOL)

    def test_each_kind_counts_once_and_inactive_contacts_never(self):
        good = [1.0, 0.0, 1.0, 1.0, 0.0, 1.0]  # lam of contacts 0 and 1: inside the cone
        rows = [
            # (active, lam, margins, u, violated)
            ((0, 1), good, [0.5, 0.5], [0.0, 0.0], False),
            ((0,), [1.0, 0.0, TOL, *good[3:]], [0.5, 0.5], [0.0, 0.0], True),  # unilaterality
            ((1,), good, [0.5, 0.0], [0.0, 0.0], True),  # friction cone
            ((), good, [0.5, 0.5], [U_MIN - 2 * TOL, 0.0], True),  # below the box
            ((0,), good, [0.5, 0.5], [0.0, U_MAX + 2 * TOL], True),  # above the box
            ((0,), [*good[:3], 0.0, 0.0, -5.0], [0.5, -1.0], [0.0, 0.0], False),  # contact 1 inactive
            ((), [0.0, 0.0, -5.0, 0.0, 0.0, -5.0], [-1.0, -1.0], [U_MAX + 0.5 * TOL, 0.0], False),
            ((0, 1), [1.0, 0.0, -1.0, 1.0, 0.0, -1.0], [-1.0, -1.0], [U_MAX + 1.0, 0.0], True),  # all at once
        ]
        active, lam, margins, u, violated = zip(*rows)
        trace = synthetic_trace(len(rows), 1, 1, 2, 2, np.zeros(6 * len(rows)), active, ["optimal"] * len(rows),
                                [0] * len(rows))
        trace.lam, trace.margins, trace.u = np.array(lam), np.array(margins), np.array(u)
        expected = sum(violated)
        assert count_violations(trace, np.full(2, U_MIN), np.full(2, U_MAX)) == expected == 5
        assert count_violations_reference(trace, np.full(2, U_MIN), np.full(2, U_MAX), TOL) == expected


class TestContactSlip:
    def test_offset_within_a_run_and_a_fresh_anchor_after_lift_off(self):
        # contact 0's point is q itself; contact 1 has no point and is skipped
        def zero_rate(q, qd):
            return np.zeros((3, 3))

        pin = ContactSpec(jacobian=lambda q: -np.eye(3), friction=1.0, jacobian_rate=zero_rate,
                          point=lambda q: np.asarray(q, dtype=float))
        pointless = ContactSpec(jacobian=lambda q: -np.eye(3), friction=1.0, jacobian_rate=zero_rate)
        p0 = np.array([0.2, 0.0, -0.1])
        d = np.array([3e-4, 0.0, -4e-4])  # |d| = 5e-4
        lifted, elsewhere = p0 + [0.0, 0.0, 0.5], p0 + [1.0, 0.0, 0.0]
        rows = [
            # (active, q)
            ((0, 1), p0), ((0, 1), p0), ((0, 1), p0),
            ((0,), p0 + d), ((0,), p0 + d),  # slips by d mid-run
            ((1,), lifted), ((1,), lifted),  # lift-off
            ((0, 1), elsewhere), ((0, 1), elsewhere), ((0,), elsewhere),  # re-touches 1 m away
        ]
        active, q = zip(*rows)
        trace = synthetic_trace(len(rows), 3, 1, 2, 2, np.zeros(6 * len(rows)), active, ["optimal"] * len(rows),
                                [0] * len(rows))
        trace.q = np.array(q)
        assert abs(contact_slip(trace, (pin, pointless)) - np.linalg.norm(d)) <= 1e-15

    def test_bundled_single_support_run_holds_its_foot(self):
        scenario = short_scenario("biped_single_relaxed.json", 0.3)
        assert build_report(simulate(scenario), scenario).max_slip <= 1e-9


class TestCompareRows:
    def test_rows_carry_each_runs_report(self, tmp_path):
        cfg = load_config(CONFIGS / "compare_cone.json")
        cfg.update(duration=0.02, output={"dir": str(tmp_path), "prefix": "cone"})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        _, _, report_path = compare_controllers(path, quiet=True)
        rows = json.loads(Path(report_path).read_text(encoding="utf-8"))["rows"]
        assert [row["optimizer"] for row in rows] == cfg["optimizer"]["types"]
        for row in rows:
            kind = row["optimizer"]
            scenario = load_scenario(cfg, name=f"cone_{kind}", optimizer_kind=kind)
            trace = simulate(scenario)
            own = {"optimizer", "max_tracking_error", "trace_file"}
            shared = {key: value for key, value in asdict(build_report(trace, scenario)).items() if key in row}
            assert set(row) == own | set(shared)
            assert {key: row[key] for key in shared} == shared
            assert row["max_tracking_error"] == float(trace.e_norm.max())
            assert Path(row["trace_file"]).read_text(encoding="utf-8") == trace.to_csv()
