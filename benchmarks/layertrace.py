"""Outside-in layer tracing for projctl.

Spans are recorded by rebinding the public functions each layer exposes in
the module namespaces that call them (projctl.runner, projctl.simulate,
projctl.constrained_dynamics, projctl.torque_qcqp); nothing in projctl is
edited.  Each span holds its name, the index of the span that was open when
it started (its parent), and its start and end times.  A layer's self time is
its span's duration minus the durations of its child spans.  Time the
benchmark's speed probe spent inside a span (a pause) is taken off that span
and every span around it.

A `build_frame` call made inside `step` is a child of the integrator span and
is counted as a stage frame, never as a control frame.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import importlib
import statistics
import time
from collections import Counter, defaultdict

from workloads import ALLOWED_STATUS

# (module, names) rebound with a timing wrapper.  The simulate module is
# imported by name because projctl/__init__.py re-exports the function
# `simulate`, which shadows the submodule as an attribute of the package.
SPAN_TARGETS = (
    ("projctl.runner", ("load_config", "load_scenario", "simulate", "build_report", "atomic_write")),
    (
        "projctl.simulate",
        (
            "build_frame",
            "build_task",
            "tracking_torque",
            "regulation_torque",
            "min_norm_actuation",
            "assemble_cone_constraints",
            "assemble_program",
            "relax_program",
            "contact_forces",
            "step",
            "null_projector",
        ),
    ),
    ("projctl.constrained_dynamics", ("null_projector", "projector_rate")),
    ("projctl.torque_qcqp", ("phase1_feasible_point",)),
)

ALLOC = frozenset(
    ("min_norm_actuation", "assemble_cone_constraints", "assemble_program", "relax_program", "solve_barrier")
)
CONTROL = frozenset(("tracking_torque", "regulation_torque"))
GEOMETRY = frozenset(("null_projector", "projector_rate"))
REPORT = frozenset(("build_report", "to_csv", "atomic_write"))
LOAD = frozenset(("load_config", "load_scenario"))
# a control tick's work: control frame, task map, control law, allocation
TICK = frozenset(("frame_control", "build_task")) | CONTROL | ALLOC
# model callbacks counted per call, besides each contact's A and A_dot
MODEL_CALLBACKS = ("mass_matrix", "coriolis_matrix", "gravity")


class Tracer:
    """In-memory spans, counters and solver reports of traced segments."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.model_evals = 0
        self.solves = []  # (newton_iters, centering_steps, status)
        self._open = []

    def clear(self):
        self.spans.clear()
        self.model_evals = 0
        self.solves.clear()

    def span(self, name, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, open_[-1] if open_ else -1, clock(), 0.0]
            spans.append(record)
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                record[3] = clock()

        return wrapper

    def solve_span(self, fn):
        """Span around solve_barrier that also keeps the solver's counts and status."""
        timed, solves = self.span("solve_barrier", fn), self.solves

        def wrapper(*args, **kwargs):
            report = timed(*args, **kwargs)
            solves.append((report.newton_iters, report.centering_steps, report.status))
            return report

        return wrapper

    def counted(self, fn):
        def wrapper(*args):
            self.model_evals += 1
            return fn(*args)

        return wrapper

    def counted_model(self, model):
        """A copy of model whose M, C, tau_g, A and A_dot callbacks are counted."""
        contacts = tuple(
            dataclasses.replace(
                c,
                jacobian=self.counted(c.jacobian),
                jacobian_rate=c.jacobian_rate and self.counted(c.jacobian_rate),
            )
            for c in model.contacts
        )
        callbacks = {name: self.counted(getattr(model, name)) for name in MODEL_CALLBACKS}
        return dataclasses.replace(model, contacts=contacts, **callbacks)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route projctl's layer calls through tracer until the block exits."""
    saved = []

    def rebind(owner, name, value):
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    try:
        for module_name, names in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            for name in names:
                rebind(module, name, tracer.span(name, getattr(module, name)))
        sim = importlib.import_module("projctl.simulate")
        rebind(sim, "solve_barrier", tracer.solve_span(sim.solve_barrier))
        rebind(sim.SimTrace, "to_csv", tracer.span("to_csv", sim.SimTrace.to_csv))
        runner = importlib.import_module("projctl.runner")
        build_model = runner.build_model
        rebind(runner, "build_model", lambda *a, **k: tracer.counted_model(build_model(*a, **k)))
        yield tracer
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


@dataclasses.dataclass
class SegmentProfile:
    """Per-layer totals of one traced segment (times in seconds)."""

    steps: int
    total: dict  # name -> inclusive time (build_frame split into frame_control / frame_stage)
    self_time: dict  # name -> self time
    calls: Counter
    ticks: list  # per control tick: frame + task + law + allocation time
    alloc_ticks: list  # per control tick: allocation time
    root_duration: float
    model_evals: int
    solves: list


def _durations(spans, pauses):
    """Span durations less the paused time that falls inside each span."""
    pauses = sorted(pauses)
    starts = [p[0] for p in pauses]
    cumulative = [0.0]
    for start, end in pauses:
        cumulative.append(cumulative[-1] + end - start)

    def paused_before(t):
        i = bisect.bisect_right(starts, t)
        if not i:
            return 0.0
        start, end = pauses[i - 1]
        return cumulative[i - 1] + min(t, end) - start

    return [end - start - (paused_before(end) - paused_before(start)) for _, _, start, end in spans]


def profile(tracer: Tracer, steps: int, pauses=()) -> SegmentProfile:
    """Aggregate one segment's record; its root span is the first span.

    pauses: (start, end) intervals spent outside the program during the
    segment; they are taken off every span that contains them.
    """
    spans = tracer.spans
    durations = _durations(spans, pauses)
    child_time = [0.0] * len(spans)
    for (name, parent, start, end), duration in zip(spans, durations):
        if parent >= 0:
            child_time[parent] += duration
    total, self_time, calls = defaultdict(float), defaultdict(float), Counter()
    ticks, alloc_ticks = [], []
    for i, (name, parent, start, end) in enumerate(spans):
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "build_frame":
            name = "frame_stage" if parent_name == "step" else "frame_control"
        duration = durations[i]
        total[name] += duration
        self_time[name] += duration - child_time[i]
        calls[name] += 1
        if parent_name == "simulate":
            if name == "frame_control":
                ticks.append(0.0)
                alloc_ticks.append(0.0)
            if ticks and name in TICK:
                ticks[-1] += duration
                if name in ALLOC:
                    alloc_ticks[-1] += duration
    return SegmentProfile(
        steps,
        dict(total),
        dict(self_time),
        calls,
        ticks,
        alloc_ticks,
        durations[0],
        tracer.model_evals,
        list(tracer.solves),
    )


def _percentile(values, q):
    values = sorted(values)
    if not values:
        return 0.0
    return values[min(len(values) - 1, int(q * len(values)))]


def layer_metrics(profiles, dt: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) over traced segments."""
    steps = sum(p.steps for p in profiles)
    segments = len(profiles)

    def us(names):
        return sum(p.total.get(n, 0.0) for p in profiles for n in names) / steps * 1e6

    def self_us(names):
        return sum(p.self_time.get(n, 0.0) for p in profiles for n in names) / steps * 1e6

    def per_step(names):
        return sum(p.calls[n] for p in profiles for n in names) / steps

    ticks = [t for p in profiles for t in p.ticks]
    alloc_ticks = [t for p in profiles for t in p.alloc_ticks]
    solves = [s for p in profiles for s in p.solves]
    return {
        "models.evals_per_step": (sum(p.model_evals for p in profiles) / steps, "count"),
        "geometry.null_projector.calls_per_step": (per_step(["null_projector"]), "count"),
        "geometry.self_us_per_step": (self_us(GEOMETRY), "us"),
        "dynamics.frame_control.us_per_step": (us(["frame_control"]), "us"),
        "dynamics.frame_stage.us_per_step": (us(["frame_stage"]), "us"),
        "dynamics.frames_per_step": (per_step(["frame_control", "frame_stage"]), "count"),
        "dynamics.contact_forces.us_per_step": (us(["contact_forces"]), "us"),
        "task.us_per_step": (us(["build_task"]), "us"),
        "control.us_per_step": (us(CONTROL), "us"),
        "alloc.us_per_step": (us(ALLOC), "us"),
        "alloc.solve_us_p50": (_percentile(alloc_ticks, 0.5) * 1e6, "us"),
        "alloc.solve_us_p99": (_percentile(alloc_ticks, 0.99) * 1e6, "us"),
        "alloc.newton_per_solve": (statistics.fmean(s[0] for s in solves) if solves else 0.0, "count"),
        "alloc.centering_per_solve": (statistics.fmean(s[1] for s in solves) if solves else 0.0, "count"),
        "alloc.phase1_calls": (sum(p.calls["phase1_feasible_point"] for p in profiles) / segments, "1/segment"),
        "alloc.nonoptimal": (sum(s[2] not in ALLOWED_STATUS for s in solves), "count"),
        "integrator.us_per_step": (us(["step"]), "us"),
        "integrator.self_us_per_step": (self_us(["step"]), "us"),
        "sim.loop_self_us_per_step": (self_us(["simulate"]), "us"),
        "tick.p50_us": (_percentile(ticks, 0.5) * 1e6, "us"),
        "tick.p99_us": (_percentile(ticks, 0.99) * 1e6, "us"),
        "tick.over_budget_frac": (sum(t > dt for t in ticks) / len(ticks), "fraction"),
        "report.us_per_step": (us(REPORT), "us"),
        "load.us_per_step": (us(LOAD), "us"),
    }
