"""Scenario configs, run orchestration and report/trace output.

A scenario is one JSON document (see configs/ for bundled examples):

    {
      "model":         {"type": "planar_arm", "params": {...}},
      "initial_state": {"q": [...], "q_dot": [...], "active_contacts": [0]},
      "task":          {"type": "link_orientation",
                        "reference": {"type": "sinusoid", "center": [...],
                                       "amplitude": [...], "frequency": [...],
                                       "phase": [...]}},
      "controller":    {"type": "tracking", "gains": {"omega": 5.0}},
      "optimizer":     {"type": "qcqp", "types": ["min_norm", "qcqp"], "rho": 10.0},
      "contacts":      {"schedule": [[1.0, [0]], [1.3, [0, 1]]]},
      "integrator":    {"dt": 0.001, "method": "rk4"},
      "duration":      5.0,
      "output":        {"dir": "out", "prefix": "arm_tracking"}
    }

`run` allocates with optimizer.type; `compare` runs once per entry of
optimizer.types.  Validation errors carry the offending field path; a key the
loader does not read, such as a misspelt one, is an error too.  Outputs (trace
CSV plus a JSON run report) are written atomically and contain no timestamps,
so a fixed config produces byte-identical files.  `run` and `compare` share one run path,
_run: load the scenario, simulate it, write its trace, build its report.  The
CSV layout itself is SimTrace.columns() in simulate.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .constrained_dynamics import ContactSpec, RobotState
from .control_laws import ControllerGains
from .errors import ConfigError, InputError
from .models import _is_number, build_model, make_task
from .simulate import (
    VIOLATION_TOL,
    OptimizerSpec,
    Scenario,
    SimTrace,
    Trajectory,
    constant_reference,
    simulate,
    sinusoid_reference,
)


def _require(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return cfg[key]


def _known(cfg: dict, path: str, keys: Sequence[str]) -> dict:
    """cfg, the object at path, once it is known to hold no key outside keys."""
    for key in cfg:
        if key not in keys:
            raise ConfigError(f"{path}.{key}" if path else key, f"not read here; expected one of {', '.join(keys)}")
    return cfg


def _section(cfg: dict, key: str, path: str, keys: Optional[Sequence[str]] = None, optional: bool = False) -> dict:
    """The config section cfg[key]: a JSON object ({} if optional and absent), holding only keys if given."""
    if optional and key not in cfg:
        return {}
    value = _require(cfg, key, path)
    dotted = f"{path}.{key}" if path else key
    if not isinstance(value, dict):
        raise ConfigError(dotted, f"expected an object, got {type(value).__name__}")
    return value if keys is None else _known(value, dotted, keys)


def _as_number(value, path: str, positive=False) -> float:
    if not _is_number(value):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(path, f"must be positive, got {value}")
    return float(value)


def _as_vector(value, path: str, sizes: Tuple[int, ...] = ()) -> np.ndarray:
    """A list of finite numbers, with one of the given lengths if any are given."""
    if not isinstance(value, list) or not all(_is_number(v) for v in value):
        raise ConfigError(path, "expected a list of finite numbers")
    if sizes and len(value) not in sizes:
        raise ConfigError(path, f"expected {' or '.join(map(str, sorted(set(sizes))))} entries, got {len(value)}")
    return np.asarray(value, dtype=float)


def _is_index_list(value, k: int) -> bool:
    """A JSON list of distinct contact indices: integers (not booleans) in [0, k)."""
    return (
        isinstance(value, list)
        and all(isinstance(i, int) and not isinstance(i, bool) and 0 <= i < k for i in value)
        and len(set(value)) == len(value)
    )


def _gain_matrix(value, dim: int, path: str) -> np.ndarray:
    if _is_number(value):
        return float(value) * np.eye(dim)
    if (
        isinstance(value, list)
        and len(value) == dim
        and all(isinstance(row, list) and len(row) == dim and all(_is_number(v) for v in row) for row in value)
    ):
        return np.asarray(value, dtype=float)
    raise ConfigError(path, f"expected a finite number or a {dim}x{dim} matrix of finite numbers")


def _build_reference(cfg: dict, dim: int, path: str) -> Trajectory:
    kind = _require(cfg, "type", path)
    if kind == "constant":
        _known(cfg, path, ("type", "value"))
        return constant_reference(_as_vector(_require(cfg, "value", path), f"{path}.value", (dim,)))
    if kind == "sinusoid":
        # amplitude, frequency and phase take one entry shared by every task coordinate, or dim
        _known(cfg, path, ("type", "center", "amplitude", "frequency", "phase"))
        center = _as_vector(_require(cfg, "center", path), f"{path}.center", (dim,))
        amp = _as_vector(_require(cfg, "amplitude", path), f"{path}.amplitude", (1, dim))
        freq = _as_vector(_require(cfg, "frequency", path), f"{path}.frequency", (1, dim))
        phase = cfg.get("phase")
        phase = _as_vector(phase, f"{path}.phase", (1, dim)) if phase is not None else None
        try:
            return sinusoid_reference(center, amp, freq, phase)
        except InputError as exc:  # an overflow: the message starts with the field's name (frequency as frequency_hz)
            raise ConfigError(f"{path}.{str(exc).split()[0].replace('_hz', '')}", str(exc)) from None
    raise ConfigError(f"{path}.type", f"unknown reference type '{kind}'")


def _build_optimizer(cfg: dict, kind: str, path: str) -> OptimizerSpec:
    rho = _as_number(cfg.get("rho", OptimizerSpec.rho), f"{path}.rho", positive=True)
    try:
        return OptimizerSpec(kind=kind, rho=rho)
    except InputError as exc:
        raise ConfigError(f"{path}.type", str(exc)) from None


def load_scenario(cfg: dict, name: str = "scenario", optimizer_kind: Optional[str] = None) -> Scenario:
    """Turn a parsed config document into a runnable Scenario."""
    if not isinstance(cfg, dict):
        raise ConfigError("", "config root must be an object")
    _known(cfg, "", ("model", "initial_state", "task", "controller", "optimizer", "contacts", "integrator",
                     "duration", "output"))

    mcfg = _section(cfg, "model", "", ("type", "params"))
    kind = _require(mcfg, "type", "model")
    params = _section(mcfg, "params", "model", optional=True)
    try:
        model = build_model(kind, params)
    except InputError as exc:  # a field's message starts with its name
        key = str(exc).split()[0]
        raise ConfigError(f"model.params.{key}" if key in params else "model.params", str(exc)) from None

    scfg = _section(cfg, "initial_state", "", ("q", "q_dot", "active_contacts"))
    q = _as_vector(_require(scfg, "q", "initial_state"), "initial_state.q", (model.n,))
    q_dot = _as_vector(_require(scfg, "q_dot", "initial_state"), "initial_state.q_dot", (model.n,))
    index_rule = f"contact indices must be distinct integers in [0, {model.k})"
    active = scfg.get("active_contacts", [])
    if not _is_index_list(active, model.k):
        raise ConfigError("initial_state.active_contacts", index_rule)
    initial = RobotState(t=0.0, q=q, q_dot=q_dot, active_contacts=tuple(active))

    tcfg = _section(cfg, "task", "", ("type", "indices", "reference"))
    ttype = _require(tcfg, "type", "task")
    indices = {"indices": _require(tcfg, "indices", "task")} if ttype == "joint" else {}
    try:
        task = make_task(model, ttype, **indices)
    except InputError as exc:
        raise ConfigError("task.indices" if indices else "task.type", str(exc)) from None
    if "indices" in tcfg and not indices:
        raise ConfigError("task.indices", f"only joint tasks take indices, not '{ttype}'")
    reference = _build_reference(_section(tcfg, "reference", "task"), task.dim, "task.reference")

    ccfg = _section(cfg, "controller", "", ("type", "gains"))
    ctype = _require(ccfg, "type", "controller")
    if ctype not in ("tracking", "regulation"):
        raise ConfigError("controller.type", f"unknown controller '{ctype}'")
    gcfg = _section(ccfg, "gains", "controller")
    kd_key, kd_dim = ("kd_task", task.dim) if ctype == "tracking" else ("kd_joint", model.n)
    _known(gcfg, "controller.gains", ("omega",) if "omega" in gcfg else ("kp_task", kd_key))
    if "omega" in gcfg:
        omega = _as_number(gcfg["omega"], "controller.gains.omega", positive=True)
        gains = ControllerGains(K_P=omega**2 * np.eye(task.dim), K_D=2.0 * omega * np.eye(kd_dim))
    else:
        paths = {"K_P": "controller.gains.kp_task", "K_D": f"controller.gains.{kd_key}"}
        kp = _gain_matrix(_require(gcfg, "kp_task", "controller.gains"), task.dim, paths["K_P"])
        kd = _gain_matrix(_require(gcfg, kd_key, "controller.gains"), kd_dim, paths["K_D"])
        try:
            gains = ControllerGains(K_P=kp, K_D=kd)
        except InputError as exc:  # the message starts with the failing field's name
            raise ConfigError(paths[str(exc).split()[0]], str(exc)) from None

    ocfg = _section(cfg, "optimizer", "", ("type", "types", "rho"))
    if optimizer_kind is None:
        optimizer_kind = _require(ocfg, "type", "optimizer")
        if not isinstance(optimizer_kind, str):
            raise ConfigError("optimizer.type", "expected a string (use 'types' only with compare)")
    optimizer = _build_optimizer(ocfg, optimizer_kind, "optimizer")

    icfg = _section(cfg, "integrator", "", ("dt", "method"), optional=True)
    if icfg.get("method", "rk4") != "rk4":
        raise ConfigError("integrator.method", f"only 'rk4' is supported, got {icfg['method']!r}")
    dt = _as_number(icfg.get("dt", Scenario.dt), "integrator.dt", positive=True)

    schedule: List[Tuple[float, Tuple[int, ...]]] = []
    entries = _section(cfg, "contacts", "", ("schedule",), optional=True).get("schedule", [])
    if not isinstance(entries, list):
        raise ConfigError("contacts.schedule", "expected a list of [time, [contact indices]] entries")
    for i, entry in enumerate(entries):
        p = f"contacts.schedule[{i}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigError(p, "expected [time, [contact indices]]")
        t_sw = _as_number(entry[0], f"{p}[0]")
        ids = entry[1]
        if not _is_index_list(ids, model.k):
            raise ConfigError(f"{p}[1]", index_rule)
        schedule.append((t_sw, tuple(sorted(ids))))

    duration = _as_number(_require(cfg, "duration", ""), "duration", positive=True)
    try:
        return Scenario(
            model=model,
            initial=initial,
            task=task,
            reference=reference,
            controller=ctype,
            gains=gains,
            optimizer=optimizer,
            duration=duration,
            dt=dt,
            schedule=tuple(schedule),
            name=name,
        )
    except InputError as exc:  # the checks left to fail here: duration against dt, and the schedule order
        raise ConfigError("duration" if str(exc).startswith("duration") else "contacts.schedule", str(exc)) from None


def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(str(path), "config file not found")
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(str(path), "config root must be an object")
    return cfg


# ---------------------------------------------------------------------------
# reporting


@dataclass
class RunSummary:
    """Figures of one run, shared by its report and by its row in a comparison."""

    final_tracking_error: float
    dissipated_energy: float
    violation_count: int
    mean_newton_iters: float


@dataclass
class ControllerRow(RunSummary):
    optimizer: str
    max_tracking_error: float
    trace_file: str


@dataclass
class RunReport(RunSummary):
    scenario: str
    mean_centering_steps: float
    max_drift: float
    max_slip: float  # m, see contact_slip
    rows: List[ControllerRow] = field(default_factory=list)
    power_dominance_ok: Optional[bool] = None
    exit_status: str = "ok"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def count_violations(trace: SimTrace, u_min, u_max) -> int:
    """Steps violating unilaterality or the friction cone at an active contact, or the torque box."""
    active = trace.active_mask()
    cone_bad = active & ((trace.lam[:, 2::3] <= VIOLATION_TOL) | (trace.margins <= VIOLATION_TOL))
    box_bad = (trace.u < u_min - VIOLATION_TOL) | (trace.u > u_max + VIOLATION_TOL)
    return int(np.count_nonzero(cone_bad.any(axis=1) | box_bad.any(axis=1)))


def contact_slip(trace: SimTrace, contacts: Sequence[ContactSpec]) -> float:
    """Largest distance (m) of an active contact's point from its position on the first row
    of its contact run (a maximal stretch of rows where the contact is active); contacts with
    no point are skipped."""
    active = trace.active_mask()
    worst = 0.0
    for c, contact in enumerate(contacts):
        rows = np.flatnonzero(active[:, c])
        if contact.point is None or not rows.size:
            continue
        points = np.array([contact.point(q) for q in trace.q[rows]])
        # each row's anchor is the latest run start at or before it
        starts = np.diff(rows, prepend=-2) > 1
        anchor = np.maximum.accumulate(np.where(starts, np.arange(rows.size), 0))
        worst = max(worst, float(np.linalg.norm(points - points[anchor], axis=1).max()))
    return worst


def build_report(trace: SimTrace, scenario: Scenario) -> RunReport:
    qsteps = trace.newton_iters > 0
    return RunReport(
        scenario=scenario.name,
        final_tracking_error=float(trace.e_norm[-1]),
        dissipated_energy=float(np.trapezoid(trace.p_loss, trace.t)),
        violation_count=count_violations(trace, scenario.model.u_min, scenario.model.u_max),
        mean_newton_iters=float(trace.newton_iters[qsteps].mean()) if qsteps.any() else 0.0,
        mean_centering_steps=float(trace.centering[qsteps].mean()) if qsteps.any() else 0.0,
        max_drift=float(trace.drift.max()),
        max_slip=contact_slip(trace, scenario.model.contacts),
    )


def atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def output_paths(cfg: dict, out_dir: Optional[str], prefix_default: str) -> Tuple[Path, str]:
    ocfg = _section(cfg, "output", "", ("dir", "prefix"), optional=True)
    for key in ("dir", "prefix"):
        if not isinstance(ocfg.get(key, ""), str):
            raise ConfigError(f"output.{key}", "expected a string")
    directory = Path(out_dir) if out_dir else Path(ocfg.get("dir", "out"))
    prefix = ocfg.get("prefix", prefix_default)
    return directory, prefix


def _run(cfg: dict, name: str, trace_path: Path, optimizer_kind: Optional[str] = None):
    """Load, simulate and report one scenario, writing its trace CSV to trace_path."""
    scenario = load_scenario(cfg, name=name, optimizer_kind=optimizer_kind)
    trace = simulate(scenario)
    atomic_write(trace_path, trace.to_csv())
    return trace, build_report(trace, scenario)


def run_scenario(config_path, out_dir: Optional[str] = None, quiet: bool = False):
    """Run one scenario end to end; writes <prefix>_trace.csv and <prefix>_report.json."""
    cfg = load_config(config_path)
    directory, prefix = output_paths(cfg, out_dir, Path(str(config_path)).stem)
    trace_path = directory / f"{prefix}_trace.csv"
    report_path = directory / f"{prefix}_report.json"
    trace, report = _run(cfg, prefix, trace_path)
    atomic_write(report_path, report.to_json())
    if not quiet:
        print(f"scenario {report.scenario}: final |e| = {report.final_tracking_error:.3e}, "
              f"energy = {report.dissipated_energy:.6f} J, violations = {report.violation_count}, "
              f"max slip = {report.max_slip:.1e} m")
        print(f"wrote {trace_path} and {report_path}")
    return trace, report, (trace_path, report_path)


def compare_controllers(config_path, out_dir: Optional[str] = None, quiet: bool = False):
    """Run the same scenario under each optimizer named in optimizer.types.

    Reports dissipated energy and violation counts side by side and checks
    power dominance: with every inequality inactive, the power-weighted
    program can never dissipate more than the unweighted least-norm rule.
    """
    cfg = load_config(config_path)
    ocfg = _section(cfg, "optimizer", "")
    kinds = ocfg.get("types")
    if not isinstance(kinds, list) or len(kinds) < 2:
        raise ConfigError("optimizer.types", "compare needs a list of at least two optimizer types")
    for i, kind in enumerate(kinds):  # every entry is checked before the first run writes a file
        try:
            OptimizerSpec(kind=kind)
        except InputError as exc:
            raise ConfigError(f"optimizer.types[{i}]", str(exc)) from None
        if kind in kinds[:i]:  # a second run would write over the first one's trace
            raise ConfigError(f"optimizer.types[{i}]", f"'{kind}' is listed twice")
    directory, prefix = output_paths(cfg, out_dir, Path(str(config_path)).stem)

    rows, summaries, traces = [], [], {}
    for kind in kinds:
        trace_path = directory / f"{prefix}_{kind}_trace.csv"
        traces[kind], summary = _run(cfg, f"{prefix}_{kind}", trace_path, optimizer_kind=kind)
        summaries.append(summary)
        shared = {f.name: getattr(summary, f.name) for f in fields(RunSummary)}
        rows.append(ControllerRow(**shared, optimizer=kind, max_tracking_error=float(traces[kind].e_norm.max()),
                                  trace_file=str(trace_path)))

    dominance = None
    by_kind = {row.optimizer: row for row in rows}
    if "min_norm" in by_kind and "qcqp" in by_kind:
        mn, qc = by_kind["min_norm"], by_kind["qcqp"]
        if mn.violation_count == 0 and qc.violation_count == 0:
            dominance = qc.dissipated_energy <= mn.dissipated_energy * (1 + 1e-9)

    # summary fields come from the first optimizer's run; drift and slip are the worst of all runs
    report = replace(summaries[0], scenario=prefix, max_drift=max(summary.max_drift for summary in summaries),
                     max_slip=max(summary.max_slip for summary in summaries), rows=rows,
                     power_dominance_ok=dominance)
    report_path = directory / f"{prefix}_compare.json"
    atomic_write(report_path, report.to_json())
    if not quiet:
        for row in rows:
            print(f"{row.optimizer:>12}: energy = {row.dissipated_energy:.6f} J, "
                  f"violations = {row.violation_count}, final |e| = {row.final_tracking_error:.3e}")
        if dominance is not None:
            print(f"power dominance (qcqp <= min_norm): {'ok' if dominance else 'VIOLATED'}")
        print(f"wrote {report_path}")
    return traces, report, report_path
