"""Benchmark workloads: generated scenario configs and the checks on their outputs.

Each workload is a bundled config from configs/, shortened to a fixed
duration.  The seed varies only the task reference; seed 0 regenerates the
bundled config unchanged apart from `duration`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# relative tolerance of the seed-0 comparison against reference.json
REFERENCE_RTOL = 1e-6
REFERENCE_FILE = Path(__file__).with_name("reference.json")
ALLOWED_STATUS = ("optimal", "relaxed")
DRIFT_LIMIT = 1e-6  # the integrator's hard limit on |A(q) q_dot|


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # bundled config stem under configs/
    duration: float  # simulated seconds per segment
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "arm_track_minnorm",
            "arm_tracking",
            0.1,
            "frame building dominates (5 frames per step, 4 inside RK4 stages); allocation is a pseudo-inverse",
        ),
        Workload(
            "arm_cone_qcqp",
            "compare_cone",
            0.1,
            "the barrier solver dominates with the friction cone active (mu = 0.2, 1 Hz reference)",
        ),
        Workload(
            "biped_switch_relaxed",
            "biped_switch",
            1.35,
            "penalty program, 6-row two-foot stack, p = 2, and both contact switches (1.0 s, 1.3 s)",
        ),
    )
}


def bundled_config(root: Path, workload: Workload) -> dict:
    return json.loads((root / "configs" / f"{workload.config}.json").read_text())


def _perturb_reference(ref: dict, rng: random.Random) -> None:
    """Small seed-driven changes that keep every bundled scenario feasible."""
    if ref["type"] == "sinusoid":
        ref["amplitude"] = [a * rng.uniform(0.95, 1.0) for a in ref["amplitude"]]
        ref["phase"] = [p + rng.uniform(-0.05, 0.05) for p in ref["phase"]]
    elif ref["type"] == "constant":
        ref["value"] = [v + rng.uniform(-0.01, 0.01) for v in ref["value"]]
    else:
        raise ValueError(f"no perturbation for reference type {ref['type']!r}")


def make_config(root: Path, workload: Workload, seed: int) -> dict:
    """The workload's scenario config for a seed (seed 0: the bundled reference)."""
    cfg = bundled_config(root, workload)
    cfg["duration"] = workload.duration
    if seed:
        _perturb_reference(cfg["task"]["reference"], random.Random(seed))
    return cfg


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def reference_values(report) -> dict:
    return {
        "dissipated_energy": report.dissipated_energy,
        "final_tracking_error": report.final_tracking_error,
        "mean_newton_iters": report.mean_newton_iters,
    }


def check_segment(trace, report, paths, cfg: dict, expected: dict | None) -> list:
    """Problems with one segment's outputs; an empty list means it passed.

    expected holds the recorded seed-0 values, or None for other seeds.
    """
    problems = []
    dt = cfg["integrator"]["dt"]
    n_rows = int(round(cfg["duration"] / dt)) + 1
    if trace.steps != n_rows:
        problems.append(f"trace has {trace.steps} rows, expected {n_rows}")
    if report.violation_count != 0:
        problems.append(f"{report.violation_count} constraint violations")
    bad = sorted(set(trace.status) - set(ALLOWED_STATUS))
    if bad:
        problems.append(f"solver status {bad}")
    if not report.max_drift <= DRIFT_LIMIT:
        problems.append(f"max drift {report.max_drift:.3e} above {DRIFT_LIMIT:.0e}")
    for t_switch, ids in cfg.get("contacts", {}).get("schedule", []):
        i = int(round(t_switch / dt))
        if i < trace.steps and trace.active[i] != tuple(sorted(ids)):
            problems.append(f"active set {trace.active[i]} after the switch at t={t_switch}, expected {ids}")
    trace_path, report_path = paths
    if trace_path.read_text().count("\n") != n_rows + 1:
        problems.append(f"{trace_path.name} does not hold {n_rows} rows")
    if json.loads(report_path.read_text()) != json.loads(report.to_json()):
        problems.append(f"{report_path.name} differs from the returned report")
    if expected is not None:
        for key, want in expected.items():
            got = reference_values(report)[key]
            if not math.isclose(got, want, rel_tol=REFERENCE_RTOL, abs_tol=0.0):
                problems.append(f"{key} = {got!r}, reference {want!r} (rtol {REFERENCE_RTOL})")
    return problems
