"""Record every barrier solve of a bundled run, replay them in-process, and time and digest the reports.

    python tools/solver_replay.py CONFIG [--seconds S]

CONFIG is a bundled config (a file name under configs/, or a path).  The run is
cut to S simulated seconds (default: the config's own duration); S must be a
whole number of steps.  Every `solve_barrier` call the simulator makes is
recorded with its program and warm start.  Each recorded solve is
then run again on its program, whose rows were stacked where the program was
built, outside the timed call as in the run, and timed with
`time.perf_counter`.  The tool prints:

- the number of solves and the median µs per Newton step (each solve's time
  divided by its Newton count, over the solves that took a Newton step);
- the Newton and centering totals;
- one sha256 over every replayed report, field by field in field order.

Two checkouts whose solvers return the same reports bit for bit print the same
digest on the same machine.  The digest is not portable across machines: the
BLAS kernels behind numpy may round differently on another CPU.  The µs figure
comes from one pass over the solves, and it is bimodal across interpreter
processes: on a shared 2-vCPU VM, `compare_cone.json --seconds 0.5` read
37-43 µs in some processes and 72-79 µs in others, and `biped_switch.json
--seconds 1.35` 34-40 µs and 63-69 µs, each steady within a process (five
processes per config for each of two trees).  One run per tree therefore cannot
compare two solvers; medians over several processes, alternating between the
trees, can.

A config that cannot be loaded, or a --seconds that is not a whole number of
steps, prints `config error: ...` to stderr and exits 2, as `projctl` does.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import statistics
import sys
import time
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
sys.path.insert(0, str(ROOT / "src"))

from projctl.errors import ConfigError  # noqa: E402
from projctl.runner import load_config, load_scenario  # noqa: E402
from projctl.torque_qcqp import SolverReport, TorqueProgram, solve_barrier  # noqa: E402

# the module: the package's `simulate` attribute is the function of that name
simulate_module = importlib.import_module("projctl.simulate")


class Solve(NamedTuple):
    """One recorded solve_barrier input."""

    program: TorqueProgram
    u0: Optional[np.ndarray]


def record(config: Path, seconds: Optional[float] = None) -> List[Solve]:
    """Every solve_barrier input of the config's run, cut to `seconds` when given, in call order."""
    cfg = load_config(config)
    if seconds is not None:
        cfg["duration"] = seconds
    scenario = load_scenario(cfg, name=config.stem)
    calls: List[Solve] = []

    def recording(program, u0=None):
        calls.append(Solve(program, None if u0 is None else u0.copy()))
        return solve_barrier(program, u0=u0)

    original = simulate_module.solve_barrier
    simulate_module.solve_barrier = recording
    try:
        simulate_module.simulate(scenario)
    finally:
        simulate_module.solve_barrier = original
    return calls


def replay(calls: Sequence[Solve]) -> Tuple[List[SolverReport], List[float]]:
    """Each solve run again on its program: (reports, seconds per solve)."""
    reports, seconds = [], []
    for program, u0 in calls:
        start = time.perf_counter()
        report = solve_barrier(program, u0=u0)
        seconds.append(time.perf_counter() - start)
        reports.append(report)
    return reports, seconds


def report_digest(reports: Sequence[SolverReport]) -> str:
    """sha256 over every field of every report: arrays by dtype, shape and bytes, numbers by repr."""
    h = hashlib.sha256()
    for report in reports:
        for f in dataclasses.fields(report):
            value = getattr(report, f.name)
            h.update(f.name.encode())
            if isinstance(value, np.ndarray):
                h.update(f"{value.dtype.str}{value.shape}".encode())
                h.update(np.ascontiguousarray(value).tobytes())
            else:
                # repr(float) round-trips, so equal reprs mean equal bits (NaN aside)
                h.update(repr(value).encode())
    return h.hexdigest()


def summary_lines(reports: Sequence[SolverReport], seconds: Sequence[float]) -> List[str]:
    per_newton = [1e6 * s / r.newton_iters for r, s in zip(reports, seconds) if r.newton_iters]
    median = f"{statistics.median(per_newton):.2f}" if per_newton else "n/a"
    return [
        f"solves: {len(reports)}",
        f"us_per_newton_p50: {median}",
        f"newton_total: {sum(r.newton_iters for r in reports)}",
        f"centering_total: {sum(r.centering_steps for r in reports)}",
        f"report_sha256: {report_digest(reports)}",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="bundled config: a file name under configs/, or a path")
    parser.add_argument("--seconds", type=float, default=None, help="simulated seconds (default: the config's)")
    args = parser.parse_args(argv)
    config = Path(args.config)
    if not config.exists():
        config = CONFIGS / args.config
    try:
        calls = record(config, args.seconds)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for line in summary_lines(*replay(calls)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
