"""Solve three sets of random torque programs and print each set's statuses and Newton counts.

    python tools/solver_sets.py [--seeds N]

Each program comes from one seed s in 0 ... N-1 (default 150):
`random_manifold_state` (tests/conftest.py) draws a state near the model's
home posture from `np.random.default_rng(s)`, with every contact active; the
tracking law asks for x_d = x + 0.1 at zero reference rate and acceleration,
with critically damped gains at omega = 5; `solve_barrier` solves the program
cold (u0 = None).  The sets:

- `arm_qcqp`: the planar arm's link_orientation task under qcqp;
- `biped_qcqp`: the biped's base_pitch task, both feet down, under qcqp;
- `biped_relaxed`: the same biped programs under qcqp_relaxed at rho = 10.

One line is printed per set: the number of solves, the count of each status
(in alphabetical order), and the mean Newton steps per solve over all
solves (`newton_all`) and over the optimal or relaxed ones (`newton_solved`).
The counts do not depend on the machine, except where its BLAS rounds
differently.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from conftest import ARM_HOME, BIPED_HOME, random_manifold_state  # noqa: E402
from projctl.constrained_dynamics import build_frame  # noqa: E402
from projctl.control_laws import ControllerGains, tracking_torque  # noqa: E402
from projctl.models import floating_biped, make_task, planar_arm_contact  # noqa: E402
from projctl.task_space import build_task  # noqa: E402
from projctl.torque_qcqp import (  # noqa: E402
    SolverReport,
    TorqueProgram,
    assemble_program,
    relax_program,
    solve_barrier,
)

RHO = 10.0
SETS = ("arm_qcqp", "biped_qcqp", "biped_relaxed")


def programs(name: str, seeds: int) -> Iterator[TorqueProgram]:
    """The set's program for each seed 0 ... seeds-1, in seed order."""
    if name == "arm_qcqp":
        model, home, task_name = planar_arm_contact(), ARM_HOME, "link_orientation"
    else:
        model, home, task_name = floating_biped(), BIPED_HOME, "base_pitch"
    gains = ControllerGains.critically_damped(1, 5.0)
    for seed in range(seeds):
        frame = build_frame(model, random_manifold_state(model, np.random.default_rng(seed), home))
        task = build_task(frame, make_task(model, task_name))
        cmd = tracking_torque(frame, task, task.x + 0.1, np.zeros(1), np.zeros(1), gains)
        program = assemble_program(frame, cmd.tau_c)
        yield relax_program(program, frame, RHO) if name == "biped_relaxed" else program


def summary_line(name: str, reports: Sequence[SolverReport]) -> str:
    statuses = Counter(r.status for r in reports)
    solved = [r.newton_iters for r in reports if r.status in ("optimal", "relaxed")]
    newton_solved = f"{np.mean(solved):.2f}" if solved else "n/a"
    counts = " ".join(f"{status}={count}" for status, count in sorted(statuses.items()))
    return (f"{name}: solves={len(reports)} {counts} "
            f"newton_all={np.mean([r.newton_iters for r in reports]):.2f} newton_solved={newton_solved}")


def solve_sets(seeds: int) -> Dict[str, List[SolverReport]]:
    """Every set's reports, solved cold, in seed order."""
    return {name: [solve_barrier(program) for program in programs(name, seeds)] for name in SETS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=150, help="programs per set, from seeds 0 ... N-1")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    for name, reports in solve_sets(args.seeds).items():
        print(summary_line(name, reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
