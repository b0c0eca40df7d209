"""tools/solver_sets.py on 3 seeds: its printed figures against the oracle solver on the same programs."""

import importlib.util

import numpy as np
import pytest

from conftest import CONFIGS
from oracles import solve_barrier_reference

ROOT = CONFIGS.parent


@pytest.fixture(scope="module")
def solver_sets():
    spec = importlib.util.spec_from_file_location("solver_sets", ROOT / "tools" / "solver_sets.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_on_three_seeds(solver_sets, capsys):
    assert solver_sets.main(["--seeds", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["arm_qcqp", "biped_qcqp", "biped_relaxed"]
    for name, line in zip(solver_sets.SETS, lines):
        printed = dict(field.split("=") for field in line.split(": ", 1)[1].split())
        assert printed.pop("solves") == "3"

        # the same programs through the plain oracle loop: same statuses, same Newton means
        expected = [solve_barrier_reference(program) for program in solver_sets.programs(name, 3)]
        solved = [r.newton_iters for r in expected if r.status in ("optimal", "relaxed")]
        assert printed.pop("newton_all") == f"{np.mean([r.newton_iters for r in expected]):.2f}"
        assert printed.pop("newton_solved") == (f"{np.mean(solved):.2f}" if solved else "n/a")
        statuses = sorted({r.status for r in expected})
        assert list(printed) == statuses
        assert [int(printed[s]) for s in statuses] == [[r.status for r in expected].count(s) for s in statuses]


def test_rejects_no_seeds(solver_sets, capsys):
    with pytest.raises(SystemExit) as exc:
        solver_sets.main(["--seeds", "0"])
    assert exc.value.code == 2
    assert "--seeds must be at least 1" in capsys.readouterr().err
