"""tools/solver_replay.py on a short bundled run: its totals and digest against the oracle solver on the same inputs."""

import dataclasses
import importlib.util
import math

import numpy as np
import pytest

from conftest import CONFIGS
from oracles import solve_barrier_reference

ROOT = CONFIGS.parent


@pytest.fixture(scope="module")
def solver_replay():
    spec = importlib.util.spec_from_file_location("solver_replay", ROOT / "tools" / "solver_replay.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_on_compare_cone(solver_replay, capsys):
    assert solver_replay.main(["compare_cone.json", "--seconds", "0.01"]) == 0
    printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert list(printed) == ["solves", "us_per_newton_p50", "newton_total", "centering_total", "report_sha256"]
    assert float(printed["us_per_newton_p50"]) > 0.0

    # the same inputs through the plain oracle loop: same counts, same digest
    calls = solver_replay.record(CONFIGS / "compare_cone.json", 0.01)
    assert len(calls) == int(printed["solves"]) == 11
    assert [u0 is None for _, u0 in calls] == [True] + [False] * 10
    expected = [solve_barrier_reference(program, u0=u0) for program, u0 in calls]
    assert int(printed["newton_total"]) == sum(r.newton_iters for r in expected)
    assert int(printed["centering_total"]) == sum(r.centering_steps for r in expected)
    assert printed["report_sha256"] == solver_replay.report_digest(expected)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare_cone.json", "--seconds", "0.0015"], "duration"),
        (["no_such_config.json"], "config file not found"),
    ],
    ids=["seconds_not_whole_steps", "missing_config"],
)
def test_config_error_exits_2(solver_replay, capsys, argv, message):
    assert solver_replay.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and message in captured.err


def test_digest_sees_one_ulp_in_every_field(solver_replay):
    reports, _ = solver_replay.replay(solver_replay.record(CONFIGS / "compare_cone.json", 0.001))
    digest = solver_replay.report_digest(reports)
    last = reports[-1]
    for f in dataclasses.fields(last):
        value = getattr(last, f.name)
        if isinstance(value, np.ndarray):
            changed = value.copy()
            changed[0] = np.nextafter(changed[0], np.inf)
        elif isinstance(value, float):
            changed = math.nextafter(value, math.inf)
        elif isinstance(value, int):
            changed = value + 1
        else:
            changed = value + "_"
        edited = reports[:-1] + [dataclasses.replace(last, **{f.name: changed})]
        assert solver_replay.report_digest(edited) != digest, f.name
