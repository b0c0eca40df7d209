"""Tests of the benchmark's own machinery: workload generation, output checks,
span attribution and the reference kernel."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import layertrace  # noqa: E402
import refkernel  # noqa: E402
import workloads  # noqa: E402
from projctl import runner  # noqa: E402

TINY_STEPS = 5


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_zero_is_the_bundled_config(name):
    workload = workloads.WORKLOADS[name]
    bundled = workloads.bundled_config(ROOT, workload)
    generated = workloads.make_config(ROOT, workload, 0)
    assert generated["duration"] == workload.duration
    assert dict(generated, duration=bundled["duration"]) == bundled

    other = workloads.make_config(ROOT, workload, 7)
    assert other["task"]["reference"] != bundled["task"]["reference"]
    other["task"]["reference"] = bundled["task"]["reference"]
    assert dict(other, duration=bundled["duration"]) == bundled
    assert workloads.make_config(ROOT, workload, 7) == workloads.make_config(ROOT, workload, 7)


def test_biped_segment_crosses_both_switches():
    workload = workloads.WORKLOADS["biped_switch_relaxed"]
    schedule = workloads.make_config(ROOT, workload, 0)["contacts"]["schedule"]
    assert len(schedule) == 2
    assert all(t < workload.duration for t, _ in schedule)


def test_reference_kernel_imports_nothing_from_projctl():
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import refkernel; "
        "refkernel.sample_us(1); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'projctl'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def tiny_arm(tmp_path_factory):
    """One traced arm segment of TINY_STEPS steps, paused often by the speed probe.

    Returns (profile, spans, wall time less pauses, outputs, cfg).
    """
    out = tmp_path_factory.mktemp("bench")
    cfg = workloads.make_config(ROOT, workloads.WORKLOADS["arm_track_minnorm"], 0)
    cfg["duration"] = TINY_STEPS * cfg["integrator"]["dt"]
    path = out / "tiny.json"
    path.write_text(json.dumps(cfg))
    runner.run_scenario(path, out_dir=str(out), quiet=True)  # build the model untraced

    tracer = layertrace.Tracer()
    probe = refkernel.SpeedProbe(interval=0.001, reps=2)
    with layertrace.traced(tracer), probe:
        segment = tracer.span("segment", runner.run_scenario)
        t0 = time.perf_counter()
        outputs = segment(path, out_dir=str(out), quiet=True)
        wall = time.perf_counter() - t0 - probe.spent
    assert probe.pauses
    prof = layertrace.profile(tracer, TINY_STEPS, probe.pauses)
    return prof, list(tracer.spans), wall, outputs, cfg


def test_stage_frames_land_under_the_integrator(tiny_arm):
    prof, spans, *_ = tiny_arm
    parents = {spans[parent][0] for name, parent, *_ in spans if name == "build_frame"}
    assert parents == {"simulate", "step"}
    assert prof.calls["frame_control"] == TINY_STEPS + 1  # one per control tick
    assert prof.calls["frame_stage"] == 4 * TINY_STEPS  # four RK4 stages per step
    assert prof.calls["step"] == TINY_STEPS
    assert len(prof.ticks) == TINY_STEPS + 1
    stage_parents = [spans[parent][0] for name, parent, *_ in spans if name == "build_frame"]
    assert stage_parents.count("step") == prof.calls["frame_stage"]
    assert prof.total["frame_stage"] < prof.total["step"]


def test_self_times_sum_to_the_segment_time(tiny_arm):
    prof, spans, wall, *_ = tiny_arm
    assert spans[0][0] == "segment" and spans[0][1] == -1
    assert sum(prof.self_time.values()) == pytest.approx(prof.root_duration, rel=1e-9)
    assert prof.root_duration <= wall
    assert all(t >= -1e-9 for t in prof.self_time.values())


def test_pauses_are_taken_off_every_enclosing_span():
    tracer = layertrace.Tracer()
    tracer.spans[:] = [
        ["segment", -1, 0.0, 10.0],
        ["simulate", 0, 1.0, 9.0],
        ["step", 1, 2.0, 6.0],
        ["build_frame", 2, 3.0, 5.0],
    ]
    prof = layertrace.profile(tracer, 1, pauses=[(0.5, 1.5), (4.0, 4.5), (7.0, 8.0)])
    assert prof.root_duration == pytest.approx(7.5)
    assert prof.total["frame_stage"] == pytest.approx(1.5)
    assert prof.total["step"] == pytest.approx(3.5)
    assert prof.total["simulate"] == pytest.approx(8.0 - 0.5 - 0.5 - 1.0)
    assert prof.self_time["simulate"] == pytest.approx(6.0 - 3.5)
    assert sum(prof.self_time.values()) == pytest.approx(prof.root_duration)


def test_tracing_restores_every_binding():
    import importlib

    before = {
        (module, name): getattr(importlib.import_module(module), name)
        for module, names in layertrace.SPAN_TARGETS
        for name in names
    }
    with layertrace.traced(layertrace.Tracer()):
        assert all(getattr(importlib.import_module(m), n) is not f for (m, n), f in before.items())
    assert all(getattr(importlib.import_module(m), n) is f for (m, n), f in before.items())


def test_model_callbacks_are_counted(tiny_arm):
    prof, *_ = tiny_arm
    # M, C, tau_g, A and A_dot at least once per frame
    assert prof.model_evals >= 5 * (prof.calls["frame_control"] + prof.calls["frame_stage"])


def test_check_segment_flags_a_moved_reference(tiny_arm):
    _, _, _, (trace, report, paths), cfg = tiny_arm
    exact = workloads.reference_values(report)
    assert workloads.check_segment(trace, report, paths, cfg, exact) == []
    for key in exact:
        moved = dict(exact, **{key: exact[key] * (1 + 10 * workloads.REFERENCE_RTOL) + 1e-300})
        problems = workloads.check_segment(trace, report, paths, cfg, moved)
        assert len(problems) == 1 and problems[0].startswith(key)


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    cmd = [sys.executable if c == "python3" else c for c in cmd]
    cmd += ["--workload", "arm_track_minnorm", "--seed", "0", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
