"""projctl benchmark: machine-normalised step cost on scenario workloads.

Usage (from the repository root):

    python3 benchmarks/run.py --workload arm_track_minnorm --seed 0 --seconds 20 --trace 0

Each workload runs in this one process, single-threaded, as a closed loop of
segments.  A segment is one `projctl.runner.run_scenario` call (simulate,
report, trace CSV) on a shortened, seed-generated copy of a bundled config.
The reference kernel is timed around and during every segment, and
`step_ref` is the segment's wall time per simulated step divided by it.
Every segment's outputs are checked; a segment that raises a projctl error
or fails a check counts as failed.

--trace 0 reports the end-to-end metrics (step_ref, setup_s).  --trace 1
alternates untraced and traced segments and reports per-layer metrics, the
tracing overhead among them.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

import layertrace  # noqa: E402
import refkernel  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
WARMUP_STEPS = 10
PROBE_TIMEOUT_S = 120


def checkout_problem() -> str | None:
    """Why this directory cannot run the benchmark, or None."""
    needed = [ROOT / "src" / "projctl" / "__init__.py", workloads.REFERENCE_FILE]
    needed += [ROOT / "configs" / f"{w.config}.json" for w in workloads.WORKLOADS.values()]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    return f"missing {', '.join(missing)}" if missing else None


def tail_percentile(values):
    """(percentile, value) of the highest percentile with >= 10 values beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def setup_samples(config_path: Path) -> list:
    """Cold set-ups, each in a fresh interpreter (projctl caches the symbolics per process).

    Each sample holds setup_s and build_s in seconds at the nominal machine
    speed (refkernel.NOMINAL_US), and raw_s, the wall seconds.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(config_path)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        scale = refkernel.NOMINAL_US / probe["ref_us"]
        samples.append({"setup_s": probe["setup_s"] * scale, "build_s": probe["build_s"] * scale,
                        "raw_s": probe["setup_s"]})
    return samples


class Loop:
    """Closed loop of segments for one workload; keeps timings and outcomes."""

    def __init__(self, workload, seed: int, out_dir: Path):
        import projctl.errors
        import projctl.runner

        self.run_scenario = projctl.runner.run_scenario
        self.errors = tuple(
            v for v in vars(projctl.errors).values() if isinstance(v, type) and issubclass(v, Exception)
        )
        self.out_dir = out_dir
        self.cfg = workloads.make_config(ROOT, workload, seed)
        self.dt = self.cfg["integrator"]["dt"]
        self.steps = int(round(self.cfg["duration"] / self.dt))
        self.config_path = self._write("segment", self.cfg)
        self.expected = workloads.load_reference()[workload.name] if seed == 0 else None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _write(self, name: str, cfg: dict) -> Path:
        path = self.out_dir / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=2))
        return path

    def attempt(self, config_path: Path, cfg: dict, expected, call=None):
        """Run and check one segment under a speed probe.

        Returns (wall seconds less the probe's, the probe), or None if the
        segment failed.
        """
        self.attempted += 1
        call = call or self.run_scenario
        probe = refkernel.SpeedProbe()
        try:
            with probe:
                t0 = time.perf_counter()
                trace, report, paths = call(config_path, out_dir=str(self.out_dir), quiet=True)
                elapsed = time.perf_counter() - t0 - probe.spent
        except self.errors as exc:
            found = [f"{type(exc).__name__}: {exc}"]
        else:
            found = workloads.check_segment(trace, report, paths, cfg, expected)
        if found:
            self.failed += 1
            self.problems.extend(found)
            return None
        return elapsed, probe

    def warm_up(self):
        """One short untimed segment: builds the model and fills lazy caches."""
        cfg = dict(self.cfg, duration=WARMUP_STEPS * self.dt)
        self.attempt(self._write("warmup", cfg), cfg, None)

    def segment(self, call=None):
        """One timed segment, or None if it failed."""
        gc.collect()
        timed = self.attempt(self.config_path, self.cfg, self.expected, call)
        if timed is None:
            return None
        elapsed, probe = timed
        return Timing(elapsed / self.steps * 1e6, probe.ref_us(), probe.pauses)


class Timing(NamedTuple):
    step_us: float  # wall µs per simulated step, probe pauses excluded
    ref_us: float  # reference-kernel µs per iteration over the segment
    pauses: list  # (start, end) of the probe's samples inside the segment

    @property
    def step_ref(self) -> float:
        return self.step_us / self.ref_us


def run(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out" / f"{workload.name}-{os.getpid()}"
    out_dir.mkdir(parents=True)
    try:
        loop = Loop(workload, args.seed, out_dir)
        setups = setup_samples(loop.config_path)
        loop.warm_up()
        plain, traced, profiles = [], [], []
        tries = {"plain": 0, "traced": 0}  # traced ones only with --trace 1
        tracer = layertrace.Tracer()
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or not tries["plain"] or (args.trace and not tries["traced"]):
            if args.trace and tries["traced"] < tries["plain"]:
                tries["traced"] += 1
                tracer.clear()
                with layertrace.traced(tracer):
                    sample = loop.segment(tracer.span("segment", loop.run_scenario))
                if sample:
                    traced.append(sample)
                    profiles.append(layertrace.profile(tracer, loop.steps, sample.pauses))
            else:
                tries["plain"] += 1
                sample = loop.segment()
                if sample:
                    plain.append(sample)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass

    failed = loop.failed
    print(f"workload {workload.name} seed {args.seed}: {len(plain)} timed segments of {loop.steps} steps")
    for problem in loop.problems[:20]:
        print(f"FAILED: {problem}")
    print(f"fail_frac = {failed}/{loop.attempted} = {failed / loop.attempted:.4f} (fraction of segments)")
    if not plain or (args.trace and not traced):
        print("no segment of a needed kind completed", file=sys.stderr)
        return 1

    ratios = [t.step_ref for t in plain]
    step_ref = statistics.median(ratios)
    tail = tail_percentile(ratios)
    tail_text = f"p{tail[0]} = {tail[1]:.4f} ratio" if tail else "no percentile has 10 segments beyond it"
    print(f"step_ref = {step_ref:.4f} ratio (median; {tail_text})")
    setup_s = statistics.median(p["setup_s"] for p in setups)
    raw_setup_s = statistics.median(p["raw_s"] for p in setups)
    print(f"setup_s = {setup_s:.4f} s at nominal speed (median of {len(setups)} fresh interpreters; "
          f"raw {raw_setup_s:.4f} s)")
    ref_us = statistics.median(t.ref_us for t in plain)
    step_us = statistics.median(t.step_us for t in plain)
    print(f"sim.step_us = {step_us:.1f} us (raw, not gated); machine.ref_kernel_us = {ref_us:.2f} us")

    if args.trace:
        metrics = layertrace.layer_metrics(profiles, loop.dt)
        traced_ref = statistics.median(t.step_ref for t in traced)
        metrics["models.build_s"] = (statistics.median(p["build_s"] for p in setups), "s")
        metrics["machine.ref_kernel_us"] = (ref_us, "us")
        metrics["sim.step_us"] = (step_us, "us")
        metrics["trace.step_ref"] = (traced_ref, "ratio")
        metrics["trace.overhead_ref"] = (traced_ref - step_ref, "ratio")
        traced_us = sum(p.root_duration for p in profiles) / sum(p.steps for p in profiles) * 1e6
        frames = metrics["dynamics.frame_control.us_per_step"][0] + metrics["dynamics.frame_stage.us_per_step"][0]
        print(f"traced: {len(traced)} segments, {traced_us:.1f} us/step; shares of the traced step: "
              f"frames {frames / traced_us:.1%}, allocation {metrics['alloc.us_per_step'][0] / traced_us:.1%}")
        for name, (value, unit) in sorted(metrics.items()):
            print(f"{name} = {value:.6g} {unit}")
    else:
        metrics = {"step_ref": (step_ref, "ratio"), "setup_s": (setup_s, "s")}

    result = {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = checkout_problem()
    if problem:
        print(f"cannot run the benchmark here: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import projctl

    if Path(projctl.__file__).resolve().parent != ROOT / "src" / "projctl":
        print(f"projctl imported from {projctl.__file__}, not this checkout", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
