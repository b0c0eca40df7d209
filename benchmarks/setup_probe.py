"""Time one cold scenario set-up in this fresh interpreter.

Usage: python3 setup_probe.py <config.json>

Prints one JSON line with setup_s, the seconds from load_config until the
Scenario is ready (mostly sympy derivation plus lambdify, which projctl
caches per process); build_s, the part of it spent in build_model; and
ref_us, the reference-kernel time measured around and during the set-up.
Imports happen before timing.
"""

import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import refkernel  # noqa: E402
import projctl.runner as runner  # noqa: E402


def main(config_path: str) -> None:
    probe = refkernel.SpeedProbe()
    build_s = []
    build_model = runner.build_model

    def timed_build(*args, **kwargs):
        t0, paused = time.perf_counter(), probe.spent
        try:
            return build_model(*args, **kwargs)
        finally:
            build_s.append(time.perf_counter() - t0 - (probe.spent - paused))

    runner.build_model = timed_build
    with probe:
        t0 = time.perf_counter()
        runner.load_scenario(runner.load_config(config_path))
        setup_s = time.perf_counter() - t0 - probe.spent
    print(json.dumps({"setup_s": setup_s, "build_s": sum(build_s), "ref_us": probe.ref_us()}))


if __name__ == "__main__":
    main(sys.argv[1])
