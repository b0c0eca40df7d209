"""Record the seed-0 values that run.py compares each segment's outputs against.

Usage (from the repository root): python3 benchmarks/record_reference.py

Rewrites benchmarks/reference.json with the dissipated energy, final tracking
error and mean Newton iterations per solve of every workload's seed-0
segment.  Re-record only in a change to the benchmark itself, never in a
change that claims a gain.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402
from projctl.runner import run_scenario  # noqa: E402


def main() -> None:
    values = {}
    with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as tmp:
        for name, workload in workloads.WORKLOADS.items():
            config_path = Path(tmp) / f"{name}.json"
            config_path.write_text(json.dumps(workloads.make_config(BENCH_DIR.parent, workload, 0)))
            _, report, _ = run_scenario(config_path, out_dir=tmp, quiet=True)
            values[name] = workloads.reference_values(report)
    workloads.REFERENCE_FILE.write_text(json.dumps(values, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
