"""Run every bundled config at full length and print a sha256 digest per output file.

    python tools/output_digests.py WORKDIR

Runs, from inside WORKDIR (created if missing), with every output under WORKDIR/out:

- `run_scenario` on each config in configs/;
- `compare_controllers` on each config whose optimizer section lists `types`.

With the six bundled configs that is 18 output files: a trace CSV and a report
JSON per run, plus a trace CSV per optimizer and a compare JSON per comparison.

Output paths are relative to WORKDIR, so the `trace_file` entries of the
comparison reports do not depend on where WORKDIR is.  One `sha256  path`
line is printed per output file, sorted by path: two checkouts give the same
outputs exactly when `diff` finds no difference between their listings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
sys.path.insert(0, str(ROOT / "src"))

from projctl.runner import compare_controllers, run_scenario  # noqa: E402


def run_all(out: Path) -> None:
    """Write every bundled run's outputs under out."""
    for path in sorted(CONFIGS.glob("*.json")):
        run_scenario(path, out_dir=str(out), quiet=True)
        if "types" in json.loads(path.read_text())["optimizer"]:
            compare_controllers(path, out_dir=str(out), quiet=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", help="directory to run in; outputs go to its out/ subdirectory")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    out = Path("out")
    if out.exists():
        parser.error(f"{workdir / out} already exists; give a fresh WORKDIR")
    run_all(out)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
