"""Run every bundled config at full length and print a sha256 digest per output file.

    python tools/output_digests.py WORKDIR [--against REV]

Runs, from inside WORKDIR (created if missing), with every output under WORKDIR/out:

- `run_scenario` on each config in configs/;
- `compare_controllers` on each config whose optimizer section lists `types`.

With the six bundled configs that is 18 output files: a trace CSV and a report
JSON per run, plus a trace CSV per optimizer and a compare JSON per comparison.

Output paths are relative to WORKDIR, so the `trace_file` entries of the
comparison reports do not depend on where WORKDIR is.  One `sha256  path`
line is printed per output file, sorted by path: two checkouts give the same
outputs exactly when `diff` finds no difference between their listings.

With `--against REV`, the git revision REV is extracted (`git archive`) into a
temporary directory, and each tree runs this script in its own process: REV
into WORKDIR/base, the working tree into WORKDIR/change.  Every path whose
digest differs, or that only one tree wrote, is printed, and the exit status
is 1 when there is any.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
sys.path.insert(0, str(ROOT / "src"))

from projctl.runner import compare_controllers, run_scenario  # noqa: E402


def run_all(out: Path) -> None:
    """Write every bundled run's outputs under out."""
    for path in sorted(CONFIGS.glob("*.json")):
        run_scenario(path, out_dir=str(out), quiet=True)
        if "types" in json.loads(path.read_text(encoding="utf-8"))["optimizer"]:
            compare_controllers(path, out_dir=str(out), quiet=True)


def parse_listing(text: str) -> Dict[str, str]:
    """path -> sha256 of a listing this script printed."""
    return {path: digest for digest, path in (line.split("  ", 1) for line in text.splitlines() if line)}


def differing_paths(base: Dict[str, str], change: Dict[str, str]) -> List[str]:
    """Sorted paths whose digests differ, or that only one listing has."""
    return sorted(path for path in base.keys() | change.keys() if base.get(path) != change.get(path))


def listing_of(tree: Path, workdir: Path) -> Dict[str, str]:
    """The listing of tree's own copy of this script, run into workdir in a fresh process."""
    proc = subprocess.run([sys.executable, str(tree / "tools" / "output_digests.py"), str(workdir)],
                          capture_output=True, text=True, encoding="utf-8")
    if proc.returncode:
        sys.exit(f"{tree}: output_digests.py exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return parse_listing(proc.stdout)


def against(rev: str, workdir: Path) -> int:
    sys.path.insert(0, str(ROOT / "tools"))
    from ab_pairs import extract

    with tempfile.TemporaryDirectory(prefix="output_digests_") as tmp:
        extract(rev, Path(tmp))
        base = listing_of(Path(tmp), workdir / "base")
    change = listing_of(ROOT, workdir / "change")
    differing = differing_paths(base, change)
    for path in differing:
        print(f"differs: {path} ({base.get(path, 'absent')} -> {change.get(path, 'absent')})")
    print(f"{len(differing)} of {len(base.keys() | change.keys())} outputs differ from {rev}")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", help="directory to run in; outputs go to its out/ subdirectory")
    parser.add_argument("--against", metavar="REV",
                        help="run git revision REV into WORKDIR/base and this tree into WORKDIR/change, "
                        "and print the outputs that differ")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    if args.against:
        return against(args.against, workdir)
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
