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
is 1 when there is any.  A file both trees wrote is printed with how far it
moved: for a trace CSV, the largest absolute difference of a cell and its
column; for a JSON report, the largest relative difference of a numeric field
and its path, and any other field that differs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
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


def _csv_difference(base: str, change: str) -> str:
    """The largest absolute difference of a cell of two CSVs of one layout, and its column."""
    (head, *rows), (head_change, *rows_change) = (list(csv.reader(io.StringIO(text))) for text in (base, change))
    if head != head_change or len(rows) != len(rows_change):
        return "the CSV layouts differ"
    worst, column, other = -1.0, None, set()
    for row, row_change in zip(rows, rows_change):
        for name, a, b in zip(head, row, row_change):
            if a == b:
                continue
            try:
                diff = abs(float(a) - float(b))
            except ValueError:  # a text column, such as the solver status
                other.add(name)
                continue
            diff = math.inf if math.isnan(diff) else diff
            if diff > worst:
                worst, column = diff, name
    found = [f"largest absolute difference {worst:.3g} in column {column}"] if column else []
    found += [f"column {name} differs" for name in sorted(other)]
    return "; ".join(found) or "no cell differs"


def _json_difference(base: str, change: str) -> str:
    """The largest relative difference |a - b| / max(|a|, |b|) of a numeric field of two JSON documents,
    and its path, with the path of every other field that differs."""
    worst, where, other = -1.0, None, []

    def walk(a, b, path):
        nonlocal worst, where
        if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
            for key in a:
                walk(a[key], b[key], f"{path}.{key}" if path else key)
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{i}]")
        elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
            if a != b and not (math.isnan(a) and math.isnan(b)):
                rel = abs(a - b) / max(abs(a), abs(b))
                rel = math.inf if math.isnan(rel) else rel
                if rel > worst:
                    worst, where = rel, path
        elif a != b:
            other.append(path or "the document")

    walk(json.loads(base), json.loads(change), "")
    found = [f"largest relative difference {worst:.3g} at {where}"] if where else []
    return "; ".join(found + [f"{path} differs" for path in other]) or "no field differs"


def describe_difference(base: Path, change: Path) -> str:
    """How far change moved from base: a trace CSV by its cells, a JSON report by its fields."""
    read = (base.read_text(encoding="utf-8"), change.read_text(encoding="utf-8"))
    return _csv_difference(*read) if base.suffix == ".csv" else _json_difference(*read)


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
        line = f"differs: {path} ({base.get(path, 'absent')} -> {change.get(path, 'absent')})"
        if path in base and path in change:
            line += ": " + describe_difference(workdir / "base" / path, workdir / "change" / path)
        print(line)
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
