"""Run the benchmark in alternating pairs: a git revision (base) against the working tree (change).

    python tools/ab_pairs.py --workload arm_track_minnorm [--base HEAD] [--pairs 10]
        [--seed 41] [--seconds 20] [--trace 0]

The base revision is extracted with `git archive` into a temporary directory,
which is removed at exit.  Pair i (counted from 1) runs benchmarks/run.py with
seed SEED + i - 1 in both trees, the base first in odd pairs and the working
tree first in even ones, so a drift in machine speed favours neither side.
Each pair is printed as it finishes.  Then, per metric, the summary gives the
median and quartiles of each side, the pairs the change won, and whether the
gap between the medians exceeds the base's interquartile range.  A metric's
better direction comes from BENCHMARK.json (lower when it is not listed).

Quartiles are those of statistics.quantiles(n=4) (its default "exclusive"
method).  A pair in which either run printed no result line is reported and
left out of the summary.  The exit status is 1 when a run printed no result
line or reported `correct` other than true.

One set of pairs can show a shift that is not there.  On a 2-vCPU VM, ten
pairs of identical per-step code (seeds 401-410) put the change's `step_ref`
on `arm_track_minnorm` higher in 10 of 10 pairs, its median 2.8 % above the
base's and beyond the base's IQR, while seeds 901-910 showed no difference;
the machine's speed moved about 2.5x within that set.  Repeat a few-percent
move on fresh seeds before believing it.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


class MetricSummary(NamedTuple):
    """One metric over the pairs: (median, q1, q3) of each side, the change's wins and the median gap."""

    base: Tuple[float, float, float]
    change: Tuple[float, float, float]
    wins: int
    pairs: int
    gap: float  # change median - base median
    beyond_iqr: bool  # |gap| > q3 - q1 of the base
    improved: bool  # the change's median is the better one


def _median_quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def summarize(pairs: Sequence[Tuple[Dict[str, float], Dict[str, float]]],
              better: Optional[Dict[str, str]] = None) -> Dict[str, MetricSummary]:
    """Summary per metric of (base, change) metric dicts, one pair per seed.

    better maps a metric name to "lower" or "higher" (lower when absent).  A
    pair counts as a win when the change's value is strictly better.  Only
    metrics that every run reports are summarized.
    """
    better = better or {}
    names = [name for name in pairs[0][0] if all(name in b and name in c for b, c in pairs)]
    out = {}
    for name in names:
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        base_mq, change_mq = _median_quartiles(base), _median_quartiles(change)
        gap = change_mq[0] - base_mq[0]
        out[name] = MetricSummary(
            base=base_mq,
            change=change_mq,
            wins=sum(sign * (c - b) < 0 for b, c in zip(base, change)),
            pairs=len(pairs),
            gap=gap,
            beyond_iqr=abs(gap) > base_mq[2] - base_mq[1],
            improved=sign * gap < 0,
        )
    return out


def format_summary(summary: Dict[str, MetricSummary]) -> List[str]:
    lines = []
    for name, s in summary.items():
        (bm, bq1, bq3), (cm, cq1, cq3) = s.base, s.change
        rel = f"{s.gap / bm:+.1%}" if bm else "n/a"
        lines.append(
            f"{name}: base {bm:.6g} [{bq1:.6g}, {bq3:.6g}] -> change {cm:.6g} [{cq1:.6g}, {cq3:.6g}] ({rel}); "
            f"wins {s.wins}/{s.pairs}; median gap {abs(s.gap):.4g} vs base IQR {bq3 - bq1:.4g}: "
            f"{'beyond' if s.beyond_iqr else 'within'} IQR, {'better' if s.improved else 'not better'}"
        )
    return lines


def better_directions() -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def extract(rev: str, dest: Path) -> None:
    """Write the tree of git revision rev into dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: Path, args, seed: int) -> Tuple[Optional[Dict[str, float]], str]:
    """(metrics of the run's result line, or None, and a note, empty when the run is correct)."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, encoding="utf-8")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict):
        return None, f"no result line (exit {proc.returncode}): {proc.stderr.strip()[-300:]}"
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, "" if result.get("correct") is True else "correct is not true"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=41, help="seed of the first pair; pair i uses seed + i - 1")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pairs, failures = [], 0
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        base_tree = Path(tmp)
        extract(args.base, base_tree)
        for i in range(1, args.pairs + 1):
            seed = args.seed + i - 1
            order = ("base", "change") if i % 2 else ("change", "base")
            runs = {side: run_once(base_tree if side == "base" else ROOT, args, seed) for side in order}
            (base, base_note), (change, change_note) = runs["base"], runs["change"]
            print(f"pair {i} (seed {seed}, {order[0]} first):", flush=True)
            for side, note in (("base", base_note), ("change", change_note)):
                if note:
                    failures += 1
                    print(f"  {side}: {note}", flush=True)
            if base is None or change is None:
                continue
            for name in base:
                if name in change:
                    print(f"  {name}: {base[name]:.6g} -> {change[name]:.6g}", flush=True)
            pairs.append((base, change))
    if pairs:
        print(f"summary of {len(pairs)} pairs, {args.workload}, base {args.base} against the working tree:")
        for line in format_summary(summarize(pairs, better_directions())):
            print(f"  {line}")
    return 1 if failures or not pairs else 0


if __name__ == "__main__":
    sys.exit(main())
