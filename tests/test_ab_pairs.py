"""tools/ab_pairs.py's summary of alternating benchmark pairs, on fixed numbers."""

import importlib.util

import pytest

from conftest import CONFIGS

ROOT = CONFIGS.parent


@pytest.fixture(scope="module")
def ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_on_fixed_numbers(ab_pairs):
    base = [10.0, 11.0, 12.0, 13.0]
    change = [9.0, 10.5, 12.5, 8.0]
    rate_base, rate_change = [1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]
    pairs = [({"step_ref": b, "rate": rb, "only_base": 0.0}, {"step_ref": c, "rate": rc})
             for b, c, rb, rc in zip(base, change, rate_base, rate_change)]
    summary = ab_pairs.summarize(pairs, {"rate": "higher"})
    assert list(summary) == ["step_ref", "rate"]  # a metric one side lacks is left out

    # exclusive quartiles of 4 values sit at positions 1.25, 2.5 and 3.75
    s = summary["step_ref"]
    assert s.base == (11.5, 10.25, 12.75)
    assert s.change == (9.75, 8.25, 12.0)
    assert (s.wins, s.pairs, s.gap) == (3, 4, -1.75)
    assert s.improved and not s.beyond_iqr  # a gap of 1.75 against a base IQR of 2.5

    r = summary["rate"]  # higher is better: every pair is a win, and the gap of 4 clears the IQR
    assert (r.base, r.change) == ((2.5, 1.25, 3.75), (6.5, 5.25, 7.75))
    assert (r.wins, r.gap, r.improved, r.beyond_iqr) == (4, 4.0, True, True)


def test_one_pair_and_a_tie(ab_pairs):
    s = ab_pairs.summarize([({"step_ref": 2.0}, {"step_ref": 2.0})])["step_ref"]
    assert (s.base, s.change) == ((2.0, 2.0, 2.0), (2.0, 2.0, 2.0))
    assert (s.wins, s.gap, s.improved, s.beyond_iqr) == (0, 0.0, False, False)
