"""tools/output_digests.py's comparison of two listings, on hand-made listings."""

import importlib.util
import json

import pytest

from conftest import CONFIGS

ROOT = CONFIGS.parent


@pytest.fixture(scope="module")
def output_digests():
    spec = importlib.util.spec_from_file_location("output_digests", ROOT / "tools" / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_differing_paths_of_two_listings(output_digests):
    a, b, c = "a" * 64, "b" * 64, "c" * 64
    base = output_digests.parse_listing(
        f"{a}  out/arm_tracking.csv\n{b}  out/arm_tracking_report.json\n{c}  out/only in base.csv\n"
    )
    change = output_digests.parse_listing(f"{a}  out/arm_tracking.csv\n{c}  out/arm_tracking_report.json\n"
                                          f"{a}  out/new.csv\n")
    assert base == {"out/arm_tracking.csv": a, "out/arm_tracking_report.json": b, "out/only in base.csv": c}
    # a changed digest and a path written by one tree only both differ; an equal digest does not
    assert output_digests.differing_paths(base, change) == [
        "out/arm_tracking_report.json",
        "out/new.csv",
        "out/only in base.csv",
    ]
    assert output_digests.differing_paths(base, dict(base)) == []
    assert output_digests.parse_listing("") == {}


def test_trace_difference_names_the_largest_cell_and_its_column(output_digests, tmp_path):
    base, change = tmp_path / "base.csv", tmp_path / "change.csv"
    base.write_text("t,q0,q1,status\n0,1.0,2.0,optimal\n0.001,1.5,-3.0,optimal\n", encoding="utf-8")
    change.write_text("t,q0,q1,status\n0,1.0,2.0,optimal\n0.001,1.5000001,-3.25,relaxed\n", encoding="utf-8")
    assert output_digests.describe_difference(base, change) == (
        "largest absolute difference 0.25 in column q1; column status differs"
    )
    change.write_text("t,q0\n0,1.0\n", encoding="utf-8")
    assert output_digests.describe_difference(base, change) == "the CSV layouts differ"


def test_report_difference_names_the_largest_relative_field(output_digests, tmp_path):
    base, change = tmp_path / "base.json", tmp_path / "change.json"
    report = {"dissipated_energy": 2.0, "rows": [{"max_drift": 1e-12, "optimizer": "qcqp"}], "ok": True}
    base.write_text(json.dumps(report), encoding="utf-8")
    # 2.0 -> 2.2 moves by 0.2 absolute but 1/11 relative; 1e-12 -> 2e-12 by 1e-12 absolute but 1/2 relative
    report.update(dissipated_energy=2.2, rows=[{"max_drift": 2e-12, "optimizer": "min_norm"}], ok=False)
    change.write_text(json.dumps(report), encoding="utf-8")
    assert output_digests.describe_difference(base, change) == (
        "largest relative difference 0.5 at rows[0].max_drift; rows[0].optimizer differs; ok differs"
    )
    assert output_digests.describe_difference(base, base) == "no field differs"
