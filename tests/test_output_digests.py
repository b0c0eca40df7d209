"""tools/output_digests.py's comparison of two listings, on hand-made listings."""

import importlib.util

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
