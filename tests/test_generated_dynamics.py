"""The planar dynamics ship as generated code: it matches a fresh generation, takes
cos and sin from math, and a run needs no sympy."""

import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

from conftest import CONFIGS
from projctl import _planar_dynamics

ROOT = CONFIGS.parent


@pytest.fixture(scope="module")
def generator():
    spec = importlib.util.spec_from_file_location("generate_dynamics", ROOT / "tools" / "generate_dynamics.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_module_is_a_fresh_generation(generator):
    assert generator.main(["--check"]) == 0


def test_trig_is_math():
    # the callbacks get Python floats; numpy's cos/sin would turn every later
    # operation into numpy-scalar arithmetic, bit-equal but about twice as slow
    assert _planar_dynamics.cos is math.cos and _planar_dynamics.sin is math.sin


@pytest.mark.parametrize(
    "edit",
    [lambda text: text.replace("(1/4)*len0**2", "0.25*len0**2", 1), lambda text: text + "\n"],
    ids=["coefficient", "trailing_line"],
)
def test_check_fails_after_a_hand_edit(generator, monkeypatch, tmp_path, capsys, edit):
    committed = generator.TARGET.read_text(encoding="utf-8")
    edited = tmp_path / "_planar_dynamics.py"
    edited.write_text(edit(committed), encoding="utf-8")
    assert edited.read_text(encoding="utf-8") != committed
    monkeypatch.setattr(generator, "TARGET", edited)
    assert generator.main(["--check"]) == 1
    assert "differs from a fresh generation" in capsys.readouterr().err


def test_a_run_imports_no_sympy(tmp_path):
    cfg = json.loads((CONFIGS / "arm_tracking.json").read_text(encoding="utf-8"))
    cfg["duration"] = 0.01
    config = tmp_path / "arm_tracking.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    code = "\n".join([
        "import sys",
        "sys.modules['sympy'] = sys.modules['mpmath'] = None  # any import of them now fails",
        "from projctl.cli import main",
        f"assert main(['run', {str(config)!r}, '--out', {str(out)!r}, '--quiet']) == 0",
        "assert sys.modules['sympy'] is None and sys.modules['mpmath'] is None",
        "assert not [name for name in sys.modules if name.startswith(('sympy.', 'mpmath.'))]",
    ])
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, encoding="utf-8", timeout=120)
    assert result.returncode == 0, result.stderr
    assert sorted(p.suffix for p in out.iterdir()) == [".csv", ".json"]
