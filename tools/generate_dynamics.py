"""Write src/projctl/_planar_dynamics.py from the symbolic planar-model pipeline.

    python tools/generate_dynamics.py            # (re)write the module
    python tools/generate_dynamics.py --check    # exit 1 if the committed module differs

The pipeline lives in tests/oracles.py (_arm_symbolics, _biped_symbolics): it
derives each model's M, C, tau_g and every foot's contact block, rate and
point in sympy and lambdifies them with modules="numpy" and cse=True.  The
module this writes holds one function per model and quantity (arm_M, arm_C,
arm_tau_g, arm_A0, arm_A_dot0, arm_point0, and biped_* with feet 0 and 1),
each body being lambdify's printed source verbatim, so projctl evaluates the
same arithmetic without deriving anything at run time.  The module takes cos
and sin from math, not numpy: models._bind passes Python floats, so every
operation in a body is Python float arithmetic, bit-equal to numpy float64
scalars but without a ufunc call per cos/sin or numpy scalars after it; only
the returned matrix is a numpy array.  The printed source depends on the sympy
version, which the module's header names; --check needs that version
installed.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = ROOT / "src" / "projctl" / "_planar_dynamics.py"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import sympy  # noqa: E402

import oracles  # noqa: E402

MODELS = (("arm", oracles._arm_symbolics), ("biped", oracles._biped_symbolics))

HEADER = '''"""Dynamics of the bundled planar models.  Generated code: do not edit.

Written by tools/generate_dynamics.py with sympy {version} from the symbolic
pipeline in tests/oracles.py.  Each function is lambdify's printed source for
one model quantity; models._planar_model binds them to a parameter tuple.
The functions take Python floats: cos and sin come from math, so a body is
Python float arithmetic from its arguments to the returned numpy array.
Regenerate with `python tools/generate_dynamics.py`.
"""

from math import cos, sin

from numpy import array
'''


def _function(name: str, lambdified) -> str:
    """The printed source of a lambdified function, renamed to name."""
    source = inspect.getsource(lambdified)
    prefix = "def _lambdifygenerated("
    if not source.startswith(prefix):
        raise RuntimeError(f"unexpected lambdify source for {name}: {source[:40]!r}")
    return f"def {name}(" + source[len(prefix):].rstrip() + "\n"


def generate() -> str:
    """The text of _planar_dynamics.py for the installed sympy."""
    parts = [HEADER.format(version=sympy.__version__)]
    for prefix, symbolics in MODELS:
        funcs = symbolics()
        quantities = [("M", funcs["M"]), ("C", funcs["C"]), ("tau_g", funcs["tau_g"])]
        for i, (A, A_dot, point) in enumerate(funcs["contacts"]):
            quantities += [(f"A{i}", A), (f"A_dot{i}", A_dot), (f"point{i}", point)]
        parts += [_function(f"{prefix}_{quantity}", f) for quantity, f in quantities]
    return "\n\n".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the committed module instead of writing it")
    args = parser.parse_args(argv)
    text = generate()
    if not args.check:
        TARGET.write_text(text, encoding="utf-8")
        return 0
    if TARGET.is_file() and TARGET.read_text(encoding="utf-8") == text:
        return 0
    print(f"{TARGET} differs from a fresh generation (sympy {sympy.__version__}); "
          f"run python tools/generate_dynamics.py", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
