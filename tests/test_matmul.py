"""The per-state modules form their products with ndarray.dot, not the @ operator.

On 1- to 8-dimensional operands `@` goes through numpy's matmul gufunc and
costs about twice what `.dot` costs for the same BLAS call.  A product that
`.dot` would round differently keeps `@` on a line marked `# keeps @:` with
its reason (the package docstring states the two kinds); any other `@` in
these modules fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PER_STATE = ("constraint_geometry", "constrained_dynamics", "task_space", "control_laws", "simulate", "torque_qcqp")
MARK = "# keeps @:"


def unmarked_matmuls(source: str):
    """Line numbers of every `@` product (binary or augmented) on a line without the MARK comment."""
    lines = source.splitlines()
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            if MARK not in lines[node.lineno - 1]:
                found.add(node.lineno)
    return sorted(found)


def test_unmarked_matmuls_are_caught():
    source = (
        "y = A.dot(x)\n"
        "z = A @ x\n"
        "w = (u @ G) @ u  # keeps @: batched G\n"
        "v @= B\n"
        "s = '@ in a string'  # and in a comment: A @ x\n"
        "t = f(  # keeps @: the mark must be on the product's own line\n    A @ x)\n"
    )
    assert unmarked_matmuls(source) == [2, 4, 7]


def test_per_state_modules_use_dot():
    found = {}
    for name in PER_STATE:
        path = ROOT / "src" / "projctl" / f"{name}.py"
        if lines := unmarked_matmuls(path.read_text(encoding="utf-8")):
            found[name] = lines
    assert found == {}
