"""The per-state LAPACK helpers return np.linalg's bits and raise its errors.

`constraint_geometry._svd`, `_inv` and `_solve` call the gufuncs behind
`np.linalg.svd`, `inv` and `solve` directly.  They must agree with np.linalg
bit for bit on the matrices the program factors, raise the same LinAlgError,
and be the only route to those factorizations in the per-state modules.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projctl.constraint_geometry import _inv, _solve, _svd

ROOT = Path(__file__).resolve().parent.parent
PER_STATE = ("constraint_geometry", "constrained_dynamics", "task_space", "control_laws", "simulate", "torque_qcqp")
GUARDED = ("svd", "inv", "solve", "norm")
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _spd(rng, n):
    G = rng.standard_normal((n, n))
    return G.T.dot(G) + 0.1 * np.eye(n)


def _task_map(n):
    return lambda rng: rng.standard_normal((1, n))


def _contact_stack(k, n):
    """A planar stack: 3k rows whose y row per contact is identically zero, so its rank is 2k."""

    def draw(rng):
        A = rng.standard_normal((3 * k, n))
        A[1::3] = 0.0
        return A

    return draw


def _kkt(rng):
    """[[H, E^T], [E, 0]] with a 3x3 SPD H and one equality row."""
    E = rng.standard_normal((1, 3))
    return np.block([[_spd(rng, 3), E.T], [E, np.zeros((1, 1))]])


SVD_SHAPES = {
    "task 1x3": _task_map(3),
    "task 1x5": _task_map(5),
    "contact 3x3 rank 2": _contact_stack(1, 3),
    "contact 6x5 rank 4": _contact_stack(2, 5),
    "P B 5x2": lambda rng: rng.standard_normal((5, 2)),
}
SQUARE_SHAPES = {
    "M_bar 3x3": lambda rng: _spd(rng, 3),
    "M_bar 5x5": lambda rng: _spd(rng, 5),
    "KKT 4x4": _kkt,
    "Hessian 2x2": lambda rng: _spd(rng, 2),
}


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.sampled_from(sorted(SVD_SHAPES)), st.booleans())
def test_svd_matches_numpy(seed, kind, full):
    A = SVD_SHAPES[kind](np.random.default_rng(seed))
    got, want = _svd(A, full=full), np.linalg.svd(A, full_matrices=full)
    assert len(got) == 3
    for ours, theirs in zip(got, want):
        assert ours.shape == theirs.shape and np.array_equal(ours, theirs)


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.sampled_from(sorted(SQUARE_SHAPES)))
def test_inv_and_solve_match_numpy(seed, kind):
    rng = np.random.default_rng(seed)
    A = SQUARE_SHAPES[kind](rng)
    b = rng.standard_normal(A.shape[0])
    assert np.array_equal(_inv(A), np.linalg.inv(A))
    assert np.array_equal(_solve(A, b), np.linalg.solve(A, b))


def test_errors_are_numpys():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            _inv(singular)
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            _solve(singular, np.ones(2))
        with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
            _svd(np.full((3, 3), np.nan))
        with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
            _svd(np.full((5, 2), np.nan), full=True)


def unrouted_calls(source: str):
    """Line numbers of every np.linalg.svd / inv / solve / norm call; the helpers call the gufuncs instead."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        func = node.func if isinstance(node, ast.Call) else None
        if (
            isinstance(func, ast.Attribute)
            and func.attr in GUARDED
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "linalg"
        ):
            found.add(node.lineno)
    return sorted(found)


def test_unrouted_calls_are_caught():
    source = (
        "y = _solve(A, b)\n"
        "x = np.linalg.solve(A, b)\n"
        "n = numpy.linalg.norm(v)\n"
        "s = np.linalg.lstsq(A, b)\n"
        "e = np.linalg.LinAlgError\n"
        "w = 'np.linalg.inv(A)'  # np.linalg.inv(A)\n"
        "m = np.linalg.inv(\n    A)\n"
    )
    assert unrouted_calls(source) == [2, 3, 7]


def test_per_state_modules_route_lapack_through_the_helpers():
    found = {}
    for name in PER_STATE:
        path = ROOT / "src" / "projctl" / f"{name}.py"
        if lines := unrouted_calls(path.read_text(encoding="utf-8")):
            found[name] = lines
    assert found == {}
