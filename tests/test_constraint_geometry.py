from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projctl.constraint_geometry import (
    _projector,
    null_projector,
    projector_rate,
    pseudo_inverse,
)
from projctl.errors import InputError
from projctl.models import floating_biped, planar_arm_contact

from conftest import ARM_HOME, BIPED_HOME
from oracles import projector_reference


def random_stack(rng, n=None, m=None, force_deficient=False):
    """Random m x n matrix, optionally with deliberately dependent rows."""
    n = n if n is not None else int(rng.integers(1, 9))
    m = m if m is not None else int(rng.integers(1, 7))
    A = rng.standard_normal((m, n))
    if force_deficient and m >= 2:
        A[-1] = A[0] * rng.standard_normal()
    if force_deficient and n >= 2:
        A[:, -1] = 0.0
    return A


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3))

    def test_zero_matrix(self):
        Ap = pseudo_inverse(np.zeros((2, 3)))
        assert Ap.shape == (3, 2)
        assert np.all(Ap == 0.0)

    def test_row_vector(self):
        Ap = pseudo_inverse(np.array([[2.0, 0.0]]))
        assert np.allclose(Ap, np.array([[0.5], [0.0]]))

    def test_normal_equations_oracle(self):
        # full-row-rank case: A^+ = A^T (A A^T)^-1
        rng = np.random.default_rng(7)
        for _ in range(50):
            A = rng.standard_normal((3, 6))
            expected = A.T @ np.linalg.inv(A @ A.T)
            assert np.allclose(pseudo_inverse(A), expected, atol=1e-12)

    def test_moore_penrose_identities(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            A = random_stack(rng, force_deficient=trial % 4 == 0)
            Ap = pseudo_inverse(A)
            assert np.allclose(A @ Ap @ A, A, atol=1e-10)
            assert np.allclose(Ap @ A @ Ap, Ap, atol=1e-10)
            assert np.allclose((A @ Ap).T, A @ Ap, atol=1e-10)
            assert np.allclose((Ap @ A).T, Ap @ A, atol=1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            pseudo_inverse(np.array([[np.nan, 1.0]]))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_tikhonov_limit_decreases(self, seed):
        # ||A^T (A A^T + eps I)^-1  -  A^+|| shrinks monotonically as eps -> 0
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 4)), int(rng.integers(4, 8))
        A = rng.standard_normal((m, n))
        if np.linalg.matrix_rank(A) < m:
            return
        Ap = pseudo_inverse(A)
        errs = []
        for eps in (1e-2, 1e-4, 1e-6):
            reg = A.T @ np.linalg.inv(A @ A.T + eps * np.eye(m))
            errs.append(np.linalg.norm(reg - Ap))
        assert errs[0] > errs[1] > errs[2]


class TestNullProjector:
    def test_axis_constraint(self):
        bundle = null_projector(np.array([[1.0, 0.0]]))
        assert np.allclose(bundle.P, np.diag([0.0, 1.0]))
        assert bundle.rank == 1

    def test_unconstrained(self):
        bundle = null_projector(np.zeros((3, 4)))
        assert np.allclose(bundle.P, np.eye(4))
        assert bundle.rank == 0

    def test_empty_rows(self):
        bundle = null_projector(np.zeros((0, 4)))
        assert np.allclose(bundle.P, np.eye(4))
        assert bundle.A_pinv.shape == (4, 0)

    def test_rank_deficient_stack(self):
        bundle = null_projector(np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert bundle.rank == 1
        assert np.allclose(bundle.P, np.diag([0.0, 1.0]), atol=1e-12)

    def test_svd_nullspace_oracle(self):
        # P must equal V2 V2^T built from the trailing right singular vectors
        rng = np.random.default_rng(3)
        for trial in range(100):
            A = random_stack(rng, force_deficient=trial % 3 == 0)
            bundle = null_projector(A)
            _, s, Vt = np.linalg.svd(A)
            smax = s[0] if s.size and s[0] > 0 else 1.0
            r = int(np.sum(s > 1e-10 * smax))
            V2 = Vt[r:].T
            assert np.allclose(bundle.P, V2 @ V2.T, atol=1e-10)

    def test_projection_algebra_bulk(self):
        # 1000 random stacks incl. >=20% rank-deficient; residuals <= 1e-10
        rng = np.random.default_rng(2024)
        worst = 0.0
        for trial in range(1000):
            A = random_stack(rng, force_deficient=trial % 4 == 0)
            n = A.shape[1]
            b = null_projector(A)
            worst = max(
                worst,
                np.abs(b.P @ b.P - b.P).max(),
                np.abs(b.P - b.P.T).max(),
                np.abs(b.P @ A.T).max() / max(1.0, np.abs(A).max()),
                abs(np.trace(b.P) - (n - b.rank)),
            )
        assert worst <= 1e-10


def circle_constraint(t):
    """1x2 Jacobian rotating on the unit circle, A(t) = [cos t, sin t]."""
    A = np.array([[np.cos(t), np.sin(t)]])
    A_dot = np.array([[-np.sin(t), np.cos(t)]])
    return A, A_dot


class TestProjectorRate:
    def test_static_constraint(self):
        A = np.array([[1.0, 2.0, 0.5]])
        L, Omega, P_dot = projector_rate(A, np.zeros_like(A))
        assert np.allclose(L, 0.0)
        assert np.allclose(Omega, 0.0)
        assert np.allclose(P_dot, 0.0)

    def test_omega_skew_by_construction(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            A = rng.standard_normal((2, 5))
            A_dot = rng.standard_normal((2, 5))
            _, Omega, _ = projector_rate(A, A_dot)
            assert np.abs(Omega + Omega.T).max() <= 1e-12

    def test_LT_annihilates_P(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            A = rng.standard_normal((3, 6))
            A_dot = rng.standard_normal((3, 6))
            L, _, _ = projector_rate(A, A_dot)
            assert np.abs(L.T @ null_projector(A).P).max() <= 1e-12

    def test_circle_finite_difference_oracle(self):
        h = 1e-6
        for t in np.linspace(0.1, 6.0, 25):
            A, A_dot = circle_constraint(t)
            _, _, P_dot = projector_rate(A, A_dot)
            P_plus = null_projector(circle_constraint(t + h)[0]).P
            P_minus = null_projector(circle_constraint(t - h)[0]).P
            fd = (P_plus - P_minus) / (2.0 * h)
            assert np.abs(P_dot - fd).max() <= 1e-6

    def test_omega_maps_nullspace_velocities(self):
        # Omega qd == P_dot qd for qd in null(A)
        rng = np.random.default_rng(8)
        for _ in range(100):
            A = rng.standard_normal((2, 6))
            A_dot = rng.standard_normal((2, 6))
            _, Omega, P_dot = projector_rate(A, A_dot)
            qd = null_projector(A).P @ rng.standard_normal(6)
            assert np.abs(Omega @ qd - P_dot @ qd).max() <= 1e-8

    def test_shape_mismatch(self):
        A = np.eye(2)
        with pytest.raises(InputError):
            projector_rate(A, np.zeros((3, 2)))


STACK_CASES = ("arm", (0,), (1,), (0, 1), "coincident", "empty")


@lru_cache(maxsize=None)
def contact_stacks():
    """(case, posture) -> contact stack: the arm tip, the biped under each active set,
    both feet at one point (rank 3, where two separate feet give 4) and an empty
    stack, at four postures each."""
    arm, biped = planar_arm_contact(), floating_biped()
    rng = np.random.default_rng(5)
    stacks = {}
    for k in range(4):
        q_arm = ARM_HOME + 0.3 * rng.standard_normal(3)
        q_biped = BIPED_HOME + 0.2 * rng.standard_normal(5)
        stacks["arm", k] = arm.contact_stack(q_arm, (0,))
        for active in ((0,), (1,), (0, 1)):
            stacks[active, k] = biped.contact_stack(q_biped, active)
        q_biped[4] = q_biped[3]
        stacks["coincident", k] = biped.contact_stack(q_biped, (0, 1))
        stacks["empty", k] = np.zeros((0, 3 if k % 2 else 5))
    assert all(np.linalg.matrix_rank(stacks["coincident", k]) == 3 for k in range(4))
    return stacks


class TestKeptProjector:
    """_projector keeps its last result; every result equals a fresh SVD's."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(STACK_CASES), st.integers(0, 3), st.integers(1, 3), st.booleans()),
            min_size=1,
            max_size=12,
        )
    )
    def test_interleaved_calls_match_a_fresh_svd(self, calls):
        for case, posture, repeats, public in calls:
            for _ in range(repeats):
                A = contact_stacks()[case, posture].copy()
                if public:
                    bundle = null_projector(A)
                    A_pinv, P, rank = bundle.A_pinv, bundle.P, bundle.rank
                else:
                    A_pinv, P, rank = _projector(A)
                ref_pinv, ref_P, ref_rank = projector_reference(A)
                assert rank == ref_rank
                assert np.array_equal(A_pinv, ref_pinv) and np.array_equal(P, ref_P)
                for out in (A_pinv, P):
                    with pytest.raises(ValueError, match="read-only"):
                        out[...] = 0.0

    def test_mutating_the_callers_stack_cannot_change_a_later_result(self):
        original = contact_stacks()[(0, 1), 0]
        A = original.copy()
        kept = _projector(A)
        A[0] += 1.0
        moved = _projector(A)
        again = _projector(original.copy())
        assert all(np.array_equal(x, y) for x, y in zip(moved, projector_reference(A)))
        for got in (kept, again):
            assert all(np.array_equal(x, y) for x, y in zip(got, projector_reference(original)))

