import warnings

import numpy as np
import pytest
import scipy.linalg

from dsmsolve import (
    SingularSystemError,
    inv_norm_bound_check,
    jacobian,
    make_operator,
    min_sym_eig,
    solve_regularized,
)
from dsmsolve.validation import unit_directions

from conftest import MONOTONE_NAMES, seeded_points


def test_solve_zero_matrix():
    x = solve_regularized(np.array([[0.0]]), 0.25, np.array([1.0]))
    assert x == pytest.approx([4.0])


def test_solve_identity():
    x = solve_regularized(np.eye(2), 1.0, np.array([2.0, 4.0]))
    np.testing.assert_allclose(x, [1.0, 2.0])


def test_solve_skew_2x2():
    # (A + 0.5 I) x = [1, 0] with A = [[0,1],[-1,0]]: x = [0.4, 0.8]
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    x = solve_regularized(A, 0.5, np.array([1.0, 0.0]))
    np.testing.assert_allclose(x, [0.4, 0.8], rtol=1e-12)
    assert np.linalg.norm(x) <= np.linalg.norm([1.0, 0.0]) / 0.5


def test_solve_rejects_nonpositive_a():
    with pytest.raises(ValueError):
        solve_regularized(np.eye(2), 0.0, np.array([1.0, 1.0]))


def _reference_solve(A, a, rhs):
    """scipy's lu_factor/lu_solve on A + a*np.eye(n): the same LAPACK routines."""
    lu_piv = scipy.linalg.lu_factor(A + a * np.eye(A.shape[0]), check_finite=False)
    return scipy.linalg.lu_solve(lu_piv, rhs, check_finite=False)


def test_solve_singular_raises():
    # A = -aI makes A + aI exactly singular: a zero pivot, raised without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystemError) as exc:
            solve_regularized(-0.5 * np.eye(3), 0.5, np.ones(3))
    assert exc.value.pivot >= 0.0


def test_solve_residual_seeded_systems():
    """Multiply-back residual stays at solver precision on random systems."""
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(1, 51))
        A = rng.uniform(-10.0, 10.0, size=(n, n))
        a = float(rng.uniform(0.01, 2.0))
        rhs = rng.uniform(-10.0, 10.0, size=n)
        x = solve_regularized(A, a, rhs)
        res = np.linalg.norm((A + a * np.eye(n)) @ x - rhs)
        assert res / max(np.linalg.norm(rhs), 1e-300) <= 1e-10
        assert x.tobytes() == _reference_solve(A, a, rhs).tobytes()


def test_min_sym_eig_skew():
    assert min_sym_eig(np.array([[0.0, 1.0], [-1.0, 0.0]])) == pytest.approx(0.0, abs=1e-14)


def test_min_sym_eig_identity():
    assert min_sym_eig(np.eye(3)) == pytest.approx(1.0)


def test_min_sym_eig_negation_jacobian():
    J = jacobian(make_operator("scalar_negation"), [3.7])
    assert min_sym_eig(J) == pytest.approx(-1.0)


def test_min_sym_eig_symmetrization_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = rng.standard_normal((6, 6))
        S = 0.5 * (A + A.T)
        assert abs(min_sym_eig(A) - min_sym_eig(S)) <= 1e-12


def test_inv_norm_bound_zero_matrix():
    rep = inv_norm_bound_check(np.zeros((1, 1)), 0.1, 10, 0)
    assert rep.passed
    assert rep.worst_value == pytest.approx(1.0)  # bound is tight when A = 0


def test_inv_norm_bound_identity():
    rep = inv_norm_bound_check(np.eye(2), 1.0, 10, 0)
    assert rep.passed
    assert rep.worst_value == pytest.approx(0.5)


def test_inv_norm_bound_skew_plus_cubic():
    op = make_operator("skew_plus_cubic", 5)
    u = seeded_points(9, 1, 5)[0]
    rep = inv_norm_bound_check(jacobian(op, u), 0.01, 50, 3)
    assert rep.passed


def test_inv_norm_bound_gallery_sweep(gallery5):
    """||(F'(u) + aI)^-1|| <= 1/a holds at seeded points for monotone members.

    Every solve is also bit-identical to the scipy reference.
    """
    for op in gallery5:
        if op.name not in MONOTONE_NAMES:
            continue
        probes = unit_directions(np.random.default_rng(77), 50, op.dim)
        for u in seeded_points(21, 20, op.dim):
            J = jacobian(op, u)
            for a in (1.0, 0.1, 0.01):
                rep = inv_norm_bound_check(J, a, 50, 77)
                assert rep.passed, (op.name, a)
                worst = max(a * float(np.linalg.norm(_reference_solve(J, a, w))) for w in probes)
                assert rep.worst_value == worst, (op.name, a)
                x = solve_regularized(J, a, u)
                assert x.tobytes() == _reference_solve(J, a, u).tobytes(), (op.name, a)


def test_inv_norm_bound_violated_for_negative_definite():
    # A = -0.9 aI gives ||(A+aI)^-1|| = 10/a > 1/a
    a = 0.5
    rep = inv_norm_bound_check(-0.9 * a * np.eye(2), a, 5, 0)
    assert not rep.passed
    assert rep.worst_value == pytest.approx(10.0)
    assert rep.witness is not None
