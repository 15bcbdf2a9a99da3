import numpy as np
import pytest

from dsmsolve import Operator, bisection_1d, damped_newton, make_operator, oracle_solve
from dsmsolve.gallery import _tridiag_matrix
from dsmsolve.oracle import OracleFailure


def test_newton_scalar_cubic():
    # Newton starts at 0, where F'(0) = 0 is singular; the oracle then bisects
    op = make_operator("scalar_cubic")
    with pytest.raises(OracleFailure, match="singular Jacobian"):
        damped_newton(op, [8.0])
    assert oracle_solve(op, [8.0]) == pytest.approx([2.0], abs=1e-10)


def test_newton_stall_at_rounding_level_returns():
    # a spd_tridiag/200 target on which the line search stalls at a residual
    # of about 1e-12, just above the absolute tolerance
    h = np.random.default_rng([12, 1, 2, 3]).standard_normal(200)
    norm = float(np.linalg.norm(h))
    if norm > 10.0:
        h *= 10.0 / norm
    x = oracle_solve(make_operator("spd_tridiag", 200), h)
    assert np.linalg.norm(x - np.linalg.solve(_tridiag_matrix(200), h)) <= 1e-9


def test_newton_multidim():
    op = make_operator("skew_plus_cubic", 5)
    h = np.array([1.0, -1.0, 2.0, 0.5, -0.3])
    x = oracle_solve(op, h)
    assert np.linalg.norm(np.asarray(op.fn(x)) - h) <= 1e-10


def test_bisection_matches_newton():
    op = make_operator("scalar_affine_sin")
    xb = bisection_1d(op, [3.0])
    xn = damped_newton(op, [3.0])
    assert xb == pytest.approx(xn, abs=1e-10)
    assert xb == pytest.approx([1.0630731347759914], abs=1e-10)


def test_bisection_requires_scalar():
    with pytest.raises(ValueError):
        bisection_1d(make_operator("identity", 2), [1.0, 1.0])


def test_oracle_failure_on_unsolvable():
    # rank-one projector cannot reach targets off its range
    op = make_operator("rank_one_projector", 3)
    with pytest.raises(OracleFailure):
        damped_newton(op, np.array([1.0, 1.0, 0.0]))
    # a wrong-signed Jacobian makes every Newton step ascend: the line search
    # stalls at residual 2, far above rounding level, and must still fail
    wrong = Operator("wrong_jacobian", 2, fn=lambda u: u + 1.0, jac=lambda u: -np.eye(2))
    with pytest.raises(OracleFailure, match="line search stalled"):
        damped_newton(wrong, np.array([-1.0, 1.0]))
