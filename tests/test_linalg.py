import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dgetrf, dgetrs

from dsmsolve import (
    ContinuationSchedule,
    FlowConfig,
    LowerBidiagonal,
    SingularSystemError,
    jacobian,
    make_operator,
    min_sym_eig,
    run_continuation,
    solve_regularized,
)
from dsmsolve import flow, linalg
from dsmsolve.gallery import NumericalEvaluationError
from dsmsolve.validation import unit_directions

from certificates import inv_norm_bound_check
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
    with pytest.raises(ValueError):
        solve_regularized(LowerBidiagonal(np.ones(2), np.ones(1)), 0.0, np.array([1.0, 1.0]))


@pytest.mark.parametrize("diag, sub", [((3,), (3,)), ((3,), (1,)), ((2,), (1,)), ((3, 1), (2,))])
def test_solve_rejects_a_malformed_bidiagonal(diag, sub):
    with pytest.raises(ValueError, match="incompatible with rhs dim 3"):
        solve_regularized(LowerBidiagonal(np.ones(diag), np.ones(sub)), 0.5, np.ones(3))


@pytest.mark.parametrize("rhs", [np.float64(1.0), np.ones((3, 1)), np.arange(9.0).reshape(3, 3)])
def test_solve_rejects_an_rhs_that_is_not_a_vector(rhs):
    """Every form refuses a 0-d or 2-D rhs.  Unchecked, the diagonal divided an
    (n, n) rhs along the wrong axis, and the other forms solved it by columns."""
    d = np.array([1.0, 2.0, 3.0])
    for J in (d, np.diag(d), LowerBidiagonal(d, np.zeros(2))):
        with pytest.raises(ValueError, match="is not a vector"):
            solve_regularized(J, 0.5, rhs)


@pytest.mark.parametrize("n", [1, 3, 20])
@pytest.mark.parametrize("form", ["diagonal", "bidiagonal", "matrix"])
def test_singular_at_the_threshold_and_solved_one_ulp_above(getrf_calls, form, n):
    """The singularity rule itself: a smallest pivot of exactly
    eps * max(1, top) * n raises, carrying it; the next float above solves.

    A + aI has the pivot a at row n // 2 and 4.0 elsewhere on its diagonal, so
    top = max |entry| is 4.0, or a itself when n = 1."""
    threshold = np.finfo(float).eps * (4.0 if n > 1 else 1.0) * n
    k = n // 2
    diag = np.full(n, 4.0 - threshold)  # + a rounds to 4.0 for either a below
    diag[k] = 0.0
    sub = np.ones(n - 1)
    sub[k : k + 1] = 0.0  # |sub[k]| <= the pivot: getrf swaps no rows
    B = LowerBidiagonal(diag, sub)
    M = np.diag(diag) + np.triu(np.ones((n, n)), 1)  # triangular: U is M + aI
    J, dense = {"diagonal": (diag, np.diag(diag)), "bidiagonal": (B, B.dense()), "matrix": (M, M)}[form]
    rhs = np.linspace(-1.0, 1.0, n)
    for a in (threshold, np.nextafter(threshold, np.inf)):
        assert (diag + a).tolist() == [a if i == k else 4.0 for i in range(n)]
        if a == threshold:
            with pytest.raises(SingularSystemError) as exc:
                solve_regularized(J, a, rhs)
            assert exc.value.pivot == a
        else:
            x = solve_regularized(J, a, rhs)
            assert x.tobytes() == _reference_solve(dense, a, rhs).tobytes()


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
    assert rep.samples_checked == 5
    assert rep.worst_value == pytest.approx(10.0)
    w, x = rep.witness  # the probe and its solve, which sets the worst value
    assert a * np.linalg.norm(x) == rep.worst_value
    np.testing.assert_allclose(0.1 * a * x, w, rtol=1e-12)


@pytest.fixture
def getrf_calls(monkeypatch):
    """Count LAPACK getrf calls, starting from an empty factor memo."""
    calls = []
    getrf = linalg.dgetrf

    def counted(*args, **kwargs):
        calls.append(1)
        return getrf(*args, **kwargs)

    monkeypatch.setattr(linalg, "dgetrf", counted)
    monkeypatch.setattr(linalg, "_last_factor", None)
    return calls


def test_unchanged_system_reuses_its_factors(getrf_calls):
    rng = np.random.default_rng(7)
    for k in range(100):
        n = (1, 5, 20, 200)[k % 4]
        A = rng.uniform(-10.0, 10.0, size=(n, n))
        a = float(rng.uniform(0.01, 2.0))
        for _ in range(2):
            rhs = rng.uniform(-10.0, 10.0, size=n)
            x = solve_regularized(A, a, rhs)
            assert x.tobytes() == _reference_solve(A, a, rhs).tobytes(), (k, n)
        assert len(getrf_calls) == k + 1


def test_changed_system_misses_the_memo(getrf_calls):
    rng = np.random.default_rng(8)
    A = rng.uniform(-10.0, 10.0, size=(20, 20))
    rhs = rng.uniform(-10.0, 10.0, size=20)
    B = A.copy()
    B[3, 4] = np.nextafter(B[3, 4], np.inf)  # 1 ulp
    for M, a in ((A, 0.5), (B, 0.5), (A, 0.5), (A, np.nextafter(0.5, 1.0))):
        assert solve_regularized(M, a, rhs).tobytes() == _reference_solve(M, a, rhs).tobytes()
    assert len(getrf_calls) == 4
    # the memo keys on the bytes of A, so -0.0 entries miss it, although A + aI
    # (where an off-diagonal -0.0 becomes +0.0) and the solution are the same
    Z = np.zeros((3, 3))
    solve_regularized(Z, 0.5, np.ones(3))
    x = solve_regularized(-Z, 0.5, np.ones(3))
    assert len(getrf_calls) == 6
    assert x.tobytes() == _reference_solve(-Z, 0.5, np.ones(3)).tobytes()


def test_failing_systems_raise_on_every_call(getrf_calls):
    good, rhs = np.eye(3), np.ones(3)
    for _ in range(2):
        solve_regularized(good, 0.5, rhs)
        with pytest.raises(SingularSystemError):
            solve_regularized(-0.5 * np.eye(3), 0.5, rhs)
        with pytest.raises(SingularSystemError):
            inv_norm_bound_check(-0.5 * np.eye(3), 0.5, 3, 0)
        with pytest.raises(NumericalEvaluationError):
            solve_regularized(np.full((3, 3), np.nan), 0.5, rhs)
    # the good system stays memoized; each singular one is factored anew
    assert len(getrf_calls) == 5


def test_mutating_the_matrix_changes_the_answer(getrf_calls):
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    rhs = np.array([1.0, 1.0])
    x = solve_regularized(A, 1.0, rhs)
    A[0, 1] = 0.0
    y = solve_regularized(A, 1.0, rhs)
    np.testing.assert_allclose(y, [1 / 3, 1 / 4], rtol=1e-15)
    assert x.tobytes() != y.tobytes()
    assert len(getrf_calls) == 2


def _continuation(op, seed):
    h = np.random.default_rng(seed).standard_normal(op.dim)
    return run_continuation(op, h, ContinuationSchedule(), FlowConfig())


@pytest.mark.parametrize("name, dim", [("spd_tridiag", 20), ("skew_plus_cubic", 5)])
def test_factorizations_per_continuation(getrf_calls, monkeypatch, name, dim):
    """A constant Jacobian factors once per stage, a bidiagonal one never.

    The report equals, byte for byte, that of a run that factors on every solve.
    """
    solves = []
    solve = flow.solve_regularized

    def fresh(*args):
        solves.append(1)
        linalg._last_factor = None
        return solve(*args)

    rep = _continuation(make_operator(name, dim), dim)
    factored = len(getrf_calls)
    monkeypatch.setattr(flow, "solve_regularized", fresh)
    fresh_rep = _continuation(make_operator(name, dim), dim)
    assert rep.to_json() == fresh_rep.to_json()
    assert rep.final_u.tobytes() == fresh_rep.final_u.tobytes()
    if name == "spd_tridiag":
        assert len(getrf_calls) - factored == len(solves)
        assert factored == len(rep.stages) < len(solves)
    else:  # a bidiagonal Jacobian gets its factors without getrf
        assert len(getrf_calls) == 0 < len(solves)


@pytest.mark.parametrize("name, factorizations", [
    ("convex_gradient", 0), ("identity", 0), ("scalar_cubic", 0),
    ("skew_plus_cubic", 0), ("spd_tridiag", 7),
])
def test_factorizations_at_dim_20(getrf_calls, name, factorizations):
    """A diagonal or bidiagonal Jacobian is never factored; a dense one as often as ever."""
    _continuation(make_operator(name, 20), 20)
    assert len(getrf_calls) == factorizations


@pytest.mark.parametrize("name, factorizations", [
    ("convex_gradient", 7009), ("identity", 7), ("scalar_cubic", 6487),
    ("skew_plus_cubic", 7099),
])
def test_diagonal_jacobian_gives_the_dense_report(getrf_calls, name, factorizations):
    """The same operator with its diagonal or bidiagonal Jacobian expanded to
    n x n factors at every changed system, and its report has the same bytes."""
    op = make_operator(name, 20)
    rep = _continuation(op, 20)
    assert not getrf_calls
    dense_rep = _continuation(dataclasses.replace(op, jac=lambda u: jacobian(op, u)), 20)
    assert len(getrf_calls) == factorizations
    assert rep.to_json() == dense_rep.to_json()


def test_diagonal_solves_leave_the_factor_memo_alone(getrf_calls):
    # identity's diagonal is a fresh ones(n) at every point: divided anew each time
    A = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 4.0]])
    rhs = np.array([1.0, -2.0, 0.5])
    diagonals = ((np.ones(3), 0.5), (np.ones(3), 0.5), (np.arange(3.0), 0.25))
    for d, a in diagonals:
        assert solve_regularized(d, a, rhs).tobytes() == (rhs / (d + a)).tobytes()
        assert linalg._last_factor is None
    x = solve_regularized(A, 0.5, rhs)
    memo = linalg._last_factor
    for d, a in diagonals:
        solve_regularized(d, a, rhs)
        with pytest.raises(SingularSystemError):
            solve_regularized(np.full(3, -a), a, rhs)  # a zero pivot, raised without touching the memo
        assert linalg._last_factor is memo
        assert solve_regularized(A, 0.5, rhs).tobytes() == x.tobytes()
    assert len(getrf_calls) == 1


def test_diagonal_and_matrix_of_one_do_not_share_the_memo(getrf_calls):
    # a (1,) and a (1, 1) array have the same bytes, but a diagonal never reads
    # the memo, so the matrix is factored once and its factors survive the diagonals
    for J in (np.array([2.0]), np.array([[2.0]]), np.array([2.0]), np.array([[2.0]])):
        assert solve_regularized(J, 0.5, np.array([5.0])).tobytes() == np.array([2.0]).tobytes()
    assert len(getrf_calls) == 1


@pytest.mark.parametrize("d, a, rhs", [
    ([0.0], 1e-10, [1e300]),  # min|d + a| < 1: the quotient overflows to inf
    ([1.0, 1e-10], 1e-12, [1.0, -1e300]),
    ([1.0], 1e-12, [1.7e308]),  # min|d + a| >= 1: no quotient can overflow
])
def test_diagonal_overflow_is_silent(d, a, rhs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = solve_regularized(np.array(d), a, np.array(rhs))
    assert x.tolist() == [r / (di + a) for di, r in zip(d, rhs)]  # Python floats: inf, no error


def _bidiagonal_systems(rng, n, count):
    """Seeded (B, a) whose B + aI getrf factors without a row swap: positive and
    mixed-sign diagonals over six decades, subdiagonals with +0.0 and -0.0
    entries, and ties |sub[k]| == |diag[k] + a|, which getrf does not swap."""
    for k in range(count):
        a = float(10.0 ** rng.uniform(-9.0, 1.0))
        diag = rng.uniform(0.5, 2.0, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        if k % 4:
            diag *= rng.choice([-1.0, 1.0], n)
        da = diag + a
        sub = da[:-1] * rng.uniform(-1.0, 1.0, n - 1)
        mask = rng.random(n - 1) < 0.5
        if k % 4 == 2:
            sub[mask] = rng.choice([0.0, -0.0], int(mask.sum()))
        elif k % 4 == 3:
            sub[mask] = da[:-1][mask] * rng.choice([-1.0, 1.0], int(mask.sum()))
        yield LowerBidiagonal(diag, sub), a


@pytest.mark.parametrize("n", [1, 2, 3, 5, 20, 64, 65, 129, 200])
def test_bidiagonal_factors_are_getrf_bit_for_bit(getrf_calls, n):
    """The closed-form factors of a lower bidiagonal B + aI are LAPACK getrf's,
    signed zeros included, and getrs on them gives getrf + getrs's solution.

    The sizes cross the BLAS's block edges.  This guards the one step that
    rests on LAPACK's implementation, not on the algorithm: getf2 scales a
    column by the reciprocal of its pivot, not by division.
    """
    rng = np.random.default_rng(n)
    dense = rng.uniform(-1.0, 1.0, size=(n, n))
    solve_regularized(dense, 0.5, np.ones(n))
    memo = linalg._last_factor
    for B, a in _bidiagonal_systems(rng, n, 100):
        lu, piv, info = dgetrf(B.dense() + a * np.eye(n))
        assert info == 0 and (piv == np.arange(n)).all()
        d = B.diag + a
        factors = linalg._bidiagonal_lu(d, B.sub, float(d.min()), n)
        assert factors[0].flags.f_contiguous
        assert factors[0].tobytes(order="F") == lu.tobytes(order="F"), (n, B, a)
        assert factors[1].tobytes() == piv.tobytes()
        rhs = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        assert solve_regularized(B, a, rhs).tobytes() == dgetrs(lu, piv, rhs)[0].tobytes()
    assert len(getrf_calls) == 1  # the dense system's; its factors stay the memo's
    assert linalg._last_factor is memo


def test_bidiagonal_that_would_swap_rows_is_solved_as_a_matrix(getrf_calls, monkeypatch):
    built = []
    build = linalg._bidiagonal_lu
    monkeypatch.setattr(linalg, "_bidiagonal_lu", lambda *args: built.append(1) or build(*args))
    rng = np.random.default_rng(12)
    for k, n in enumerate((2, 5, 20, 200)):
        diag = rng.uniform(0.5, 2.0, n)
        sub = rng.uniform(-0.5, 0.5, n - 1)
        i = int(rng.integers(n - 1))
        sub[i] = np.nextafter(diag[i] + 0.25, np.inf) * rng.choice([-1.0, 1.0])  # 1 ulp past a tie
        B = LowerBidiagonal(diag, sub)
        rhs = rng.uniform(-1.0, 1.0, n)
        x = solve_regularized(B, 0.25, rhs)
        assert x.tobytes() == _reference_solve(B.dense(), 0.25, rhs).tobytes(), n
        assert len(getrf_calls) == k + 1 and not built  # factored by getrf, not written out
    assert len(getrf_calls) == 4


@pytest.mark.parametrize("diag, sub, a", [
    ([1.0, np.nan, 1.0], [0.5, 0.5], 0.5),
    ([1.0, 1.0, np.nan], [0.5, 0.5], 0.5),  # the one diagonal entry no |sub| is compared with
    ([np.inf, 1.0, 1.0], [0.5, 0.5], 0.5),
    ([-np.inf, 1.0, 1.0], [np.inf, 0.5], 0.5),
    ([1.0, 1.0, 1.0], [np.nan, 0.5], 0.5),
    ([1.0, 1.0, 1.0], [0.5, -np.inf], 0.5),
    ([1.7e308, 1.0, 1.0], [0.0, 0.0], 1e308),  # diag + a overflows
    ([1.0, -0.5, 1.0], [0.0, 0.0], 0.5),  # an exactly zero pivot
    ([1.0, -0.5, 1.0], [0.0, -0.0], 0.5),
    ([1.0, -0.5 + 2.0**-54, 1.0], [0.0, 0.0], 0.5),  # a tiny one
    ([-0.5 - 2.0**-53, 1.0, 1.0], [0.0, 0.5], 0.5),  # a tiny negative one
    ([1.0, -0.5, 1.0], [0.0, 1.0], 0.5),  # a row swap: solved, and refused, as a matrix
])
def test_bidiagonal_errors_are_the_dense_paths(getrf_calls, diag, sub, a):
    """A bidiagonal raises what its dense matrix raises: same type, message and pivot."""
    B = LowerBidiagonal(np.array(diag), np.array(sub))
    with np.errstate(over="ignore"):  # as the CLI runs, so diag + a may overflow quietly
        with pytest.raises((SingularSystemError, NumericalEvaluationError)) as dense_exc:
            solve_regularized(B.dense(), a, np.ones(3))
        with pytest.raises(type(dense_exc.value)) as exc:
            solve_regularized(B, a, np.ones(3))
    assert str(exc.value) == str(dense_exc.value)
    assert getattr(exc.value, "pivot", None) == getattr(dense_exc.value, "pivot", None)


class _FinitenessSpy:
    """linalg's numpy, but keeping a copy of every array whose finiteness is checked."""

    def __init__(self):
        self.checked = []

    def __getattr__(self, name):
        return getattr(np, name)

    def isfinite(self, x):
        self.checked.append(np.array(x))
        return np.isfinite(x)


def _layouts(A):
    """A as a C-ordered, a Fortran-ordered and a non-contiguous array."""
    n = A.shape[0]
    wide = np.full((n, 2 * n), np.pi)
    wide[:, ::2] = A
    return np.ascontiguousarray(A), np.asfortranarray(A), wide[:, ::2]


@pytest.mark.parametrize("n", [1, 2, 5, 20])
def test_dense_miss_forms_a_plus_a_eye_bit_for_bit(monkeypatch, n):
    """The matrix a dense miss checks and factors is A + a * np.eye(n), bit for bit,
    signed zeros, infinities and nans included, whatever the layout of A."""
    rng = np.random.default_rng(n)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    spy = _FinitenessSpy()
    monkeypatch.setattr(linalg, "np", spy)
    for k in range(40):
        A = rng.uniform(-10.0, 10.0, size=(n, n)) * 10.0 ** rng.integers(-300, 300, size=(n, n))
        # odd k puts specials on about half the entries: only signed zeros when
        # k % 4 == 1, so the matrix stays finite and is factored, any of the five else
        mask = rng.random((n, n)) < (0.5 if k % 2 else 0.0)
        A[mask] = rng.choice(specials[: 2 if k % 4 == 1 else 5], size=int(mask.sum()))
        a = float(10.0 ** rng.uniform(-300, 300))
        expected = (A + a * np.eye(n)).tobytes()
        rhs = rng.uniform(-1.0, 1.0, size=n)
        for M in _layouts(A):
            before = M.tobytes()
            linalg._last_factor = None
            try:
                solve_regularized(M, a, rhs)
            except (SingularSystemError, NumericalEvaluationError):
                pass
            assert spy.checked[-1].tobytes() == expected, (n, k)
            assert M.tobytes() == before  # A itself is never shifted
