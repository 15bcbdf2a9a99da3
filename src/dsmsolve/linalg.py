"""Kernels for the regularized systems (A + aI)x = rhs.

Monotonicity of the underlying map makes A positive semidefinite in the
symmetric-part sense, which gives ||(A+aI)^-1|| <= 1/a.

A is F'(u) in the form the operator declared.  An (n, n) matrix is factored
by LAPACK getrf/getrs, called directly.  An (n,) vector is the diagonal of
F'(u), and the system is solved as rhs / (A + a): where no quotient
overflows, that is what getrs returns for the diagonal matrix, bit for bit.
A LowerBidiagonal(diag, sub) gets getrf's factors in closed form, since
getrf on it swaps no rows while every |sub[k]| <= |diag[k] + a|: U is
diag(diag + a), and column k of L is getf2's scaling of column k by
1 / (diag[k] + a), so sub[k] * (1 / (diag[k] + a)) and, below that, zeros
carrying the sign of the reciprocal.  Those factors go to the same getrs.  A
bidiagonal that would swap rows is expanded and solved as a matrix.  All
forms raise the same errors with the same pivot, and the tiny-pivot check
(SingularSystemError) also covers an exactly zero pivot (getrf info > 0).  A
diagonal or a bidiagonal is solved afresh on every call.  An unchanged
matrix reuses its last successful factorization, keyed on a and the exact
bytes of A, so a linear operator, whose Jacobian is constant, factors once
per value of a.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .gallery import LowerBidiagonal, NumericalEvaluationError


class SingularSystemError(np.linalg.LinAlgError):
    """A + aI numerically singular; evidence against monotonicity of F.

    Carries the offending pivot magnitude.
    """

    def __init__(self, pivot: float):
        super().__init__(f"regularized system numerically singular (min pivot {pivot:.3e})")
        self.pivot = pivot


_EPS = np.finfo(float).eps


def check_a(a: float) -> None:
    """The one rule for a regularization parameter: 0 < a < inf (so not nan)."""
    if not 0.0 < a < np.inf:
        raise ValueError("regularization parameter a must be positive and finite")


# ((a, A bytes), lu, piv) of the last factorization that passed its checks.
# The system is a function of the key's bits, so a hit returns what a miss
# would compute and the checks, which read only those bits, still hold; and a
# hit does not form A + aI.  A failing system is never stored, so it raises
# on every call.
_last_factor = None


def solve_regularized(A: np.ndarray | LowerBidiagonal, a: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (A + aI)x = rhs: an (n, n) A by LU with partial pivoting, the (n,)
    diagonal of one by division, a LowerBidiagonal by getrs on its closed-form
    LU factors."""
    global _last_factor
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    if isinstance(A, LowerBidiagonal):
        factors = _bidiagonal_factors(A, a, n)
        if factors is not None:
            return dgetrs(*factors, rhs)[0]
        A = A.dense()  # getrf would swap rows
    A = np.asarray(A, dtype=float)
    if A.shape != (n, n) and A.shape != (n,):
        raise ValueError(f"matrix shape {A.shape} incompatible with rhs dim {n}")
    check_a(a)
    if A.ndim == 1:
        # getrf on diag(A) + aI pivots on A + a, with no row swap
        da = A + a
        if not np.isfinite(da).all():
            raise NumericalEvaluationError("non-finite matrix entries")
        mag = np.abs(da)
        pivot = float(mag.min())
        if pivot <= _EPS * max(1.0, float(mag.max())) * n:
            raise SingularSystemError(pivot)
        if pivot >= 1.0:  # |rhs / (A + a)| <= |rhs|: no quotient can overflow
            return rhs / da
        with np.errstate(over="ignore"):  # getrs, too, overflows to inf silently
            return rhs / da
    key = (a, A.tobytes())
    memo = _last_factor  # one read, so the key and the factors belong together
    if memo is None or memo[0] != key:
        # A + a * eye(n) bit for bit: + 0.0 turns an off-diagonal -0.0 into
        # +0.0, as a * 0.0 does.  C order makes ravel() a view of Aa whatever
        # the layout of A, so the shift lands in Aa.
        Aa = np.add(A, 0.0, order="C")
        Aa.ravel()[:: n + 1] += a
        if not np.isfinite(Aa).all():
            raise NumericalEvaluationError("non-finite matrix entries")
        tiny = _EPS * max(1.0, float(np.abs(Aa).max())) * n
        lu, piv, _ = dgetrf(Aa)
        pivot = float(np.abs(lu.diagonal()).min())
        if pivot <= tiny:
            raise SingularSystemError(pivot)
        lu.flags.writeable = piv.flags.writeable = False  # shared by every hit
        memo = _last_factor = (key, lu, piv)
    return dgetrs(memo[1], memo[2], rhs)[0]


def _bidiagonal_factors(B: LowerBidiagonal, a: float, n: int):
    """getrf's (lu, piv) for B + aI, bit for bit, lu in Fortran order; None
    when getrf would swap rows.  Raises what the dense path raises."""
    d = np.asarray(B.diag, dtype=float)
    s = np.asarray(B.sub, dtype=float)
    if d.shape != (n,) or s.shape != (n - 1,):
        raise ValueError(f"bidiagonal parts {d.shape}, {s.shape} incompatible with rhs dim {n}")
    check_a(a)
    d = d + a
    lo = float(d.min())
    mag = d if lo > 0.0 else np.abs(d)  # a positive diagonal is its own magnitude
    # getrf's pivot search takes the first largest entry, so it swaps rows
    # iff some |s[k]| > |d[k]|; a nan fails this test too, and the dense
    # path then raises on it
    if not (np.abs(s) <= mag[:-1]).all():
        return None
    top = float(mag.max())  # >= every |s[k]|
    if not top < np.inf:
        raise NumericalEvaluationError("non-finite matrix entries")
    pivot = lo if lo > 0.0 else float(mag.min())
    if pivot <= _EPS * max(1.0, top) * n:
        raise SingularSystemError(pivot)
    r = 1.0 / d  # getf2 scales a column by the reciprocal of its pivot
    lu = np.zeros((n, n), order="F")
    if lo < 0.0:  # the zeros below the subdiagonal take their column's sign
        lu[np.tri(n, n, -2, dtype=bool) & np.signbit(r)] = -0.0
    flat = lu.ravel(order="F")
    flat[:: n + 1] = d
    flat[1 :: n + 1] = (s + 0.0) * r[:-1]  # + 0.0: getrf sees a -0.0 of sub as +0.0
    return lu, np.arange(n, dtype=np.int32)


def min_sym_eig(A: np.ndarray) -> float:
    """Minimum eigenvalue of the symmetric part (A + A^T)/2."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite matrix entries")
    return float(np.linalg.eigvalsh(0.5 * (A + A.T))[0])
