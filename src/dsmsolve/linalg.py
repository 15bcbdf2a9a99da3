"""Kernels for the regularized systems (A + aI)x = rhs.

Monotonicity of the underlying map makes A positive semidefinite in the
symmetric-part sense, which gives ||(A+aI)^-1|| <= 1/a.

A is F'(u) in the form the operator declared, and every form takes one path.
The vector rhs, the form's shapes and a are checked once.  An (n, n) matrix
goes to LAPACK getrf/getrs, called directly.  An (n,) diagonal or a
LowerBidiagonal(diag, sub) is shifted to d = diag + a, which getrf pivots on
with no row swap while every |sub[k]| <= |d[k]|; a bidiagonal that would
swap rows goes to the matrix path.  One finiteness test and the matrix
path's singularity rule (SingularSystemError, which covers an exactly zero
pivot) follow, so every form raises the same errors with the same pivot.
Last, a diagonal divides: where no quotient overflows, rhs / d is getrs's
answer for diag(d), bit for bit.  A bidiagonal writes out getrf's factors:
U is diag(d), and column k of L is getf2's scaling by 1 / d[k], so
sub[k] * (1 / d[k]) and, below that, zeros carrying the sign of the
reciprocal; the same getrs solves on them.  Neither touches the memo: an
unchanged matrix reuses its last successful factorization, keyed on a and
the exact bytes of A, so a linear operator factors once per value of a.
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


def _check_pivot(pivot: float, top: float, n: int) -> None:
    """Every form's singularity rule: the smallest pivot of an n x n A + aI
    whose largest |entry| is top must exceed eps * max(1, top) * n."""
    if pivot <= _EPS * max(1.0, top) * n:
        raise SingularSystemError(pivot)


# ((a, A bytes), lu, piv) of the last factorization that passed its checks.
# The system is a function of the key's bits, so a hit returns what a miss
# would compute and the checks, which read only those bits, still hold; and a
# hit does not form A + aI.  A failing system is never stored, so it raises
# on every call.
_last_factor = None


def solve_regularized(A: np.ndarray | LowerBidiagonal, a: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (A + aI)x = rhs, rhs an (n,) vector and A an (n, n) matrix, the
    (n,) diagonal of one or a LowerBidiagonal."""
    global _last_factor
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim != 1:
        raise ValueError(f"rhs of shape {rhs.shape} is not a vector")
    n = len(rhs)
    if isinstance(A, LowerBidiagonal):
        B, A, sub = A, np.asarray(A.diag, dtype=float), np.asarray(A.sub, dtype=float)
        if A.shape != (n,) or sub.shape != (n - 1,):
            raise ValueError(f"bidiagonal parts {A.shape}, {sub.shape} incompatible with rhs dim {n}")
    else:
        A, sub = np.asarray(A, dtype=float), None
        if A.shape != (n, n) and A.shape != (n,):
            raise ValueError(f"matrix shape {A.shape} incompatible with rhs dim {n}")
    check_a(a)
    if A.ndim == 1:  # the diagonal of a diagonal or bidiagonal form
        d = A + a  # what getrf pivots on while it swaps no rows
        lo = float(d.min())
        mag = d if lo > 0.0 else np.abs(d)  # a positive diagonal is its own magnitude
        # getrf's pivot search takes the first largest entry, so it swaps rows
        # iff some |sub[k]| > |d[k]|; a nan fails this test too, and the matrix
        # path then raises on it
        if sub is None or (np.abs(sub) <= mag[:-1]).all():
            top = float(mag.max())  # >= every |sub[k]|; nan or inf if some d[k] is
            if not top < np.inf:
                raise NumericalEvaluationError("non-finite matrix entries")
            pivot = lo if lo > 0.0 else float(mag.min())
            _check_pivot(pivot, top, n)
            if sub is not None:
                return dgetrs(*_bidiagonal_lu(d, sub, lo, n), rhs)[0]
            if pivot >= 1.0:  # |rhs / d| <= |rhs|: no quotient can overflow
                return rhs / d
            with np.errstate(over="ignore"):  # getrs, too, overflows to inf silently
                return rhs / d
        A = B.dense()  # getrf would swap rows: solved as a matrix
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
        top = float(np.abs(Aa).max())  # before getrf, so |Aa| and lu are never both held
        lu, piv, _ = dgetrf(Aa)
        _check_pivot(float(np.abs(lu.diagonal()).min()), top, n)
        lu.flags.writeable = piv.flags.writeable = False  # shared by every hit
        memo = _last_factor = (key, lu, piv)
    return dgetrs(memo[1], memo[2], rhs)[0]


def _bidiagonal_lu(d: np.ndarray, sub: np.ndarray, lo: float, n: int):
    """getrf's (lu, piv), lu in Fortran order, for the n x n lower bidiagonal
    (d, sub) on which getrf swaps no rows, bit for bit; lo is d.min()."""
    r = 1.0 / d  # getf2 scales a column by the reciprocal of its pivot
    lu = np.zeros((n, n), order="F")
    if lo < 0.0:  # the zeros below the subdiagonal take their column's sign
        lu[np.tri(n, n, -2, dtype=bool) & np.signbit(r)] = -0.0
    flat = lu.ravel(order="F")
    flat[:: n + 1] = d
    np.multiply(sub + 0.0, r[:-1], out=flat[1 :: n + 1])  # + 0.0: getrf sees a -0.0 of sub as +0.0
    return lu, np.arange(n, dtype=np.int32)


def min_sym_eig(A: np.ndarray) -> float:
    """Minimum eigenvalue of the symmetric part (A + A^T)/2."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite matrix entries")
    return float(np.linalg.eigvalsh(0.5 * (A + A.T))[0])
