"""Kernels for the regularized systems (A + aI)x = rhs.

Monotonicity of the underlying map makes A positive semidefinite in the
symmetric-part sense, which gives ||(A+aI)^-1|| <= 1/a.

A is F'(u) in the form the operator declared.  An (n, n) matrix is factored
by LAPACK getrf/getrs, called directly.  An (n,) vector is the diagonal of
F'(u), and the system is solved as rhs / (A + a): where no quotient
overflows, that is what getrs returns for the diagonal matrix, bit for bit.
Both forms raise the same errors with the same pivot, and the tiny-pivot
check (SingularSystemError) also covers an exactly zero pivot (getrf info >
0).  A diagonal is divided on every call.  An unchanged matrix reuses its
last successful factorization, keyed on a and the exact bytes of A, so a
linear operator, whose Jacobian is constant, factors once per value of a.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .gallery import NumericalEvaluationError


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


def solve_regularized(A: np.ndarray, a: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (A + aI)x = rhs: an (n, n) A by LU with partial pivoting, the (n,)
    diagonal of one by division."""
    global _last_factor
    A = np.asarray(A, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
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


def min_sym_eig(A: np.ndarray) -> float:
    """Minimum eigenvalue of the symmetric part (A + A^T)/2."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite matrix entries")
    return float(np.linalg.eigvalsh(0.5 * (A + A.T))[0])
