"""Property-based checks of the algebraic invariants the solver leans on."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dsmsolve import (
    ContinuationSchedule,
    evaluate,
    make_operator,
    min_sym_eig,
    residual,
    solve_regularized,
)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def vectors(dim):
    return arrays(np.float64, (dim,), elements=finite)


@given(x=finite, y=finite)
def test_scalar_cubic_pairing_nonnegative(x, y):
    op = make_operator("scalar_cubic")
    fx = evaluate(op, [x])[0]
    fy = evaluate(op, [y])[0]
    # tiny slack for last-ulp rounding when x and y are very close
    assert (fx - fy) * (x - y) >= -1e-12 * max(1.0, abs(fx) + abs(fy))


@given(u=vectors(4), v=vectors(4))
def test_convex_gradient_pairing_nonnegative(u, v):
    op = make_operator("convex_gradient", 4)
    pairing = np.dot(evaluate(op, u) - evaluate(op, v), u - v)
    scale = float(np.linalg.norm(u - v)) * (1.0 + np.linalg.norm(u) + np.linalg.norm(v)) ** 3
    assert pairing >= -1e-10 * max(1.0, scale)


@given(
    A=arrays(np.float64, (4, 4), elements=st.floats(-5, 5)),
    rhs=arrays(np.float64, (4,), elements=st.floats(-5, 5)),
    a=st.floats(min_value=0.01, max_value=10.0),
)
@settings(max_examples=50)
def test_psd_shift_respects_inverse_bound(A, rhs, a):
    """||(B + aI)^-1 rhs|| <= ||rhs||/a whenever B has PSD symmetric part."""
    B = A @ A.T + 0.5 * (A - A.T)  # PSD symmetric part plus a skew part
    x = solve_regularized(B, a, rhs)
    assert np.linalg.norm(x) <= np.linalg.norm(rhs) / a * (1 + 1e-8) + 1e-12


@given(A=arrays(np.float64, (5, 5), elements=st.floats(-10, 10)))
@settings(max_examples=100)
def test_min_sym_eig_symmetrization(A):
    assert abs(min_sym_eig(A) - min_sym_eig(0.5 * (A + A.T))) <= 1e-12


@given(v=vectors(3), a=st.floats(min_value=1e-3, max_value=10.0))
def test_residual_zero_iff_solves(v, a):
    op = make_operator("convex_gradient", 3)
    h = evaluate(op, v) + a * v
    assert residual(op, a, h, v) <= 1e-9 * (1 + np.linalg.norm(h))


@given(
    a0=st.floats(min_value=1e-2, max_value=10.0),
    decay=st.floats(min_value=0.05, max_value=0.95),
    ratio=st.floats(min_value=1e-6, max_value=0.5),
)
def test_schedule_values_shape(a0, decay, ratio):
    sched = ContinuationSchedule(a0=a0, decay_factor=decay, a_min=a0 * ratio)
    vals = sched.values()
    assert vals[0] == a0
    assert vals[-1] == sched.a_min
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(v >= sched.a_min for v in vals)
