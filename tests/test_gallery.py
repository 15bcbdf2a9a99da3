import numpy as np
import pytest

from dsmsolve import (
    GALLERY_NAMES,
    check_coercive,
    check_monotone,
    evaluate,
    jacobian,
    make_gallery,
    make_operator,
    min_sym_eig,
    shift_target,
)
from dsmsolve.gallery import DimensionMismatchError

from conftest import seeded_points


def test_evaluate_scalar_cubic():
    op = make_operator("scalar_cubic")
    assert evaluate(op, [2.0]) == pytest.approx([8.0])


def test_evaluate_identity():
    op = make_operator("identity", 2)
    np.testing.assert_array_equal(evaluate(op, [3.0, -1.0]), [3.0, -1.0])


def test_evaluate_convex_gradient():
    op = make_operator("convex_gradient", 3)
    np.testing.assert_allclose(evaluate(op, [1.0, 0.0, -1.0]), [2.0, 0.0, -2.0])


def test_evaluate_dimension_mismatch():
    op = make_operator("identity", 3)
    with pytest.raises(DimensionMismatchError):
        evaluate(op, [1.0, 2.0])


def test_evaluate_deterministic():
    op = make_operator("skew_plus_cubic", 4)
    u = np.array([0.3, -1.2, 2.0, 0.7])
    a = evaluate(op, u)
    b = evaluate(op, u)
    assert (a == b).all()


def test_jacobian_scalar_cubic():
    op = make_operator("scalar_cubic")
    np.testing.assert_allclose(jacobian(op, [2.0]), [[12.0]])


def test_jacobian_identity():
    op = make_operator("identity", 3)
    np.testing.assert_array_equal(jacobian(op, [5.0, -2.0, 0.1]), np.eye(3))


def test_jacobian_scalar_affine_sin():
    op = make_operator("scalar_affine_sin")
    np.testing.assert_allclose(jacobian(op, [0.0]), [[3.0]])


def test_jacobian_finite_difference_path():
    # strip the analytic Jacobian to exercise central differences
    op = make_operator("convex_gradient", 3)
    op_fd = type(op)(name=op.name, dim=op.dim, fn=op.fn, jac=None)
    u = np.array([0.5, -1.0, 2.0])
    np.testing.assert_allclose(jacobian(op_fd, u), jacobian(op, u), atol=1e-7)


def test_check_monotone_scalar_cubic():
    rep = check_monotone(make_operator("scalar_cubic"), 3, 200, 5.0)
    assert rep.passed
    assert rep.witness is None


def test_check_monotone_scalar_negation_fails():
    rep = check_monotone(make_operator("scalar_negation"), 0, 10, 5.0)
    assert not rep.passed
    assert rep.worst_value < 0
    u, v = rep.witness
    # witness reproduces the worst pairing
    op = make_operator("scalar_negation")
    pairing = float(np.dot(evaluate(op, u) - evaluate(op, v), u - v))
    assert pairing == pytest.approx(rep.worst_value, rel=1e-12)


def test_check_monotone_skew_plus_cubic():
    op = make_operator("skew_plus_cubic", 5)
    rep = check_monotone(op, 42, 1000, 10.0)
    assert rep.passed
    # the skew part contributes nothing to the pairing
    from dsmsolve.gallery import _skew_matrix

    S = _skew_matrix(5)
    rng = np.random.default_rng(42)
    for _ in range(20):
        d = rng.standard_normal(5)
        assert abs(np.dot(S @ d, d)) < 1e-12


def test_check_monotone_deterministic():
    op = make_operator("convex_gradient", 4)
    r1 = check_monotone(op, 7, 100, 5.0)
    r2 = check_monotone(op, 7, 100, 5.0)
    assert r1.worst_value == r2.worst_value
    assert r1.passed == r2.passed


def test_check_coercive_identity():
    rep = check_coercive(make_operator("identity", 3), 0, 16)
    assert rep.passed
    # q(r, d) = r for the identity
    assert rep.worst_value == pytest.approx(100.0)


def test_check_coercive_rank_one_fails():
    rep = check_coercive(make_operator("rank_one_projector", 4), 0, 64)
    assert not rep.passed
    assert rep.witness is not None


def test_check_coercive_scalar_affine_sin():
    rep = check_coercive(make_operator("scalar_affine_sin"), 0, 8)
    assert rep.passed


def test_shift_target_evaluates():
    op = shift_target(make_operator("scalar_cubic"), [8.0])
    assert evaluate(op, [2.0]) == pytest.approx([0.0])


def test_shift_target_zero_shift():
    op = shift_target(make_operator("identity", 2), [0.0, 0.0])
    np.testing.assert_array_equal(evaluate(op, [1.0, 2.0]), [1.0, 2.0])


def test_shift_target_preserves_monotonicity():
    op = shift_target(make_operator("scalar_cubic"), [8.0])
    assert check_monotone(op, 5, 200, 5.0).passed
    assert op.declared_monotone and op.declared_coercive


def test_shift_target_round_trip():
    base = make_operator("convex_gradient", 3)
    y = np.array([1.0, -2.0, 0.5])
    back = shift_target(shift_target(base, y), -y)
    for u in seeded_points(11, 10, 3):
        assert np.max(np.abs(evaluate(back, u) - evaluate(base, u))) <= 1e-14


def test_gallery_contract():
    gallery = make_gallery(5)
    names = {op.name for op in gallery}
    assert len(gallery) >= 8
    by_name = {op.name: op for op in gallery}
    assert by_name["scalar_cubic"].declared_strictly_monotone
    assert not by_name["rank_one_projector"].declared_coercive
    assert not by_name["scalar_negation"].declared_monotone
    assert names >= set(GALLERY_NAMES)


def test_gallery_declared_monotone_validated(gallery5):
    for op in gallery5:
        if op.declared_monotone:
            assert check_monotone(op, 1, 500, 5.0).passed, op.name


def test_jacobian_consistency(gallery5):
    """Analytic Jacobians agree with central differences at seeded points."""
    for op in gallery5:
        fd_op = type(op)(name=op.name, dim=op.dim, fn=op.fn, jac=None)
        for u in seeded_points(13, 20, op.dim):
            J = jacobian(op, u)
            J_fd = jacobian(fd_op, u)
            assert np.all(np.abs(J - J_fd) <= 1e-5 + 1e-5 * np.abs(J)), op.name


def test_monotone_jacobian_psd_link(gallery5):
    for op in gallery5:
        if not check_monotone(op, 2, 200, 5.0).passed:
            continue
        for u in seeded_points(17, 20, op.dim):
            assert min_sym_eig(jacobian(op, u)) >= -1e-8, op.name


def test_make_operator_unknown_name():
    with pytest.raises(KeyError):
        make_operator("no_such_operator")
