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
)
from dsmsolve.gallery import DimensionMismatchError, Operator

from certificates import fd_jacobian
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


# reference: each diagonal member's Jacobian built as an n x n matrix
DENSE_JACOBIANS = {
    "scalar_cubic": lambda u: np.array([[3.0 * u[0] ** 2]]),
    "scalar_affine_sin": lambda u: np.array([[2.0 + np.cos(u[0])]]),
    "scalar_negation": lambda u: np.array([[-1.0]]),
    "identity": lambda u: np.eye(len(u)),
    "convex_gradient": lambda u: np.diag(3.0 * u**2 + 1.0),
}


@pytest.mark.parametrize("dim", [1, 5, 20])
def test_diagonal_members_keep_their_dense_jacobian(dim):
    """jacobian() is the dense matrix, bit for bit; dense=False is the declared form."""
    for name in GALLERY_NAMES:
        op = make_operator(name, dim)
        # the last point is one where 3.0 * u**2 on the array is 1 ulp off the scalar power
        pts = [*seeded_points(dim, 200, op.dim, radius=1e4), np.full(op.dim, -1.523386358242358)]
        for u in pts:
            declared = jacobian(op, u, dense=False)
            if name in DENSE_JACOBIANS:
                assert declared.shape == (op.dim,), name
                assert jacobian(op, u).tobytes() == DENSE_JACOBIANS[name](u).tobytes(), (name, u)
                assert np.diag(declared).tobytes() == jacobian(op, u).tobytes(), name
            else:
                assert declared.tobytes() == jacobian(op, u).tobytes(), name
                assert declared.shape == (op.dim, op.dim), name


@pytest.mark.parametrize("shape", [(4,), (3, 1), (), (3, 4), (1, 3, 3)])
def test_jacobian_shape_contract(shape):
    """A Jacobian is an (n,) diagonal or an (n, n) matrix; any other shape is rejected."""
    op = Operator("bad", 3, fn=lambda u: u, jac=lambda u: np.ones(shape))
    for dense in (True, False):
        with pytest.raises(DimensionMismatchError):
            jacobian(op, np.zeros(3), dense=dense)


def test_jacobian_finite_difference_path():
    # the central-difference reference against the analytic Jacobian
    op = make_operator("convex_gradient", 3)
    u = np.array([0.5, -1.0, 2.0])
    np.testing.assert_allclose(fd_jacobian(op, u), jacobian(op, u), atol=1e-7)


def test_check_monotone_scalar_cubic():
    rep = check_monotone(make_operator("scalar_cubic"), 3)
    assert rep.passed
    assert rep.witness is None


def test_check_monotone_scalar_negation_fails():
    rep = check_monotone(make_operator("scalar_negation"), 0)
    assert not rep.passed
    assert rep.worst_value < 0
    u, v = rep.witness
    # witness reproduces the worst pairing
    op = make_operator("scalar_negation")
    pairing = float(np.dot(evaluate(op, u) - evaluate(op, v), u - v))
    assert pairing == pytest.approx(rep.worst_value, rel=1e-12)


def test_check_monotone_skew_plus_cubic():
    op = make_operator("skew_plus_cubic", 5)
    rep = check_monotone(op, 42)
    assert rep.passed
    # the skew part contributes nothing to the pairing
    from dsmsolve.gallery import _skew_matrix

    S = _skew_matrix(5)
    rng = np.random.default_rng(42)
    for _ in range(20):
        d = rng.standard_normal(5)
        assert abs(np.dot(S @ d, d)) < 1e-12


def test_check_monotone_fails_on_nan_operator():
    """Every pairing is nan; a scan that skips nan would pass with worst inf."""
    op = Operator(name="nan", dim=3, fn=lambda u: np.full(3, np.nan), jac=lambda u: np.eye(3))
    rep = check_monotone(op, 0)
    assert not rep.passed
    assert np.isnan(rep.worst_value)
    assert rep.witness is not None


def test_check_monotone_deterministic():
    op = make_operator("convex_gradient", 4)
    r1 = check_monotone(op, 7)
    r2 = check_monotone(op, 7)
    assert r1.worst_value == r2.worst_value
    assert r1.passed == r2.passed


def test_check_coercive_identity():
    rep = check_coercive(make_operator("identity", 3), 0)
    assert rep.passed
    # q(r, d) = r for the identity
    assert rep.worst_value == pytest.approx(100.0)


def test_check_coercive_rank_one_fails():
    rep = check_coercive(make_operator("rank_one_projector", 4), 0)
    assert not rep.passed
    assert rep.witness is not None


def test_check_coercive_scalar_affine_sin():
    rep = check_coercive(make_operator("scalar_affine_sin"), 0)
    assert rep.passed


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
            assert check_monotone(op, 1).passed, op.name


def test_jacobian_consistency(gallery5):
    """Analytic Jacobians agree with central differences at seeded points."""
    for op in gallery5:
        for u in seeded_points(13, 20, op.dim):
            J = jacobian(op, u)
            J_fd = fd_jacobian(op, u)
            assert np.all(np.abs(J - J_fd) <= 1e-5 + 1e-5 * np.abs(J)), op.name


def test_monotone_jacobian_psd_link(gallery5):
    for op in gallery5:
        if not check_monotone(op, 2).passed:
            continue
        for u in seeded_points(17, 20, op.dim):
            assert min_sym_eig(jacobian(op, u)) >= -1e-8, op.name


def test_make_operator_unknown_name():
    with pytest.raises(KeyError):
        make_operator("no_such_operator")
