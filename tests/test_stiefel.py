import numpy as np
import pytest

from stiefelprox import (
    RetractionKind,
    StiefelPoint,
    TangentVector,
    feasibility_residual,
    project_tangent,
    random_point,
    retract,
    riemannian_gradient,
)
from oracles import project_by_basis


def rand_tangent(X, seed):
    rng = np.random.default_rng(seed)
    return project_tangent(X, rng.standard_normal(X.data.shape))


def test_project_fixes_tangent_vectors():
    X = random_point(7, 3, 0)
    xi = rand_tangent(X, 1)
    again = project_tangent(X, xi.data)
    np.testing.assert_allclose(again.data, xi.data, atol=1e-14)


def test_project_of_base_point_is_zero():
    X = random_point(5, 2, 2)
    out = project_tangent(X, X.data)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-14)


def test_project_matches_basis_least_squares():
    X = random_point(4, 2, 3)
    M = np.random.default_rng(4).standard_normal((4, 2))
    expected = project_by_basis(X.data, M)
    np.testing.assert_allclose(project_tangent(X, M).data, expected, atol=1e-10)


def test_project_idempotent():
    for seed in range(5):
        X = random_point(9, 3, seed)
        M = np.random.default_rng(seed + 50).standard_normal((9, 3))
        once = project_tangent(X, M).data
        twice = project_tangent(X, once).data
        assert np.linalg.norm(twice - once) <= 1e-12 * max(1.0, np.linalg.norm(once))


def test_projection_residual_orthogonal_to_tangents():
    X = random_point(8, 3, 5)
    M = np.random.default_rng(6).standard_normal((8, 3))
    resid = M - project_tangent(X, M).data
    for seed in range(5):
        xi = rand_tangent(X, seed + 70)
        assert abs(np.sum(resid * xi.data)) <= 1e-10


def test_project_shape_mismatch():
    X = random_point(5, 2, 0)
    with pytest.raises(ValueError):
        project_tangent(X, np.ones((5, 3)))


def test_gradient_of_normal_direction_is_zero():
    X = random_point(6, 3, 7)
    S = np.random.default_rng(8).standard_normal((3, 3))
    S = S + S.T
    g = riemannian_gradient(X, X.data @ S)
    np.testing.assert_allclose(g.data, 0.0, atol=1e-12)


def test_gradient_zero_input():
    X = random_point(6, 2, 9)
    np.testing.assert_array_equal(riemannian_gradient(X, np.zeros((6, 2))).data, 0.0)


def test_gradient_matches_finite_difference():
    # f(X) = tr(X^T H X): directional derivative along xi via central differences
    rng = np.random.default_rng(10)
    H = rng.standard_normal((6, 6))
    H = H + H.T
    X = random_point(6, 2, 11)
    f = lambda A: float(np.sum(A * (H @ A)))
    g = riemannian_gradient(X, 2.0 * (H @ X.data))
    t = 1e-6
    for seed in range(4):
        xi = rand_tangent(X, seed + 30)
        plus = retract(X, TangentVector(t * xi.data, X))
        minus = retract(X, TangentVector(-t * xi.data, X))
        fd = (f(plus.data) - f(minus.data)) / (2 * t)
        assert abs(np.sum(g.data * xi.data) - fd) <= 1e-5 * max(1.0, abs(fd))


@pytest.mark.parametrize("kind", list(RetractionKind))
def test_retract_zero_is_identity(kind):
    X = random_point(7, 3, 12)
    Z = retract(X, TangentVector(np.zeros((7, 3)), X), kind)
    np.testing.assert_allclose(Z.data, X.data, atol=1e-14)


def test_polar_hand_case():
    # X = e1 in R^2, xi = e2: polar factor of (1, 1)^T is (1, 1)^T / sqrt(2)
    X = StiefelPoint(np.array([[1.0], [0.0]]))
    xi = TangentVector(np.array([[0.0], [1.0]]), X)
    Z = retract(X, xi, RetractionKind.SVD)
    np.testing.assert_allclose(Z.data, np.array([[1.0], [1.0]]) / np.sqrt(2.0), atol=1e-12)


def test_svd_retraction_matches_svd_oracle():
    for seed in range(5):
        X = random_point(8, 3, seed)
        xi = rand_tangent(X, seed + 90)
        U, _, Vt = np.linalg.svd(X.data + xi.data, full_matrices=False)
        Z = retract(X, xi, RetractionKind.SVD)
        assert np.linalg.norm(Z.data - U @ Vt) <= 1e-12


def test_cayley_matches_dense_formula():
    for seed in range(4):
        X = random_point(8, 3, seed + 20)
        xi = rand_tangent(X, seed + 120)
        Xa, D = X.data, xi.data
        P = (np.eye(8) - 0.5 * Xa @ Xa.T) @ D
        W = P @ Xa.T - Xa @ P.T
        dense = np.linalg.solve(np.eye(8) - 0.5 * W, (np.eye(8) + 0.5 * W) @ Xa)
        Z = retract(X, xi, RetractionKind.CAYLEY)
        assert np.linalg.norm(Z.data - dense) <= 1e-11


def test_qr_sign_convention():
    # the Q factor is pinned by requiring positive diagonal of R
    X = random_point(6, 2, 33)
    xi = rand_tangent(X, 34)
    A = X.data + xi.data
    Q, R = np.linalg.qr(A)
    signs = np.sign(np.diag(R))
    Z = retract(X, xi, RetractionKind.QR)
    np.testing.assert_allclose(Z.data, Q * signs, atol=1e-12)
    np.testing.assert_array_equal(np.sign(np.diag(Z.data.T @ A)), 1.0)


@pytest.mark.parametrize("kind", list(RetractionKind))
def test_retraction_first_order_agreement(kind):
    X = random_point(6, 2, 40)
    xi = rand_tangent(X, 41)
    xi = TangentVector(xi.data / np.linalg.norm(xi.data), X)
    ratios = []
    for t in (1e-1, 1e-2, 1e-3, 1e-4):
        Z = retract(X, TangentVector(t * xi.data, X), kind)
        ratios.append(np.linalg.norm(Z.data - X.data - t * xi.data) / t**2)
    # second-order residual: constant C = ||R(t xi) - X - t xi|| / t^2 stays stable
    assert max(ratios) <= 4.0 * min(ratios) + 1e-9
    assert max(ratios) < 10.0


@pytest.mark.parametrize("kind", list(RetractionKind))
def test_retraction_feasible_for_large_steps(kind):
    X = random_point(10, 3, 42)
    xi = rand_tangent(X, 43)
    for scale in (0.1, 1.0, 10.0):
        big = TangentVector(scale * xi.data / np.linalg.norm(xi.data), X)
        Z = retract(X, big, kind)
        assert feasibility_residual(Z) <= 1e-10


def test_random_point_orthonormal():
    X = random_point(4, 2, 1)
    assert np.linalg.norm(X.data.T @ X.data - np.eye(2)) <= 1e-12


def test_random_point_deterministic():
    a = random_point(12, 4, 77)
    b = random_point(12, 4, 77)
    np.testing.assert_array_equal(a.data, b.data)


def test_random_point_seed_sweep():
    for seed in range(100):
        assert feasibility_residual(random_point(16, 4, seed)) <= 1e-12


def test_random_point_rejects_wide():
    with pytest.raises(ValueError):
        random_point(3, 5, 0)


def test_feasibility_residual_cases():
    n, r = 6, 2
    E = np.zeros((n, r))
    E[0, 0] = E[1, 1] = 1.0
    assert feasibility_residual(E) == 0.0
    X = random_point(n, r, 3)
    assert abs(feasibility_residual(2.0 * X.data) - 3.0 * np.sqrt(r)) <= 1e-12
    assert feasibility_residual(X) <= 1e-12


def test_construction_reorthonormalizes():
    rng = np.random.default_rng(5)
    raw = random_point(8, 3, 5).data + 1e-6 * rng.standard_normal((8, 3))
    X = StiefelPoint(raw)
    assert feasibility_residual(X) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_rejects_non_finite_entries(bad):
    raw = random_point(6, 2, 7).data.copy()
    raw[3, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        StiefelPoint(raw)
    with pytest.raises(ValueError, match="non-finite"):
        StiefelPoint(np.full((6, 2), bad))


def test_tangent_vector_rejects_nontangent():
    X = random_point(5, 2, 6)
    with pytest.raises(ValueError):
        TangentVector(np.ones((5, 2)), X)
    with pytest.raises(ValueError):
        TangentVector(np.ones((5, 3)), X)
