import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelprox import (
    RetractionKind,
    StiefelPoint,
    TangentVector,
    feasibility_residual,
    project_tangent,
    random_point,
    retract,
)
from stiefelprox.stiefel import _RETRACTIONS, _polar_factor
from oracles import project_by_basis

# fixed examples, so the suite draws the same instances on every run
PROPERTY_SETTINGS = settings(max_examples=200, derandomize=True, database=None, deadline=None)
# (n, r) with 1 <= r <= n <= 8
SHAPE = st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n)))


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


@PROPERTY_SETTINGS
@given(
    shape=SHAPE,
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-3.0, 3.0),
    alpha=st.floats(-1e3, 1e3),
)
def test_unchecked_tangents_pass_the_checked_constructor(shape, seed, log_scale, alpha):
    # project_tangent and alpha * xi skip the tangency check: what they build
    # must pass it, be read-only and stay attached to X itself
    n, r = shape
    X = random_point(n, r, seed)
    M = 10.0**log_scale * np.random.default_rng(seed).standard_normal((n, r))
    xi = project_tangent(X, M)
    before = xi.data.copy()
    for v in (xi, alpha * xi, np.float64(alpha) * xi):
        assert isinstance(v, TangentVector)
        assert v.base is X
        assert not v.data.flags.writeable
        TangentVector(v.data, X)
    np.testing.assert_array_equal((alpha * xi).data, alpha * xi.data)
    np.testing.assert_array_equal(xi.data, before)


def test_project_shape_mismatch():
    X = random_point(5, 2, 0)
    with pytest.raises(ValueError):
        project_tangent(X, np.ones((5, 3)))


def test_gradient_of_normal_direction_is_zero():
    X = random_point(6, 3, 7)
    S = np.random.default_rng(8).standard_normal((3, 3))
    S = S + S.T
    g = project_tangent(X, X.data @ S)
    np.testing.assert_allclose(g.data, 0.0, atol=1e-12)


def test_gradient_zero_input():
    X = random_point(6, 2, 9)
    np.testing.assert_array_equal(project_tangent(X, np.zeros((6, 2))).data, 0.0)


def test_gradient_matches_finite_difference():
    # f(X) = tr(X^T H X): directional derivative along xi via central differences
    rng = np.random.default_rng(10)
    H = rng.standard_normal((6, 6))
    H = H + H.T
    X = random_point(6, 2, 11)
    f = lambda A: float(np.sum(A * (H @ A)))
    g = project_tangent(X, 2.0 * (H @ X.data))
    t = 1e-6
    for seed in range(4):
        xi = rand_tangent(X, seed + 30)
        plus = retract(TangentVector(t * xi.data, X))
        minus = retract(TangentVector(-t * xi.data, X))
        fd = (f(plus.data) - f(minus.data)) / (2 * t)
        assert abs(np.sum(g.data * xi.data) - fd) <= 1e-5 * max(1.0, abs(fd))


@pytest.mark.parametrize("kind", list(RetractionKind))
def test_retract_zero_is_identity(kind):
    X = random_point(7, 3, 12)
    xi = TangentVector(np.zeros((7, 3)), X)
    assert retract(xi, kind) is xi.base


def test_polar_hand_case():
    # X = e1 in R^2, xi = e2: polar factor of (1, 1)^T is (1, 1)^T / sqrt(2)
    X = StiefelPoint(np.array([[1.0], [0.0]]))
    xi = TangentVector(np.array([[0.0], [1.0]]), X)
    Z = retract(xi, RetractionKind.SVD)
    np.testing.assert_allclose(Z.data, np.array([[1.0], [1.0]]) / np.sqrt(2.0), atol=1e-12)


def test_svd_retraction_matches_svd_oracle():
    for seed in range(5):
        X = random_point(8, 3, seed)
        xi = rand_tangent(X, seed + 90)
        U, _, Vt = np.linalg.svd(X.data + xi.data, full_matrices=False)
        Z = retract(xi, RetractionKind.SVD)
        assert np.linalg.norm(Z.data - U @ Vt) <= 1e-12


def test_cayley_matches_dense_formula():
    for seed in range(4):
        X = random_point(8, 3, seed + 20)
        xi = rand_tangent(X, seed + 120)
        Xa, D = X.data, xi.data
        P = (np.eye(8) - 0.5 * Xa @ Xa.T) @ D
        W = P @ Xa.T - Xa @ P.T
        dense = np.linalg.solve(np.eye(8) - 0.5 * W, (np.eye(8) + 0.5 * W) @ Xa)
        Z = retract(xi, RetractionKind.CAYLEY)
        assert np.linalg.norm(Z.data - dense) <= 1e-11


def test_qr_sign_convention():
    # the Q factor is pinned by requiring positive diagonal of R
    X = random_point(6, 2, 33)
    xi = rand_tangent(X, 34)
    A = X.data + xi.data
    Q, R = np.linalg.qr(A)
    signs = np.sign(np.diag(R))
    Z = retract(xi, RetractionKind.QR)
    np.testing.assert_allclose(Z.data, Q * signs, atol=1e-12)
    np.testing.assert_array_equal(np.sign(np.diag(Z.data.T @ A)), 1.0)


@pytest.mark.parametrize("kind", list(RetractionKind))
def test_retraction_first_order_agreement(kind):
    X = random_point(6, 2, 40)
    xi = rand_tangent(X, 41)
    xi = TangentVector(xi.data / np.linalg.norm(xi.data), X)
    ratios = []
    for t in (1e-1, 1e-2, 1e-3, 1e-4):
        Z = retract(TangentVector(t * xi.data, X), kind)
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
        Z = retract(big, kind)
        assert feasibility_residual(Z) <= 1e-10


@PROPERTY_SETTINGS
@given(shape=SHAPE, seed=st.integers(0, 2**32 - 1), log_norm=st.floats(-10.0, 3.0))
def test_raw_retractions_feasible_for_any_tangent_step(shape, seed, log_norm):
    # feasibility must hold before StiefelPoint's drift containment, which
    # retract applies, so that a line-search trial pays for no polar factor,
    # for steps from 1e-10 to 1e3
    n, r = shape
    X = random_point(n, r, seed)
    D = rand_tangent(X, seed).data
    norm = np.linalg.norm(D)
    # at n = r = 1 the tangent space is {0}
    D = D * (10.0**log_norm / norm) if norm > 0 else D
    for kind, retr in _RETRACTIONS.items():
        Z = retr(X.data, D)
        assert feasibility_residual(Z) <= 1e-10, kind
    assert np.linalg.norm(_RETRACTIONS[RetractionKind.SVD](X.data, D) - _polar_factor(X.data + D)) <= 1e-12


def test_polar_retraction_accurate_for_long_rank_deficient_steps():
    # at n = r = 3, D = X Omega with Omega skew has a zero singular value, so
    # the Gram matrix I + D^T D has condition number 1 + ||D||^2 / 2; without
    # the refinement step these reach feasibility 1.2e-10 and differ from the
    # SVD polar factor by up to 5.8e-11
    for seed in range(5):
        X = random_point(3, 3, seed).data
        W = np.random.default_rng(seed).standard_normal((3, 3))
        D = X @ (W - W.T)
        D *= 1e3 / np.linalg.norm(D)
        Z = _RETRACTIONS[RetractionKind.SVD](X, D)
        assert feasibility_residual(Z) <= 1e-10
        assert np.linalg.norm(Z - _polar_factor(X + D)) <= 1e-12


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


@pytest.mark.parametrize(
    "n, r, seed, match",
    [
        (3, 5, 0, "1 <= r <= n"),
        # these used to raise NumPy's TypeError or its bare seed message
        (64.5, 4, 0, "n must be an integer, got 64.5"),
        (True, True, 0, "n must be an integer, got True"),
        (16, 4, 1.5, "seed must be an integer >= 0, got 1.5"),
        (16, 4, -1, "seed must be an integer >= 0, got -1"),
    ],
    ids=["wide", "fractional-n", "bool-sizes", "fractional-seed", "negative-seed"],
)
def test_random_point_rejects_wide(n, r, seed, match):
    with pytest.raises(ValueError, match=match):
        random_point(n, r, seed)


def test_point_needs_at_least_one_column():
    with pytest.raises(ValueError, match="1 <= r <= n"):
        random_point(5, 0, 0)
    with pytest.raises(ValueError, match="1 <= r <= n"):
        StiefelPoint(np.zeros((5, 0)))
    with pytest.raises(ValueError, match="1 <= r <= n"):
        StiefelPoint(np.zeros((0, 0)))


@pytest.mark.parametrize("raw", [np.zeros(3), np.zeros((4, 2, 1)), np.float64(1.0)])
def test_point_needs_a_matrix(raw):
    with pytest.raises(ValueError, match="expected a 2-d array"):
        StiefelPoint(raw)


def test_feasibility_residual_cases():
    n, r = 6, 2
    E = np.zeros((n, r))
    E[0, 0] = E[1, 1] = 1.0
    assert feasibility_residual(E) == 0.0
    X = random_point(n, r, 3)
    assert abs(feasibility_residual(2.0 * X.data) - 3.0 * np.sqrt(r)) <= 1e-12
    assert feasibility_residual(X) <= 1e-12


@pytest.mark.parametrize("raw", [np.ones(3), np.ones((2, 3, 1)), 1.0])
def test_feasibility_residual_needs_a_matrix(raw):
    # np.ones(3) used to raise an IndexError
    with pytest.raises(ValueError, match="expected a 2-d array"):
        feasibility_residual(raw)


def test_reprs():
    E = np.zeros((6, 2))
    E[0, 0] = E[1, 1] = 1.0
    V = np.zeros((6, 2))
    V[2, 0], V[3, 1] = 3.0, 4.0
    X = StiefelPoint(E)
    assert repr(X) == "StiefelPoint(n=6, r=2)"
    assert repr(TangentVector(V, X)) == "TangentVector(shape=(6, 2), norm=5.000e+00)"


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


@pytest.mark.parametrize(
    "raw",
    [
        np.zeros((4, 2)),
        np.zeros((3, 1)),
        np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
        np.outer([1.0, 2.0, 0.0, 1.0, 3.0], [1.0, -1.0, 2.0]),
    ],
)
def test_point_rejects_rank_deficient_input(raw):
    # the polar factor of a rank-deficient matrix is not unique, so no
    # orthonormal completion may be invented for it
    with pytest.raises(ValueError, match="rank-deficient"):
        StiefelPoint(raw)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tangent_vector_rejects_non_finite_entries(bad):
    X = random_point(5, 2, 0)
    with pytest.raises(ValueError, match="non-finite"):
        TangentVector(np.full((5, 2), bad), X)
    V = project_tangent(X, np.ones((5, 2))).data.copy()
    V[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        TangentVector(V, X)


@pytest.mark.parametrize("kind", ["svd", None, 3])
def test_retract_rejects_a_kind_that_is_not_a_retraction_kind(kind):
    X = random_point(6, 2, 0)
    with pytest.raises(ValueError, match="SVD, QR, CAYLEY"):
        retract(rand_tangent(X, 1), kind)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
def test_scaling_by_a_non_finite_scalar_is_rejected(alpha):
    # alpha * v skips the constructor's checks, so it makes its own
    v = rand_tangent(random_point(5, 2, 0), 1)
    with pytest.raises(ValueError, match="finite"):
        alpha * v


def test_tangent_vector_rejects_nontangent():
    X = random_point(5, 2, 6)
    with pytest.raises(ValueError):
        TangentVector(np.ones((5, 2)), X)
    with pytest.raises(ValueError):
        TangentVector(np.ones((5, 3)), X)
    # finite entries whose norms overflow to inf: the bound is inf too
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not tangent"):
        TangentVector(1e200 * np.ones((5, 2)), X)
