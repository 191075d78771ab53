import numpy as np
import pytest

from stiefelprox import (
    RetractionKind,
    TangentVector,
    load_matrix_csv,
    make_cm,
    make_problem,
    make_spca,
    random_point,
    retract,
    save_matrix_csv,
    sparsity,
)
from stiefelprox.problems import schrodinger_operator


def fd_gradient_check(prob, X, seed, rel=1e-5):
    """Directional finite differences of eval_f against eval_grad_f."""
    rng = np.random.default_rng(seed)
    G = np.asarray(prob.eval_grad_f(X))
    for _ in range(4):
        D = rng.standard_normal(X.shape)
        D /= np.linalg.norm(D)
        t = 1e-6
        fd = (prob.eval_f(X + t * D) - prob.eval_f(X - t * D)) / (2 * t)
        assert abs(fd - np.sum(G * D)) <= rel * max(1.0, abs(fd))


class TestSchrodingerOperator:
    def test_stencil_row_hand_case(self):
        H = schrodinger_operator(4).toarray()
        dx = 50.0 / 4
        inv = 1.0 / dx**2
        np.testing.assert_allclose(H[0], [inv, -0.5 * inv, 0.0, -0.5 * inv])
        np.testing.assert_allclose(H, H.T)

    def test_periodic_row_sums_vanish(self):
        H = schrodinger_operator(16)
        np.testing.assert_allclose(H @ np.ones(16), 0.0, atol=1e-12)

    def test_dirichlet_drops_corners(self):
        H = schrodinger_operator(8, boundary="dirichlet").toarray()
        assert H[0, 7] == 0.0 and H[7, 0] == 0.0
        assert H[0, 1] != 0.0

    def test_positive_semidefinite(self):
        H = schrodinger_operator(32).toarray()
        assert np.linalg.eigvalsh(H).min() >= -1e-10

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            schrodinger_operator(3)

    def test_unknown_boundary(self):
        with pytest.raises(ValueError):
            schrodinger_operator(8, boundary="absorbing")


class TestCompressedModes:
    def test_gradient_consistency(self):
        prob = make_cm(8, 2, 0.1)
        X = random_point(8, 2, 0).data
        fd_gradient_check(prob, X, seed=1)

    def test_lipschitz_estimate_near_analytic(self):
        # ||H||_2 = 2 / dx^2 for the periodic stencil, so L = 4 / dx^2
        n = 64
        prob = make_cm(n, 4, 0.1)
        dx = 50.0 / n
        assert prob.lipschitz_estimate == pytest.approx(4.0 / dx**2, rel=5e-2)
        assert prob.lipschitz_estimate <= 4.0 / dx**2 + 1e-9

    def test_objective_nonnegative_up_to_null_direction(self):
        prob = make_cm(32, 3, 0.0)
        for seed in range(5):
            X = random_point(32, 3, seed).data
            assert prob.eval_f(X) >= -1e-10

    def test_rejects_negative_mu(self):
        with pytest.raises(ValueError):
            make_cm(16, 2, -0.5)

    def test_descriptor(self):
        prob = make_cm(16, 2, 0.3)
        assert prob.descriptor["kind"] == "cm"
        assert prob.descriptor["n"] == 16 and prob.descriptor["mu"] == 0.3


class TestSparsePca:
    def test_zero_data_flattens_objective(self):
        prob = make_spca(12, 2, 1.0, data=np.zeros((50, 12)))
        X = random_point(12, 2, 0).data
        assert prob.eval_f(X) == 0.0
        np.testing.assert_array_equal(prob.eval_grad_f(X), 0.0)
        assert prob.lipschitz_estimate == 0.0

    def test_gradient_consistency(self):
        prob = make_spca(20, 3, 1.0, seed=2)
        X = random_point(20, 3, 3).data
        fd_gradient_check(prob, X, seed=4)

    def test_trace_lower_bound(self):
        prob = make_spca(30, 4, 1.0, seed=5)
        norm_sq = prob.lipschitz_estimate / 2.0  # ||A||_2^2
        for seed in range(5):
            X = random_point(30, 4, seed).data
            assert prob.eval_f(X) >= -2.0 * 4 * norm_sq - 1e-9

    def test_deterministic_per_seed(self):
        a = make_spca(15, 2, 0.5, seed=9)
        b = make_spca(15, 2, 0.5, seed=9)
        X = random_point(15, 2, 1).data
        assert a.eval_f(X) == b.eval_f(X)

    def test_generated_columns_are_normalized(self):
        prob = make_spca(25, 2, 0.5, seed=11)
        X = np.zeros((25, 2))
        X[3, 0] = 1.0
        X[7, 1] = 1.0
        # f(e_i basis) = -sum of squared column norms = -r for unit columns
        assert prob.eval_f(X) == pytest.approx(-2.0, abs=1e-12)

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            make_spca(3, 5, 1.0)

    def test_rejects_negative_mu(self):
        with pytest.raises(ValueError):
            make_spca(20, 3, -0.1, seed=0)

    def test_solved_instance_lands_in_reported_range(self):
        # published ballpark for (n, r, mu) = (500, 20, 1.0): objective near
        # -18.4 and sparsity near 0.78; both depend on the undocumented data
        # scaling convention, so the band here is wide
        from stiefelprox import solve

        vals, spars = [], []
        for seed in range(2):
            prob = make_spca(500, 20, 1.0, seed=seed)
            res = solve(prob, random_point(500, 20, seed))
            vals.append(prob.objective(res.point.data))
            spars.append(sparsity(res.point.data))
        assert -24.0 <= np.mean(vals) <= -12.0
        assert 0.65 <= np.mean(spars) <= 0.92


class TestMakeProblem:
    def test_dispatch(self):
        assert make_problem("cm", 16, 2, 0.1).descriptor["kind"] == "cm"
        assert make_problem("spca", 16, 2, 0.1, seed=3).descriptor["seed"] == 3

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_problem("lasso", 16, 2, 0.1)


class TestSparsity:
    def test_no_small_entries(self):
        assert sparsity(np.ones((3, 3))) == 0.0

    def test_all_zero(self):
        assert sparsity(np.zeros((4, 2))) == 1.0

    def test_half(self):
        X = np.ones((2, 2))
        X[0, :] = 0.0
        assert sparsity(X) == 0.5

    def test_threshold_boundary_counts(self):
        X = np.full((1, 2), 1e-5)
        assert sparsity(X, threshold=1e-5) == 1.0


def test_objective_invariant_under_zero_retraction():
    for kind, prob in [
        (RetractionKind.SVD, make_cm(16, 2, 0.2)),
        (RetractionKind.QR, make_spca(16, 2, 0.7, seed=1)),
    ]:
        X = random_point(16, 2, 2)
        Z = retract(X, TangentVector(np.zeros((16, 2)), X), kind)
        assert prob.eval_f(Z.data) == prob.eval_f(X.data)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        M = np.random.default_rng(0).standard_normal((4, 3))
        path = tmp_path / "mat.csv"
        save_matrix_csv(M, path, seed=42)
        header = path.read_text().splitlines()[0]
        assert header == "# 4 3 42"
        back, seed = load_matrix_csv(path)
        assert seed == 42
        np.testing.assert_array_equal(back, M)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError):
            load_matrix_csv(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("# 3 2 0\n1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError):
            load_matrix_csv(path)
