import numpy as np
import pytest

from stiefelprox import (
    DiagonalMetric,
    jacobian_apply,
    prox_l1_weighted,
    random_point,
    residual_E,
    ssn_solve,
    v_of_lambda,
)
from stiefelprox.metric import metric_norm_sq
from stiefelprox.subproblem import _DIRECT_MAX_R, _direct_step, _newton_matrix, _row_outer
from oracles import kkt_direction, splitting_direction, subproblem_value

# Newton steps are solved directly at the first shape and by CG at the second
ORACLE_SHAPES = [(6, 2), (_DIRECT_MAX_R + 4, _DIRECT_MAX_R + 1)]


def make_instance(n, r, seed, sigma=0.0, grad_scale=2.0):
    rng = np.random.default_rng(seed)
    X = random_point(n, r, seed)
    G = grad_scale * rng.standard_normal((n, r))
    d = np.exp(rng.normal(0.0, 0.5, n)) + 0.5
    return X, G, DiagonalMetric(d, sigma)


class TestProx:
    def test_mu_zero_is_identity(self):
        P = np.random.default_rng(0).standard_normal((4, 2))
        np.testing.assert_array_equal(prox_l1_weighted(P, np.ones(4), 0.0), P)

    def test_scalar_hand_case(self):
        # weight 2, mu 1: threshold 0.5, so 1.2 shrinks to 0.7
        out = prox_l1_weighted(np.array([[1.2]]), np.array([2.0]), 1.0)
        assert out[0, 0] == pytest.approx(0.7)

    def test_full_shrinkage(self):
        P = 0.1 * np.random.default_rng(1).standard_normal((5, 2))
        out = prox_l1_weighted(P, np.ones(5), 10.0)
        np.testing.assert_array_equal(out, 0.0)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            prox_l1_weighted(np.ones((3, 1)), np.array([1.0, 0.0, 2.0]), 0.5)
        with pytest.raises(ValueError):
            prox_l1_weighted(np.ones((3, 1)), np.ones(3), -1.0)

    def test_subgradient_optimality(self):
        # exact minimizer: w (y - p) + mu sign(y) = 0 on the support,
        # |w p| <= mu off the support
        rng = np.random.default_rng(2)
        P = rng.standard_normal((6, 3))
        w = np.abs(rng.standard_normal(6)) + 0.2
        mu = 0.4
        Y = prox_l1_weighted(P, w, mu)
        on = Y != 0
        resid = w[:, None] * (Y - P) + mu * np.sign(Y)
        assert np.all(np.abs(resid[on]) <= 1e-12)
        assert np.all(np.abs((w[:, None] * P)[~on]) <= mu + 1e-12)


class TestVofLambda:
    def test_smooth_unconstrained_case(self):
        X, G, metric = make_instance(5, 2, 3)
        V = v_of_lambda(X, G, metric, 0.0, np.zeros((2, 2)))
        np.testing.assert_allclose(V, -G / metric.weights()[:, None], atol=1e-14)

    def test_minimizes_lagrangian_under_perturbations(self):
        X, G, metric = make_instance(4, 1, 4)
        mu = 0.3
        lam = np.array([[0.2]])
        w = metric.weights()
        V = v_of_lambda(X, G, metric, mu, lam)

        def lagrangian(U):
            return (
                float(np.sum((G - 2.0 * X.data @ lam) * U))
                + 0.5 * float(np.sum(w[:, None] * U * U))
                + mu * float(np.abs(X.data + U).sum())
            )

        base = lagrangian(V)
        for i in range(4):
            for t in (1e-4, -1e-4):
                U = V.copy()
                U[i, 0] += t
                assert lagrangian(U) >= base - 1e-12

    def test_adjoint_identity(self):
        # <Lambda, A(V)> = <2 X Lambda, V> for symmetric Lambda
        X, _, _ = make_instance(6, 3, 5)
        rng = np.random.default_rng(6)
        V = rng.standard_normal((6, 3))
        lam = rng.standard_normal((3, 3))
        lam = lam + lam.T
        AV = V.T @ X.data + X.data.T @ V
        assert abs(np.sum(lam * AV) - np.sum((2.0 * X.data @ lam) * V)) <= 1e-12


class TestResidual:
    def test_zero_at_trivial_stationary_point(self):
        X, _, metric = make_instance(5, 2, 7)
        E = residual_E(X, np.zeros((5, 2)), metric, 0.0, np.zeros((2, 2)))
        np.testing.assert_allclose(E, 0.0, atol=1e-14)

    def test_affine_in_lambda_for_identity_metric(self):
        # mu = 0 and unit weights: E(L) - E(0) = A(2 X L) = 4 L
        X = random_point(6, 2, 8)
        G = np.random.default_rng(9).standard_normal((6, 2))
        metric = DiagonalMetric(np.ones(6), 0.0)
        lam = np.random.default_rng(10).standard_normal((2, 2))
        lam = lam + lam.T
        E1 = residual_E(X, G, metric, 0.0, lam)
        E0 = residual_E(X, G, metric, 0.0, np.zeros((2, 2)))
        np.testing.assert_allclose(E1 - E0, 4.0 * lam, atol=1e-12)

    def test_exactly_symmetric(self):
        X, G, metric = make_instance(7, 3, 11)
        lam = np.random.default_rng(12).standard_normal((3, 3))
        lam = lam + lam.T
        E = residual_E(X, G, metric, 0.5, lam)
        np.testing.assert_array_equal(E, E.T)


class TestJacobian:
    def test_identity_metric_smooth_case_gives_4d(self):
        X = random_point(6, 2, 13)
        G = np.random.default_rng(14).standard_normal((6, 2))
        metric = DiagonalMetric(np.ones(6), 0.0)
        D = np.random.default_rng(15).standard_normal((2, 2))
        D = D + D.T
        out = jacobian_apply(X, G, metric, 0.0, np.zeros((2, 2)), D)
        np.testing.assert_allclose(out, 4.0 * D, atol=1e-12)

    def test_dead_mask_gives_zero(self):
        X, G, metric = make_instance(5, 2, 16)
        D = np.eye(2)
        out = jacobian_apply(X, G, metric, 1e6, np.zeros((2, 2)), D)
        np.testing.assert_array_equal(out, 0.0)

    def test_matches_directional_finite_difference(self):
        rng = np.random.default_rng(17)
        checked = 0
        for seed in range(12):
            X, G, metric = make_instance(6, 2, 40 + seed)
            mu = 0.3
            w = metric.weights()
            lam = rng.standard_normal((2, 2))
            lam = lam + lam.T
            # kink guard: skip instances with |P| within 1e-4 of a threshold
            P = X.data - (G - 2.0 * X.data @ lam) / w[:, None]
            if np.min(np.abs(np.abs(P) - (mu / w)[:, None])) < 1e-4:
                continue
            D = rng.standard_normal((2, 2))
            D = D + D.T
            t = 1e-7
            fd = (residual_E(X, G, metric, mu, lam + t * D) - residual_E(X, G, metric, mu, lam)) / t
            out = jacobian_apply(X, G, metric, mu, lam, D)
            assert np.linalg.norm(fd - out) <= 1e-6
            checked += 1
        assert checked >= 8

    def test_self_adjoint_and_psd(self):
        rng = np.random.default_rng(18)
        X, G, metric = make_instance(7, 3, 19)
        lam = rng.standard_normal((3, 3))
        lam = lam + lam.T
        for _ in range(5):
            D1 = rng.standard_normal((3, 3))
            D1 = D1 + D1.T
            D2 = rng.standard_normal((3, 3))
            D2 = D2 + D2.T
            j1 = jacobian_apply(X, G, metric, 0.2, lam, D1)
            j2 = jacobian_apply(X, G, metric, 0.2, lam, D2)
            assert abs(np.sum(j1 * D2) - np.sum(D1 * j2)) <= 1e-10
            assert np.sum(j1 * D1) >= -1e-12


def symmetric_basis(r):
    """Orthonormal basis of the symmetric r x r matrices, upper triangle row by row."""
    basis = []
    for i, j in zip(*np.triu_indices(r)):
        B = np.zeros((r, r))
        B[i, j] = B[j, i] = 1.0 if i == j else 1.0 / np.sqrt(2.0)
        basis.append(B)
    return basis


class TestNewtonMatrix:
    @pytest.mark.parametrize("r", sorted({1, 2, 3, 4, _DIRECT_MAX_R}))
    @pytest.mark.parametrize("mu, mask", [(0.3, "mixed"), (1e6, "dead"), (0.0, "active")])
    def test_matches_jacobian_apply(self, r, mu, mask):
        X, G, metric = make_instance(2 * r + 6, r, 30 + r, sigma=0.1)
        rng = np.random.default_rng(r)
        lam = rng.standard_normal((r, r))
        lam = lam + lam.T
        w = metric.weights()
        P = X.data - (G - 2.0 * X.data @ lam) / w[:, None]
        J = np.abs(P) > (mu / w)[:, None]
        assert {"mixed": 0 < J.mean() < 1, "dead": not J.any(), "active": J.all()}[mask]
        active = J * (2.0 / w)[:, None]
        eta = 0.05
        H = _newton_matrix(_row_outer(X.data), active, eta)
        basis = symmetric_basis(r)
        ref = np.array(
            [[np.sum(Ba * (jacobian_apply(X, G, metric, mu, lam, Bb) + eta * Bb)) for Bb in basis] for Ba in basis]
        )
        np.testing.assert_array_equal(H, H.T)
        assert np.max(np.abs(H - ref)) <= 1e-12 * np.max(np.abs(ref))
        # the direct step solves (Jac + eta I) D = -E
        E = rng.standard_normal((r, r))
        E = E + E.T
        D = _direct_step(_row_outer(X.data), active, eta, E)
        np.testing.assert_array_equal(D, D.T)
        lhs = jacobian_apply(X, G, metric, mu, lam, D) + eta * D
        assert np.linalg.norm(lhs + E) <= 1e-10 * np.linalg.norm(E)


class TestSsnSolve:
    def test_stationary_subproblem_needs_no_iterations(self):
        X, _, metric = make_instance(6, 2, 20)
        res = ssn_solve(X, np.zeros((6, 2)), metric, 0.0)
        assert res.converged
        assert res.ssn_iters == 0
        np.testing.assert_allclose(res.v.data, 0.0, atol=1e-14)
        np.testing.assert_array_equal(res.lam, 0.0)

    def test_smooth_case_matches_dense_kkt(self):
        for n, r in ORACLE_SHAPES:
            for seed in range(6):
                X, G, metric = make_instance(n, r, 60 + seed, sigma=0.2 * (seed % 2))
                tol = 1e-10 * max(1.0, np.linalg.norm(G))
                res = ssn_solve(X, G, metric, 0.0, None, tol, 100)
                assert res.converged
                V_ref = kkt_direction(X.data, G, metric.weights())
                assert np.linalg.norm(res.v.data - V_ref) <= 1e-8

    def test_l1_case_matches_splitting_oracle(self):
        for n, r in ORACLE_SHAPES:
            for seed in range(6):
                X, G, metric = make_instance(n, r, 80 + seed)
                tol = 1e-10 * max(1.0, np.linalg.norm(G))
                res = ssn_solve(X, G, metric, 0.1, None, tol, 100)
                w = metric.weights()
                V_ref = splitting_direction(X.data, G, w, 0.1)
                assert np.linalg.norm(res.v.data - V_ref) <= 1e-6
                phi_gap = subproblem_value(X.data, G, w, 0.1, res.v.data) - subproblem_value(
                    X.data, G, w, 0.1, V_ref
                )
                assert phi_gap <= 1e-8

    def test_returned_direction_is_tangent(self):
        X, G, metric = make_instance(8, 3, 21)
        res = ssn_solve(X, G, metric, 0.5)
        Xa, V = X.data, res.v.data
        assert np.linalg.norm(V.T @ Xa + Xa.T @ V) <= 1e-12 * max(1.0, np.linalg.norm(V))

    def test_decrease_guarantee(self):
        # phi(V) - phi(0) <= -1/2 ||V||_B^2 + tol ||V||
        for seed in range(5):
            X, G, metric = make_instance(7, 2, 100 + seed)
            mu = 0.4
            tol = 1e-10 * max(1.0, np.linalg.norm(G))
            res = ssn_solve(X, G, metric, mu, None, tol, 100)
            w = metric.weights()
            V = res.v.data
            phi_diff = subproblem_value(X.data, G, w, mu, V) - mu * float(np.abs(X.data).sum())
            bound = -0.5 * metric_norm_sq(metric, V) + tol * np.linalg.norm(V)
            assert phi_diff <= bound + 1e-10

    def test_residual_history_reaches_tolerance(self):
        X, G, metric = make_instance(6, 2, 22)
        tol = 1e-10 * max(1.0, np.linalg.norm(G))
        res = ssn_solve(X, G, metric, 0.3, None, tol, 100)
        assert res.converged
        assert res.residual_history[-1] <= tol
        assert res.residual_norm == res.residual_history[-1]
        assert res.residual_norm <= res.residual_history[0]

    def test_warm_start_reuses_multiplier(self):
        X, G, metric = make_instance(6, 2, 23)
        first = ssn_solve(X, G, metric, 0.2)
        again = ssn_solve(X, G, metric, 0.2, first.lam)
        assert again.ssn_iters <= 1
        assert np.linalg.norm(again.v.data - first.v.data) <= 1e-8

    def test_rejects_bad_arguments(self):
        X, G, metric = make_instance(5, 2, 24)
        with pytest.raises(ValueError):
            ssn_solve(X, G, metric, 0.1, max_iter=0)
        with pytest.raises(ValueError):
            ssn_solve(X, G, DiagonalMetric(np.zeros(5), 0.0), 0.1)
        with pytest.raises(ValueError):
            ssn_solve(X, G, metric, -0.1)
