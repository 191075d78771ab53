import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stiefelprox.subproblem as subproblem_module
from stiefelprox import make_cm, random_point, solve, ssn_solve
from stiefelprox.metric import metric_norm_sq
from stiefelprox.subproblem import _cg_symmetric, _dual_rise, _fields, _jacobi_diag, _jacobian
import roundoff_floor
from oracles import cg_symmetric_reference, dual_value, kkt_direction, splitting_direction, subproblem_value
from ssn_search import FAR, MAX_ITER, TOL, random_subproblem, stop_histogram

# a small shape and one with 78 dual unknowns
ORACLE_SHAPES = [(6, 2), (15, 12)]

# fixed examples, so the suite draws the same instances on every run
PROPERTY_SETTINGS = settings(max_examples=25, derandomize=True, database=None, deadline=None)
SUBPROBLEM_R = st.integers(1, 12)
MU = st.floats(0.0, 2.0)
SIGMA = st.floats(0.0, 1.0)
SEED = st.integers(0, 2**32 - 1)


def make_instance(n, r, seed, sigma=0.0, grad_scale=2.0):
    rng = np.random.default_rng(seed)
    X = random_point(n, r, seed)
    G = grad_scale * rng.standard_normal((n, r))
    d = np.exp(rng.normal(0.0, 0.5, n)) + 0.5
    return X, G, d + sigma


def dual_map(X, G, w, mu, lam):
    """(P, V, E, active) of the dual at lam, from the kernel arguments ssn_solve builds."""
    scale = (2.0 / w)[:, None]
    thresh = (mu / w)[:, None]
    P, V, E = _fields(X.data, X.data - G / w[:, None], scale, thresh, -thresh, lam)
    return P, V, E, (np.abs(P) > thresh) * scale


def prox(P, w, mu):
    """Row-weighted soft thresholding through _fields: X = 0 and L = 0 leave P as is."""
    n, r = P.shape
    thresh = (mu / w)[:, None]
    _, V, _ = _fields(np.zeros((n, r)), P, (2.0 / w)[:, None], thresh, -thresh, np.zeros((r, r)))
    return V


def record_residuals(mp):
    """Patch the kernels through mp; the returned function gives the residual
    history of the ssn_solve call made since: the starting residual, then
    that of each iteration's accepted candidate, which is the last field
    evaluation before the next CG solve (every iteration here accepts one)."""
    evaluated = [[]]  # residuals of the start, then of each iteration
    cg = subproblem_module._cg_symmetric

    def fields(*args):
        P, V, E = _fields(*args)
        evaluated[-1].append(math.sqrt(np.vdot(E, E)))
        return P, V, E

    def cg_step(*args, **kwargs):
        evaluated.append([])
        return cg(*args, **kwargs)

    mp.setattr(subproblem_module, "_fields", fields)
    mp.setattr(subproblem_module, "_cg_symmetric", cg_step)
    return lambda: [step[-1] for step in evaluated]


def assert_prox_optimal(Y, P, w, mu, tol):
    """Subgradient conditions of Y = argmin mu ||Y||_1 + 1/2 tr((Y-P)^T diag(w) (Y-P)):
    w (y - p) + mu sign(y) = 0 on the support, |w p| <= mu off the support."""
    on = Y != 0
    resid = w[:, None] * (Y - P) + mu * np.sign(Y)
    assert np.all(np.abs(resid[on]) <= tol)
    assert np.all(np.abs((w[:, None] * P)[~on]) <= mu + tol)


def random_sym(rng, r):
    A = rng.standard_normal((r, r))
    return A + A.T


class TestProx:
    def test_mu_zero_is_identity(self):
        P = np.random.default_rng(0).standard_normal((4, 2))
        np.testing.assert_array_equal(prox(P, np.ones(4), 0.0), P)
        # with a real base point too: V = P - X exactly, no mu = 0 branch needed
        X, G, w = make_instance(5, 2, 3)
        P, V, _, _ = dual_map(X, G, w, 0.0, random_sym(np.random.default_rng(1), 2))
        np.testing.assert_array_equal(V, P - X.data)

    def test_scalar_hand_case(self):
        # weight 2, mu 1: threshold 0.5, so 1.2 shrinks to 0.7
        out = prox(np.array([[1.2]]), np.array([2.0]), 1.0)
        assert out[0, 0] == pytest.approx(0.7)

    def test_full_shrinkage(self):
        P = 0.1 * np.random.default_rng(1).standard_normal((5, 2))
        out = prox(P, np.ones(5), 10.0)
        np.testing.assert_array_equal(out, 0.0)

    def test_rejects_nonpositive_weights(self):
        # the prox is only reached through ssn_solve, which checks its weights and mu
        X, G, w = make_instance(5, 2, 24)
        with pytest.raises(ValueError):
            ssn_solve(X, G, np.array([1.0, 0.0, 2.0, 1.0, 1.0]), 0.5)
        with pytest.raises(ValueError):
            ssn_solve(X, G, w, -0.1)

    def test_subgradient_optimality(self):
        rng = np.random.default_rng(2)
        P = rng.standard_normal((6, 3))
        w = np.abs(rng.standard_normal(6)) + 0.2
        mu = 0.4
        assert_prox_optimal(prox(P, w, mu), P, w, mu, 1e-12)

    @PROPERTY_SETTINGS
    @given(r=SUBPROBLEM_R, n_extra=st.integers(0, 8), mu=MU, sigma=SIGMA, seed=SEED)
    def test_prox_optimality_of_v_plus_x(self, r, n_extra, mu, sigma, seed):
        # V(L) + X minimizes the separable prox problem at P(L), any X, w, mu, L
        X, G, w = make_instance(r + n_extra, r, seed, sigma=sigma)
        P, V, _, _ = dual_map(X, G, w, mu, random_sym(np.random.default_rng(seed), r))
        assert_prox_optimal(V + X.data, P, w, mu, 1e-12 * max(1.0, np.max(w * np.abs(P).max(axis=1))))


class TestVofLambda:
    def test_smooth_unconstrained_case(self):
        X, G, w = make_instance(5, 2, 3)
        _, V, _, _ = dual_map(X, G, w, 0.0, np.zeros((2, 2)))
        np.testing.assert_allclose(V, -G / w[:, None], atol=1e-14)

    def test_minimizes_lagrangian_under_perturbations(self):
        X, G, w = make_instance(4, 1, 4)
        mu = 0.3
        lam = np.array([[0.2]])
        _, V, _, _ = dual_map(X, G, w, mu, lam)

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
        lam = random_sym(rng, 3)
        AV = V.T @ X.data + X.data.T @ V
        assert abs(np.sum(lam * AV) - np.sum((2.0 * X.data @ lam) * V)) <= 1e-12


class TestResidual:
    def test_zero_at_trivial_stationary_point(self):
        X, _, w = make_instance(5, 2, 7)
        _, _, E, _ = dual_map(X, np.zeros((5, 2)), w, 0.0, np.zeros((2, 2)))
        np.testing.assert_allclose(E, 0.0, atol=1e-14)

    def test_affine_in_lambda_for_identity_metric(self):
        # mu = 0 and unit weights: E(L) - E(0) = A(2 X L) = 4 L
        X = random_point(6, 2, 8)
        G = np.random.default_rng(9).standard_normal((6, 2))
        w = np.ones(6)
        lam = random_sym(np.random.default_rng(10), 2)
        E1 = dual_map(X, G, w, 0.0, lam)[2]
        E0 = dual_map(X, G, w, 0.0, np.zeros((2, 2)))[2]
        np.testing.assert_allclose(E1 - E0, 4.0 * lam, atol=1e-12)

    def test_exactly_symmetric(self):
        X, G, w = make_instance(7, 3, 11)
        lam = random_sym(np.random.default_rng(12), 3)
        E = dual_map(X, G, w, 0.5, lam)[2]
        np.testing.assert_array_equal(E, E.T)


class TestKernel:
    @PROPERTY_SETTINGS
    @given(
        r=SUBPROBLEM_R,
        n_extra=st.integers(0, 8),
        mu=st.just(0.0) | MU,
        sigma=SIGMA,
        seed=SEED,
        at_zero=st.booleans(),
    )
    def test_matches_the_reference_formulas(self, r, n_extra, mu, sigma, seed, at_zero):
        # P - clip(P, -t, t) and E = M + M^T with M = V^T X round exactly like
        # sign(P) max(|P| - t, 0) and V^T X + X^T V; at L = 0, P is base
        # itself, whose entries are drawn at +t, -t, 0 or at random
        n = r + n_extra
        X, _, w = make_instance(n, r, seed, sigma=sigma)
        rng = np.random.default_rng(seed)
        thresh = (mu / w)[:, None]
        kind = rng.integers(0, 4, (n, r))
        base = np.where(
            kind == 0, thresh, np.where(kind == 1, -thresh, np.where(kind == 2, 0.0, rng.standard_normal((n, r))))
        )
        lam = np.zeros((r, r)) if at_zero else random_sym(rng, r)
        P, V, E = _fields(X.data, base, (2.0 / w)[:, None], thresh, -thresh, lam)
        if at_zero:
            np.testing.assert_array_equal(P, base)
        assert np.array_equal(V, np.sign(P) * np.maximum(np.abs(P) - thresh, 0.0) - X.data)
        assert np.array_equal(E, V.T @ X.data + X.data.T @ V)

    @PROPERTY_SETTINGS
    @given(
        r=SUBPROBLEM_R,
        n_extra=st.integers(0, 8),
        mu=st.just(0.0) | MU,
        seed=SEED,
        at_zero=st.booleans(),
    )
    def test_weights_spread_to_n_by_r_change_no_bit(self, r, n_extra, mu, seed, at_zero):
        # ssn_solve spreads the weights over n x r so that no elementwise op
        # broadcasts; (n, 1) columns of the same values must give the same
        # bits, the sign of every zero included (mu = 0 clips at -0.0 and 0.0)
        n = r + n_extra
        rng = np.random.default_rng(seed)
        X = random_point(n, r, seed).data
        w = 10.0 ** rng.uniform(-5, 5, n)
        w_full = np.empty_like(X)
        w_full[:] = w[:, None]
        kind = rng.integers(0, 3, (n, r))
        base = np.where(kind == 0, 0.0, np.where(kind == 1, -0.0, X - rng.standard_normal((n, r)) / w_full))
        lam = np.zeros((r, r)) if at_zero else random_sym(rng, r)
        outputs = []
        for weights in (w[:, None], w_full):
            scale, thresh = 2.0 / weights, mu / weights
            P, V, E = _fields(X, base, scale, thresh, -thresh, lam)
            outputs.append((P, V, E, (np.abs(P) > thresh) * scale))
        for column, spread in zip(*outputs):
            assert column.shape == spread.shape
            assert np.array_equal(column, spread)
            assert np.array_equal(np.signbit(column), np.signbit(spread))


class TestJacobian:
    def test_identity_metric_smooth_case_gives_4d(self):
        X = random_point(6, 2, 13)
        G = np.random.default_rng(14).standard_normal((6, 2))
        w = np.ones(6)
        D = random_sym(np.random.default_rng(15), 2)
        active = dual_map(X, G, w, 0.0, np.zeros((2, 2)))[3]
        np.testing.assert_allclose(_jacobian(X.data, active, 0.0, D), 4.0 * D, atol=1e-12)
        # eta adds eta D on top
        np.testing.assert_allclose(_jacobian(X.data, active, 0.5, D), 4.5 * D, atol=1e-12)

    def test_dead_mask_gives_zero(self):
        X, G, w = make_instance(5, 2, 16)
        active = dual_map(X, G, w, 1e6, np.zeros((2, 2)))[3]
        np.testing.assert_array_equal(_jacobian(X.data, active, 0.0, np.eye(2)), 0.0)

    def test_matches_directional_finite_difference(self):
        # _jacobian is the derivative of the E returned by _fields
        rng = np.random.default_rng(17)
        checked = 0
        for seed in range(12):
            X, G, w = make_instance(6, 2, 40 + seed)
            mu = 0.3
            lam = random_sym(rng, 2)
            P, _, E, active = dual_map(X, G, w, mu, lam)
            # kink guard: skip instances with |P| within 1e-4 of a threshold
            if np.min(np.abs(np.abs(P) - (mu / w)[:, None])) < 1e-4:
                continue
            D = random_sym(rng, 2)
            t = 1e-7
            fd = (dual_map(X, G, w, mu, lam + t * D)[2] - E) / t
            out = _jacobian(X.data, active, 0.0, D)
            assert np.linalg.norm(fd - out) <= 1e-6
            checked += 1
        assert checked >= 8

    def test_self_adjoint_and_psd(self):
        rng = np.random.default_rng(18)
        X, G, w = make_instance(7, 3, 19)
        active = dual_map(X, G, w, 0.2, random_sym(rng, 3))[3]
        for _ in range(5):
            D1 = random_sym(rng, 3)
            D2 = random_sym(rng, 3)
            j1 = _jacobian(X.data, active, 0.0, D1)
            j2 = _jacobian(X.data, active, 0.0, D2)
            assert abs(np.sum(j1 * D2) - np.sum(D1 * j2)) <= 1e-10
            assert np.sum(j1 * D1) >= -1e-12


class TestDual:
    @PROPERTY_SETTINGS
    @given(r=SUBPROBLEM_R, n_extra=st.integers(0, 8), mu=MU, sigma=SIGMA, seed=SEED, cg_steps=st.integers(1, 80))
    def test_weak_duality_and_newton_ascent(self, r, n_extra, mu, sigma, seed, cg_steps):
        # phi(L) is at most the subproblem value at any tangent direction,
        # here the returned one, for the returned multiplier and for random
        # ones; a CG Newton step from a random multiplier, stopped after any
        # number of iterations, is an ascent direction of phi, and
        # _dual_rise is phi's change along it
        X, G, w = make_instance(r + n_extra, r, seed, sigma=sigma)
        Xa = X.data
        res = ssn_solve(X, G, w, mu, None, 1e-10, 100)
        primal = subproblem_value(Xa, G, w, mu, res.v.data)
        rng = np.random.default_rng(seed)
        unit = 2.0 / float(np.mean(w))  # the Jacobian's unit; L carries its inverse
        for lam in (res.lam, res.lam + random_sym(rng, r) / unit):
            assert dual_value(Xa, G, w, mu, lam) <= primal + 1e-12 * (1.0 + abs(primal))
        lam = random_sym(rng, r) / unit
        P, V, E, active = dual_map(X, G, w, mu, lam)
        eta = 1e-3 * unit
        step, _ = _cg_symmetric(
            functools.partial(_jacobian, Xa, active, eta), -E, _jacobi_diag(Xa * Xa, active, eta), 1e-12, cg_steps
        )
        assert -np.vdot(E, step) > 0.0
        _, Vc, Ec, _ = dual_map(X, G, w, mu, lam + step)
        thresh = (mu / w)[:, None]
        rise = _dual_rise(Xa, w, thresh, np.clip(P, -thresh, thresh), V, step, Vc, Ec)
        before, after = dual_value(Xa, G, w, mu, lam), dual_value(Xa, G, w, mu, lam + step)
        assert rise == pytest.approx(after - before, rel=1e-6, abs=1e-11 * (1.0 + abs(before) + abs(after)))


def symmetric_basis(r):
    """Orthonormal basis of the symmetric r x r matrices, upper triangle row by row."""
    basis = []
    for i, j in zip(*np.triu_indices(r)):
        B = np.zeros((r, r))
        B[i, j] = B[j, i] = 1.0 if i == j else 1.0 / np.sqrt(2.0)
        basis.append(B)
    return basis


class TestJacobiCg:
    @pytest.mark.parametrize("r", [1, 2, 5, 12])
    @pytest.mark.parametrize("mu, mask", [(0.3, "mixed"), (1e6, "dead"), (0.0, "active")])
    def test_diagonal_and_solve(self, r, mu, mask):
        X, G, w = make_instance(2 * r + 6, r, 50 + r, sigma=0.1)
        rng = np.random.default_rng(r)
        _, _, _, active = dual_map(X, G, w, mu, random_sym(rng, r))
        J = active > 0
        assert {"mixed": 0 < J.mean() < 1, "dead": not J.any(), "active": J.all()}[mask]
        eta = 0.05
        diag = _jacobi_diag(X.data * X.data, active, eta)
        np.testing.assert_array_equal(diag, diag.T)
        # entry (k, l) is the diagonal of the Newton matrix at basis matrix (k, l)
        ref = np.array([np.sum(B * _jacobian(X.data, active, eta, B)) for B in symmetric_basis(r)])
        assert np.max(np.abs(diag[np.triu_indices(r)] - ref)) <= 1e-12 * np.max(np.abs(ref))
        if mask == "dead":
            np.testing.assert_array_equal(diag, eta)
        # the preconditioned CG solves (Jac + eta I) D = -E to its tolerance
        E = random_sym(rng, r)
        newton_op = functools.partial(_jacobian, X.data, active, eta)
        D, iters = _cg_symmetric(newton_op, -E, diag, rel_tol=1e-10, max_iter=10 * r * (r + 1))
        np.testing.assert_array_equal(D, D.T)
        assert np.linalg.norm(newton_op(D) + E) <= 1e-10 * np.linalg.norm(E)
        assert 1 <= iters < 10 * r * (r + 1)

    def test_stops_at_nonpositive_curvature(self):
        # an operator that is not positive definite ends CG at its first
        # curvature test, before x moves
        E = random_sym(np.random.default_rng(0), 3)
        x, iters = _cg_symmetric(lambda D: -D, -E, np.ones((3, 3)), rel_tol=1e-10, max_iter=6)
        np.testing.assert_array_equal(x, np.zeros((3, 3)))
        assert iters == 1


    @settings(PROPERTY_SETTINGS, max_examples=200)
    @given(
        r=st.integers(1, 8),
        n_extra=st.integers(0, 8),
        seed=SEED,
        rel_tol=st.sampled_from([1e-12, 0.1, 1.5]),
        cap=st.sampled_from(["zero", "one", "full"]),
        spd=st.booleans(),
        zero_rhs=st.booleans(),
    )
    def test_matches_the_reference_loop_bit_for_bit(self, r, n_extra, seed, rel_tol, cap, spd, zero_rhs):
        # the residual is tested once, where it changes; the counts, x and
        # the sign of every zero in x are those of the loop that tested it
        # at the top of every iteration, at every exit
        n = r + n_extra
        rng = np.random.default_rng(seed)
        X = random_point(n, r, seed).data
        active = (rng.random((n, r)) < rng.random()) * (2.0 / 10.0 ** rng.uniform(-3, 3, n))[:, None]
        eta = 10.0 ** rng.uniform(-12, -2)
        op = functools.partial(_jacobian, X, active, eta) if spd else (lambda D: -D)
        diag = _jacobi_diag(X * X, active, eta)
        rhs = np.zeros((r, r)) if zero_rhs else random_sym(rng, r)
        max_iter = {"zero": 0, "one": 1, "full": r * (r + 1) // 2}[cap]
        x, iters = _cg_symmetric(op, rhs, diag, rel_tol, max_iter)
        x_ref, iters_ref = cg_symmetric_reference(op, rhs, diag, rel_tol, max_iter)
        assert iters == iters_ref
        assert np.array_equal(x, x_ref)
        assert np.array_equal(np.signbit(x), np.signbit(x_ref))


class TestSsnSolve:
    def test_stationary_subproblem_needs_no_iterations(self):
        X, _, w = make_instance(6, 2, 20)
        res = ssn_solve(X, np.zeros((6, 2)), w, 0.0)
        assert res.converged
        assert res.ssn_iters == 0
        np.testing.assert_allclose(res.v.data, 0.0, atol=1e-14)
        np.testing.assert_array_equal(res.lam, 0.0)

    def test_smooth_case_matches_dense_kkt(self):
        for n, r in ORACLE_SHAPES:
            for seed in range(6):
                X, G, w = make_instance(n, r, 60 + seed, sigma=0.2 * (seed % 2))
                tol = 1e-10 * max(1.0, np.linalg.norm(G))
                res = ssn_solve(X, G, w, 0.0, None, tol, 100)
                assert res.converged
                V_ref = kkt_direction(X.data, G, w)
                assert np.linalg.norm(res.v.data - V_ref) <= 1e-8

    def test_l1_case_matches_splitting_oracle(self):
        for n, r in ORACLE_SHAPES:
            for seed in range(6):
                X, G, w = make_instance(n, r, 80 + seed)
                tol = 1e-10 * max(1.0, np.linalg.norm(G))
                res = ssn_solve(X, G, w, 0.1, None, tol, 100)
                V_ref = splitting_direction(X.data, G, w, 0.1)
                assert np.linalg.norm(res.v.data - V_ref) <= 1e-6
                phi_gap = subproblem_value(X.data, G, w, 0.1, res.v.data) - subproblem_value(
                    X.data, G, w, 0.1, V_ref
                )
                assert phi_gap <= 1e-8

    def test_returned_direction_is_tangent(self):
        X, G, w = make_instance(8, 3, 21)
        res = ssn_solve(X, G, w, 0.5)
        Xa, V = X.data, res.v.data
        assert np.linalg.norm(V.T @ Xa + Xa.T @ V) <= 1e-12 * max(1.0, np.linalg.norm(V))

    @PROPERTY_SETTINGS
    @given(r=SUBPROBLEM_R, n_extra=st.integers(0, 8), mu=MU, sigma=SIGMA, seed=SEED, max_iter=st.integers(1, 100))
    def test_direction_is_tangent_for_any_instance(self, r, n_extra, mu, sigma, seed, max_iter):
        # tangency holds to machine precision, also when the dual loop stops early
        X, G, w = make_instance(r + n_extra, r, seed, sigma=sigma)
        lam0 = random_sym(np.random.default_rng(seed), r)
        V = ssn_solve(X, G, w, mu, lam0, max_iter=max_iter).v.data
        Xa = X.data
        assert np.linalg.norm(V.T @ Xa + Xa.T @ V) <= 1e-12 * max(1.0, np.linalg.norm(V))

    def test_decrease_guarantee(self):
        # phi(V) - phi(0) <= -1/2 ||V||_B^2 + tol ||V||
        for seed in range(5):
            X, G, w = make_instance(7, 2, 100 + seed)
            mu = 0.4
            tol = 1e-10 * max(1.0, np.linalg.norm(G))
            res = ssn_solve(X, G, w, mu, None, tol, 100)
            V = res.v.data
            phi_diff = subproblem_value(X.data, G, w, mu, V) - mu * float(np.abs(X.data).sum())
            bound = -0.5 * metric_norm_sq(w, V) + tol * np.linalg.norm(V)
            assert phi_diff <= bound + 1e-10

    def test_stop_names_each_exit(self, monkeypatch):
        X, G, w = make_instance(6, 2, 22)
        res = ssn_solve(X, G, w, 0.3, None, 1e-10 * max(1.0, np.linalg.norm(G)), 100)
        assert res.stop == "converged" and res.converged and res.ssn_iters > 1
        res = ssn_solve(X, G, w, 0.3, None, 0.0, 1)
        assert res.stop == "max_iter" and res.ssn_iters == 1
        # St(7, 5) with weights over ten decades, at tol 1e-8: after 19
        # steps no halving of the 20th shrinks the residual or raises phi by
        # more than its rounding error bound; the residual returned is the
        # least of the accepted ones
        history = record_residuals(monkeypatch)
        res = ssn_solve(*random_subproblem(158), None, TOL, MAX_ITER)
        assert res.stop == "no_step" and not res.converged
        assert res.ssn_iters == 20 and res.halvings >= subproblem_module._MAX_HALVINGS
        assert TOL < res.residual_norm == min(history()[:-1]) < 1e-7

    def test_converges_where_weights_span_ten_decades(self):
        # every halving of the fifth Newton step raises the residual here,
        # so only the dual ascent test lets the solve go on
        rng = np.random.default_rng(0)
        X = random_point(6, 2, 0)
        G = 2.0 * rng.standard_normal((6, 2))
        w = 10.0 ** rng.uniform(-5, 5, 6)
        res = ssn_solve(X, G, w, 0.3, None, 1e-8, 100)
        assert res.stop == "converged" and res.residual_norm <= 1e-8
        _, _, E, _ = dual_map(X, G, w, 0.3, res.lam)
        assert res.residual_norm == math.sqrt(np.vdot(E, E))

    def test_few_seeded_subproblems_end_far_from_the_solution(self):
        # tests/ssn_search.py prints this histogram for any number of seeds;
        # on seeds 0-299, 13 solves end above a residual of 1e-6: 9 at
        # max_iter and 4 at "no_step"
        stops, far = stop_histogram(range(300))
        assert set(stops) <= {"converged", "max_iter", "no_step"}
        assert sum(far.values()) <= 15, (stops, far)
        assert FAR == 1e-6 and stops["converged"] >= 280

    def test_residual_reaches_tolerance(self, monkeypatch):
        X, G, w = make_instance(6, 2, 22)
        tol = 1e-10 * max(1.0, np.linalg.norm(G))
        history = record_residuals(monkeypatch)
        res = ssn_solve(X, G, w, 0.3, None, tol, 100)
        assert res.converged
        assert len(history()) == res.ssn_iters + 1
        assert res.residual_norm == history()[-1] <= tol
        assert res.residual_norm <= history()[0]
        # it is the residual at the returned multiplier
        _, _, E, _ = dual_map(X, G, w, 0.3, res.lam)
        assert res.residual_norm == math.sqrt(np.vdot(E, E))

    def test_stops_when_cycling_at_the_roundoff_floor(self, monkeypatch):
        # the committed last subproblem of SPCA(40,12,0.5) seed 0 under a
        # 5-pair memory (tests/roundoff_floor.py), asked below its floor of
        # 3.1e-10: the Newton steps then slide along a direction in which the
        # Jacobian is singular, V(L) and E stay put, and phi rises by about
        # 2e-14 of its magnitude per step, below its rounding error bound;
        # without that bound the slide runs all 200 steps. The arrays are
        # stored, not re-solved, so the fixture stays put when the solver's
        # trajectory moves. It ends at the fourth step, not at max_iter;
        # history()[-1] is the last rejected halving of that step
        history = record_residuals(monkeypatch)
        res = ssn_solve(*roundoff_floor.load("last"), 1e-11, 200)
        assert not res.converged and res.ssn_iters == 4 and res.stop == "no_step"
        assert len(history()) == res.ssn_iters + 1
        assert res.halvings == subproblem_module._MAX_HALVINGS
        assert res.residual_norm == min(history()[:-1]) == 3.062216690437348e-10
        # an earlier subproblem asked for tol 0 stops the same way
        history = record_residuals(monkeypatch)
        res = ssn_solve(*roundoff_floor.load("earlier"), 0.0, 200)
        assert not res.converged and res.ssn_iters == 4 and res.stop == "no_step"
        assert res.residual_norm == min(history()[:-1]) == 2.644115116513203e-10

    @pytest.mark.parametrize("r", [4, 20])
    def test_multiplier_is_exactly_symmetric(self, r):
        # the start is symmetrized, and every later candidate is symmetric by
        # construction
        for seed in range(3):
            X, G, w = make_instance(2 * r, r, 120 + seed, sigma=0.1)
            lam0 = np.random.default_rng(seed).standard_normal((r, r))
            res = ssn_solve(X, G, w, 0.3, lam0, 1e-12, 100)
            assert res.ssn_iters > 0
            assert np.array_equal(res.lam, res.lam.T)

    def test_warm_start_reuses_multiplier(self):
        X, G, w = make_instance(6, 2, 23)
        first = ssn_solve(X, G, w, 0.2)
        again = ssn_solve(X, G, w, 0.2, first.lam)
        assert again.ssn_iters <= 1
        assert np.linalg.norm(again.v.data - first.v.data) <= 1e-8

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(max_iter=2.5), "max_iter must be an integer >= 1, got 2.5"),
            (dict(max_iter=True), "max_iter must be an integer >= 1, got True"),
            (dict(mu=True), "mu must be a finite number >= 0, got True"),
            (dict(mu=math.inf), "mu must be a finite number >= 0, got inf"),
        ],
        ids=["fractional-max-iter", "bool-max-iter", "bool-mu", "infinite-mu"],
    )
    def test_rejects_non_integer_max_iter_and_non_finite_mu(self, kwargs, message):
        # 2.5 ran 3 Newton steps and True ran 1; mu = True was accepted, and
        # inf ended at "no_step" after two RuntimeWarnings
        X, G, w = make_instance(5, 2, 24)
        with pytest.raises(ValueError, match=re.escape(message)):
            ssn_solve(X, G, w, **{"mu": 0.1, **kwargs})

    def test_rejects_bad_arguments(self):
        X, G, w = make_instance(5, 2, 24)
        with pytest.raises(ValueError):
            ssn_solve(X, G, w, 0.1, max_iter=0)
        with pytest.raises(ValueError):
            ssn_solve(X, G, np.zeros(5), 0.1)
        # nan fails every comparison, so w <= 0 and mu < 0 would let these through
        for bad_w, bad_mu in [
            (np.array([math.nan, 1.0, 1.0, 1.0, 1.0]), 0.1),
            (w + math.nan, 0.1),
            (w, math.nan),
        ]:
            with pytest.raises(ValueError):
                ssn_solve(X, G, bad_w, bad_mu)
        for bad_tol in (-1e-8, math.nan):
            with pytest.raises(ValueError, match="tol"):
                ssn_solve(X, G, w, 0.1, tol=bad_tol)

    @pytest.mark.parametrize("w", [np.ones(5), np.ones((10, 2)), 2.0], ids=["short", "n-by-r", "scalar"])
    def test_rejects_weights_of_another_shape(self, w):
        # such weights used to fail inside NumPy, on a broadcast or an index
        X = random_point(10, 2, 0)
        G = np.random.default_rng(0).standard_normal((10, 2))
        with pytest.raises(ValueError, match=re.escape(f"{np.shape(w)}, X needs (10,)")):
            ssn_solve(X, G, w, 0.1)

    @pytest.mark.parametrize(
        "grad_shape, lam_shape, bad_entry",
        [((16, 1), None, None), ((1, 3), None, None), ((3,), None, None), ((16, 3), (3, 1), None),
         ((16, 3), None, ("grad", math.nan)), ((16, 3), None, ("grad", math.inf)),
         ((16, 3), (3, 3), ("lam", math.nan))],
    )
    def test_rejects_misshapen_or_nonfinite_input(self, grad_shape, lam_shape, bad_entry):
        # these broadcast against St(16, 3) or propagate into the direction
        X, _, w = make_instance(16, 3, 25)
        rng = np.random.default_rng(25)
        G = rng.standard_normal(grad_shape)
        lam0 = None if lam_shape is None else rng.standard_normal(lam_shape)
        if bad_entry is not None:
            (G if bad_entry[0] == "grad" else lam0).flat[0] = bad_entry[1]
        with pytest.raises(ValueError, match="grad_f|lam0"):
            ssn_solve(X, G, w, 0.2, lam0)

    def test_overflowing_residual_names_the_overflow(self):
        # f and grad f scaled by 1e200 are finite, but ||E||^2 overflows: the
        # error used to say that grad_f and lam0 must be finite
        p = make_cm(16, 2, 0.1)
        big = dataclasses.replace(
            p, eval_f=lambda X: 1e200 * p.eval_f(X), eval_grad_f=lambda X: 1e200 * p.eval_grad_f(X)
        )
        with pytest.raises(ValueError, match="overflowed to inf at the start, with grad_f and lam0 finite"):
            solve(big, random_point(16, 2, 0))

    @pytest.mark.parametrize("r", [4, 20])
    def test_counters_count_cg_iterations_and_halved_trials(self, monkeypatch, r):
        # every field evaluation is the start, a Newton trial or a halved one
        counts = {"fields": 0, "jacobian": 0}

        def counting(name, original):
            def wrapped(*args):
                counts[name] += 1
                return original(*args)
            return wrapped

        monkeypatch.setattr(subproblem_module, "_fields", counting("fields", _fields))
        monkeypatch.setattr(subproblem_module, "_jacobian", counting("jacobian", _jacobian))
        halvings = 0
        for seed in range(4):
            X, G, w = make_instance(3 * r, r, 130 + seed, sigma=0.1)
            counts.update(fields=0, jacobian=0)
            res = ssn_solve(X, G, w, 0.5, None, 1e-12, 100)
            assert res.converged and res.ssn_iters > 0
            assert counts["fields"] == 1 + res.ssn_iters + res.halvings
            assert res.cg_iters == counts["jacobian"] > 0
            halvings += res.halvings
        assert halvings > 0

    @PROPERTY_SETTINGS
    @given(
        shape=st.sampled_from([(64, 4), (120, 20)]),
        k=st.integers(-4, 5),
        mu=MU,
        sigma=SIGMA,
        seed=SEED,
        warm=st.booleans(),
    )
    def test_equivariant_under_power_of_two_scaling(self, shape, k, mu, sigma, seed, warm):
        # scaling G, the weights w, mu and lam0 by c = 2^k scales the Jacobian by
        # 1/c and the multiplier by c exactly, and leaves the residuals, the
        # Newton path and the direction bitwise unchanged
        n, r = shape
        c = 2.0**k
        X, G, w = make_instance(n, r, seed, sigma=sigma)
        lam0 = random_sym(np.random.default_rng(seed), r) if warm else None
        with pytest.MonkeyPatch.context() as mp:
            base_history = record_residuals(mp)
            base = ssn_solve(X, G, w, mu, lam0, 1e-10, 100)
        with pytest.MonkeyPatch.context() as mp:
            scaled_history = record_residuals(mp)
            scaled = ssn_solve(X, c * G, c * w, c * mu, None if lam0 is None else c * lam0, 1e-10, 100)
        assert base.ssn_iters > 0
        assert scaled_history() == base_history()
        assert scaled.residual_norm == base.residual_norm
        assert np.array_equal(scaled.v.data, base.v.data)
        assert np.array_equal(scaled.lam, c * base.lam)
        assert (scaled.ssn_iters, scaled.cg_iters, scaled.halvings, scaled.converged) == (
            base.ssn_iters, base.cg_iters, base.halvings, base.converged
        )
