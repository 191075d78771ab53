import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from stiefelprox import (
    CompositeProblem,
    RetractionKind,
    TangentVector,
    make_cm,
    make_problem,
    make_spca,
    random_point,
    retract,
    sparsity,
)
from oracles import cm_operator

# grid sizes and column counts on which the stencil must round like CSR
CSR_SIZES = [4, 5, 8, 64, 65, 128, 256, 300, 512]
CSR_COLUMNS = [1, 2, 4, 10, 20]


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


def stencil_matrix(n):
    """H as make_cm applies it: the gradient 2 H X at X = I, halved (exact)."""
    return make_cm(n, 1, 0.0).eval_grad_f(np.eye(n)) / 2.0


class TestSchrodingerOperator:
    # the compressed-modes H, which make_cm applies as a periodic stencil

    def test_stencil_row_hand_case(self):
        H = stencil_matrix(4)
        dx = 50.0 / 4
        inv = 1.0 / dx**2
        np.testing.assert_allclose(H[0], [inv, -0.5 * inv, 0.0, -0.5 * inv])
        np.testing.assert_allclose(H, H.T)

    def test_periodic_row_sums_vanish(self):
        G = make_cm(16, 1, 0.0).eval_grad_f(np.ones((16, 1)))
        np.testing.assert_allclose(G, 0.0, atol=1e-12)

    def test_positive_semidefinite(self):
        assert np.linalg.eigvalsh(stencil_matrix(32)).min() >= -1e-10

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError, match="n >= 4"):
            make_cm(3, 1, 0.1)

    @pytest.mark.parametrize("n", [4, 5, 64])
    def test_equals_hand_built_periodic_stencil(self, n):
        np.testing.assert_allclose(stencil_matrix(n), cm_operator(n), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("n", CSR_SIZES)
    def test_gradient_equals_the_csr_product_bitwise(self, n):
        # the stencil sums each row in CSR's column order from +0.0, so it
        # matches 2 (H @ X) to the bit, signed zeros included
        inv = 1.0 / (50.0 / n) ** 2
        off = -0.5 * inv
        H = sp.diags([off, off, inv, off, off], offsets=(1 - n, -1, 0, 1, n - 1), shape=(n, n), format="csr")
        rng = np.random.default_rng(n)
        grad = make_cm(n, 1, 0.1).eval_grad_f
        for r in CSR_COLUMNS:
            X = rng.standard_normal((n, r))
            expected = 2.0 * (H @ X)
            assert grad(X).tobytes() == expected.tobytes()
            # exact zeros of both signs; row 1 sums only -0.0 terms, which
            # CSR rounds to +0.0
            X[rng.random((n, r)) < 0.5] = 0.0
            X[rng.random((n, r)) < 0.5] = -0.0
            X[0] = X[2] = 0.0
            X[1] = -0.0
            expected = 2.0 * (H @ X)
            assert grad(X).tobytes() == expected.tobytes()
            assert not np.signbit(expected[1]).any()


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
        assert prob.lipschitz_estimate == pytest.approx(4.0 / dx**2, rel=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 7, 64, 65])
    def test_lipschitz_constant_is_twice_the_largest_eigenvalue(self, n):
        L = 2.0 * np.linalg.eigvalsh(cm_operator(n))[-1]
        assert make_cm(n, 2, 0.1).lipschitz_estimate == pytest.approx(L, rel=1e-12)

    def test_objective_nonnegative_up_to_null_direction(self):
        prob = make_cm(32, 3, 0.0)
        for seed in range(5):
            X = random_point(32, 3, seed).data
            assert prob.eval_f(X) >= -1e-10

    def test_rejects_negative_mu(self):
        with pytest.raises(ValueError):
            make_cm(16, 2, -0.5)

    @pytest.mark.parametrize("n, r", [(8, 9), (8, 0), (8, -1)])
    def test_rejects_column_count_outside_one_to_n(self, n, r):
        with pytest.raises(ValueError, match="1 <= r <= n"):
            make_cm(n, r, 0.1)

    def test_shape(self):
        prob = make_cm(16, 2, 0.3)
        assert prob.shape == (16, 2) and prob.mu == 0.3


class TestSparsePca:
    def test_zero_data_flattens_objective(self):
        prob = make_spca(12, 2, 1.0, data=np.zeros((50, 12)))
        X = random_point(12, 2, 0).data
        assert prob.eval_f(X) == 0.0
        np.testing.assert_array_equal(prob.eval_grad_f(X), 0.0)
        assert prob.lipschitz_estimate == 0.0

    def test_data_without_rows_gives_zero_lipschitz_constant(self):
        # the Gram matrix is 0 x 0 and has no eigenvalue to take
        prob = make_spca(12, 2, 1.0, data=np.zeros((0, 12)))
        assert prob.lipschitz_estimate == 0.0
        assert prob.eval_f(random_point(12, 2, 0).data) == 0.0

    def test_lipschitz_constant_of_generated_data(self):
        # the documented recipe: 50 x n seeded Gaussian, centered, unit columns
        n = 40
        A = np.random.default_rng(7).standard_normal((50, n))
        A -= A.mean(axis=0)
        A /= np.linalg.norm(A, axis=0)
        prob = make_spca(n, 3, 1.0, seed=7)
        X = random_point(n, 3, 0).data
        assert prob.eval_f(X) == pytest.approx(-np.sum((A @ X) ** 2), rel=1e-12)
        L = 2.0 * np.linalg.svd(A, compute_uv=False)[0] ** 2
        assert prob.lipschitz_estimate == pytest.approx(L, rel=1e-12)

    def test_lipschitz_constant_of_tall_data(self):
        # more samples than variables
        A = np.random.default_rng(3).standard_normal((80, 12))
        prob = make_spca(12, 2, 1.0, data=A)
        L = 2.0 * np.linalg.svd(A, compute_uv=False)[0] ** 2
        assert prob.lipschitz_estimate == pytest.approx(L, rel=1e-12)

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

    @pytest.mark.parametrize("shape", [(50, 11), (50, 13), (12,), (2, 50, 12)])
    def test_rejects_data_of_wrong_shape(self, shape):
        # a wrong width used to fail only at the first evaluation
        with pytest.raises(ValueError, match="n=12 columns"):
            make_spca(12, 2, 1.0, data=np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_data(self, bad):
        # NaN data used to give lipschitz_estimate = nan and a NONFINITE run
        data = np.ones((50, 12))
        data[3, 4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            make_spca(12, 2, 1.0, data=data)

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
    @pytest.mark.parametrize("make", [make_cm, make_spca])
    @pytest.mark.parametrize("n, r", [(64.5, 4), (64, 4.0), (64.0, 4), (True, 1), (64, True), ("64", 4)])
    def test_rejects_sizes_that_are_not_integers(self, make, n, r):
        # a fractional n used to fail only in random_point or at solve's shape check
        with pytest.raises(ValueError, match="must be an integer"):
            make(n, r, 0.1)

    @pytest.mark.parametrize("make", [make_cm, make_spca])
    @pytest.mark.parametrize(
        "mu", [np.inf, -np.inf, np.nan, "0.1", None, True, pytest.param(10**400, id="int-above-float-max")]
    )
    def test_rejects_mu_that_is_not_a_finite_number(self, make, mu):
        # mu = inf used to end solve with NONFINITE, and an int above the
        # largest float raised OverflowError
        with pytest.raises(ValueError, match="mu must be a finite number"):
            make(16, 2, mu)

    @pytest.mark.parametrize("seed", [1.5, -1, True, None, "x"])
    def test_rejects_seed_that_is_not_a_nonnegative_integer(self, seed):
        # 1.5 used to raise NumPy's TypeError, -1 its bare "expected
        # non-negative integer", and None drew unseeded data; make_problem
        # built a "cm" instance whatever the seed and recorded seed None
        for make in (make_spca, lambda *a: make_problem("cm", *a), lambda *a: make_problem("spca", *a)):
            with pytest.raises(ValueError, match=re.escape(f"seed must be an integer >= 0, got {seed!r}")):
                make(16, 2, 0.1, seed)

    @pytest.mark.parametrize("make", [make_cm, make_spca])
    def test_accepts_numpy_integers_and_floats(self, make):
        prob = make(np.int64(16), np.int32(2), np.float64(0.1))
        X = random_point(16, 2, 0).data
        assert prob.objective(X) == make(16, 2, 0.1).objective(X)

    def test_dispatch(self):
        X = random_point(16, 2, 0).data
        cm, spca = make_problem("cm", 16, 2, 0.1), make_problem("spca", 16, 2, 0.1, seed=3)
        assert cm.shape == spca.shape == (16, 2)
        assert cm.objective(X) == make_cm(16, 2, 0.1).objective(X)
        assert spca.objective(X) == make_spca(16, 2, 0.1, 3).objective(X) != make_spca(16, 2, 0.1, 0).objective(X)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_problem("lasso", 16, 2, 0.1)


class TestCompositeProblem:
    @staticmethod
    def build(**changes):
        fields = dict(eval_f=lambda X: 0.0, eval_grad_f=np.zeros_like, mu=0.1, lipschitz_estimate=1.0, shape=(16, 2))
        return CompositeProblem(**{**fields, **changes})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lipschitz_estimate", math.nan),
            ("lipschitz_estimate", math.inf),
            ("lipschitz_estimate", -5.0),
            ("lipschitz_estimate", True),
            ("mu", math.nan),
            ("mu", -0.1),
            ("mu", True),
        ],
    )
    def test_rejects_constants_that_are_not_finite_nonnegative(self, field, value):
        # built directly; tests/test_solver.py builds the same cases through
        # dataclasses.replace, which runs the same check
        with pytest.raises(ValueError, match=f"^{field} must be a finite number >= 0"):
            self.build(**{field: value})

    def test_stores_mu_and_lipschitz_estimate_as_floats(self):
        # a float32 mu used to be stored as given, and F was then evaluated in
        # float32: np.float32(0.8195966) for CM(16,2,0.1) at seed 0
        cm = make_cm(16, 2, 0.1)
        mu, L = np.float32(0.1), np.float32(cm.lipschitz_estimate)
        direct = CompositeProblem(cm.eval_f, cm.eval_grad_f, mu, L, cm.shape)
        replaced = dataclasses.replace(cm, mu=mu, lipschitz_estimate=L)
        reference = make_cm(16, 2, float(mu))
        X = random_point(16, 2, 0).data
        for prob in (direct, replaced):
            assert type(prob.mu) is float and type(prob.lipschitz_estimate) is float
            assert prob.mu == float(mu) and prob.lipschitz_estimate == float(L)
            assert type(prob.objective(X)) is float and prob.objective(X) == reference.objective(X)

    @pytest.mark.parametrize(
        "shape", [[16, 2], (16,), (16, 2, 1), 16, None], ids=["list", "one-size", "three-sizes", "int", "None"]
    )
    def test_rejects_shape_that_is_not_a_pair(self, shape):
        # without the tuple test a list passes the size rule and then fails
        # every solve's shape comparison, and the others raise TypeError from
        # check_sizes(*shape)
        with pytest.raises(ValueError, match=re.escape(f"shape must be a tuple (n, r), got {shape!r}")):
            self.build(shape=shape)


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
        assert sparsity(X) == 1.0


def test_objective_invariant_under_zero_retraction():
    for kind, prob in [
        (RetractionKind.SVD, make_cm(16, 2, 0.2)),
        (RetractionKind.QR, make_spca(16, 2, 0.7, seed=1)),
    ]:
        X = random_point(16, 2, 2)
        Z = retract(TangentVector(np.zeros((16, 2)), X), kind)
        assert prob.eval_f(Z.data) == prob.eval_f(X.data)

