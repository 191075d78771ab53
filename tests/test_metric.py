import numpy as np
import pytest

from stiefelprox import (
    CurvaturePair,
    DiagonalMetric,
    LbfgsMemory,
    build_diag,
    damp_pair,
    metric_norm_sq,
    theta_init,
)
from oracles import dense_lbfgs_diag


def rand_pair(n, r, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, r)), scale * rng.standard_normal((n, r))


class TestDampPair:
    def test_inactive_branch_keeps_y(self):
        s = np.eye(3)[:, :2]
        y = 2.0 * s  # tr(s^T y) = 4 >= 0.25 * theta * tr(s^T s) = 0.5
        pair = damp_pair(s, y, theta=1.0)
        np.testing.assert_array_equal(pair.y_damped, y)
        assert pair.s_dot_y == pytest.approx(4.0)

    def test_active_branch_hits_quarter_curvature_exactly(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((6, 2))
        y = -s  # strongly negative curvature forces damping
        theta = 0.7
        pair = damp_pair(s, y, theta)
        target = 0.25 * theta * float(np.sum(s * s))
        assert pair.s_dot_y == pytest.approx(target, rel=1e-12)

    def test_orthogonal_hand_case(self):
        # theta=1, tr(s^T s)=4, y perpendicular to s: beta = 0.75, tr(s^T ybar) = 1
        s = np.array([[2.0], [0.0]])
        y = np.array([[0.0], [3.0]])
        pair = damp_pair(s, y, theta=1.0)
        assert pair.s_dot_y == pytest.approx(1.0)
        np.testing.assert_allclose(pair.y_damped, 0.75 * y + 0.25 * s)

    def test_zero_displacement_rejected(self):
        with pytest.raises(ValueError):
            damp_pair(np.zeros((4, 2)), np.ones((4, 2)), 1.0)

    def test_nonpositive_theta_rejected(self):
        with pytest.raises(ValueError):
            damp_pair(np.ones((4, 2)), np.ones((4, 2)), 0.0)


class TestThetaInit:
    def test_identical_inputs(self):
        s = np.random.default_rng(1).standard_normal((5, 2))
        assert theta_init(s, s, 1e-3) == pytest.approx(1.0)
        assert theta_init(s, s, 2.0) == 2.0

    def test_scaled_inputs(self):
        s = np.random.default_rng(2).standard_normal((5, 2))
        assert theta_init(s, 2.0 * s, 1e-3) == pytest.approx(2.0)

    def test_nonpositive_curvature_floors(self):
        s = np.array([[1.0], [0.0]])
        y = np.array([[0.0], [1.0]])  # tr(s^T y) = 0
        assert theta_init(s, y, 1e-3) == 1e-3
        assert theta_init(s, -s, 1e-3) == 1e-3

    def test_roundoff_level_curvature_floors(self):
        # s and y orthogonal up to roundoff: tr(s^T y) / (||s|| ||y||) = 1e-20
        # would give theta = 1e20 * ||y|| / ||s||
        s = np.array([[1.0], [1e-20]])
        y = np.array([[0.0], [1.0]])
        assert theta_init(s, y, 1e-3) == 1e-3
        assert theta_init(1e-18 * s, y, 1e-3) == 1e-3


class TestBuildDiag:
    def test_empty_memory_gives_theta(self):
        mem = LbfgsMemory(capacity=5, theta=0.37)
        np.testing.assert_array_equal(build_diag(mem, 6), np.full(6, 0.37))

    def test_single_pair_matches_dense(self):
        mem = LbfgsMemory(capacity=5)
        s, y = rand_pair(5, 2, 3)
        mem.push(s, y)
        d = build_diag(mem, 5)
        expected = dense_lbfgs_diag(mem.pairs, mem.theta, 5)
        np.testing.assert_allclose(d, expected, atol=1e-12)

    def test_three_pairs_match_dense(self):
        mem = LbfgsMemory(capacity=5)
        for seed in range(3):
            s, y = rand_pair(8, 2, 10 + seed)
            mem.push(s, y)
        d = build_diag(mem, 8)
        expected = dense_lbfgs_diag(mem.pairs, mem.theta, 8)
        np.testing.assert_allclose(d, expected, atol=1e-10)

    def test_random_sweep_matches_dense_and_positive(self):
        rng = np.random.default_rng(4)
        for trial in range(25):
            n = int(rng.integers(3, 17))
            r = int(rng.integers(1, min(n, 4) + 1))
            p = int(rng.integers(1, 6))
            mem = LbfgsMemory(capacity=p)
            for seed in range(int(rng.integers(1, p + 2))):
                s = rng.standard_normal((n, r))
                y = rng.standard_normal((n, r))
                mem.push(s, y)
            d = build_diag(mem, n)
            np.testing.assert_allclose(
                d, dense_lbfgs_diag(mem.pairs, mem.theta, n), atol=1e-10
            )
            assert np.all(d > 0)

    def test_degenerate_pair_skipped(self):
        # a zero displacement crafted directly into the memory is ignored
        mem = LbfgsMemory(capacity=3, theta=0.5)
        mem.pairs.append(CurvaturePair(np.zeros((4, 1)), np.ones((4, 1)), 1.0))
        np.testing.assert_array_equal(build_diag(mem, 4), np.full(4, 0.5))


class TestMemory:
    def test_capacity_trimmed(self):
        mem = LbfgsMemory(capacity=2)
        for seed in range(5):
            s, y = rand_pair(6, 2, 20 + seed)
            mem.push(s, y)
        assert len(mem.pairs) == 2

    def test_zero_displacement_skipped(self):
        mem = LbfgsMemory(capacity=3)
        mem.push(np.zeros((4, 2)), np.ones((4, 2)))
        assert not mem.pairs

    def test_damped_curvature_condition_per_pair(self):
        mem = LbfgsMemory(capacity=4)
        rng = np.random.default_rng(6)
        for _ in range(6):
            s = rng.standard_normal((7, 2))
            y = rng.standard_normal((7, 2))
            mem.push(s, y)
            pair = mem.pairs[-1]
            floor = 0.25 * mem.theta * float(np.sum(pair.s * pair.s))
            assert pair.s_dot_y >= floor * (1.0 - 1e-12)
            assert pair.s_dot_y > 0


class TestMetricNorm:
    def test_zero_vector(self):
        m = DiagonalMetric(np.ones(4), 0.5)
        assert metric_norm_sq(m, np.zeros((4, 2))) == 0.0

    def test_identity_metric_is_frobenius(self):
        V = np.random.default_rng(7).standard_normal((5, 3))
        m = DiagonalMetric(np.ones(5), 0.0)
        assert metric_norm_sq(m, V) == pytest.approx(np.linalg.norm(V) ** 2)

    def test_matches_trace_oracle(self):
        rng = np.random.default_rng(8)
        d = np.abs(rng.standard_normal(4)) + 0.1
        sigma = 0.3
        V = rng.standard_normal((4, 2))
        expected = np.trace(V.T @ (np.diag(d) + sigma * np.eye(4)) @ V)
        assert metric_norm_sq(DiagonalMetric(d, sigma), V) == pytest.approx(expected)

    def test_lower_bound(self):
        rng = np.random.default_rng(9)
        d = np.abs(rng.standard_normal(6)) + 0.05
        V = rng.standard_normal((6, 2))
        m = DiagonalMetric(d, 0.2)
        assert metric_norm_sq(m, V) >= (d.min() + 0.2) * np.linalg.norm(V) ** 2 - 1e-12
