import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelprox import LbfgsMemory, build_diag, metric_norm_sq
from stiefelprox.metric import CurvaturePair
from oracles import dense_lbfgs_diag, dense_lbfgs_matrix

# fixed examples, so the suite draws the same instances on every run
PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)


def rand_pair(n, r, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, r)), scale * rng.standard_normal((n, r))


def hand_pair(s, y, s_dot_y):
    """A CurvaturePair built by hand, with its tr(s^T s) as push fills it."""
    return CurvaturePair(s, y, s_dot_y, float(np.vdot(s, s)))


def insert_degenerate(mem, kind, at, rng):
    """Put a pair that the recursion must skip into mem.pairs at index `at`.

    "zero": a zero displacement, so tr(s^T B s) = 0 exactly. "annihilated":
    a valid pair (v w^T, 0) that removes direction v from B, followed by a
    pair (v w'^T, y) whose curvature tr(s^T B s) is zero up to roundoff.
    """
    n, r = mem.pairs[0].s.shape
    y = rng.standard_normal((n, r))
    if kind == "zero":
        new = [hand_pair(np.zeros((n, r)), y, 1.0)]
    else:
        v = rng.standard_normal((n, 1))
        new = [
            hand_pair(v @ rng.standard_normal((1, r)), np.zeros((n, r)), 1.0),
            hand_pair(v @ rng.standard_normal((1, r)), y, float(np.sum(y * y))),
        ]
    mem.pairs[at:at] = new


FLOOR = LbfgsMemory.theta_floor


def pushed(s, y):
    """A fresh memory after one push of the raw pair (s, y)."""
    mem = LbfgsMemory(capacity=5)
    mem.push(s, y)
    return mem


class TestDampPair:
    # damping as LbfgsMemory.push applies it, with theta refreshed from the pair

    def test_inactive_branch_keeps_y(self):
        s = np.eye(3)[:, :2]
        y = 2.0 * s  # theta = 2, tr(s^T y) = 4 >= 0.25 * theta * tr(s^T s) = 1
        mem = pushed(s, y)
        assert mem.theta == pytest.approx(2.0)
        np.testing.assert_array_equal(mem.pairs[-1].y_damped, y)
        assert mem.pairs[-1].s_dot_y == pytest.approx(4.0)

    def test_active_branch_hits_quarter_curvature_exactly(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((6, 2))
        y = -s  # negative curvature: theta falls to the floor and damping is forced
        mem = pushed(s, y)
        assert mem.theta == FLOOR
        target = 0.25 * FLOOR * float(np.sum(s * s))
        assert mem.pairs[-1].s_dot_y == pytest.approx(target, rel=1e-12)

    def test_orthogonal_hand_case(self):
        # y perpendicular to s, so theta = floor and tr(s^T s) = 4:
        # beta = 0.75, tr(s^T ybar) = floor
        s = np.array([[2.0], [0.0]])
        y = np.array([[0.0], [3.0]])
        pair = pushed(s, y).pairs[-1]
        assert pair.s_dot_y == pytest.approx(FLOOR)
        np.testing.assert_allclose(pair.y_damped, 0.75 * y + 0.25 * FLOOR * s)

    def test_zero_displacement_rejected(self):
        # the pair is not stored and theta keeps its previous value
        mem = pushed(np.ones((4, 2)), 3.0 * np.ones((4, 2)))
        pair, theta = mem.pairs[0], mem.theta
        mem.push(np.zeros((4, 2)), np.ones((4, 2)))
        assert len(mem.pairs) == 1 and mem.pairs[0] is pair
        assert mem.theta == theta


class TestThetaInit:
    # theta as LbfgsMemory.push refreshes it from the latest raw pair

    def test_floor_is_a_class_constant(self):
        assert FLOOR == 1e-3
        with pytest.raises(TypeError):
            LbfgsMemory(theta_floor=1.0)

    def test_identical_inputs(self):
        s = np.random.default_rng(1).standard_normal((5, 2))
        assert pushed(s, s).theta == pytest.approx(1.0)
        # a quotient below the floor is raised to it
        assert pushed(s, 0.5 * FLOOR * s).theta == FLOOR

    def test_scaled_inputs(self):
        s = np.random.default_rng(2).standard_normal((5, 2))
        assert pushed(s, 2.0 * s).theta == pytest.approx(2.0)

    def test_nonpositive_curvature_floors(self):
        s = np.array([[1.0], [0.0]])
        y = np.array([[0.0], [1.0]])  # tr(s^T y) = 0
        assert pushed(s, y).theta == FLOOR
        assert pushed(s, -s).theta == FLOOR

    def test_roundoff_level_curvature_floors(self):
        # s and y orthogonal up to roundoff: tr(s^T y) / (||s|| ||y||) = 1e-20
        # would give theta = 1e20 * ||y|| / ||s||
        s = np.array([[1.0], [1e-20]])
        y = np.array([[0.0], [1.0]])
        assert pushed(s, y).theta == FLOOR
        assert pushed(1e-18 * s, y).theta == FLOOR


class TestBuildDiag:
    def test_empty_memory_gives_theta(self):
        mem = LbfgsMemory(capacity=5)
        mem.theta = 0.37
        np.testing.assert_array_equal(build_diag(mem, 6), np.full(6, 0.37))

    def test_rejects_n_unlike_the_pairs_rows(self):
        # it used to fail on a broadcast of (8, 2) into (5, 2)
        with pytest.raises(ValueError, match="n = 5 does not match the stored pairs' 8 rows"):
            build_diag(pushed(*rand_pair(8, 2, 4)), 5)

    @pytest.mark.parametrize("n", [2.5, True, 0])
    def test_rejects_n_that_is_not_a_positive_integer(self, n):
        # 2.5 used to raise NumPy's TypeError from np.full
        with pytest.raises(ValueError, match=f"n must be an integer >= 1, got {n!r}"):
            build_diag(LbfgsMemory(), n)

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
        mem = LbfgsMemory(capacity=3)
        mem.theta = 0.5
        mem.pairs.append(hand_pair(np.zeros((4, 1)), np.ones((4, 1)), 1.0))
        np.testing.assert_array_equal(build_diag(mem, 4), np.full(4, 0.5))

    def test_keeps_a_pair_of_small_but_real_curvature(self):
        # seed 198235's third pair has tr(s^T B s) / tr(s^T s) = 6.1e-8 under
        # the first two pairs, far above the 1e-12 skip threshold: the pair
        # counts, so a threshold moved to 1e-6 or 1e-7 shows here as a
        # diagonal equal to the memory's without that pair
        rng = np.random.default_rng(198235)
        mem = LbfgsMemory()
        for _ in range(3):
            mem.push(rng.standard_normal((2, 1)), rng.standard_normal((2, 1)))
        s = mem.pairs[2].s
        B = dense_lbfgs_matrix(mem.pairs[:2], mem.theta, 2)
        assert 1e-12 < float(np.vdot(s, B @ s)) / mem.pairs[2].s_dot_s < 1e-7
        without = LbfgsMemory()
        without.theta, without.pairs = mem.theta, mem.pairs[:2]
        d = build_diag(mem, 2)
        np.testing.assert_allclose(d, dense_lbfgs_diag(mem.pairs, mem.theta, 2), rtol=1e-9)
        assert not np.allclose(d, build_diag(without, 2), rtol=0.5)

    @PROPERTY_SETTINGS
    @given(
        r=st.integers(1, 6),
        n_extra=st.integers(0, 10),
        capacity=st.integers(1, 6),
        pushes=st.integers(1, 8),
        theta=st.floats(1e-3, 1e2),
        degenerate=st.lists(st.sampled_from(["zero", "annihilated"]), max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_recursion(self, r, n_extra, capacity, pushes, theta, degenerate, seed):
        # any shape, memory length, theta and skipped pairs: the left-looking
        # diagonal equals the dense n x n recursion's and stays positive
        n = r + n_extra
        rng = np.random.default_rng(seed)
        mem = LbfgsMemory(capacity=capacity)
        for _ in range(pushes):
            mem.push(rng.standard_normal((n, r)), rng.standard_normal((n, r)))
        for kind in degenerate:
            insert_degenerate(mem, kind, int(rng.integers(0, len(mem.pairs) + 1)), rng)
        mem.theta = theta
        d = build_diag(mem, n)
        expected = dense_lbfgs_diag(mem.pairs, theta, n)
        # the atol covers the positivity floor 1e-12 * max(theta, max d)
        scale = max(theta, float(np.abs(expected).max()))
        np.testing.assert_allclose(d, expected, rtol=1e-9, atol=1e-11 * scale)
        assert np.all(d > 0)

    def test_reused_memory_matches_dense_and_returns_fresh_arrays(self):
        # one memory through warm-up, steady state and a change of n: every
        # diagonal equals the oracle, and no returned diagonal moves afterwards
        rng = np.random.default_rng(13)
        mem = LbfgsMemory(capacity=3)
        returned = []
        for n, r in [(9, 2), (9, 2), (14, 2), (6, 3)]:
            mem.pairs.clear()
            for _ in range(5):
                mem.push(rng.standard_normal((n, r)), rng.standard_normal((n, r)))
                d = build_diag(mem, n)
                np.testing.assert_allclose(
                    d, dense_lbfgs_diag(mem.pairs, mem.theta, n), atol=1e-10
                )
                returned.append((d, d.copy()))
        build_diag(mem, 6)
        for d, snapshot in returned:
            np.testing.assert_array_equal(d, snapshot)


class TestMemory:
    @pytest.mark.parametrize("capacity", [0, -1, 2.0, 2.5, True])
    def test_rejects_bad_capacity(self, capacity):
        with pytest.raises(ValueError, match="capacity"):
            LbfgsMemory(capacity=capacity)

    @pytest.mark.parametrize("state", [dict(theta=0.5), dict(theta=-1.0), dict(pairs=[])])
    def test_theta_and_pairs_are_not_keywords(self, state):
        # a keyword theta of -1 or nan would reach build_diag unchecked as a
        # negative or nan diagonal; push alone sets theta and the pairs
        with pytest.raises(TypeError):
            LbfgsMemory(**state)

    def test_default_keeps_the_three_newest_pairs(self, monkeypatch):
        # 3 pairs reach every continued-run gap in no more iterations than 5,
        # at a third of build_diag's older-pair work; 2 pairs move SPCA's F
        # by more than 1%
        import stiefelprox.solver as solver_mod
        from stiefelprox import make_cm, random_point, solve

        assert LbfgsMemory().capacity == 3
        sizes = []

        def spy(memory, n):
            sizes.append(len(memory.pairs))
            return build_diag(memory, n)

        monkeypatch.setattr(solver_mod, "build_diag", spy)
        solve(make_cm(16, 2, 0.1), random_point(16, 2, 0))
        assert len(sizes) > 3 and max(sizes) == 3

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

    def test_rejects_a_pair_of_different_shapes(self):
        # vdot flattens both, so the traces exist; build_diag would then fail
        # on a broadcast far from the push
        mem = LbfgsMemory()
        with pytest.raises(ValueError, match=r"\(5, 2\) and \(2, 5\)"):
            mem.push(np.ones((5, 2)), 2.0 * np.ones((2, 5)))
        assert not mem.pairs and mem.theta == 1.0

    def test_rejects_a_pair_that_is_not_2d(self):
        # a (4,) pair used to be stored, and build_diag then raised an IndexError
        mem = LbfgsMemory()
        with pytest.raises(ValueError, match=r"2-d, got shape \(4,\)"):
            mem.push(np.ones(4), 2.0 * np.ones(4))
        assert not mem.pairs and mem.theta == 1.0

    def test_rejects_a_pair_unlike_the_stored_ones(self):
        # an (8, 3) pair after an (8, 2) one used to be stored, and build_diag
        # then failed on a NumPy broadcast
        mem = pushed(*rand_pair(8, 2, 4))
        theta = mem.theta
        with pytest.raises(ValueError, match=r"\(8, 3\) differs from the stored pairs' \(8, 2\)"):
            mem.push(*rand_pair(8, 3, 5))
        assert len(mem.pairs) == 1 and mem.theta == theta

    @pytest.mark.parametrize("which, value", [("s", np.nan), ("y", np.nan), ("y", np.inf)])
    def test_rejects_a_nonfinite_pair(self, which, value):
        # a nan in s or y would set theta to nan, an inf in y store a pair
        # whose build_diag row is nan; either reached ssn_solve as weights
        # that are not positive
        pair = dict(zip("sy", rand_pair(6, 2, 3)))
        pair[which][2, 1] = value
        mem = LbfgsMemory()
        with pytest.raises(ValueError, match="finite"):
            mem.push(pair["s"], pair["y"])
        assert not mem.pairs and mem.theta == 1.0

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

    def test_pair_caches_its_displacement_norm(self):
        # build_diag reads tr(s^T s) from the pair, which push fills in both
        # damping branches
        s, y = rand_pair(7, 3, 8)
        for y_raw in (2.0 * s, y):
            stored = pushed(s, y_raw).pairs[-1]
            assert stored.s_dot_s == float(np.vdot(stored.s, stored.s))


class TestMetricNorm:
    def test_zero_vector(self):
        w = np.ones(4) + 0.5
        assert metric_norm_sq(w, np.zeros((4, 2))) == 0.0

    def test_identity_metric_is_frobenius(self):
        V = np.random.default_rng(7).standard_normal((5, 3))
        w = np.ones(5)
        assert metric_norm_sq(w, V) == pytest.approx(np.linalg.norm(V) ** 2)

    def test_matches_trace_oracle(self):
        rng = np.random.default_rng(8)
        d = np.abs(rng.standard_normal(4)) + 0.1
        sigma = 0.3
        V = rng.standard_normal((4, 2))
        expected = np.trace(V.T @ (np.diag(d) + sigma * np.eye(4)) @ V)
        assert metric_norm_sq(d + sigma, V) == pytest.approx(expected)

    def test_lower_bound(self):
        rng = np.random.default_rng(9)
        d = np.abs(rng.standard_normal(6)) + 0.05
        V = rng.standard_normal((6, 2))
        w = d + 0.2
        assert metric_norm_sq(w, V) >= (d.min() + 0.2) * np.linalg.norm(V) ** 2 - 1e-12
