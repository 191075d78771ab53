import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelprox import (
    CompositeProblem,
    Mode,
    RetractionKind,
    SolverConfig,
    Status,
    StiefelPoint,
    TangentVector,
    feasibility_residual,
    line_search,
    make_cm,
    make_spca,
    metric_norm_sq,
    nonmonotone_reference,
    project_tangent,
    random_point,
    solve,
    sparsity,
    ssn_solve,
    write_trace_csv,
)
from stiefelprox.problems import make_problem
from stiefelprox.solver import (
    FLATNESS_WINDOW,
    FORCING,
    LS_TRIALS,
    SIGMA_MIN,
    TRACE_CSV_HEADER,
    compute_rho,
    update_sigma,
)
from oracles import cm_operator

# fixed examples, so the suite draws the same instances on every run
PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)


def _rejection(kwargs):
    """The error SolverConfig(**kwargs) raises: ValueError for a bad setting,
    TypeError for a name that is a class-level constant, not a field."""
    settable = {f.name for f in dataclasses.fields(SolverConfig)}
    return ValueError if set(kwargs) <= settable else TypeError


class TestConfig:
    def test_defaults_valid(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "sigma0", "max_outer", "retraction", "mode",
        ]
        cfg = SolverConfig()
        assert cfg.sigma0 == 1.0 and cfg.eta1 == 0.2 and cfg.eta2 == 0.9
        assert cfg.gamma1 == 0.3 and cfg.gamma2 == 3.0
        assert cfg.window_m == 5

    @pytest.mark.parametrize(
        "bad",
        [
            dict(eta1=0.9, eta2=0.2),
            dict(eta1=0.0),
            dict(eta2=1.0),
            dict(gamma1=1.5),
            dict(gamma2=0.5),
            dict(ls_sigma=0.0),
            dict(ls_gamma=1.0),
            dict(sigma0=0.0),
            dict(window_m=-1),
            dict(memory_p=0),
            dict(max_ssn=0),
            dict(max_outer=-1),
            dict(tol_factor=-1e-8),
            dict(theta_floor=0.0),
            dict(max_inner_sigma=0),
            dict(mode="pg"),
            dict(retraction="svd"),
            dict(sigma0=math.nan),
            dict(sigma0=math.inf),
            dict(theta_floor=math.nan),
            dict(tol_factor=math.nan),
            dict(sigma0=True),
            dict(sigma0=10**400),  # no float holds it; it used to raise OverflowError
        ],
    )
    def test_rejects_bad_values(self, bad):
        # the cases cover all ten class-level constants and memory_p/theta_floor,
        # which live on LbfgsMemory: none of them is a keyword any more
        with pytest.raises(_rejection(bad)):
            SolverConfig(**bad)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("window_m", 2.5),
            ("memory_p", 2.0),
            ("max_outer", 10.5),
            ("max_ssn", 3.7),
            ("max_inner_sigma", 2.5),
        ],
    )
    def test_rejects_non_integer_counts(self, field, value):
        # max_outer in range but a float would fail mid-run with a TypeError;
        # the other names are class-level constants, not keywords
        with pytest.raises(_rejection({field: value}), match=field):
            SolverConfig(**{field: value})

    def test_accepts_numpy_integers(self):
        assert SolverConfig(max_outer=np.int64(3)).max_outer == 3


class TestNonmonotoneReference:
    def test_window_zero_returns_last(self):
        assert nonmonotone_reference([5.0, 3.0, 4.0], 0) == 4.0

    def test_max_over_window(self):
        assert nonmonotone_reference([3.0, 1.0, 2.0], 2) == 3.0
        assert nonmonotone_reference([3.0, 1.0, 2.0], 1) == 2.0

    def test_short_history_uses_all(self):
        assert nonmonotone_reference([7.0], 5) == 7.0
        assert nonmonotone_reference([2.0, 9.0], 10) == 9.0

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            nonmonotone_reference([], 3)

    @pytest.mark.parametrize("m", [-1, -3, True, 2.5])
    def test_bad_window_rejected(self, m):
        # on [3, 1, 2], -1 returned the whole history's 3.0, -3 returned 2.0,
        # True was read as 1, and 2.5 raised a TypeError from slicing
        with pytest.raises(ValueError, match="m must be an integer >= 0"):
            nonmonotone_reference([3.0, 1.0, 2.0], m)

    def test_numpy_integer_window_accepted(self):
        assert nonmonotone_reference([3.0, 1.0, 2.0], np.int64(2)) == 3.0

    @pytest.mark.parametrize(
        "history",
        [[1.0, math.nan], [math.nan, 1.0], [2.0, math.inf], [-math.inf, 2.0]],
        ids=["nan-last", "nan-first", "inf-last", "minus-inf-first"],
    )
    def test_non_finite_value_in_the_window_rejected(self, history):
        # max() returned 1.0 on [1, nan] but nan on [nan, 1]
        with pytest.raises(ValueError, match="history window must be finite"):
            nonmonotone_reference(history, 1)

    def test_non_finite_value_before_the_window_ignored(self):
        assert nonmonotone_reference([math.nan, 1.0, 2.0], 1) == 2.0

    def test_window_fits_in_the_solvers_objective_history(self):
        # solve keeps FLATNESS_WINDOW + 1 accepted values and feeds the
        # nonmonotone reference from them, so its window must fit
        assert SolverConfig.window_m < FLATNESS_WINDOW


class TestLineSearch:
    def test_unit_step_accepted_on_gentle_instance(self):
        prob = make_cm(16, 2, 0.0)
        X = random_point(16, 2, 0)
        g = project_tangent(X, prob.eval_grad_f(X.data))
        v = TangentVector(-1e-3 * g.data, X)
        w = np.ones(16)
        F_ref = prob.objective(X.data)
        out = line_search(prob, v, w, F_ref, SolverConfig())
        assert out is not None
        assert out.alpha == 1.0 and out.backtracks == 0

    def test_alpha_is_power_of_gamma(self):
        prob = make_cm(16, 2, 0.1)
        X = random_point(16, 2, 1)
        rng = np.random.default_rng(2)
        v = project_tangent(X, 5.0 * rng.standard_normal((16, 2)))
        w = np.ones(16)
        cfg = SolverConfig()
        out = line_search(prob, v, w, prob.objective(X.data), cfg)
        assert out is not None
        assert out.alpha == pytest.approx(cfg.ls_gamma ** out.backtracks)
        assert feasibility_residual(out.point) <= 1e-10
        # the metric norm the caller reuses for its model value
        assert out.quad == metric_norm_sq(w, v.data)

    def test_inflated_reference_never_backtracks_more(self):
        prob = make_cm(16, 2, 0.1)
        cfg = SolverConfig()
        w = np.ones(16)
        for seed in range(5):
            X = random_point(16, 2, seed)
            rng = np.random.default_rng(seed + 10)
            v = project_tangent(X, 3.0 * rng.standard_normal((16, 2)))
            F_mono = prob.objective(X.data)
            lo = line_search(prob, v, w, F_mono, cfg)
            hi = line_search(prob, v, w, F_mono + 0.5, cfg)
            assert hi.backtracks <= lo.backtracks

    @PROPERTY_SETTINGS
    @given(
        n=st.integers(4, 12),
        r=st.integers(1, 4),
        mu=st.floats(0.0, 0.5),
        log_scale=st.floats(-2.0, 1.5),
        slack=st.floats(1e-3, 1.0),
        kind=st.sampled_from(list(RetractionKind)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_f_value_is_objective_at_returned_point(self, n, r, mu, log_scale, slack, kind, seed):
        # any step length and retraction: the accepted point is a StiefelPoint
        # and f_value is F at exactly that point, so the solver's next iterate
        # and its recorded F agree
        prob = make_cm(n, r, mu)
        X = random_point(n, r, seed)
        M = 10.0**log_scale * np.random.default_rng(seed).standard_normal((n, r))
        v = project_tangent(X, M)
        w = np.ones(n)
        # F is continuous along the retraction, so a slack above F(X) is met
        # once alpha is small enough
        F_ref = prob.objective(X.data) + slack
        out = line_search(prob, v, w, F_ref, SolverConfig(retraction=kind))
        assert out is not None
        assert isinstance(out.point, StiefelPoint)
        assert prob.objective(out.point.data) == out.f_value
        assert feasibility_residual(out.point) <= 1e-10

    def test_underflow_signals_failure(self):
        # an objective that jumps up anywhere off the base point can never
        # satisfy the decrease condition at any positive step
        X = random_point(6, 1, 3)
        base = X.data

        def jumpy(A):
            return 0.0 if A is base else 1.0

        prob = CompositeProblem(
            eval_f=jumpy,
            eval_grad_f=lambda A: np.zeros_like(A),
            mu=0.0,
            lipschitz_estimate=1.0,
            shape=(6, 1),
        )
        v = project_tangent(X, np.random.default_rng(4).standard_normal((6, 1)))
        w = np.ones(6)
        out = line_search(prob, v, w, 0.0, SolverConfig())
        assert out is None


class TestRho:
    def test_perfect_model(self):
        assert compute_rho(1.0, 2.0, -1.0, 0.0) == pytest.approx(1.0)

    def test_zero_numerator(self):
        assert compute_rho(2.0, 2.0, -1.0, 0.0) == 0.0

    def test_direct_quotient(self):
        assert compute_rho(1.1, 2.0, -1.0, 0.0) == pytest.approx(0.9)

    def test_degenerate_denominator_is_inf(self):
        assert compute_rho(1.0, 2.0, 0.0, 0.0) == math.inf
        assert compute_rho(1.0, 2.0, 1.0 - 1e-20, 1.0) == math.inf


class TestUpdateSigma:
    def test_very_successful_shrinks(self):
        cfg = SolverConfig()
        assert update_sigma(1.0, 0.95, cfg) == (pytest.approx(0.3), True)

    def test_successful_keeps(self):
        cfg = SolverConfig()
        assert update_sigma(1.0, 0.5, cfg) == (1.0, True)

    def test_unsuccessful_grows_and_rejects(self):
        cfg = SolverConfig()
        assert update_sigma(1.0, 0.1, cfg) == (pytest.approx(3.0), False)

    def test_shrink_floors(self):
        cfg = SolverConfig()
        sigma, ok = update_sigma(1e-12, 0.99, cfg)
        assert ok and sigma == SIGMA_MIN


class TestPgMetric:
    # the proximal-gradient baseline solves every subproblem under the
    # constant metric d = L (floored at 1e-3), sigma = 0
    def test_cm_metric_is_twice_operator_norm(self, monkeypatch):
        calls = _recording_ssn(monkeypatch)
        res = solve(make_cm(32, 2, 0.1), random_point(32, 2, 0), SolverConfig(max_outer=3, mode=Mode.PROX_GRAD))
        assert len(calls) == 3
        dx = 50.0 / 32
        for w in (c[2] for c in calls):
            assert w.shape == (32,)
            np.testing.assert_allclose(w, 4.0 / dx**2, rtol=5e-2)
        assert len(res.trace) == 3 and all(t.sigma == 0.0 for t in res.trace)

    def test_flat_objective_floors(self, monkeypatch):
        calls = _recording_ssn(monkeypatch)
        prob = make_spca(10, 1, 1.0, data=np.zeros((50, 10)))
        res = solve(prob, random_point(10, 1, 0), SolverConfig(max_outer=1, mode=Mode.PROX_GRAD))
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0][2], 1e-3)
        assert res.trace[0].sigma == 0.0


# SHA-256 of the concatenated reprs of every trace record of CM(64,4,0.1)
# seeds 0 and 1 under the default config. A change that alters the arithmetic
# of a trajectory updates these and states its F and iteration deltas; a
# numpy or BLAS build with other floating-point kernels may also move them.
PINNED_CM64_TRACES = {
    0: "0bbda299c7c249cf72270bb7aeaa2d3af128b55bec051a579c801a4316e3a2d8",
    1: "0e8fd7c82ef241d637a2a58bbb42d9981c8e392f3595d222d302cd7f50fc81f5",
}
# The same digest for SPCA(40,12,0.5) seed 0, whose r = 12 Newton steps
# pin the conjugate-gradient arithmetic of the subproblem.
PINNED_SPCA40_TRACE = "7efc479f69be65721d28d8d7318965b9c99f1b0429f08c2d8129aa3564b3cac7"
# The same digest and iteration count for CM(64,4,0.1) seed 0 under the
# other mode and retraction choices, whose loops build the same records.
PINNED_CM64_SEED0_VARIANTS = {
    (Mode.MONOTONE, RetractionKind.SVD): (
        119, "cf2eb3483d83b20d74b4bb68ffd672559864a259788429019aca3dfebd35bc74"
    ),
    (Mode.PROX_GRAD, RetractionKind.SVD): (
        201, "382b95e317f95f13df1ccb378538ad445602f4c43ce68e3ced4dd1ca60521016"
    ),
    (Mode.NONMONOTONE, RetractionKind.QR): (
        120, "39c2bb46d45d9a28fb63bbdc8768e4cfbbd753765b78589ead7b608beedeee94"
    ),
    (Mode.NONMONOTONE, RetractionKind.CAYLEY): (
        120, "29eec635a9489fdd7629d8027175ecfac882cab1763f15280b5ade613aa1757c"
    ),
}
# SHA-256 of the whole write_trace_csv file of CM(16,2,0.1) seed 0, which
# pins the header, the column order and every number's format.
PINNED_CM16_TRACE_CSV = "858ee9a0d754a7e3f63c3f376154cdc38e47504201bc970117c4180e6bd7a3b5"


def trace_digest(trace):
    return hashlib.sha256("".join(map(repr, trace)).encode()).hexdigest()


class TestSolve:
    def test_trajectory_matches_pinned_trace_digest(self):
        prob = make_cm(64, 4, 0.1)
        for seed, digest in PINNED_CM64_TRACES.items():
            assert trace_digest(solve(prob, random_point(64, 4, seed)).trace) == digest
        spca = solve(make_spca(40, 12, 0.5, 0), random_point(40, 12, 0))
        assert trace_digest(spca.trace) == PINNED_SPCA40_TRACE

    @pytest.mark.parametrize("mode, retraction", list(PINNED_CM64_SEED0_VARIANTS))
    def test_every_mode_and_retraction_matches_its_pinned_digest(self, mode, retraction):
        iterations, digest = PINNED_CM64_SEED0_VARIANTS[mode, retraction]
        cfg = SolverConfig(mode=mode, retraction=retraction)
        res = solve(make_cm(64, 4, 0.1), random_point(64, 4, 0), cfg)
        assert res.status is Status.CONVERGED
        assert len(res.trace) == iterations
        assert trace_digest(res.trace) == digest

    def test_stationary_start_terminates_immediately(self):
        # mu = 0 from an exact invariant subspace: gradient projects to zero
        n, r = 24, 3
        prob = make_cm(n, r, 0.0)
        _, vecs = np.linalg.eigh(cm_operator(n))
        res = solve(prob, vecs[:, :r])
        assert res.status is Status.CONVERGED
        assert len(res.trace) == 0
        assert res.final_norm_v_sq <= 1e-6 * 1e-8 * n * r

    def test_flat_objective_with_l1_reaches_axis(self):
        n = 20
        prob = make_spca(n, 1, 1.0, data=np.zeros((50, n)))
        res = solve(prob, random_point(n, 1, 5))
        assert res.status is Status.CONVERGED
        F = prob.objective(res.point.data)
        assert abs(F - 1.0) <= 1e-6
        X = res.point.data
        j = int(np.argmax(np.abs(X)))
        axis = np.zeros((n, 1))
        axis[j, 0] = np.sign(X[j, 0])
        assert np.linalg.norm(X - axis) <= 1e-4

    def test_monotone_mode_strictly_decreases(self):
        prob = make_cm(32, 2, 0.1)
        cfg = SolverConfig(mode=Mode.MONOTONE)
        res = solve(prob, random_point(32, 2, 0), cfg)
        assert res.status is Status.CONVERGED
        F_values = [t.F for t in res.trace]
        assert all(b < a for a, b in zip(F_values, F_values[1:]))

    def test_trace_invariants_on_cm_run(self, monkeypatch):
        prob = make_cm(64, 4, 0.1)
        cfg = SolverConfig()
        searches = _scripted_line_search(monkeypatch, lambda k, j: False)
        res = solve(prob, random_point(64, 4, 0), cfg)
        assert res.status is Status.CONVERGED
        tr = res.trace
        # every point a line search returns; the accepted iterates are among them
        feas = [feasibility_residual(ls.point) for _, _, ls in searches if ls is not None]
        assert len(feas) >= len(tr)
        assert max(feas) <= 1e-10
        # nonmonotone reference sequence is non-increasing
        F_values = [prob.objective(random_point(64, 4, 0).data)] + [t.F for t in tr]
        refs = [
            nonmonotone_reference(F_values[: k + 1], cfg.window_m)
            for k in range(1, len(F_values))
        ]
        assert all(b <= a + 1e-12 for a, b in zip(refs, refs[1:]))
        for t in tr:
            assert t.resolves >= 1
            assert len(t.rejected_rhos) == t.resolves - 1
            assert all(rho < cfg.eta1 for rho in t.rejected_rhos)
            assert t.rho >= cfg.eta1
            assert 0.0 < t.sigma <= 1e8
            assert t.alpha == pytest.approx(cfg.ls_gamma ** round(math.log(t.alpha, cfg.ls_gamma)) if t.alpha < 1 else 1.0)
            assert t.ls_trials >= t.resolves
        assert res.final_norm_v_sq <= cfg.tol_factor * 64 * 4

    def test_iteration_budget_scales_no_worse_than_inverse_square(self):
        n, r = 64, 4
        res = solve(make_cm(n, r, 0.1), random_point(n, r, 1))
        assert res.status is Status.CONVERGED
        # the direction at the returned point closes the sequence; the finest
        # level is the solver's own stop bound on ||V||
        norms = [t.normV for t in res.trace] + [math.sqrt(res.final_norm_v_sq)]
        levels = (1e-1, 1e-2, math.sqrt(SolverConfig.tol_factor * n * r))

        def first_below(eps):
            running = math.inf
            for k, v in enumerate(norms):
                running = min(running, v)
                if running <= eps:
                    return k + 1
            return None

        ks = [first_below(eps) for eps in levels]
        assert all(k is not None for k in ks)
        # O(1/eps^2) iterations: k_{i+1} <= k_i (eps_i / eps_{i+1})^2
        for i in range(len(levels) - 1):
            assert ks[i + 1] <= ks[i] * (levels[i] / levels[i + 1]) ** 2

    def test_pg_baseline_and_nonmonotone_reach_same_objective(self):
        prob = make_cm(32, 2, 0.1)
        X0 = random_point(32, 2, 2)
        res_pg = solve(prob, X0, SolverConfig(mode=Mode.PROX_GRAD))
        res_nls = solve(prob, X0, SolverConfig(mode=Mode.NONMONOTONE))
        assert res_pg.status is Status.CONVERGED
        F_pg = prob.objective(res_pg.point.data)
        F_nls = prob.objective(res_nls.point.data)
        assert abs(F_pg - F_nls) <= 5e-2
        assert all(t.sigma == 0.0 for t in res_pg.trace)

    @pytest.mark.parametrize("sigma0", [1e5, 1e12])
    def test_large_sigma0_still_reaches_the_optimum(self, sigma0):
        # V ~ G/w vanishes under huge weights; with ||V||^2 as the only stop
        # measure these runs returned CONVERGED after 2 iterations at
        # F = 8.7-9.4 (1e5) or at once (1e12), against an optimum near 1.425
        prob = make_cm(64, 4, 0.1)
        for seed in range(5):
            res = solve(prob, random_point(64, 4, seed), SolverConfig(sigma0=sigma0))
            assert res.status is Status.CONVERGED
            assert abs(prob.objective(res.point.data) - 1.425) <= 0.02

    @pytest.mark.parametrize("mode", [Mode.NONMONOTONE, Mode.MONOTONE])
    @pytest.mark.parametrize(
        "kind, n, r, mu, sigma0, bound",
        [
            ("cm", 64, 4, 0.1, 1e20, "2.95e+16"),
            ("cm", 64, 4, 0.1, 1e17, "2.95e+16"),
            ("spca", 40, 4, 0.5, 1e20, "3.19e+16"),
        ],
    )
    def test_sigma0_above_l_over_eps_rejected(self, mode, kind, n, r, mu, sigma0, bound):
        # above L/eps, G/w falls below the rounding of X and V rounds to zero:
        # 1e20 returned CONVERGED at F(X0) after 0 iterations, and 1e17 ran
        # all 2000 iterations without moving
        prob = make_problem(kind, n, r, mu, 0)
        message = rf"sigma0 must be at most L/eps = {re.escape(bound)} .*got {re.escape(repr(sigma0))}"
        with pytest.raises(ValueError, match=message):
            solve(prob, random_point(n, r, 0), SolverConfig(sigma0=sigma0, mode=mode, max_outer=2000))

    @pytest.mark.parametrize("mode, sigma0", [(Mode.NONMONOTONE, 1e16), (Mode.PROX_GRAD, 1e20)])
    def test_sigma0_below_the_bound_or_unused_still_converges(self, mode, sigma0):
        # 1e16 is below L/eps = 2.95e16 on CM(64,4,0.1); pg never reads sigma0
        prob = make_cm(64, 4, 0.1)
        res = solve(prob, random_point(64, 4, 0), SolverConfig(sigma0=sigma0, mode=mode))
        assert res.status is Status.CONVERGED
        assert abs(prob.objective(res.point.data) - 1.425) <= 0.02

    def test_lipschitz_estimate_whose_square_overflows_rejected(self):
        # f, grad f and the estimate scaled by 1e200 pass the finiteness check;
        # L ** 2 used to raise a bare OverflowError
        base = make_cm(16, 2, 0.1)
        scaled = dataclasses.replace(
            base,
            eval_f=lambda X: 1e200 * base.eval_f(X),
            eval_grad_f=lambda X: 1e200 * np.asarray(base.eval_grad_f(X)),
            lipschitz_estimate=1e200 * base.lipschitz_estimate,
        )
        with pytest.raises(ValueError, match="problem.lipschitz_estimate .* its square overflows"):
            solve(scaled, random_point(16, 2, 0))

    def test_inconsistent_gradient_stalls(self):
        base = make_cm(16, 2, 0.1)
        broken = CompositeProblem(
            eval_f=base.eval_f,
            eval_grad_f=lambda X: -np.asarray(base.eval_grad_f(X)),
            mu=base.mu,
            lipschitz_estimate=base.lipschitz_estimate,
            shape=base.shape,
        )
        res = solve(broken, random_point(16, 2, 0), SolverConfig(max_outer=50))
        assert res.status in (Status.STALLED, Status.MAX_ITER)

    def test_nan_gradient_at_start_is_nonfinite(self):
        base = make_cm(16, 2, 0.1)
        broken = dataclasses.replace(base, eval_grad_f=lambda X: np.full_like(X, np.nan))
        X0 = random_point(16, 2, 0)
        res = solve(broken, X0)
        assert res.status is Status.NONFINITE
        assert res.trace == []
        np.testing.assert_array_equal(res.point.data, X0.data)

    def test_nan_objective_is_nonfinite(self):
        base = make_cm(16, 2, 0.1)
        broken = dataclasses.replace(base, eval_f=lambda X: math.nan)
        res = solve(broken, random_point(16, 2, 0))
        assert res.status is Status.NONFINITE
        assert res.trace == []

    def test_nan_gradient_mid_run_returns_last_finite_iterate(self, monkeypatch):
        # the gradient turns NaN at the fifth accepted iterate: the run stops
        # there and hands back the fourth, with its trace and the ||V||^2 of
        # the first subproblem pass solved there
        calls = _recording_ssn(monkeypatch)
        base = make_cm(16, 2, 0.1)
        points = []

        def grad(X):
            points.append(X.copy())
            G = np.asarray(base.eval_grad_f(X))
            return G if len(points) <= 5 else np.full_like(G, np.nan)

        res = solve(dataclasses.replace(base, eval_grad_f=grad), random_point(16, 2, 0))
        assert res.status is Status.NONFINITE
        assert len(res.trace) == 4
        np.testing.assert_array_equal(res.point.data, points[4])
        assert res.trace[-1].F == base.objective(res.point.data)
        first = calls[sum(t.resolves for t in res.trace)]
        np.testing.assert_array_equal(first[0].data, res.point.data)
        assert res.final_norm_v_sq == float(np.vdot(first[-1].v.data, first[-1].v.data))

    @pytest.mark.parametrize("n, r", [(12, 2), (16, 3)])
    def test_rejects_start_of_wrong_shape(self, n, r):
        # a short X0 used to fail in a matmul inside eval_grad_f, and a wide
        # one used to run to CONVERGED on the wrong manifold
        with pytest.raises(ValueError, match=r"X0 has shape \(%d, %d\), the problem needs \(16, 2\)" % (n, r)):
            solve(make_cm(16, 2, 0.1), random_point(n, r, 0))

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
    def test_rejects_problem_constants_that_are_not_finite_nonnegative(self, field, value):
        # unchecked, a nan estimate makes nls run out its budget at the optimum
        # and pg fail inside ssn_solve, inf makes pg stall, and -5 is floored
        # to 1e-3 without a word; the problem itself refuses them when built,
        # so no solve can see one (direct builds: tests/test_problems.py)
        with pytest.raises(ValueError, match=f"^{field} must be a finite number >= 0"):
            dataclasses.replace(make_cm(16, 2, 0.1), **{field: value})

    @pytest.mark.parametrize(
        "problem, config, message",
        [
            ("cm", None, "problem must be a CompositeProblem, got str"),
            (None, "nls", "config must be a SolverConfig instance or None, got str"),
            (None, {"sigma0": 2.0}, "config must be a SolverConfig instance or None, got dict"),
            (None, SolverConfig, "config must be a SolverConfig instance or None, got type"),
        ],
        ids=["problem-str", "config-str", "config-dict", "config-class"],
    )
    def test_rejects_arguments_of_the_wrong_type(self, problem, config, message):
        # the strings and the dict failed on a missing attribute, and the
        # class itself ran to CONVERGED on its defaults
        problem = make_cm(16, 2, 0.1) if problem is None else problem
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve(problem, random_point(16, 2, 0), config)

    def test_retraction_choice_is_used(self):
        prob = make_cm(32, 2, 0.1)
        X0 = random_point(32, 2, 3)
        for kind in RetractionKind:
            res = solve(prob, X0, SolverConfig(retraction=kind))
            assert res.status is Status.CONVERGED
            assert feasibility_residual(res.point) <= 1e-10

    def test_sparsifies_cm_solution(self):
        prob = make_cm(64, 4, 0.1)
        res = solve(prob, random_point(64, 4, 4))
        assert sparsity(res.point.data) > 0.5

    def test_metric_diagonal_stays_conditioned_over_run(self, monkeypatch):
        # every quasi-Newton diagonal built along a full run is positive with
        # a finite condition number
        import stiefelprox.solver as solver_mod
        from stiefelprox.metric import build_diag as real_build_diag

        seen = []

        def recording(memory, n):
            d = real_build_diag(memory, n)
            seen.append((float(d.min()), float(d.max())))
            return d

        monkeypatch.setattr(solver_mod, "build_diag", recording)
        prob = make_cm(64, 4, 0.1)
        res = solve(prob, random_point(64, 4, 6))
        assert res.status is Status.CONVERGED
        assert len(seen) > 10
        assert all(lo > 0 for lo, _ in seen)
        assert max(hi / lo for lo, hi in seen) < 1e12


def _recording_ssn(monkeypatch):
    """Route the solver's ssn_solve through a wrapper; returns the log of
    (arguments..., result) tuples."""
    import stiefelprox.solver as solver_mod

    calls = []

    def recording(X, G, w, mu, lam0, tol, max_iter):
        sub = ssn_solve(X, G, w, mu, lam0, tol, max_iter)
        calls.append((X, G, w, mu, lam0, tol, max_iter, sub))
        return sub

    monkeypatch.setattr(solver_mod, "ssn_solve", recording)
    return calls


def _scripted_line_search(monkeypatch, fails):
    """Route the solver's line_search through a script: search j of accepted
    iteration k returns None when fails(k, j) is true and runs the real search
    otherwise. k counts the base points the searches start from, which change
    only when an iteration is accepted. Returns the log of (k, j, result)."""
    import stiefelprox.solver as solver_mod

    searches, bases = [], []

    def scripted(problem, v, w, F_ref, config):
        if not bases or v.base is not bases[-1]:
            bases.append(v.base)
        k = len(bases) - 1
        j = searches[-1][1] + 1 if searches and searches[-1][0] == k else 0
        ls = None if fails(k, j) else line_search(problem, v, w, F_ref, config)
        searches.append((k, j, ls))
        return ls

    monkeypatch.setattr(solver_mod, "line_search", scripted)
    return searches


RECORDED_RUNS = pytest.mark.parametrize(
    "mode, n, r, seed",
    [(Mode.NONMONOTONE, 64, 4, 0), (Mode.MONOTONE, 32, 2, 9), (Mode.PROX_GRAD, 32, 2, 2)],
)
# the iteration of a RECORDED_RUNS solve whose first line search is made to fail
FORCED_RESOLVE = 3


def _recorded_run(monkeypatch, mode, n, r, seed):
    """The recorded subproblem passes and the result of a CONVERGED
    RECORDED_RUNS solve. Outside pg, iteration FORCED_RESOLVE re-solves at a
    larger sigma after its first line search fails; pg, which stalls at a
    failed search, runs unscripted and makes one pass per iteration."""
    if mode is not Mode.PROX_GRAD:
        _scripted_line_search(monkeypatch, lambda k, j: (k, j) == (FORCED_RESOLVE, 0))
    calls = _recording_ssn(monkeypatch)
    res = solve(make_cm(n, r, 0.1), random_point(n, r, seed), SolverConfig(mode=mode))
    assert res.status is Status.CONVERGED
    if mode is Mode.PROX_GRAD:
        assert all(t.resolves == 1 for t in res.trace)
    else:
        assert res.trace[FORCED_RESOLVE].rejected_rhos == (-math.inf,)
    return calls, res


def _passes_by_iteration(calls, trace):
    """The recorded subproblem passes split by outer iteration. It assumes the
    run ended on one unrecorded pass, the pass of the CONVERGED exit, which
    forms the last group."""
    assert len(calls) == sum(t.resolves for t in trace) + 1
    groups, i = [], 0
    for t in trace + [None]:
        m = t.resolves if t is not None else 1
        groups.append(calls[i:i + m])
        i += m
    return groups


class TestInexactSubproblem:
    @RECORDED_RUNS
    def test_tolerance_follows_forcing_rule(self, monkeypatch, mode, n, r, seed):
        calls, res = _recorded_run(monkeypatch, mode, n, r, seed)
        for k, passes in enumerate(_passes_by_iteration(calls, res.trace)):
            G = passes[0][1]
            floor = 1e-8 * max(1.0, float(np.linalg.norm(G)))
            expected = floor if k == 0 else max(floor, FORCING * res.trace[k - 1].normV)
            assert all(c[1] is G and c[5] == expected for c in passes)
            if k < len(res.trace):
                assert res.trace[k].ssn_tol == expected

    @RECORDED_RUNS
    def test_warm_start_extrapolates_the_last_two_multipliers(self, monkeypatch, mode, n, r, seed):
        calls, res = _recorded_run(monkeypatch, mode, n, r, seed)
        groups = _passes_by_iteration(calls, res.trace)
        # the accepted multiplier of each iteration is its last pass's
        accepted = [passes[-1][7].lam for passes in groups[:-1]]
        for k, passes in enumerate(groups):
            first = passes[0][4]
            if k == 0:
                np.testing.assert_array_equal(first, np.zeros((r, r)))
            elif k == 1:
                assert np.array_equal(first, accepted[0])
            else:
                assert np.array_equal(first, accepted[k - 1] + (accepted[k - 1] - accepted[k - 2]))
            # a re-solve after a sigma escalation starts where the last pass ended
            for prev, cur in zip(passes, passes[1:]):
                assert np.array_equal(cur[4], prev[7].lam)

    @pytest.mark.parametrize(
        "kind, n, r, mu, seed",
        [("cm", 64, 4, 0.1, s) for s in range(5)] + [("spca", 60, 12, 0.6, 0)],
    )
    def test_last_subproblem_certifies_the_stop(self, monkeypatch, kind, n, r, mu, seed):
        # re-solving the subproblem of the CONVERGED exit far more tightly
        # gives the same ||V||^2, still inside the stop bound; r = 12 takes
        # the CG Newton path
        calls = _recording_ssn(monkeypatch)
        res = solve(make_problem(kind, n, r, mu, seed), random_point(n, r, seed))
        assert res.status is Status.CONVERGED
        args = calls[-1]
        assert args[5] > 1e-13
        V = ssn_solve(*args[:5], 1e-13, 200).v.data
        norm_v_sq = float(np.vdot(V, V))
        assert norm_v_sq == pytest.approx(res.final_norm_v_sq, rel=1e-3)
        assert norm_v_sq <= 1e-8 * n * r


    @RECORDED_RUNS
    def test_trace_sums_the_subproblem_counters(self, monkeypatch, mode, n, r, seed):
        calls, res = _recorded_run(monkeypatch, mode, n, r, seed)
        for t, passes in zip(res.trace, _passes_by_iteration(calls, res.trace)):
            subs = [c[7] for c in passes]
            assert t.ssn_iters == sum(sub.ssn_iters for sub in subs)
            assert t.cg_iters == sum(sub.cg_iters for sub in subs)
            assert t.halvings == sum(sub.halvings for sub in subs)
            assert t.unconverged == sum(not sub.converged for sub in subs)
        assert sum(t.cg_iters for t in res.trace) >= sum(t.ssn_iters for t in res.trace) > 0

    def test_trace_counts_unconverged_passes(self, monkeypatch):
        # one Newton step per pass leaves most subproblems short of tol
        monkeypatch.setattr(SolverConfig, "max_ssn", 1)
        calls = _recording_ssn(monkeypatch)
        res = solve(make_cm(32, 2, 0.1), random_point(32, 2, 0), SolverConfig(max_outer=20))
        assert res.status is Status.MAX_ITER and len(res.trace) == 20
        counts = [t.unconverged for t in res.trace]
        assert len(calls) == sum(t.resolves for t in res.trace)
        assert sum(counts) == sum(not c[7].converged for c in calls) > 0
        assert all(0 <= u <= t.resolves for u, t in zip(counts, res.trace))

    def test_trace_totals_count_a_failed_line_search(self, monkeypatch):
        # the first line search fails, so iteration 0 re-solves at a larger
        # sigma; its record adds the failed search's LS_TRIALS trials to the
        # accepted search's own
        searches = _scripted_line_search(monkeypatch, lambda k, j: (k, j) == (0, 0))
        res = solve(make_cm(32, 2, 0.1), random_point(32, 2, 0), SolverConfig(max_outer=1))
        assert res.status is Status.MAX_ITER
        (t,) = res.trace
        accepted = searches[-1][2]
        assert [(k, j) for k, j, _ in searches] == [(0, 0), (0, 1)] and accepted is not None
        assert t.resolves == 2 and t.rejected_rhos == (-math.inf,)
        assert t.backtracks == LS_TRIALS + accepted.backtracks
        assert t.ls_trials == LS_TRIALS + accepted.backtracks + 1


class TestStall:
    @pytest.mark.parametrize("mode", [Mode.NONMONOTONE, Mode.MONOTONE])
    def test_regularized_modes_stall_after_max_inner_sigma_passes(self, monkeypatch, mode):
        # nls: no line search finds a step; arpqn: every step it finds has
        # rho below eta1. Either way sigma grows by gamma2 per pass until the
        # budget of passes is spent, and the run ends where it began.
        import stiefelprox.solver as solver_mod

        if mode is Mode.NONMONOTONE:
            _scripted_line_search(monkeypatch, lambda k, j: True)
        else:
            monkeypatch.setattr(solver_mod, "compute_rho", lambda *args: 0.0)
        calls = _recording_ssn(monkeypatch)
        cfg = SolverConfig(sigma0=2.0, mode=mode)
        X0 = random_point(32, 2, 0)
        res = solve(make_cm(32, 2, 0.1), X0, cfg)
        assert res.status is Status.STALLED
        assert res.trace == []
        assert res.point is X0
        assert len(calls) == cfg.max_inner_sigma == 30
        # no pair is stored before the first accepted step, so d is all ones
        assert all(np.array_equal(c[2], np.ones(32) + 2.0 * cfg.gamma2**i) for i, c in enumerate(calls))
        assert all(c[0] is X0 for c in calls)

    def test_reports_the_norm_of_the_first_pass(self, monkeypatch):
        # the last of the 30 passes is solved at sigma0 3^29, where ||V||^2 is
        # about 1.8e-28, under the stop bound: the stalled point must not read
        # as stationary
        _scripted_line_search(monkeypatch, lambda k, j: True)
        calls = _recording_ssn(monkeypatch)
        res = solve(make_cm(32, 2, 0.1), random_point(32, 2, 0))
        assert res.status is Status.STALLED
        V = calls[0][-1].v.data
        assert res.final_norm_v_sq == float(np.vdot(V, V))
        assert res.final_norm_v_sq == pytest.approx(0.173, abs=5e-4)
        assert res.final_norm_v_sq > SolverConfig.tol_factor * 32 * 2

    def test_pg_stalls_at_its_first_failed_line_search(self, monkeypatch):
        _scripted_line_search(monkeypatch, lambda k, j: True)
        calls = _recording_ssn(monkeypatch)
        prob, X0 = make_cm(32, 2, 0.1), random_point(32, 2, 0)
        res = solve(prob, X0, SolverConfig(mode=Mode.PROX_GRAD))
        assert res.status is Status.STALLED
        assert res.trace == [] and res.point is X0
        # sigma = 0 adds nothing to the constant metric d = L
        assert len(calls) == 1 and np.array_equal(calls[0][2], np.full(32, prob.lipschitz_estimate))

    @pytest.mark.parametrize("mode", list(Mode))
    def test_stall_returns_the_last_accepted_iterate(self, monkeypatch, mode):
        # after k accepted iterations the run hands back the k-th iterate and
        # the k records that a run with a budget of k iterations ends with
        k = 6
        prob, X0 = make_cm(32, 2, 0.1), random_point(32, 2, 0)
        ref = solve(prob, X0, SolverConfig(max_outer=k, mode=mode))
        assert ref.status is Status.MAX_ITER
        _scripted_line_search(monkeypatch, lambda i, j: i >= k)
        calls = _recording_ssn(monkeypatch)
        res = solve(prob, X0, SolverConfig(mode=mode))
        assert res.status is Status.STALLED
        assert res.trace == ref.trace
        np.testing.assert_array_equal(res.point.data, ref.point.data)
        stalled = calls[sum(t.resolves for t in res.trace):]
        assert len(stalled) == (1 if mode is Mode.PROX_GRAD else SolverConfig.max_inner_sigma)
        assert all(np.array_equal(c[0].data, ref.point.data) for c in stalled)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        prob = make_cm(16, 2, 0.1)
        res = solve(prob, random_point(16, 2, 0))
        path = tmp_path / "trace.csv"
        write_trace_csv(res.trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == TRACE_CSV_HEADER
        assert len(lines) == len(res.trace) + 1
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == pytest.approx(res.trace[0].F, rel=1e-10)
        assert int(first[8]) == res.trace[0].resolves
        assert int(first[9]) == res.trace[0].ls_trials
        assert float(first[10]) == pytest.approx(res.trace[0].ssn_tol, rel=1e-5)
        assert TRACE_CSV_HEADER.endswith(",ssn_tol,cg_iters,halvings,unconverged")
        for line, t in zip(lines[1:], res.trace):
            assert [int(x) for x in line.split(",")[11:]] == [t.cg_iters, t.halvings, t.unconverged]
        assert sum(t.cg_iters for t in res.trace) > 0

    def test_file_matches_pinned_digest(self, tmp_path):
        res = solve(make_cm(16, 2, 0.1), random_point(16, 2, 0))
        path = tmp_path / "trace.csv"
        write_trace_csv(res.trace, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CM16_TRACE_CSV
