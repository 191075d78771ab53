import math

import numpy as np
import pytest

from stiefelprox import (
    CompositeProblem,
    DiagonalMetric,
    Mode,
    RetractionKind,
    SolverConfig,
    Status,
    TangentVector,
    compute_rho,
    feasibility_residual,
    line_search,
    make_cm,
    make_spca,
    nonmonotone_reference,
    pg_baseline_metric,
    project_tangent,
    random_point,
    solve,
    sparsity,
    update_sigma,
    write_trace_csv,
)
from stiefelprox.problems import schrodinger_operator
from stiefelprox.solver import SIGMA_MIN, TRACE_CSV_HEADER


class TestConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.sigma0 == 1.0 and cfg.eta1 == 0.2 and cfg.eta2 == 0.9
        assert cfg.gamma1 == 0.3 and cfg.gamma2 == 3.0
        assert cfg.window_m == 5 and cfg.memory_p == 5

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
        ],
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


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


def _constant_problem(n, value=1.0):
    return CompositeProblem(
        eval_f=lambda X: value,
        eval_grad_f=lambda X: np.zeros_like(X),
        mu=0.0,
        lipschitz_estimate=1.0,
        descriptor={"kind": "const", "n": n, "r": 1, "mu": 0.0, "seed": None},
    )


class TestLineSearch:
    def test_unit_step_accepted_on_gentle_instance(self):
        prob = make_cm(16, 2, 0.0)
        X = random_point(16, 2, 0)
        g = project_tangent(X, prob.eval_grad_f(X.data))
        v = TangentVector(-1e-3 * g.data, X)
        metric = DiagonalMetric(np.ones(16), 0.0)
        F_ref = prob.objective(X.data)
        out = line_search(prob, X, v, metric, F_ref, SolverConfig())
        assert out is not None
        assert out.alpha == 1.0 and out.backtracks == 0

    def test_alpha_is_power_of_gamma(self):
        prob = make_cm(16, 2, 0.1)
        X = random_point(16, 2, 1)
        rng = np.random.default_rng(2)
        v = project_tangent(X, 5.0 * rng.standard_normal((16, 2)))
        metric = DiagonalMetric(np.ones(16), 0.0)
        cfg = SolverConfig()
        out = line_search(prob, X, v, metric, prob.objective(X.data), cfg)
        assert out is not None
        assert out.alpha == pytest.approx(cfg.ls_gamma ** out.backtracks)
        assert feasibility_residual(out.point) <= 1e-10

    def test_inflated_reference_never_backtracks_more(self):
        prob = make_cm(16, 2, 0.1)
        cfg = SolverConfig()
        metric = DiagonalMetric(np.ones(16), 0.0)
        for seed in range(5):
            X = random_point(16, 2, seed)
            rng = np.random.default_rng(seed + 10)
            v = project_tangent(X, 3.0 * rng.standard_normal((16, 2)))
            F_mono = prob.objective(X.data)
            lo = line_search(prob, X, v, metric, F_mono, cfg)
            hi = line_search(prob, X, v, metric, F_mono + 0.5, cfg)
            assert hi.backtracks <= lo.backtracks

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
            descriptor={"kind": "jump", "n": 6, "r": 1, "mu": 0.0, "seed": None},
        )
        v = project_tangent(X, np.random.default_rng(4).standard_normal((6, 1)))
        metric = DiagonalMetric(np.ones(6), 0.0)
        out = line_search(prob, X, v, metric, 0.0, SolverConfig())
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
    def test_cm_metric_is_twice_operator_norm(self):
        prob = make_cm(32, 2, 0.1)
        metric = pg_baseline_metric(prob)
        dx = 50.0 / 32
        np.testing.assert_allclose(metric.d, 4.0 / dx**2, rtol=5e-2)
        assert metric.sigma == 0.0

    def test_flat_objective_floors(self):
        prob = make_spca(10, 1, 1.0, data=np.zeros((50, 10)))
        metric = pg_baseline_metric(prob)
        np.testing.assert_array_equal(metric.d, 1e-3)

    def test_explicit_n_overrides_descriptor(self):
        prob = make_cm(16, 2, 0.1)
        assert pg_baseline_metric(prob, 7).d.shape == (7,)


class TestSolve:
    def test_stationary_start_terminates_immediately(self):
        # mu = 0 from an exact invariant subspace: gradient projects to zero
        n, r = 24, 3
        prob = make_cm(n, r, 0.0)
        H = schrodinger_operator(n).toarray()
        _, vecs = np.linalg.eigh(H)
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

    def test_trace_invariants_on_cm_run(self):
        prob = make_cm(64, 4, 0.1)
        cfg = SolverConfig()
        feas = []
        res = solve(
            prob,
            random_point(64, 4, 0),
            cfg,
            callback=lambda k, X, rec: feas.append(feasibility_residual(X)),
        )
        assert res.status is Status.CONVERGED
        tr = res.trace
        assert len(feas) == len(tr)
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
        prob = make_cm(64, 4, 0.1)
        res = solve(prob, random_point(64, 4, 1))
        norms = [t.normV for t in res.trace]

        def first_below(eps):
            running = math.inf
            for k, v in enumerate(norms):
                running = min(running, v)
                if running <= eps:
                    return k + 1
            return None

        ks = [first_below(eps) for eps in (1e-1, 1e-2, 1e-3)]
        assert all(k is not None for k in ks)
        assert ks[1] <= ks[0] * 100 and ks[2] <= ks[1] * 100

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

    def test_inconsistent_gradient_stalls(self):
        base = make_cm(16, 2, 0.1)
        broken = CompositeProblem(
            eval_f=base.eval_f,
            eval_grad_f=lambda X: -np.asarray(base.eval_grad_f(X)),
            mu=base.mu,
            lipschitz_estimate=base.lipschitz_estimate,
            descriptor=base.descriptor,
        )
        res = solve(broken, random_point(16, 2, 0), SolverConfig(max_outer=50))
        assert res.status in (Status.STALLED, Status.MAX_ITER)

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
