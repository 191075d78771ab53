"""Acceptance suite: every shipped-quality bar, one test per criterion.

Seed-averaged statistical targets (1-4, 9) run on fixed seed sets; the
deterministic property suites (5-8) must pass exactly as stated. Each test
prints one PASS line when its assertions hold.
"""

import math
import time

import numpy as np
import pytest

from stiefelprox import (
    LbfgsMemory,
    Mode,
    RetractionKind,
    SolverConfig,
    Status,
    build_diag,
    feasibility_residual,
    make_cm,
    make_spca,
    nonmonotone_reference,
    random_point,
    solve,
    sparsity,
    ssn_solve,
    DiagonalMetric,
)
from stiefelprox.subproblem import _DIRECT_MAX_R
from oracles import dense_lbfgs_diag, splitting_direction, subproblem_value


def run_seeds(prob, n, r, seeds, config=None):
    out = []
    for seed in seeds:
        t0 = time.perf_counter()
        res = solve(prob, random_point(n, r, seed), config)
        out.append(
            dict(
                res=res,
                cpu=time.perf_counter() - t0,
                F=prob.objective(res.point.data),
                sparsity=sparsity(res.point.data),
                iters=len(res.trace),
                ls=sum(t.ls_trials for t in res.trace),
                ssn_per_iter=sum(t.ssn_iters for t in res.trace) / max(1, len(res.trace)),
            )
        )
    return out


@pytest.fixture(scope="module")
def cm64_runs():
    return run_seeds(make_cm(64, 4, 0.1), 64, 4, range(20))


@pytest.fixture(scope="module")
def cm128_runs():
    prob = make_cm(128, 10, 0.1)
    seeds = range(3)
    return {
        "nls": run_seeds(prob, 128, 10, seeds, SolverConfig(mode=Mode.NONMONOTONE)),
        "mono": run_seeds(prob, 128, 10, seeds, SolverConfig(mode=Mode.MONOTONE)),
        "pg": run_seeds(prob, 128, 10, seeds, SolverConfig(mode=Mode.PROX_GRAD)),
    }


def test_criterion_1_cm_objective_reproduction(cm64_runs):
    mean_F = np.mean([r["F"] for r in cm64_runs])
    mean_sp = np.mean([r["sparsity"] for r in cm64_runs])
    total_cpu = sum(r["cpu"] for r in cm64_runs)
    assert abs(mean_F - 1.425) <= 0.02
    assert 0.75 <= mean_sp <= 0.85
    assert total_cpu < 5.0
    print(
        f"\nACCEPTANCE 1 PASS: CM(64,4,0.1) mean F={mean_F:.4f} (1.425+-0.02), "
        f"sparsity={mean_sp:.3f} in [0.75,0.85], total cpu {total_cpu:.2f}s < 5s"
    )


def test_criterion_2_cm_scaling_points():
    runs_256 = run_seeds(make_cm(256, 4, 0.2), 256, 4, range(8))
    F_256 = np.mean([r["F"] for r in runs_256])
    assert abs(F_256 - 4.336) <= 0.02
    runs_512 = run_seeds(make_cm(512, 4, 0.1), 512, 4, range(8))
    F_512 = np.mean([r["F"] for r in runs_512])
    sp_512 = np.mean([r["sparsity"] for r in runs_512])
    assert abs(F_512 - 3.296) <= 0.02
    assert abs(sp_512 - 0.86) <= 0.03
    print(
        f"\nACCEPTANCE 2 PASS: CM(256,4,0.2) F={F_256:.4f} (4.336+-0.02); "
        f"CM(512,4,0.1) F={F_512:.4f} (3.296+-0.02), sparsity={sp_512:.3f} (~0.86)"
    )


def test_criterion_3_retraction_agreement():
    prob = make_cm(256, 4, 0.1)
    means = {}
    for kind in RetractionKind:
        runs = run_seeds(prob, 256, 4, range(10), SolverConfig(retraction=kind))
        means[kind.value] = np.mean([r["F"] for r in runs])
    spread = max(means.values()) - min(means.values())
    assert spread <= 0.01
    print(
        "\nACCEPTANCE 3 PASS: CM(256,4,0.1) retraction means "
        + ", ".join(f"{k}={v:.4f}" for k, v in means.items())
        + f", spread {spread:.4f} <= 0.01"
    )


def test_criterion_4_method_agreement(cm128_runs):
    diffs = [
        abs(a["F"] - b["F"]) for a, b in zip(cm128_runs["mono"], cm128_runs["nls"])
    ]
    assert max(diffs) <= 1e-3
    ls_nls = sum(r["ls"] for r in cm128_runs["nls"])
    ls_pg = sum(r["ls"] for r in cm128_runs["pg"])
    assert ls_nls < ls_pg
    print(
        f"\nACCEPTANCE 4 PASS: CM(128,10,0.1) per-seed |F_mono - F_nls| max {max(diffs):.2e} <= 1e-3; "
        f"nonmonotone line-search steps {ls_nls} < baseline {ls_pg}"
    )


def test_criterion_5_subproblem_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst_dist = 0.0
    worst_gap = -math.inf
    for trial in range(56):
        n, r = (6, 2) if trial % 2 == 0 else (10, 3)
        if trial >= 50:
            # above the direct-solve crossover, so CG computes the Newton steps
            n, r = _DIRECT_MAX_R + 4, _DIRECT_MAX_R + 1
        mu = (0.0, 0.1, 1.0)[trial % 3]
        X = random_point(n, r, 500 + trial)
        G = 2.0 * rng.standard_normal((n, r))
        d = np.exp(rng.normal(0.0, 0.5, n)) + 0.5
        metric = DiagonalMetric(d, (0.0, 0.3)[trial % 2])
        w = metric.weights()
        tol = 1e-10 * max(1.0, float(np.linalg.norm(G)))
        res = ssn_solve(X, G, metric, mu, None, tol, 100)
        V_ref = splitting_direction(X.data, G, w, mu)
        dist = float(np.linalg.norm(res.v.data - V_ref))
        gap = subproblem_value(X.data, G, w, mu, res.v.data) - subproblem_value(
            X.data, G, w, mu, V_ref
        )
        worst_dist = max(worst_dist, dist)
        worst_gap = max(worst_gap, gap)
        assert dist <= 1e-6, f"trial {trial}: distance {dist:.2e}"
        assert gap <= 1e-8, f"trial {trial}: objective gap {gap:.2e}"
    print(
        f"\nACCEPTANCE 5 PASS: 56 subproblems, worst |V_ssn - V_oracle| {worst_dist:.2e} <= 1e-6, "
        f"worst objective gap {worst_gap:.2e} <= 1e-8"
    )


def test_criterion_6_stationarity_and_feasibility_contract(cm64_runs, cm128_runs):
    cfg = SolverConfig()
    checked = 0
    all_runs = cm64_runs + cm128_runs["nls"] + cm128_runs["mono"]
    for rec in all_runs:
        res = rec["res"]
        assert res.status is Status.CONVERGED
        n, r = res.point.n, res.point.r
        assert res.final_norm_v_sq <= 1e-8 * n * r
        assert feasibility_residual(res.point) <= 1e-10
        F_values = [t.F for t in res.trace]
        refs = [
            nonmonotone_reference(F_values[: k + 1], cfg.window_m)
            for k in range(len(F_values))
        ]
        assert all(b <= a + 1e-12 for a, b in zip(refs, refs[1:]))
        for t in res.trace:
            assert t.sigma <= 1e8
            assert len(t.rejected_rhos) == t.resolves - 1
            assert all(rho < cfg.eta1 for rho in t.rejected_rhos)
        checked += 1
    print(
        f"\nACCEPTANCE 6 PASS: {checked} converged runs end with ||V||^2 <= 1e-8 nr and "
        "feasibility <= 1e-10; reference objective non-increasing; sigma <= 1e8; "
        "every escalation had rho < eta1"
    )


def test_criterion_7_analytic_minimum():
    for n in (30, 100):
        prob = make_spca(n, 1, 1.0, data=np.zeros((50, n)))
        for seed in (0, 1):
            res = solve(prob, random_point(n, 1, seed))
            F = prob.objective(res.point.data)
            assert abs(F - 1.0) <= 1e-6
            X = res.point.data
            j = int(np.argmax(np.abs(X)))
            axis = np.zeros((n, 1))
            axis[j, 0] = np.sign(X[j, 0])
            assert np.linalg.norm(X - axis) <= 1e-4
    print(
        "\nACCEPTANCE 7 PASS: flat-objective l1 minimum F = 1 +- 1e-6 at a signed "
        "coordinate vector (n in {30, 100}, two seeds each)"
    )


def test_criterion_8_lbfgs_diagonal_correctness():
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 17))
        r = int(rng.integers(1, min(n, 5) + 1))
        p = int(rng.integers(1, 6))
        mem = LbfgsMemory(capacity=p)
        for _ in range(int(rng.integers(1, p + 1))):
            mem.push(rng.standard_normal((n, r)), rng.standard_normal((n, r)))
        d = build_diag(mem, n)
        dense = dense_lbfgs_diag(mem.pairs, mem.theta, n)
        worst = max(worst, float(np.max(np.abs(d - dense))))
        assert np.all(d > 0)
        assert np.max(np.abs(d - dense)) <= 1e-10
    print(
        f"\nACCEPTANCE 8 PASS: 100 random memories (n<=16, p<=5), matrix-free vs dense "
        f"diagonal max deviation {worst:.2e} <= 1e-10, all entries positive"
    )


def test_criterion_9_iteration_count_sanity(cm128_runs):
    iters = [r["iters"] for r in cm128_runs["nls"]]
    ssn = [r["ssn_per_iter"] for r in cm128_runs["nls"]]
    assert max(iters) < 5000
    assert max(ssn) < 5.0
    print(
        f"\nACCEPTANCE 9 PASS: CM(128,10,0.1) nonmonotone iterations {iters} < 5000; "
        f"subproblem solver averages {[f'{s:.2f}' for s in ssn]} < 5 per outer step"
    )
