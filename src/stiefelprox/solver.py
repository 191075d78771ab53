"""Outer solver: adaptive quadratically regularized proximal quasi-Newton.

Each outer iteration builds the diagonal quasi-Newton metric, solves the
tangent-space proximal subproblem for the direction V, backtracks a
(non)monotone line search along the retraction, and adjusts the regularizer
sigma from the agreement ratio rho between the actual objective decrease and
the model decrease: very good agreement shrinks sigma, poor agreement grows
sigma and re-solves the subproblem at the same point. A plain proximal
gradient baseline (constant 1/L metric, monotone line search, no sigma
machinery) shares the same loop.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .metric import DiagonalMetric, LbfgsMemory, build_diag, metric_norm_sq
from .problems import CompositeProblem
from .stiefel import (
    RetractionKind,
    StiefelPoint,
    TangentVector,
    _RETRACTIONS,
    _project,
)
from .subproblem import ssn_solve


class Mode(Enum):
    MONOTONE = "arpqn"  # adaptive regularization, monotone line search
    NONMONOTONE = "nls"  # adaptive regularization, windowed nonmonotone search
    PROX_GRAD = "pg"  # 1/L proximal-gradient baseline


class Status(Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    STALLED = "stalled"


@dataclass(frozen=True)
class SolverConfig:
    sigma0: float = 1.0
    eta1: float = 0.2
    eta2: float = 0.9
    gamma1: float = 0.3
    gamma2: float = 3.0
    ls_sigma: float = 1e-4
    ls_gamma: float = 0.5
    window_m: int = 5
    memory_p: int = 5
    theta_floor: float = 1e-3
    tol_factor: float = 1e-8
    max_outer: int = 70000
    max_ssn: int = 100
    max_inner_sigma: int = 30
    retraction: RetractionKind = RetractionKind.SVD
    mode: Mode = Mode.NONMONOTONE

    def __post_init__(self) -> None:
        if not (0.0 < self.eta1 < self.eta2 < 1.0):
            raise ValueError(f"need 0 < eta1 < eta2 < 1, got ({self.eta1}, {self.eta2})")
        if not (0.0 < self.gamma1 < 1.0 < self.gamma2):
            raise ValueError(f"need 0 < gamma1 < 1 < gamma2, got ({self.gamma1}, {self.gamma2})")
        if not (0.0 < self.ls_sigma < 1.0 and 0.0 < self.ls_gamma < 1.0):
            raise ValueError("line-search parameters must lie in (0, 1)")
        if self.sigma0 <= 0:
            raise ValueError(f"sigma0 must be positive, got {self.sigma0}")
        if self.window_m < 0 or self.memory_p < 1:
            raise ValueError("window_m must be >= 0 and memory_p >= 1")
        if self.theta_floor <= 0:
            raise ValueError(f"theta_floor must be positive, got {self.theta_floor}")
        if self.tol_factor < 0:
            raise ValueError(f"tol_factor must be nonnegative, got {self.tol_factor}")
        if self.max_outer < 0:
            raise ValueError(f"max_outer must be >= 0, got {self.max_outer}")
        if self.max_ssn < 1:
            raise ValueError(f"max_ssn must be >= 1, got {self.max_ssn}")
        if self.max_inner_sigma < 1:
            raise ValueError(f"max_inner_sigma must be >= 1, got {self.max_inner_sigma}")


@dataclass(frozen=True)
class TraceRecord:
    """Per accepted outer iteration: objective, step and subproblem statistics.

    backtracks, ssn_iters and ls_trials are totals over every subproblem pass
    of the iteration; resolves counts the passes (1 + sigma escalations);
    rejected_rhos holds the agreement ratios of the rejected passes.
    """

    k: int
    F: float
    normV: float
    sigma: float
    alpha: float
    rho: float
    backtracks: int
    ssn_iters: int
    resolves: int
    rejected_rhos: tuple = ()
    ls_trials: int = 0


TRACE_CSV_HEADER = "k,F,normV,sigma,alpha,rho,backtracks,ssn_iters,resolves"


def write_trace_csv(trace: Sequence[TraceRecord], path) -> None:
    """One CSV row per accepted outer iteration, fixed header."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(TRACE_CSV_HEADER + "\n")
        for t in trace:
            fh.write(
                f"{t.k},{t.F:.12g},{t.normV:.12g},{t.sigma:.6g},{t.alpha:.6g},"
                f"{t.rho:.6g},{t.backtracks},{t.ssn_iters},{t.resolves}\n"
            )


@dataclass(frozen=True)
class SolveResult:
    point: StiefelPoint
    trace: list[TraceRecord]
    status: Status
    # ||V||^2 of the subproblem direction at the returned point (the quantity
    # the stopping rule bounds); nan when no subproblem was solved there
    final_norm_v_sq: float = math.nan


def nonmonotone_reference(history: Sequence[float], m: int) -> float:
    """Max of the last min(m+1, len(history)) accepted objective values."""
    if len(history) == 0:
        raise ValueError("history must be nonempty")
    window = list(history)[-(m + 1):]
    return max(window)


class LineSearchResult(NamedTuple):
    alpha: float
    point: np.ndarray
    backtracks: int
    f_value: float


def line_search(
    problem: CompositeProblem,
    X: StiefelPoint,
    v: TangentVector,
    metric: DiagonalMetric,
    F_ref: float,
    config: SolverConfig,
) -> Optional[LineSearchResult]:
    """Backtrack alpha in {1, g, g^2, ...} until the sufficient decrease holds:

        F(R_X(alpha V)) <= F_ref - 1/2 * ls_sigma * alpha * ||V||_metric^2.

    Returns None when alpha underflows 1e-20 (signal to escalate sigma).
    """
    V = v.data
    quad = metric_norm_sq(metric, V)
    retr = _RETRACTIONS[config.retraction]
    mu = problem.mu
    alpha = 1.0
    backtracks = 0
    while alpha >= 1e-20:
        Z = retr(X.data, alpha * V)
        F_trial = problem.eval_f(Z) + mu * float(np.abs(Z).sum())
        if F_trial <= F_ref - 0.5 * config.ls_sigma * alpha * quad:
            return LineSearchResult(alpha, Z, backtracks, F_trial)
        alpha *= config.ls_gamma
        backtracks += 1
    return None


def compute_rho(F_trial: float, F_ref: float, phi_at_step: float, phi_at_zero: float) -> float:
    """Model agreement ratio (F_trial - F_ref) / (phi_at_step - phi_at_zero).

    A denominator that is not decisively negative signals a degenerate model;
    the caller then accepts and shrinks sigma (rho = +inf).
    """
    denom = phi_at_step - phi_at_zero
    if denom >= -1e-16 * abs(phi_at_zero):
        return math.inf
    return (F_trial - F_ref) / denom


# Shrink floor for the regularizer. Long runs of very successful steps would
# otherwise drive sigma so far below the metric scale that a later bad model
# cannot be repaired within the escalation budget (gamma2^max_inner_sigma).
SIGMA_MIN = 1e-10

# The stationarity test ||V||^2 <= tol_factor*n*r must hold on this many
# consecutive outer iterations, and the objective must have flattened over
# the last FLATNESS_WINDOW accepted steps, before the solver stops. The
# quasi-Newton diagonal oscillates on stiff instances and transient dips of
# ||V|| occur on shoulders of the objective far from stationarity; genuine
# convergence keeps the bound satisfied indefinitely with a flat objective,
# so confirmation costs only a constant tail.
STATIONARITY_CONFIRM = 3
FLATNESS_WINDOW = 10
FLATNESS_RTOL = 3e-4


def update_sigma(sigma: float, rho: float, config: SolverConfig) -> tuple[float, bool]:
    """sigma update and accept flag from the agreement ratio."""
    if rho >= config.eta2:
        return max(config.gamma1 * sigma, SIGMA_MIN), True
    if rho >= config.eta1:
        return sigma, True
    return config.gamma2 * sigma, False


def pg_baseline_metric(problem: CompositeProblem, n: Optional[int] = None) -> DiagonalMetric:
    """Constant 1/L-step metric for the proximal-gradient baseline.

    Weight is the gradient Lipschitz estimate, floored at 1e-3 so a flat
    objective (L = 0) still yields a valid metric.
    """
    if n is None:
        n = int(problem.descriptor["n"])
    L = max(float(problem.lipschitz_estimate), 1e-3)
    return DiagonalMetric(np.full(n, L), 0.0)


def solve(
    problem: CompositeProblem,
    X0: StiefelPoint,
    config: Optional[SolverConfig] = None,
    callback: Optional[Callable[[int, StiefelPoint, TraceRecord], None]] = None,
) -> SolveResult:
    """Minimize f(X) + mu ||X||_1 over the Stiefel manifold from X0.

    Stops when ||V||^2 <= tol_factor * n * r (stationarity of the subproblem
    direction), or at max_outer iterations, or with Status.STALLED when the
    sigma escalation loop exceeds max_inner_sigma passes (the best iterate so
    far is returned). The trace holds one record per accepted iteration.
    """
    cfg = config if config is not None else SolverConfig()
    X = X0 if isinstance(X0, StiefelPoint) else StiefelPoint(X0)
    n, r = X.n, X.r
    mu = problem.mu
    pg_mode = cfg.mode is Mode.PROX_GRAD
    window_m = 0 if cfg.mode is not Mode.NONMONOTONE else cfg.window_m
    stop_tol = cfg.tol_factor * n * r

    memory = LbfgsMemory(capacity=cfg.memory_p, theta_floor=cfg.theta_floor)
    pg_metric = pg_baseline_metric(problem, n) if pg_mode else None

    G = np.asarray(problem.eval_grad_f(X.data), dtype=float)
    F_cur = float(problem.eval_f(X.data)) + mu * float(np.abs(X.data).sum())
    F_hist: deque = deque([F_cur], maxlen=window_m + 1)
    lam_warm = np.zeros((r, r))
    trace: list[TraceRecord] = []
    stationary_streak = 0
    F_recent: deque = deque([F_cur], maxlen=FLATNESS_WINDOW + 1)
    # trial count of a line search that underflowed alpha < 1e-20
    failed_ls_trials = int(math.log(1e-20) / math.log(cfg.ls_gamma)) + 1

    for k in range(cfg.max_outer):
        if pg_mode:
            d = pg_metric.d
            sigma_k = 0.0
        else:
            sigma_k = cfg.sigma0 if k == 0 else sigma_next
            d = np.ones(n) if not memory.pairs else build_diag(memory, n)
        ssn_tol = 1e-8 * max(1.0, float(np.linalg.norm(G)))

        resolves = 0
        rejected: list[float] = []
        bt_total = 0
        trials_total = 0
        ssn_total = 0
        accepted = False
        while not accepted:
            resolves += 1
            metric = DiagonalMetric(d, sigma_k)
            sub = ssn_solve(X, G, metric, mu, lam_warm, ssn_tol, cfg.max_ssn)
            lam_warm = sub.lam
            ssn_total += sub.ssn_iters
            V = sub.v.data
            norm_v_sq = float(np.sum(V * V))
            if resolves == 1:
                stationary_streak = stationary_streak + 1 if norm_v_sq <= stop_tol else 0
                flat = F_recent[0] - F_cur <= FLATNESS_RTOL * max(1.0, abs(F_cur))
                # a direction 1000x below the tolerance needs no confirmation
                if norm_v_sq <= 1e-6 * stop_tol or (
                    stationary_streak >= STATIONARITY_CONFIRM and flat
                ):
                    return SolveResult(X, trace, Status.CONVERGED, norm_v_sq)

            F_ref = max(F_hist)
            ls = line_search(problem, X, sub.v, metric, F_ref, cfg)
            if ls is None:
                bt_total += failed_ls_trials
                trials_total += failed_ls_trials
                if pg_mode or resolves >= cfg.max_inner_sigma:
                    return SolveResult(X, trace, Status.STALLED, norm_v_sq)
                rejected.append(-math.inf)
                sigma_k = cfg.gamma2 * sigma_k
                continue

            alpha, Z, backtracks, F_trial = ls
            bt_total += backtracks
            trials_total += backtracks + 1
            phi_zero = mu * float(np.abs(X.data).sum())
            phi_step = (
                alpha * float(np.sum(G * V))
                + 0.5 * alpha * alpha * metric_norm_sq(metric, V)
                + mu * float(np.abs(X.data + alpha * V).sum())
            )
            rho = compute_rho(F_trial, F_ref, phi_step, phi_zero)
            sigma_used = sigma_k
            if pg_mode:
                accepted = True
            else:
                sigma_k, accepted = update_sigma(sigma_k, rho, cfg)
                if not accepted:
                    rejected.append(rho)
                    if resolves >= cfg.max_inner_sigma:
                        return SolveResult(X, trace, Status.STALLED, norm_v_sq)

        sigma_next = sigma_k
        Z_pt = StiefelPoint(Z)
        G_new = np.asarray(problem.eval_grad_f(Z_pt.data), dtype=float)
        if not pg_mode:
            s = Z_pt.data - X.data
            y = _project(Z_pt.data, G_new) - _project(X.data, G)
            memory.push(s, y)
        record = TraceRecord(
            k=k,
            F=F_trial,
            normV=math.sqrt(norm_v_sq),
            sigma=sigma_used,
            alpha=alpha,
            rho=rho,
            backtracks=bt_total,
            ssn_iters=ssn_total,
            resolves=resolves,
            rejected_rhos=tuple(rejected),
            ls_trials=trials_total,
        )
        trace.append(record)
        X, G, F_cur = Z_pt, G_new, F_trial
        F_hist.append(F_cur)
        F_recent.append(F_cur)
        if callback is not None:
            callback(k, X, record)

    return SolveResult(X, trace, Status.MAX_ITER)
