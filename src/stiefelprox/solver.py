"""Outer solver: adaptive quadratically regularized proximal quasi-Newton.

Each outer iteration solves the tangent-space proximal subproblem for the
direction V under the diagonal quasi-Newton metric, which is rebuilt only
when an accepted step adds a curvature pair, backtracks a (non)monotone line
search along the retraction, and adjusts the regularizer sigma from the
agreement ratio rho between the actual objective decrease and the model
decrease: very good agreement shrinks sigma, poor agreement grows sigma and
re-solves the subproblem at the same point. A plain proximal gradient
baseline (constant 1/L metric, monotone line search, no sigma machinery)
shares the same loop.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, NamedTuple, Optional, Sequence

import numpy as np

from ._checks import check_integer, check_real
from .metric import LbfgsMemory, build_diag, metric_norm_sq
from .problems import CompositeProblem
from .stiefel import RetractionKind, StiefelPoint, TangentVector, project_tangent, retract
from .subproblem import ssn_solve


class Mode(Enum):
    MONOTONE = "arpqn"  # adaptive regularization, monotone line search
    NONMONOTONE = "nls"  # adaptive regularization, windowed nonmonotone search
    PROX_GRAD = "pg"  # 1/L proximal-gradient baseline


class Status(Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    STALLED = "stalled"
    NONFINITE = "nonfinite"  # f or its gradient stopped being finite


@dataclass(frozen=True)
class SolverConfig:
    """The settings a caller varies: first regularizer, iteration budget,
    retraction and mode.

    ARPQN's fixed constants are class-level, readable but not keywords: the
    thresholds and factors of update_sigma, the Armijo slope and backtracking
    factor of line_search, the nonmonotone window, the stopping factor
    (||V||^2 <= tol_factor * n * r, ||w o V||^2 <= L^2 tol_factor * n * r),
    Newton steps per subproblem and subproblem passes per iteration.
    """

    sigma0: float = 1.0
    max_outer: int = 70000
    retraction: RetractionKind = RetractionKind.SVD
    mode: Mode = Mode.NONMONOTONE

    eta1: ClassVar[float] = 0.2
    eta2: ClassVar[float] = 0.9
    gamma1: ClassVar[float] = 0.3
    gamma2: ClassVar[float] = 3.0
    ls_sigma: ClassVar[float] = 1e-4
    ls_gamma: ClassVar[float] = 0.5
    window_m: ClassVar[int] = 5
    tol_factor: ClassVar[float] = 1e-8
    max_ssn: ClassVar[int] = 100
    max_inner_sigma: ClassVar[int] = 30

    def __post_init__(self) -> None:
        check_real("sigma0", self.sigma0, 0, strict=True)
        check_integer("max_outer", self.max_outer, 0)
        if not isinstance(self.mode, Mode):
            raise ValueError(f"mode must be a Mode, got {self.mode!r}")
        if not isinstance(self.retraction, RetractionKind):
            raise ValueError(f"retraction must be a RetractionKind, got {self.retraction!r}")


class TraceRecord(NamedTuple):
    """Per accepted outer iteration: objective, step and subproblem statistics.

    backtracks, ssn_iters, ls_trials, cg_iters and halvings are totals over
    every subproblem pass of the iteration; resolves counts the passes
    (1 + sigma escalations) and unconverged those whose ssn_solve did not
    converge; rejected_rhos holds the agreement ratios of the rejected passes;
    ssn_tol is the tolerance every pass of the iteration was solved to.
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
    rejected_rhos: tuple
    ls_trials: int
    ssn_tol: float
    cg_iters: int
    halvings: int
    unconverged: int


# The trace CSV's columns are TraceRecord's fields but rejected_rhos, in
# order; the floats take these formats and the counts print plainly.
_CSV_FORMATS = {"F": ".12g", "normV": ".12g", "sigma": ".6g", "alpha": ".6g", "rho": ".6g", "ssn_tol": ".6g"}
_CSV_FIELDS = [name for name in TraceRecord._fields if name != "rejected_rhos"]
TRACE_CSV_HEADER = ",".join(_CSV_FIELDS)
_CSV_ROW = ",".join(f"{{0.{name}:{_CSV_FORMATS.get(name, '')}}}" for name in _CSV_FIELDS) + "\n"


def write_trace_csv(trace: Sequence[TraceRecord], path) -> None:
    """One CSV row per accepted outer iteration, under TRACE_CSV_HEADER."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(TRACE_CSV_HEADER + "\n")
        for t in trace:
            fh.write(_CSV_ROW.format(t))


@dataclass(frozen=True)
class SolveResult:
    point: StiefelPoint
    trace: list[TraceRecord]
    status: Status
    # ||V||^2 of the first subproblem pass at the returned point (the quantity
    # the stopping rule bounds); nan when no subproblem was solved there
    final_norm_v_sq: float = math.nan


def nonmonotone_reference(history: Sequence[float], m: int) -> float:
    """Max of the last min(m+1, len(history)) accepted objective values; m is an integer >= 0
    and the window's values are finite."""
    check_integer("m", m, 0)
    if len(history) == 0:
        raise ValueError("history must be nonempty")
    window = list(history)[-(m + 1):]
    if not all(map(math.isfinite, window)):
        raise ValueError(f"history window must be finite, got {window}")
    return max(window)


# Trials of one line search: alpha runs 1, ls_gamma, ..., ls_gamma^66 ~ 1.4e-20
# before the search gives up and sigma escalates.
LS_TRIALS = 67


class LineSearchResult(NamedTuple):
    alpha: float
    point: StiefelPoint
    backtracks: int
    f_value: float
    quad: float  # ||V||_w^2, which the caller's model value reuses


def line_search(
    problem: CompositeProblem,
    v: TangentVector,
    w: np.ndarray,
    F_ref: float,
    config: SolverConfig,
) -> Optional[LineSearchResult]:
    """Backtrack alpha in {1, g, g^2, ...} until the sufficient decrease holds:

        F(R_X(alpha V)) <= F_ref - 1/2 * ls_sigma * alpha * ||V||_w^2

    with X = v.base, under the metric weights w. F is evaluated at the
    retracted point itself, so f_value is F at the returned point. Returns
    None after LS_TRIALS failed trials (signal to escalate sigma).
    """
    if not isinstance(v, TangentVector):
        raise ValueError(f"v must be a TangentVector, got {type(v).__name__}")
    quad = metric_norm_sq(w, v.data)
    alpha = 1.0
    for backtracks in range(LS_TRIALS):
        Z = retract(v if alpha == 1.0 else alpha * v, config.retraction)
        F_trial = problem.objective(Z.data)
        if F_trial <= F_ref - 0.5 * config.ls_sigma * alpha * quad:
            return LineSearchResult(alpha, Z, backtracks, F_trial, quad)
        alpha *= config.ls_gamma
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

# Forcing constant of the inexact subproblem solves: iteration k solves to
# max(1e-8 max(1, ||G_k||), FORCING ||V_{k-1}||), loosely far from
# stationarity and tighter as the steps shrink. Measured over
# SPCA(300,20,0.6) seeds 0-9 against the fixed 1e-8 floor: Newton steps fell
# 13169 -> 9514 and no final F moved by 1%; seeds 0-39 moved F by 0.58% at
# most. FORCING = 1e-2 moved seed 4 by 1.03%, and 1e-2 ||V|| min(1, ||V||)
# moved seed 2 by 1.99%. Over CM(64,4,0.1) seeds 0-99 Newton steps fell 45%,
# outer iterations rose 0.6% and F moved by 3.1e-4 at most.
FORCING = 1e-3


def update_sigma(sigma: float, rho: float, config: SolverConfig) -> tuple[float, bool]:
    """sigma update and accept flag from the agreement ratio."""
    if rho >= config.eta2:
        return max(config.gamma1 * sigma, SIGMA_MIN), True
    if rho >= config.eta1:
        return sigma, True
    return config.gamma2 * sigma, False


def solve(
    problem: CompositeProblem,
    X0: StiefelPoint,
    config: Optional[SolverConfig] = None,
) -> SolveResult:
    """Minimize f(X) + mu ||X||_1 over the Stiefel manifold from X0.

    Stops when ||V||^2 <= tol_factor * n * r (stationarity of the subproblem
    direction) and the gradient mapping w o V, which does not shrink as the
    metric weights w grow, satisfies ||w o V||^2 <= L^2 tol_factor * n * r
    (the same bound in gradient units under the 1/L metric, L the gradient's
    Lipschitz estimate floored at 1e-3), or at max_outer iterations. A pass
    whose line search fails (rho = -inf) or, outside the proximal-gradient
    mode, whose rho is below eta1 is rejected: sigma grows by gamma2 and the
    subproblem is re-solved at the same point. Status.STALLED ends the run
    after max_inner_sigma passes in one iteration, or at the proximal-gradient
    mode's first failed line search. Status.NONFINITE ends it when F or the
    gradient at X0 or at an accepted iterate is not finite. Both return X0 or
    the last accepted iterate with finite F and gradient, whose F may exceed
    an earlier iterate's under the nonmonotone search, and the ||V||^2 of its
    first pass, which the stop bounds (nan if F or the gradient at X0 is not finite).

    The trace holds one record per accepted iteration. Iteration k solves its
    subproblem to max(1e-8 max(1, ||G_k||), FORCING ||V_{k-1}||), iteration 0
    to the first term alone. Its first subproblem pass starts the dual
    multiplier at L_{k-1} + (L_{k-1} - L_{k-2}), the linear extrapolation of
    the last two accepted multipliers (iteration 0 at zero, iteration 1 at
    L_0); a re-solve after a rejection starts from the previous pass's
    multiplier. X0 must have the problem's shape and the problem's
    lipschitz_estimate a finite square. Outside the proximal-gradient mode,
    sigma0 must be at most L/eps (eps the machine epsilon): above it G/w falls
    below the rounding of X and the run cannot move.
    """
    if not isinstance(problem, CompositeProblem):
        raise ValueError(f"problem must be a CompositeProblem, got {type(problem).__name__}")
    if not (config is None or isinstance(config, SolverConfig)):
        raise ValueError(f"config must be a SolverConfig instance or None, got {type(config).__name__}")
    cfg = config if config is not None else SolverConfig()
    X = X0 if isinstance(X0, StiefelPoint) else StiefelPoint(X0)
    n, r = X.n, X.r
    if (n, r) != problem.shape:
        raise ValueError(f"X0 has shape {(n, r)}, the problem needs {problem.shape}")
    mu = problem.mu
    pg_mode = cfg.mode is Mode.PROX_GRAD
    window_m = 0 if cfg.mode is not Mode.NONMONOTONE else cfg.window_m
    stop_tol = cfg.tol_factor * n * r
    # the gradient's Lipschitz constant, floored so a flat objective has a scale
    L = max(problem.lipschitz_estimate, 1e-3)
    try:
        grad_stop_tol = L ** 2 * stop_tol
    except OverflowError:
        raise ValueError(f"problem.lipschitz_estimate {L!r} is too large: its square overflows") from None
    # above L/eps, G/w falls below the rounding of X and V = prox(X - G/w) - X
    # rounds to zero, so the run would stop or stall at X0
    if not pg_mode and cfg.sigma0 > L / sys.float_info.epsilon:
        raise ValueError(f"sigma0 must be at most L/eps = {L / sys.float_info.epsilon:.3g} "
                         f"(L the floored lipschitz_estimate), got {cfg.sigma0!r}")

    memory = LbfgsMemory()
    # the quasi-Newton diagonal, rebuilt after each curvature pair: the
    # identity until the first, or the baseline's constant 1/L-step metric
    d = np.full(n, L) if pg_mode else np.ones(n)
    sigma = 0.0 if pg_mode else cfg.sigma0

    G = np.asarray(problem.eval_grad_f(X.data), dtype=float)
    F_cur = problem.objective(X.data)
    if not (math.isfinite(F_cur) and np.isfinite(G).all()):
        return SolveResult(X, [], Status.NONFINITE)
    # accepted objective values: the flatness test reads the oldest, the
    # nonmonotone reference the last window_m + 1 (window_m < FLATNESS_WINDOW)
    F_hist: deque = deque([F_cur], maxlen=FLATNESS_WINDOW + 1)
    proj_G = None if pg_mode else project_tangent(X, G).data
    # multipliers of the last two accepted subproblems
    lam_prev = lam_last = np.zeros((r, r))
    trace: list[TraceRecord] = []
    stationary_streak = 0

    for k in range(cfg.max_outer):
        # forcing by ||V|| of the last accepted direction; none before iteration 0
        norm_v_prev = trace[-1].normV if trace else 0.0
        ssn_tol = max(1e-8 * max(1.0, math.sqrt(np.vdot(G, G))), FORCING * norm_v_prev)

        # the nonmonotone reference and the model at V = 0 are the same for every pass
        F_ref = nonmonotone_reference(F_hist, window_m)
        phi_zero = mu * float(np.abs(X.data).sum())
        # totals over the passes; a failed line search ran all LS_TRIALS
        resolves = backtracks = ls_trials = ssn_iters = cg_iters = halvings = unconverged = 0
        rejected_rhos = []
        lam_warm = lam_last + (lam_last - lam_prev) if k >= 2 else lam_last
        while True:
            w, pass_sigma = d + sigma, sigma  # update_sigma moves sigma on below
            sub = ssn_solve(X, G, w, mu, lam_warm, ssn_tol, cfg.max_ssn)
            lam_warm = sub.lam
            V = sub.v.data
            norm_v_sq = float(np.vdot(V, V))
            resolves += 1
            ssn_iters += sub.ssn_iters
            cg_iters += sub.cg_iters
            halvings += sub.halvings
            unconverged += not sub.converged
            if resolves == 1:
                first_norm_v_sq = norm_v_sq
                stationary_streak = stationary_streak + 1 if norm_v_sq <= stop_tol else 0
                flat = F_hist[0] - F_cur <= FLATNESS_RTOL * max(1.0, abs(F_cur))
                # a direction 1000x below the tolerance needs no confirmation;
                # either stop also bounds the gradient mapping w o V (ManPG's
                # V/t at t = 1/w), since V ~ G/w vanishes under huge weights
                if norm_v_sq <= 1e-6 * stop_tol or (stationary_streak >= STATIONARITY_CONFIRM and flat):
                    wV = w[:, None] * V
                    if float(np.vdot(wV, wV)) <= grad_stop_tol:
                        return SolveResult(X, trace, Status.CONVERGED, norm_v_sq)

            ls = line_search(problem, sub.v, w, F_ref, cfg)
            if ls is None:
                rho = -math.inf
                backtracks += LS_TRIALS
                ls_trials += LS_TRIALS
            else:
                alpha, Z, pass_backtracks, F_trial, quad = ls
                backtracks += pass_backtracks
                ls_trials += pass_backtracks + 1
                phi_step = (
                    alpha * float(np.vdot(G, V))
                    + 0.5 * alpha * alpha * quad
                    + mu * float(np.abs(X.data + (V if alpha == 1.0 else alpha * V)).sum())
                )
                rho = compute_rho(F_trial, F_ref, phi_step, phi_zero)
            accepted = ls is not None
            if not pg_mode:
                sigma, accepted = update_sigma(sigma, rho, cfg)
            if accepted:
                break
            rejected_rhos.append(rho)
            if pg_mode or resolves >= cfg.max_inner_sigma:
                return SolveResult(X, trace, Status.STALLED, first_norm_v_sq)

        lam_prev, lam_last = lam_last, lam_warm
        G_new = np.asarray(problem.eval_grad_f(Z.data), dtype=float)
        if not (math.isfinite(F_trial) and np.isfinite(G_new).all()):
            return SolveResult(X, trace, Status.NONFINITE, first_norm_v_sq)
        if not pg_mode:
            # the projected gradient at Z is the next iteration's one at X
            proj_G_new = project_tangent(Z, G_new).data
            memory.push(Z.data - X.data, proj_G_new - proj_G)
            proj_G = proj_G_new
            d = build_diag(memory, n)
        trace.append(TraceRecord(
            k=k,
            F=F_trial,
            normV=math.sqrt(norm_v_sq),
            sigma=pass_sigma,
            alpha=alpha,
            rho=rho,
            backtracks=backtracks,
            ssn_iters=ssn_iters,
            resolves=resolves,
            rejected_rhos=tuple(rejected_rhos),
            ls_trials=ls_trials,
            ssn_tol=ssn_tol,
            cg_iters=cg_iters,
            halvings=halvings,
            unconverged=unconverged,
        ))
        X, G, F_cur = Z, G_new, F_trial
        F_hist.append(F_cur)

    return SolveResult(X, trace, Status.MAX_ITER)
