"""Tangent-space proximal quadratic subproblem solved through its dual.

At a point X the search direction solves

    min_{V tangent at X}  <G, V> + 1/2 tr(V^T diag(w) V) + mu ||X + V||_1,

with w = d + sigma the metric weights. Dualizing the tangency constraint
A(V) = V^T X + X^T V = 0 with a symmetric multiplier L gives the inner
minimizer

    V(L) = prox(X - (G - 2 X L) / w) - X,

where prox is row-weighted soft thresholding, and the dual root-finding
problem E(L) := A(V(L)) = 0. E is monotone and piecewise smooth, so a
safeguarded semismooth Newton iteration drives ||E|| to zero.

Each Newton step solves (Jac + eta I) dL = -E over the r(r+1)/2 unknowns of a
symmetric dL. Column block l of the Jacobian is K_l = X^T diag(m_l) X, where
m_l = J_l * 2/w is column l of the prox-active mask J scaled by the weights;
with the row outer products of X formed once per solve, all r blocks come
from one matmul. For r <= _DIRECT_MAX_R the system is assembled in
orthonormal symmetric coordinates (diagonal entries, sqrt(2) x off-diagonal
ones), where it is symmetric positive definite, and solved directly. For
larger r assembling costs more than it saves, and the step comes from
matrix-free conjugate gradients instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .metric import DiagonalMetric
from .stiefel import StiefelPoint, TangentVector, _project

# Newton globalization constants: residual-reduction acceptance, CG forcing,
# regularization window for the generalized Jacobian.
_NEWTON_ACCEPT = 1.0 - 1e-4
_ETA_SCALE = 0.2
_ETA_MIN = 1e-12
_ETA_MAX = 1e-2
_MAX_BACKTRACKS = 10
_STALL_FACTOR = 0.5
# Largest r whose Newton system is assembled and solved directly; CG above it.
# Per Newton step the direct solve was faster for every r <= 16 on CM(128, r),
# where CG needs many iterations, but only for r <= 11 on SPCA(300, r); the
# measured table is in CHANGES.md.
_DIRECT_MAX_R = 11


def _sym(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.T)


def prox_l1_weighted(P: np.ndarray, weights: np.ndarray, mu: float) -> np.ndarray:
    """Exact minimizer of mu ||Y||_1 + 1/2 tr((Y-P)^T diag(weights) (Y-P)).

    Separable: entry (i, j) soft-thresholds P_ij at mu / weights[i].
    """
    weights = np.asarray(weights, dtype=float)
    if np.any(weights <= 0):
        raise ValueError("prox weights must be strictly positive")
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    if mu == 0.0:
        return np.array(P, dtype=float)
    thresh = (mu / weights)[:, None]
    return np.sign(P) * np.maximum(np.abs(P) - thresh, 0.0)


def v_of_lambda(
    X: StiefelPoint,
    grad_f: np.ndarray,
    metric: DiagonalMetric,
    mu: float,
    lam: np.ndarray,
) -> np.ndarray:
    """Unconstrained minimizer V(L) of the Lagrangian at multiplier L.

    The adjoint of A(V) = V^T X + X^T V on symmetric L is A*(L) = 2 X L.
    """
    w = metric.weights()
    P = X.data - (grad_f - 2.0 * (X.data @ lam)) / w[:, None]
    return prox_l1_weighted(P, w, mu) - X.data


def residual_E(
    X: StiefelPoint,
    grad_f: np.ndarray,
    metric: DiagonalMetric,
    mu: float,
    lam: np.ndarray,
) -> np.ndarray:
    """Dual residual E(L) = A(V(L)); zero exactly when V(L) is tangent at X."""
    V = v_of_lambda(X, grad_f, metric, mu, lam)
    return V.T @ X.data + X.data.T @ V


def jacobian_apply(
    X: StiefelPoint,
    grad_f: np.ndarray,
    metric: DiagonalMetric,
    mu: float,
    lam: np.ndarray,
    D: np.ndarray,
) -> np.ndarray:
    """One generalized-Jacobian element of E at L, applied to a symmetric D.

    dV = J o ((2 X D) / w) with J the 0/1 mask of prox-active entries
    (|P_ij| > mu / w_i; entries exactly at the kink take 0), then A(dV).
    Self-adjoint and positive semidefinite on symmetric matrices.
    """
    w = metric.weights()
    P = X.data - (grad_f - 2.0 * (X.data @ lam)) / w[:, None]
    mask = np.abs(P) > (mu / w)[:, None]
    dV = mask * ((2.0 * (X.data @ D)) / w[:, None])
    return dV.T @ X.data + X.data.T @ dV


@dataclass
class SubproblemResult:
    """Solution bundle: direction, multiplier, dual residual, iteration stats."""

    v: TangentVector
    lam: np.ndarray
    residual_norm: float
    ssn_iters: int
    converged: bool
    residual_history: list[float]


def _cg_symmetric(apply_op, rhs: np.ndarray, rel_tol: float, max_iter: int) -> np.ndarray:
    """Conjugate gradients for a self-adjoint PD operator on symmetric matrices."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    b_norm = math.sqrt(np.vdot(rhs, rhs))
    if b_norm == 0.0:
        return x
    p = r.copy()
    rs = np.vdot(r, r)
    for _ in range(max_iter):
        if math.sqrt(rs) <= rel_tol * b_norm:
            break
        Ap = apply_op(p)
        pAp = np.vdot(p, Ap)
        if pAp <= 0.0:
            break
        alpha = rs / pAp
        x += alpha * p
        r -= alpha * Ap
        rs_new = np.vdot(r, r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


class _NewtonPlan(NamedTuple):
    """Where the entries of the assembled Newton matrix come from, for one r.

    Coordinate a is entry (rows[a], cols[a]) of the upper triangle, scaled by
    coord[a] (1 on the diagonal, sqrt(2) off it). Entry (a, b) of the matrix
    is weight[a, b] * (K[index[0, a, b]] + K[index[1, a, b]]) for the flat
    r^3 array K[l, k, p] of the column blocks, so one gather fills it.
    """

    rows: np.ndarray
    cols: np.ndarray
    coord: np.ndarray
    index: np.ndarray
    weight: np.ndarray


@functools.lru_cache(maxsize=None)
def _newton_plan(r: int) -> _NewtonPlan:
    """The gather plan of the Newton matrix for r columns (read-only arrays).

    With basis matrices B_a (E_kk, or (E_kl + E_lk)/sqrt(2)), the operator
    D -> M + M^T, M[:, l] = K_l D[:, l], has matrix entries
    <B_a, M(B_b) + M(B_b)^T> = 2 <B_a, M(B_b)>: the sum of 2 c_a c_b K_l[k, p]
    over the nonzero entries (k, l) of B_a and (p, l) of B_b in a shared
    column l, where c_a = 1/coord[a] is the value of those entries. At most
    two such pairs exist; a single one is listed twice at half weight, and an
    entry with none gets weight 0.
    """
    rows, cols = np.triu_indices(r)
    m = rows.size
    coord = np.where(rows == cols, 1.0, math.sqrt(2.0))
    entries = [{(k, l) for k, l in ((i, j), (j, i))} for i, j in zip(rows, cols)]
    index = np.zeros((2, m, m), dtype=np.intp)
    weight = np.zeros((m, m))
    for a in range(m):
        for b in range(m):
            terms = [l * r * r + k * r + p for k, l in entries[a] for p, lb in entries[b] if lb == l]
            if terms:
                index[:, a, b] = (terms * 2)[:2]
                weight[a, b] = len(terms) / (coord[a] * coord[b])
    for arr in (rows, cols, coord, index, weight):
        arr.flags.writeable = False
    return _NewtonPlan(rows, cols, coord, index, weight)


def _row_outer(Xa: np.ndarray) -> np.ndarray:
    """Row outer products X_i X_i^T, flattened to an n x r^2 array."""
    n, r = Xa.shape
    return (Xa[:, :, None] * Xa[:, None, :]).reshape(n, r * r)


def _newton_matrix(XX: np.ndarray, active: np.ndarray, eta: float) -> np.ndarray:
    """Matrix of D -> A(active o (X D)) + eta D in the coordinates of _newton_plan.

    XX holds the row outer products of X (see _row_outer), active the n x r
    scaled prox-active mask J o (2/w). Symmetric, and positive definite for
    eta > 0.
    """
    plan = _newton_plan(active.shape[1])
    K = (active.T @ XX).ravel()
    H = plan.weight * K[plan.index].sum(axis=0)
    H.flat[:: H.shape[0] + 1] += eta
    return H


def _direct_step(XX: np.ndarray, active: np.ndarray, eta: float, E: np.ndarray) -> np.ndarray:
    """Exact solution D of (Jac + eta I) D = -E through the assembled matrix."""
    r = E.shape[0]
    plan = _newton_plan(r)
    y = np.linalg.solve(_newton_matrix(XX, active, eta), -E[plan.rows, plan.cols] * plan.coord)
    y /= plan.coord
    D = np.empty((r, r))
    D[plan.rows, plan.cols] = y
    D[plan.cols, plan.rows] = y
    return D


def ssn_solve(
    X: StiefelPoint,
    grad_f: np.ndarray,
    metric: DiagonalMetric,
    mu: float,
    lam0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> SubproblemResult:
    """Drive ||E(L)||_F below tol by regularized semismooth Newton steps.

    Each step solves (Jac + eta I) dL = -E (eta ~ 0.2 ||E||^{1/2}), exactly
    through the assembled r(r+1)/2 x r(r+1)/2 matrix for r <= _DIRECT_MAX_R,
    and otherwise inexactly by CG (relative tolerance min(0.1, ||E||), at most
    r(r+1)/2 iterations). It accepts the trial, halving it if
    needed, once it shrinks the residual by a fixed factor. Otherwise the
    full trial is recycled into a hyperplane-projection step
    L - <E(u), L-u>/||E(u)||^2 E(u), which moves strictly closer to the
    solution set of the monotone equation even when the Jacobian element is
    (near) singular; a verified fixed-point step L - t E(L) covers the
    remaining degenerate case. The returned direction is the exact tangent
    projection of V(L), so tangency holds to machine precision even when the
    dual loop stops early (converged=False, best iterate returned).
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    Xa = X.data
    r = X.r
    w = metric.weights()
    if np.any(w <= 0):
        raise ValueError("metric weights must be strictly positive")
    base = Xa - grad_f / w[:, None]
    thresh = (mu / w)[:, None]
    scale = (2.0 / w)[:, None]
    lam = _sym(np.asarray(lam0, dtype=float)) if lam0 is not None else np.zeros((r, r))

    def fields(L):
        P = base + scale * (Xa @ L)
        V = np.sign(P) * np.maximum(np.abs(P) - thresh, 0.0) - Xa if mu > 0 else P - Xa
        E = V.T @ Xa + Xa.T @ V
        return P, V, E

    P, V, E = fields(lam)
    res = float(np.linalg.norm(E))
    history = [res]
    best_res, best_lam, best_V = res, lam, V
    iters = 0
    converged = res <= tol
    direct = r <= _DIRECT_MAX_R
    XX = _row_outer(Xa) if direct and not converged else None
    cg_cap = max(1, r * (r + 1) // 2)

    while not converged and iters < max_iter:
        iters += 1
        active = (np.abs(P) > thresh) * scale
        eta = min(max(_ETA_SCALE * math.sqrt(res), _ETA_MIN), _ETA_MAX)
        if direct:
            step = _direct_step(XX, active, eta, E)
        else:

            def newton_op(D, active=active, eta=eta):
                M = Xa.T @ (active * (Xa @ D))
                return M + M.T + eta * D

            step = _cg_symmetric(newton_op, -E, rel_tol=min(0.1, res), max_iter=cg_cap)
        u = _sym(lam + step)
        Pu, Vu, Eu = fields(u)
        res_u = float(np.linalg.norm(Eu))
        accepted = False
        if res_u <= _NEWTON_ACCEPT * res:
            lam, P, V, E, res = u, Pu, Vu, Eu, res_u
            accepted = True
        if not accepted:
            # halved Newton trials, then a hyperplane projection built from the
            # full trial (moves toward the solution set of the monotone
            # equation even with a singular Jacobian element), then a verified
            # fixed-point step
            st = 0.5 * step
            for _ in range(_MAX_BACKTRACKS):
                cand = _sym(lam + st)
                Pc, Vc, Ec = fields(cand)
                res_c = float(np.linalg.norm(Ec))
                if res_c <= _NEWTON_ACCEPT * res:
                    lam, P, V, E, res = cand, Pc, Vc, Ec, res_c
                    accepted = True
                    break
                st *= 0.5
        if not accepted:
            gap = float(np.sum(Eu * (lam - u)))
            if gap > 0.0 and res_u > 0.0:
                cand = _sym(lam - (gap / (res_u * res_u)) * Eu)
                Pc, Vc, Ec = fields(cand)
                lam, P, V, E = cand, Pc, Vc, Ec
                res = float(np.linalg.norm(Ec))
                accepted = True
        if not accepted:
            t = 0.5
            for _ in range(_MAX_BACKTRACKS + 1):
                cand = _sym(lam - t * E)
                Pc, Vc, Ec = fields(cand)
                res_c = float(np.linalg.norm(Ec))
                if res_c <= res:
                    lam, P, V, E, res = cand, Pc, Vc, Ec, res_c
                    accepted = True
                    break
                t *= 0.5
        if not accepted:
            break
        history.append(res)
        if res < best_res:
            best_res, best_lam, best_V = res, lam, V
        converged = res <= tol
        # degenerate-valley bailout: once the residual is far below its
        # starting scale, two consecutive near-stagnant steps mean the
        # remainder lives in a null direction of the Jacobian along which the
        # primal direction V(L) no longer changes; the best iterate is
        # already as good as this solve will get
        if (
            len(history) >= 3
            and res <= 1e-3 * max(1.0, history[0])
            and history[-1] >= _STALL_FACTOR * history[-2]
            and history[-2] >= _STALL_FACTOR * history[-3]
        ):
            break

    if not converged and best_res < res:
        res, lam, V = best_res, best_lam, best_V
    v = TangentVector(_project(Xa, V), X)
    return SubproblemResult(v, lam, res, iters, converged, history)
