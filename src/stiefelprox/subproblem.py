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
symmetric dL. L carries the units of w and the Jacobian those of 1/w, so eta
is measured in 2/mean(w), which makes the iteration invariant under rescaling
the objective. Column block l of the Jacobian is K_l = X^T diag(m_l) X, where
m_l = J_l * 2/w is column l of the prox-active mask J scaled by the weights.
The system is symmetric positive definite, and the step comes from
matrix-free conjugate gradients preconditioned by its exact diagonal in
orthonormal symmetric coordinates (diagonal entries, sqrt(2) x off-diagonal
ones), which costs one r x n x r product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .metric import DiagonalMetric
from .stiefel import StiefelPoint, TangentVector, project_tangent

# Newton globalization constants: residual-reduction acceptance, CG forcing,
# regularization window for the generalized Jacobian.
_NEWTON_ACCEPT = 1.0 - 1e-4
_ETA_SCALE = 0.2
_ETA_MIN = 1e-12
_ETA_MAX = 1e-2
_MAX_BACKTRACKS = 10
_STALL_FACTOR = 0.5


def _fields(
    Xa: np.ndarray,
    base: np.ndarray,
    scale: np.ndarray,
    thresh: np.ndarray,
    neg_thresh: np.ndarray,
    L: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dual map at a symmetric multiplier L: (P, V(L), E(L)).

    P = base + scale o (X L) is the prox argument, with base = X - G/w and
    scale = 2/w per row (the adjoint of A on symmetric L is A*(L) = 2 X L).
    V = prox(P) - X, where prox soft-thresholds entry (i, j) at thresh_i =
    mu/w_i as P - clip(P, -thresh_i, thresh_i) (neg_thresh = -thresh); this
    rounds exactly like sign(P) max(|P| - thresh, 0), and at thresh = 0 it
    returns P exactly, so the smooth case mu = 0 needs no branch.
    E = A(V) = V^T X + X^T V is zero exactly when V is tangent at X; it is
    formed as M + M^T from the one product M = V^T X, so it is exactly
    symmetric.
    """
    P = base + scale * (Xa @ L)
    V = P - np.minimum(np.maximum(P, neg_thresh), thresh) - Xa
    M = V.T @ Xa
    return P, V, M + M.T


def _jacobian(Xa: np.ndarray, active: np.ndarray, eta: float, D: np.ndarray) -> np.ndarray:
    """(Jac + eta I) applied to a symmetric D, for one generalized Jacobian of E.

    active = J o scale, with J the 0/1 mask of prox-active entries
    (|P_ij| > thresh_i; entries exactly at the kink take 0), so the Jacobian
    maps D to A(active o (X D)). Self-adjoint and positive semidefinite on
    symmetric matrices; eta > 0 makes it definite.
    """
    M = Xa.T @ (active * (Xa @ D))
    return M + M.T + eta * D


@dataclass
class SubproblemResult:
    """Solution bundle: direction, multiplier, dual residual, iteration stats."""

    v: TangentVector
    lam: np.ndarray
    residual_norm: float
    ssn_iters: int
    # why the loop ended: "converged", "max_iter", "bailout" (the
    # degenerate-valley or roundoff-floor exit) or "no_step" (no Newton,
    # projection or fixed-point step was accepted)
    stop: str
    cg_iters: int = 0  # CG iterations over all Newton steps
    halvings: int = 0  # halved Newton trials evaluated
    projections: int = 0  # hyperplane-projection steps taken
    fixed_points: int = 0  # fixed-point steps accepted

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


def _cg_symmetric(
    apply_op, rhs: np.ndarray, diag: np.ndarray, rel_tol: float, max_iter: int
) -> tuple[np.ndarray, int]:
    """Jacobi-preconditioned conjugate gradients on symmetric matrices: (x, iterations).

    apply_op is self-adjoint and positive definite on symmetric matrices, and
    diag (symmetric, positive) holds its diagonal in the orthonormal basis
    E_kk, (E_kl + E_lk)/sqrt(2) at entries (k, k) and (k, l); the
    preconditioner divides entrywise by it. Stops once the unpreconditioned
    residual satisfies ||rhs - apply_op(x)|| <= rel_tol ||rhs||, after
    max_iter iterations, or when the curvature <p, apply_op(p)> is not
    positive. The count is that of operator applications.
    """
    x = np.zeros(rhs.shape)
    r = rhs.copy()
    b_norm = math.sqrt(np.vdot(rhs, rhs))
    if b_norm == 0.0:
        return x, 0
    z = r / diag
    p = z  # z is rebound below, never written in place
    rz = np.vdot(r, z)
    for it in range(max_iter):
        if math.sqrt(np.vdot(r, r)) <= rel_tol * b_norm:
            return x, it
        Ap = apply_op(p)
        pAp = np.vdot(p, Ap)
        if pAp <= 0.0:
            return x, it + 1
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = r / diag
        rz_new = np.vdot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, max_iter


def _jacobi_diag(X2: np.ndarray, active: np.ndarray, eta: float) -> np.ndarray:
    """Diagonal of D -> _jacobian(X, active, eta, D) in the orthonormal symmetric basis.

    X2 = X o X. With Q = (X o X)^T active, Q[k, l] = K_l[k, k], and the
    diagonal entry of the basis matrix at (k, l) is Q[k, l] + Q[l, k] + eta
    (2 K_k[k, k] + eta on the diagonal). It is >= eta > 0.
    """
    Q = X2.T @ active
    return Q + Q.T + eta


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

    Each step solves (Jac + eta I) dL = -E (eta ~ 0.2 ||E||^{1/2} in units of
    2/mean(w), so scaling G, w, mu and lam0 by a power of two scales lam and
    leaves the rest bitwise unchanged) inexactly, by Jacobi-preconditioned CG
    to an unpreconditioned residual below min(0.1 ||E||, max(||E||^2, 0.1 tol))
    in at most r(r+1)/2 iterations. It accepts the trial, halving it if needed,
    once it shrinks the residual by a fixed factor. Otherwise the full trial u
    is recycled into a hyperplane-projection step
    L - <E(u), L-u>/||E(u)||^2 E(u), which moves strictly closer to the
    solution set of the monotone equation even when the Jacobian element is
    (near) singular; a verified fixed-point step L - t E(L) (t in units of
    mean(w)/2) covers the remaining degenerate case; the result counts both
    fallbacks. Far below the starting residual, the loop also stops once two
    steps stagnate or make no progress (a cycle at the roundoff floor). The
    returned direction is the exact tangent projection of V(L), so tangency
    holds to machine precision even when the dual loop stops early
    (converged=False, best iterate returned); the result's stop names the exit.
    A misshapen grad_f or lam0, or a non-finite one, raises ValueError.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    # negated comparisons, so that a nan mu, tol or weight fails them too
    if not mu >= 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    Xa = X.data
    r = X.r
    lam = np.zeros((r, r)) if lam0 is None else np.asarray(lam0, dtype=float)
    if np.shape(grad_f) != Xa.shape or lam.shape != (r, r):
        raise ValueError(f"grad_f {np.shape(grad_f)} and lam0 {lam.shape} must be {Xa.shape} and {(r, r)}")
    lam = 0.5 * (lam + lam.T)
    w = metric.weights()
    if not (w > 0).all():
        raise ValueError("metric weights must be strictly positive")
    base = Xa - grad_f / w[:, None]
    thresh = (mu / w)[:, None]
    scale = (2.0 / w)[:, None]
    jac_unit = 2.0 * w.size / float(w.sum())  # 2/mean(w), the Jacobian's unit
    fields = functools.partial(_fields, Xa, base, scale, thresh, -thresh)

    P, V, E = fields(lam)
    res = math.sqrt(np.vdot(E, E))
    if not math.isfinite(res):
        raise ValueError(f"dual residual {res} at the start: grad_f and lam0 must be finite")
    # for the bailout: its threshold and the accepted residuals one and two
    # steps back (inf until there are two steps)
    bail_below, res_older, res_old = 1e-3 * max(1.0, res), math.inf, res
    best_res, best_lam, best_V = res, lam, V
    iters = cg_iters = halvings = projections = fixed_points = 0
    converged = res <= tol
    X2 = Xa * Xa  # for the Jacobi diagonal of every step
    cg_cap = max(1, r * (r + 1) // 2)
    stop = "max_iter"  # unless the loop breaks or converges

    while not converged and iters < max_iter:
        iters += 1
        active = (np.abs(P) > thresh) * scale
        eta = min(max(_ETA_SCALE * math.sqrt(res), _ETA_MIN), _ETA_MAX) * jac_unit
        newton_op = functools.partial(_jacobian, Xa, active, eta)
        diag = _jacobi_diag(X2, active, eta)
        # forcing like ||E||^2, but a linear residual of 0.1 tol already reaches tol
        rel_tol = min(0.1, max(res, 0.1 * tol / res))
        st, cg_step = _cg_symmetric(newton_op, -E, diag, rel_tol=rel_tol, max_iter=cg_cap)
        cg_iters += cg_step
        # the Newton trial and its halvings, then a hyperplane projection built
        # from the full trial u, then a verified fixed-point step; lam, E and
        # every step are exactly symmetric, so each candidate is too
        accepted = False
        for j in range(_MAX_BACKTRACKS + 1):
            cand = lam + st
            Pc, Vc, Ec = fields(cand)
            res_c = math.sqrt(np.vdot(Ec, Ec))
            if j == 0:
                u, Eu, res_u = cand, Ec, res_c
            if res_c <= _NEWTON_ACCEPT * res:
                lam, P, V, E, res = cand, Pc, Vc, Ec, res_c
                accepted = True
                break
            st = 0.5 * st
        halvings += j
        if not accepted:
            gap = float((Eu * (lam - u)).sum())
            if gap > 0.0 and res_u > 0.0:
                cand = lam - (gap / (res_u * res_u)) * Eu
                Pc, Vc, Ec = fields(cand)
                lam, P, V, E = cand, Pc, Vc, Ec
                res = math.sqrt(np.vdot(Ec, Ec))
                accepted = True
                projections += 1
        if not accepted:
            t = 0.5 / jac_unit
            for _ in range(_MAX_BACKTRACKS + 1):
                cand = lam - t * E
                Pc, Vc, Ec = fields(cand)
                res_c = math.sqrt(np.vdot(Ec, Ec))
                if res_c <= res:
                    lam, P, V, E, res = cand, Pc, Vc, Ec, res_c
                    accepted = True
                    fixed_points += 1
                    break
                t *= 0.5
        if not accepted:
            stop = "no_step"
            break
        if res < best_res:
            best_res, best_lam, best_V = res, lam, V
        converged = res <= tol
        # degenerate-valley bailout: once the residual is far below its
        # starting scale, two consecutive near-stagnant steps mean the
        # remainder lives in a null direction of the Jacobian along which the
        # primal direction V(L) no longer changes, and no progress over two
        # steps means a cycle at the roundoff floor (only a hyperplane step
        # can raise the residual); either way the best iterate is already as
        # good as this solve will get
        if res <= bail_below and (
            res >= res_older or (res >= _STALL_FACTOR * res_old and res_old >= _STALL_FACTOR * res_older)
        ):
            stop = "bailout"
            break
        res_older, res_old = res_old, res

    if converged:
        stop = "converged"
    elif best_res < res:
        res, lam, V = best_res, best_lam, best_V
    counts = (cg_iters, halvings, projections, fixed_points)
    return SubproblemResult(project_tangent(X, V), lam, res, iters, stop, *counts)
