"""Tangent-space proximal quadratic subproblem solved through its dual.

At a point X the search direction solves

    min_{V tangent at X}  <G, V> + 1/2 tr(V^T diag(w) V) + mu ||X + V||_1,

with w = d + sigma the metric weights. Dualizing the tangency constraint
A(V) = V^T X + X^T V = 0 with a symmetric multiplier L gives the inner
minimizer

    V(L) = prox(X - (G - 2 X L) / w) - X,

where prox is row-weighted soft thresholding, and the dual root-finding
problem E(L) := A(V(L)) = 0. The dual objective

    phi(L) = <G, V> + 1/2 tr(V^T diag(w) V) + mu ||X + V||_1 - <L, E>  at V = V(L)

is concave with gradient -E (Danskin), so each Newton step is an ascent
direction of phi, and a backtracking Armijo search on phi globalizes the
semismooth Newton iteration (Zhao, Sun & Toh, SIAM J. Optim. 2010; Li, Sun &
Toh, SIAM J. Optim. 2018).

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
from typing import NamedTuple

import numpy as np

from ._checks import check_integer, check_real
from .stiefel import StiefelPoint, TangentVector, project_tangent

# Newton globalization constants: residual-reduction acceptance, Armijo slope
# of the dual ascent test and halvings per Newton step, the unit roundoff u,
# regularization window for the generalized Jacobian.
_NEWTON_ACCEPT = 1.0 - 1e-4
_ARMIJO = 1e-4
_MAX_HALVINGS = 40
_UNIT_ROUNDOFF = 0.5 * float(np.finfo(float).eps)
_ETA_SCALE = 0.2
_ETA_MIN = 1e-12
_ETA_MAX = 1e-2


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
    scale = 2/w per row (the adjoint of A on symmetric L is A*(L) = 2 X L);
    scale, thresh and neg_thresh are (n, 1) columns or spread to n x r.
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


def _dual_rise(
    Xa: np.ndarray, w: np.ndarray, thresh: np.ndarray, clip: np.ndarray, V: np.ndarray,
    step: np.ndarray, Vc: np.ndarray, Ec: np.ndarray,
) -> float:
    """phi(L + step) - phi(L) from the fields V = V(L) and Vc, Ec at L + step.

    With clip = clip(P(L), -thresh, thresh) the prox optimality of V reads
    G - 2 X L + w o V = -w o clip, and expanding phi(L + step) around V with
    D = Vc - V and Y = X + Vc gives, without cancellation between two values,

        -<Ec, step> + sum_i w_i sum_j (D^2/2 + thresh |Y| - clip Y)_ij,

    whose sum is nonnegative and exactly zero on entries that keep their sign.
    """
    Y = Xa + Vc
    D = Vc - V
    return float(w @ (0.5 * D * D + thresh * np.abs(Y) - clip * Y).sum(axis=1) - np.vdot(Ec, step))


class SubproblemResult(NamedTuple):
    """Solution bundle: direction, multiplier, dual residual, iteration stats."""

    v: TangentVector
    lam: np.ndarray
    residual_norm: float
    ssn_iters: int
    # why the loop ended: "converged", "max_iter" or "no_step" (no halving of
    # the Newton step passed the residual or the dual ascent test)
    stop: str
    cg_iters: int  # CG iterations over all Newton steps
    halvings: int  # halved Newton trials evaluated

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
    b_norm = math.sqrt(np.vdot(rhs, rhs))
    tol = rel_tol * b_norm
    if b_norm <= tol:
        return x, 0
    r = rhs.copy()
    z = r / diag
    p = z  # z is rebound below, never written in place
    rz = np.vdot(r, z)
    for it in range(1, max_iter + 1):
        Ap = apply_op(p)
        pAp = np.vdot(p, Ap)
        if pAp <= 0.0:
            return x, it
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if math.sqrt(np.vdot(r, r)) <= tol:
            return x, it
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
    w: np.ndarray,
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
    in at most r(r+1)/2 iterations. It accepts the first trial L + t dL,
    t = 1, 1/2, ..., 2^-40, that shrinks the residual by a fixed factor or,
    failing that, raises the dual objective phi by 1e-4 t <-E, dL> and by more
    than n r u times the magnitude of phi's terms, the worst-case rounding
    error of summing phi's n r entries (u the unit roundoff): a smaller rise
    is below phi's own resolution. The rise is evaluated only for trials that
    fail the residual test. The loop ends "converged", "max_iter", or
    "no_step" when no trial passes; short of convergence it returns the
    iterate of least residual. The direction is the exact tangent projection
    of V(L), so tangency holds to machine precision however the loop ends.
    w holds the n positive metric weights, d + sigma. A misshapen grad_f,
    lam0 or w, a non-finite grad_f or lam0, or a starting residual that
    overflows, raises ValueError.
    """
    if not isinstance(X, StiefelPoint):
        raise ValueError(f"X must be a StiefelPoint, got {type(X).__name__}")
    check_integer("max_iter", max_iter, 1)
    check_real("mu", mu, 0)
    # negated comparisons, so that a nan tol or weight fails them too
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    Xa = X.data
    r = X.r
    lam = np.zeros((r, r)) if lam0 is None else np.asarray(lam0, dtype=float)
    if np.shape(grad_f) != Xa.shape or lam.shape != (r, r):
        raise ValueError(f"grad_f {np.shape(grad_f)} and lam0 {lam.shape} must be {Xa.shape} and {(r, r)}")
    lam = 0.5 * (lam + lam.T)
    if np.shape(w) != (X.n,):
        raise ValueError(f"metric weights have shape {np.shape(w)}, X needs {(X.n,)}")
    if not (w > 0).all():
        raise ValueError("metric weights must be strictly positive")
    # the weights spread over X's n x r shape, so that no elementwise op below
    # broadcasts a column (each entry is w_i, so every value is unchanged)
    w_full = np.empty_like(Xa)
    w_full[:] = w[:, None]
    base = Xa - grad_f / w_full
    thresh = mu / w_full
    neg_thresh = -thresh
    scale = 2.0 / w_full
    jac_unit = 2.0 * w.size / float(w.sum())  # 2/mean(w), the Jacobian's unit
    fields = functools.partial(_fields, Xa, base, scale, thresh, neg_thresh)

    P, V, E = fields(lam)
    res = math.sqrt(np.vdot(E, E))
    if not math.isfinite(res):
        if np.isfinite(grad_f).all() and np.isfinite(lam).all():
            raise ValueError(f"dual residual overflowed to {res} at the start, with grad_f and lam0 finite")
        raise ValueError(f"dual residual {res} at the start: grad_f and lam0 must be finite")
    best_res, best_lam, best_V = res, lam, V
    iters = cg_iters = halvings = 0
    stop = "converged" if res <= tol else "max_iter"  # until the loop converges or breaks
    X2 = Xa * Xa  # for the Jacobi diagonal of every step
    cg_cap = r * (r + 1) // 2

    while stop == "max_iter" and iters < max_iter:
        iters += 1
        active = (np.abs(P) > thresh) * scale
        eta = min(max(_ETA_SCALE * math.sqrt(res), _ETA_MIN), _ETA_MAX) * jac_unit
        newton_op = functools.partial(_jacobian, Xa, active, eta)
        diag = _jacobi_diag(X2, active, eta)
        # forcing like ||E||^2, but a linear residual of 0.1 tol already reaches tol
        rel_tol = min(0.1, max(res, 0.1 * tol / res))
        st, cg_step = _cg_symmetric(newton_op, -E, diag, rel_tol=rel_tol, max_iter=cg_cap)
        cg_iters += cg_step
        # the trial and its halvings, each exactly symmetric like lam and E;
        # the ascent test's clipped prox argument, slope <-E, dL> and bound
        # on phi's rounding error are built once a trial fails the residual test
        clip = None
        for j in range(_MAX_HALVINGS + 1):
            cand = lam + st
            Pc, Vc, Ec = fields(cand)
            res_c = math.sqrt(np.vdot(Ec, Ec))
            if res_c <= _NEWTON_ACCEPT * res:
                break
            if clip is None:
                clip = np.minimum(np.maximum(P, neg_thresh), thresh)
                slope = -float(np.vdot(E, st))
                terms = abs(np.vdot(grad_f, V)) + 0.5 * (w @ (V * V).sum(axis=1)) + abs(np.vdot(lam, E))
                rounding = _UNIT_ROUNDOFF * Xa.size * float(terms + mu * np.abs(Xa + V).sum())
            rise = _dual_rise(Xa, w, thresh, clip, V, st, Vc, Ec)
            if rise >= _ARMIJO * slope * 0.5**j and rise > rounding:
                break
            st = 0.5 * st
        else:
            halvings += _MAX_HALVINGS
            stop = "no_step"
            break
        halvings += j
        lam, P, V, E, res = cand, Pc, Vc, Ec, res_c
        if res < best_res:
            best_res, best_lam, best_V = res, lam, V
        stop = "converged" if res <= tol else "max_iter"

    if stop != "converged" and best_res < res:
        res, lam, V = best_res, best_lam, best_V
    return SubproblemResult(project_tangent(X, V), lam, res, iters, stop, cg_iters, halvings)
