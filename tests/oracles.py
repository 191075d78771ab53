"""Slow independent references used to pin expected values in the tests.

Nothing here shares code with the library paths it checks: the
compressed-modes operator is a dense matrix written from its formula,
projections go through an explicit tangent basis, the quasi-Newton diagonal
through the dense n x n recursion, the subproblem through a dense KKT
solve (smooth case) or a three-operator proximal splitting iteration (l1
case), and its dual value through the textbook soft threshold.
"""

import math

import numpy as np


def cm_operator(n: int) -> np.ndarray:
    """Dense compressed-modes H: -1/2 of the periodic central-difference
    Laplacian on [0, 50] with n points, (n/50)^2 on the diagonal and
    -(n/50)^2 / 2 on the two cyclic neighbours of each row."""
    inv = (n / 50.0) ** 2
    H = np.zeros((n, n))
    for i in range(n):
        H[i, i] = inv
        H[i, (i - 1) % n] = H[i, (i + 1) % n] = -0.5 * inv
    return H


def tangent_basis(X: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent space at X, as columns of an nr x d matrix.

    Built by projecting every canonical basis matrix and orthonormalizing the
    vectorized results; d = nr - r(r+1)/2.
    """
    n, r = X.shape
    cols = []
    for i in range(n):
        for j in range(r):
            E = np.zeros((n, r))
            E[i, j] = 1.0
            XtE = X.T @ E
            P = E - X @ ((XtE + XtE.T) * 0.5)
            cols.append(P.reshape(-1))
    A = np.column_stack(cols)
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    d = n * r - r * (r + 1) // 2
    assert np.sum(s > 1e-10 * s[0]) == d, "unexpected tangent space dimension"
    return U[:, :d]


def project_by_basis(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Least-squares projection of M onto the tangent space via the basis."""
    B = tangent_basis(X)
    v = M.reshape(-1)
    return (B @ (B.T @ v)).reshape(M.shape)


def dense_lbfgs_matrix(pairs, theta: float, n: int) -> np.ndarray:
    """The n x n quasi-Newton matrix built densely from theta*I and the pairs.

    Mirrors the matrix-free recursion's skip rule for degenerate curvature.
    """
    B = theta * np.eye(n)
    for p in pairs:
        Bs = B @ p.s
        c = float(np.sum(p.s * Bs))
        if c <= 1e-12 * float(np.sum(p.s * p.s)):
            continue
        B = B - (Bs @ Bs.T) / c + (p.y_damped @ p.y_damped.T) / p.s_dot_y
    return B


def dense_lbfgs_diag(pairs, theta: float, n: int) -> np.ndarray:
    """diag of dense_lbfgs_matrix(pairs, theta, n)."""
    return np.diag(dense_lbfgs_matrix(pairs, theta, n)).copy()


def subproblem_value(X, G, w, mu, V) -> float:
    """phi(V) = <G, V> + 1/2 tr(V^T diag(w) V) + mu ||X + V||_1."""
    return (
        float(np.sum(G * V))
        + 0.5 * float(np.sum(w[:, None] * V * V))
        + mu * float(np.abs(X + V).sum())
    )


def dual_value(X, G, w, mu, L) -> float:
    """Lagrangian dual of the subproblem at a symmetric multiplier L.

    phi(L) = min_V phi(V) - <L, V^T X + X^T V>, whose minimizer is the
    row-weighted soft threshold of X - (G - 2 X L) / w, shifted by -X.
    """
    shifted = X - (G - 2.0 * X @ L) / w[:, None]
    V = np.sign(shifted) * np.maximum(np.abs(shifted) - (mu / w)[:, None], 0.0) - X
    return subproblem_value(X, G, w, mu, V) - float(np.sum(L * (V.T @ X + X.T @ V)))


def kkt_direction(X: np.ndarray, G: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Smooth-case (mu = 0) subproblem solution from the dense KKT system.

    In tangent-basis coordinates the problem is an unconstrained convex
    quadratic: c* = -(B^T W B)^{-1} B^T vec(G).
    """
    n, r = X.shape
    B = tangent_basis(X)
    W = np.repeat(w, r)  # row-major vec: weight of entry (i, j) is w[i]
    M = B.T @ (W[:, None] * B)
    b = B.T @ G.reshape(-1)
    c = np.linalg.solve(M, -b)
    return (B @ c).reshape(n, r)


def splitting_direction(
    X: np.ndarray,
    G: np.ndarray,
    w: np.ndarray,
    mu: float,
    max_iter: int = 200000,
    tol: float = 1e-12,
) -> np.ndarray:
    """Subproblem solution by Davis-Yin three-operator splitting.

    Splits the objective into the tangent-space indicator (prox = projection),
    the shifted l1 term (prox = soft threshold around -X), and the smooth
    quadratic (gradient step). Converges to the exact constrained minimizer
    for step sizes below 2/max(w); slow but entirely independent of the dual
    semismooth-Newton path.
    """
    n, r = X.shape
    gamma = 1.0 / float(np.max(w))
    z = np.zeros((n, r))
    xB = z
    for _ in range(max_iter):
        XtZ = X.T @ z
        xB = z - X @ ((XtZ + XtZ.T) * 0.5)
        grad = G + w[:, None] * xB
        y = 2.0 * xB - z - gamma * grad
        if mu > 0:
            shifted = y + X
            xA = np.sign(shifted) * np.maximum(np.abs(shifted) - gamma * mu, 0.0) - X
        else:
            xA = y
        step = xA - xB
        z = z + step
        if float(np.linalg.norm(step)) <= tol * max(1.0, float(np.linalg.norm(xB))):
            break
    return xB


def cg_symmetric_reference(apply_op, rhs, diag, rel_tol, max_iter):
    """Jacobi-preconditioned CG as the library wrote it when it tested the
    residual at the top of every iteration: (x, operator applications).

    Kept frozen, so that a rewrite of the loop can be checked against it bit
    for bit.
    """
    x = np.zeros(rhs.shape)
    r = rhs.copy()
    b_norm = math.sqrt(np.vdot(rhs, rhs))
    z = r / diag
    p = z
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
