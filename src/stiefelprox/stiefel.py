"""Stiefel manifold geometry: feasibility, tangent projection, retractions.

Points live on St(n, r) = {X in R^{n x r} : X^T X = I_r}; tangent vectors at X
satisfy V^T X + X^T V = 0. Three retractions are provided (polar/SVD, QR with a
fixed sign convention, Cayley via a low-rank Woodbury solve).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

FEASIBILITY_TOL = 1e-10
TANGENCY_TOL = 1e-8


class RetractionKind(Enum):
    SVD = "svd"
    QR = "qr"
    CAYLEY = "cayley"


def _feasibility(X: np.ndarray) -> float:
    r = X.shape[1]
    return float(np.linalg.norm(X.T @ X - np.eye(r)))


def _polar_factor(A: np.ndarray) -> np.ndarray:
    U, _, Vt = np.linalg.svd(A, full_matrices=False)
    return U @ Vt


def _qf(A: np.ndarray) -> np.ndarray:
    """Q factor of the thin QR decomposition, sign-fixed so diag(R) > 0."""
    Q, R = np.linalg.qr(A)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def _project(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    # Proj M = M - X sym(X^T M), sym(A) = (A + A^T)/2
    XtM = X.T @ M
    return M - X @ ((XtM + XtM.T) * 0.5)


class StiefelPoint:
    """An n x r matrix with orthonormal columns.

    Construction re-orthonormalizes through the polar factor whenever the
    feasibility residual ||X^T X - I||_F exceeds 1e-10; this contains drift
    over very long iteration counts. Non-finite entries raise ValueError. The
    stored array is read-only.
    """

    __slots__ = ("data", "n", "r")

    def __init__(self, data: np.ndarray) -> None:
        X = np.array(data, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"expected a 2-d array, got ndim={X.ndim}")
        n, r = X.shape
        if r > n:
            raise ValueError(f"need r <= n columns, got shape {X.shape}")
        feas = _feasibility(X)
        if not feas <= FEASIBILITY_TOL:
            # any nan or inf entry makes the residual non-finite, so finite
            # feasible input pays for no further check
            if not np.isfinite(X).all():
                raise ValueError("matrix has non-finite entries")
            X = _polar_factor(X)
        X.flags.writeable = False
        self.data = X
        self.n = n
        self.r = r

    def __repr__(self) -> str:
        return f"StiefelPoint(n={self.n}, r={self.r})"


class TangentVector:
    """An n x r direction V with V^T X + X^T V = 0, attached to its base point."""

    __slots__ = ("data", "base")

    def __init__(self, data: np.ndarray, base: StiefelPoint) -> None:
        V = np.array(data, dtype=float)
        if V.shape != base.data.shape:
            raise ValueError(
                f"tangent shape {V.shape} does not match base {base.data.shape}"
            )
        X = base.data
        skew = np.linalg.norm(V.T @ X + X.T @ V)
        if skew > TANGENCY_TOL * max(1.0, float(np.linalg.norm(V))):
            raise ValueError(f"matrix is not tangent at the base point (residual {skew:.3e})")
        V.flags.writeable = False
        self.data = V
        self.base = base

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def __repr__(self) -> str:
        return f"TangentVector(shape={self.data.shape}, norm={self.norm:.3e})"


def project_tangent(X: StiefelPoint, M: np.ndarray) -> TangentVector:
    """Orthogonal projection of an ambient matrix onto the tangent space at X."""
    M = np.asarray(M, dtype=float)
    if M.shape != X.data.shape:
        raise ValueError(f"shape mismatch: {M.shape} vs {X.data.shape}")
    return TangentVector(_project(X.data, M), X)


def riemannian_gradient(X: StiefelPoint, G: np.ndarray) -> TangentVector:
    """Riemannian gradient from the Euclidean gradient G at X (tangent projection)."""
    return project_tangent(X, G)


def _retract_svd(X: np.ndarray, D: np.ndarray) -> np.ndarray:
    return _polar_factor(X + D)


def _retract_qr(X: np.ndarray, D: np.ndarray) -> np.ndarray:
    return _qf(X + D)


def _retract_cayley(X: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Cayley transform (I - W/2)^{-1} (I + W/2) X with the rank-2r W(D).

    W(D) = P X^T - X P^T where P = (I - X X^T / 2) D, so W = U Vc^T with
    U = [P, X] and Vc = [X, -P]; the n x n solve reduces to a 2r x 2r
    Woodbury system, which is always nonsingular for skew W.
    """
    n, r = X.shape
    P = D - X @ ((X.T @ D) * 0.5)
    U = np.hstack((P, X))
    Vc = np.hstack((X, -P))
    # Z = (I + W/2) X, using X^T X = I
    Z = X + 0.5 * (P - X @ (P.T @ X))
    # Y = Z + U/2 (I - Vc^T U / 2)^{-1} Vc^T Z
    S = np.eye(2 * r) - 0.5 * (Vc.T @ U)
    rhs = Vc.T @ Z
    try:
        C = np.linalg.solve(S, rhs)
    except np.linalg.LinAlgError as exc:  # cannot happen for tangent D, see docstring
        raise np.linalg.LinAlgError(f"Cayley system is singular: {exc}") from exc
    return Z + 0.5 * (U @ C)


_RETRACTIONS = {
    RetractionKind.SVD: _retract_svd,
    RetractionKind.QR: _retract_qr,
    RetractionKind.CAYLEY: _retract_cayley,
}


def retract(X: StiefelPoint, xi: TangentVector, kind: RetractionKind = RetractionKind.SVD) -> StiefelPoint:
    """Map a tangent vector back onto the manifold; retract(X, 0) is X itself."""
    if not xi.data.any():
        return X
    return StiefelPoint(_RETRACTIONS[kind](X.data, xi.data))


def random_point(n: int, r: int, seed: int) -> StiefelPoint:
    """Orthonormalized QR factor of a seeded n x r standard Gaussian matrix."""
    if r > n:
        raise ValueError(f"need r <= n, got n={n}, r={r}")
    rng = np.random.default_rng(seed)
    return StiefelPoint(_qf(rng.standard_normal((n, r))))


def feasibility_residual(X) -> float:
    """||X^T X - I_r||_F for a StiefelPoint or a raw n x r array."""
    A = X.data if isinstance(X, StiefelPoint) else np.asarray(X, dtype=float)
    return _feasibility(A)
