"""Stiefel manifold geometry: feasibility, tangent projection, retractions.

Points live on St(n, r) = {X in R^{n x r} : X^T X = I_r}; tangent vectors at X
satisfy V^T X + X^T V = 0. Three retractions are provided (polar, through the
r x r Gram matrix; QR with a fixed sign convention; Cayley via a low-rank
Woodbury solve).
"""

from __future__ import annotations

import functools
import math
from enum import Enum

import numpy as np

FEASIBILITY_TOL = 1e-10
TANGENCY_TOL = 1e-8
# Gram condition number above which the polar retraction takes one refinement step
_GRAM_REFINE_COND = 1e2


class RetractionKind(Enum):
    SVD = "svd"
    QR = "qr"
    CAYLEY = "cayley"


@functools.lru_cache(maxsize=None)
def _identity(r: int) -> np.ndarray:
    eye = np.eye(r)
    eye.flags.writeable = False
    return eye


def _feasibility(X: np.ndarray) -> float:
    D = X.T @ X - _identity(X.shape[1])
    return math.sqrt(np.vdot(D, D))


def _polar_factor(A: np.ndarray) -> np.ndarray:
    """U V^T from the thin SVD of A; rank-deficient A, whose polar factor is
    not unique, raises ValueError (np.linalg.matrix_rank's default tolerance)."""
    U, sv, Vt = np.linalg.svd(A, full_matrices=False)
    if sv[-1] <= max(A.shape) * np.finfo(float).eps * sv[0]:
        raise ValueError(f"matrix is rank-deficient (singular values {sv[0]:.3e} to {sv[-1]:.3e})")
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
    over very long iteration counts. Non-finite entries and rank-deficient
    input, whose polar factor is not unique, raise ValueError. The stored
    array is read-only.
    """

    __slots__ = ("data", "n", "r")

    def __init__(self, data: np.ndarray) -> None:
        X = np.array(data, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"expected a 2-d array, got ndim={X.ndim}")
        n, r = X.shape
        if not 1 <= r <= n:
            raise ValueError(f"need 1 <= r <= n columns, got shape {X.shape}")
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
    """An n x r direction V with V^T X + X^T V = 0, attached to its base point.

    The constructor checks tangency; ``alpha * v`` is tangent without a re-check.
    """

    __slots__ = ("data", "base")

    def __init__(self, data: np.ndarray, base: StiefelPoint) -> None:
        V = np.array(data, dtype=float)
        if V.shape != base.data.shape:
            raise ValueError(
                f"tangent shape {V.shape} does not match base {base.data.shape}"
            )
        if not np.isfinite(V).all():
            raise ValueError("matrix has non-finite entries")
        X = base.data
        skew = float(np.linalg.norm(V.T @ X + X.T @ V))
        # entries above ~1e154 overflow both norms, so the bound can be inf
        if not (math.isfinite(skew) and skew <= TANGENCY_TOL * max(1.0, float(np.linalg.norm(V)))):
            raise ValueError(f"matrix is not tangent at the base point (residual {skew:.3e})")
        V.flags.writeable = False
        self.data = V
        self.base = base

    def __rmul__(self, alpha: float) -> TangentVector:
        return _tangent(float(alpha) * self.data, self.base)

    def __repr__(self) -> str:
        return f"TangentVector(shape={self.data.shape}, norm={np.linalg.norm(self.data):.3e})"


def _tangent(V: np.ndarray, base: StiefelPoint) -> TangentVector:
    """Wrap a fresh array that is tangent at base by construction, unchecked."""
    v = TangentVector.__new__(TangentVector)
    V.flags.writeable = False
    v.data = V
    v.base = base
    return v


def project_tangent(X: StiefelPoint, M: np.ndarray) -> TangentVector:
    """Orthogonal projection of an ambient matrix onto the tangent space at X."""
    M = np.asarray(M, dtype=float)
    if M.shape != X.data.shape:
        raise ValueError(f"shape mismatch: {M.shape} vs {X.data.shape}")
    return _tangent(_project(X.data, M), X)


def _retract_svd(X: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Polar factor of A = X + D from the r x r Gram matrix, without an n x r SVD.

    With A^T A = Q diag(lam) Q^T, the polar factor is A (A^T A)^{-1/2} =
    A Q diag(lam^{-1/2}) Q^T. For tangent D, A^T A = I + D^T D, so lam >= 1.
    Forming the Gram matrix squares the condition number of A: once
    lam_max / lam_min exceeds _GRAM_REFINE_COND (only possible for
    ||D||_2 > 9.9), the result is off orthonormality by ~1e-16 lam_max /
    lam_min, and one Newton-Schulz step Z (3I - Z^T Z) / 2, which keeps the
    polar factor of Z, restores it to roundoff.
    """
    A = X + D
    lam, Q = np.linalg.eigh(A.T @ A)
    Z = A @ ((Q / np.sqrt(lam)) @ Q.T)
    if lam[-1] > _GRAM_REFINE_COND * lam[0]:
        Z = 1.5 * Z - 0.5 * (Z @ (Z.T @ Z))
    return Z


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
    return Z + 0.5 * (U @ np.linalg.solve(S, Vc.T @ Z))


_RETRACTIONS = {
    RetractionKind.SVD: _retract_svd,
    RetractionKind.QR: _retract_qr,
    RetractionKind.CAYLEY: _retract_cayley,
}


def retract(X: StiefelPoint, xi: TangentVector, kind: RetractionKind = RetractionKind.SVD) -> StiefelPoint:
    """Map a tangent vector back onto the manifold; retract(X, 0) is X itself.

    xi must be attached to X, or to a point holding the same data.
    """
    if xi.base is not X and not np.array_equal(xi.base.data, X.data):
        raise ValueError("tangent vector is attached to another base point")
    if not xi.data.any():
        return X
    return StiefelPoint(_RETRACTIONS[kind](X.data, xi.data))


def random_point(n: int, r: int, seed: int) -> StiefelPoint:
    """Orthonormalized QR factor of a seeded n x r standard Gaussian matrix."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got n={n}, r={r}")
    rng = np.random.default_rng(seed)
    return StiefelPoint(_qf(rng.standard_normal((n, r))))


def feasibility_residual(X) -> float:
    """||X^T X - I_r||_F for a StiefelPoint or a raw n x r array."""
    A = X.data if isinstance(X, StiefelPoint) else np.asarray(X, dtype=float)
    return _feasibility(A)
