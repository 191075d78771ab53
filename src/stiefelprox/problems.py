"""Benchmark problems: compressed modes and sparse PCA.

Both are l1-regularized trace problems over the Stiefel manifold:

    compressed modes:  f(X) = tr(X^T H X),       H = -1/2 Laplacian on [0, 50]
    sparse PCA:        f(X) = -tr(X^T A^T A X),  A an m x n Gaussian data matrix
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

SPARSITY_THRESHOLD = 1e-5
SPCA_SAMPLES = 50


@dataclass(frozen=True)
class CompositeProblem:
    """Evaluation bundle for min f(X) + mu ||X||_1 over St(n, r)."""

    eval_f: Callable[[np.ndarray], float]
    eval_grad_f: Callable[[np.ndarray], np.ndarray]
    mu: float
    lipschitz_estimate: float
    descriptor: dict

    def objective(self, X: np.ndarray) -> float:
        return float(self.eval_f(X)) + self.mu * float(np.abs(X).sum())


def check_problem_args(kind: str, n: int, r: int, mu: float) -> None:
    """Raise ValueError unless make_problem can build this "cm" or "spca"
    instance: integer sizes with 1 <= r <= n, n >= 4 grid points for "cm",
    and a finite mu >= 0 (NumPy numbers accepted, bool rejected).

    Plain int and float pass on their exact type before the ABC checks,
    which cost about 1 us each, a few percent of a CM(64, 4) set-up.
    """
    for name, value in (("n", n), ("r", r)):
        if type(value) is not int and (not isinstance(value, numbers.Integral) or isinstance(value, bool)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got n={n}, r={r}")
    if kind == "cm" and n < 4:
        raise ValueError(f"need n >= 4 grid points, got {n}")
    if not ((type(mu) is float or isinstance(mu, numbers.Real) and not isinstance(mu, bool))
            and math.isfinite(mu) and mu >= 0):
        raise ValueError(f"mu must be a finite number >= 0, got {mu!r}")


def make_cm(n: int, r: int, mu: float) -> CompositeProblem:
    """Compressed-modes instance: f(X) = tr(X^T H X), grad f = 2 H X.

    H is -1/2 of the periodic second-order central-difference Laplacian on
    [0, 50] with n >= 4 grid points, spacing dx = 50/n: 1/dx^2 on the
    diagonal and -1/(2 dx^2) on the two cyclic neighbours, so row sums vanish
    (the constant vector is the null direction). H X is applied as a stencil
    that sums each row in increasing column order, which rounds exactly like
    the product with H stored as a sparse CSR matrix.
    """
    check_problem_args("cm", n, r, mu)
    dx = 50.0 / n
    inv = 1.0 / (dx * dx)
    off = -0.5 * inv
    # H = (I - (S + S^T)/2) / dx^2 for the cyclic shift S has eigenvalues
    # (1 - cos(2 pi k/n)) / dx^2, largest at k = n // 2
    L = 2.0 * (1.0 - np.cos(2.0 * np.pi * (n // 2) / n)) / (dx * dx)

    def apply_h(X: np.ndarray) -> np.ndarray:
        # row i sums off x_{i-1}, inv x_i, off x_{i+1} in column order; row 0
        # ends with the corner off x_{n-1}, row n-1 starts with off x_0. The
        # CSR sums start at +0.0, so a row of -0.0 terms gives +0.0 there too
        side = off * X
        Y = inv * X
        Y += 0.0
        last = (side[0] + side[-2]) + Y[-1]
        Y[1:] += side[:-1]
        Y[:-1] += side[1:]
        Y[0] += side[-1]
        Y[-1] = last
        return Y

    def eval_f(X: np.ndarray) -> float:
        return float((X * apply_h(X)).sum())

    def eval_grad_f(X: np.ndarray) -> np.ndarray:
        return 2.0 * apply_h(X)

    desc = {"kind": "cm", "n": n, "r": r, "mu": mu, "seed": None}
    return CompositeProblem(eval_f, eval_grad_f, float(mu), L, desc)


def make_spca(
    n: int,
    r: int,
    mu: float,
    seed: int = 0,
    data: np.ndarray | None = None,
) -> CompositeProblem:
    """Sparse-PCA instance: f(X) = -||A X||_F^2 for seeded Gaussian data (50 x n).

    Generated columns are mean-centered and scaled to unit norm, the usual
    preprocessing for per-variable loadings; without it the objective scale
    grows with n and the l1 weight loses meaning. Passing data overrides the
    generated matrix verbatim (e.g. zeros for the flat objective edge case);
    it must be a finite 2-d array with n columns.
    """
    check_problem_args("spca", n, r, mu)
    if data is not None:
        A = np.array(data, dtype=float)
        if A.ndim != 2 or A.shape[1] != n:
            raise ValueError(f"data must be a 2-d array with n={n} columns, got shape {A.shape}")
        if not np.isfinite(A).all():
            raise ValueError("data has non-finite entries")
    else:
        A = np.random.default_rng(seed).standard_normal((SPCA_SAMPLES, n))
        A -= A.mean(axis=0, keepdims=True)
        norms = np.linalg.norm(A, axis=0, keepdims=True)
        A /= np.where(norms == 0.0, 1.0, norms)
    # ||A||_2^2 is the largest eigenvalue of the smaller Gram matrix; no rows give 0
    gram = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    L = 2.0 * float(np.linalg.eigvalsh(gram).max(initial=0.0))

    def eval_f(X: np.ndarray) -> float:
        AX = A @ X
        return -float((AX * AX).sum())

    def eval_grad_f(X: np.ndarray) -> np.ndarray:
        return -2.0 * (A.T @ (A @ X))

    desc = {"kind": "spca", "n": n, "r": r, "mu": mu, "seed": seed}
    return CompositeProblem(eval_f, eval_grad_f, float(mu), L, desc)


def make_problem(kind: str, n: int, r: int, mu: float, seed: int = 0) -> CompositeProblem:
    """Deterministic instance regeneration from (kind, n, r, mu, seed)."""
    if kind == "cm":
        return make_cm(n, r, mu)
    if kind == "spca":
        return make_spca(n, r, mu, seed)
    raise ValueError(f"unknown problem kind {kind!r}")


def sparsity(X: np.ndarray, threshold: float = SPARSITY_THRESHOLD) -> float:
    """Fraction of entries with magnitude at most threshold."""
    X = np.asarray(X)
    return float(np.count_nonzero(np.abs(X) <= threshold)) / X.size

