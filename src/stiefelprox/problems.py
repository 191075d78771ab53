"""Benchmark problems: compressed modes and sparse PCA.

Both are l1-regularized trace problems over the Stiefel manifold:

    compressed modes:  f(X) = tr(X^T H X),       H = -1/2 Laplacian on [0, 50]
    sparse PCA:        f(X) = -tr(X^T A^T A X),  A an m x n Gaussian data matrix
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._checks import check_integer, check_real, check_sizes

SPARSITY_THRESHOLD = 1e-5
SPCA_SAMPLES = 50


@dataclass(frozen=True)
class CompositeProblem:
    """Evaluation bundle for min f(X) + mu ||X||_1 over St(n, r), shape = (n, r). Building one, by
    dataclasses.replace too, needs 1 <= r <= n and finite mu, lipschitz_estimate >= 0 (else ValueError)."""

    eval_f: Callable[[np.ndarray], float]
    eval_grad_f: Callable[[np.ndarray], np.ndarray]
    mu: float
    lipschitz_estimate: float
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        if not isinstance(self.shape, tuple) or len(self.shape) != 2:
            raise ValueError(f"shape must be a tuple (n, r), got {self.shape!r}")
        check_sizes(*self.shape)
        check_real("mu", self.mu, 0)
        check_real("lipschitz_estimate", self.lipschitz_estimate, 0)

    def objective(self, X: np.ndarray) -> float:
        return float(self.eval_f(X)) + self.mu * float(np.abs(X).sum())


def check_problem_args(kind: str, n: int, r: int, mu: float) -> None:
    """Raise ValueError unless make_problem can build this "cm" or "spca" instance:
    integer sizes with 1 <= r <= n, n >= 4 grid points for "cm" and a finite mu >= 0."""
    check_sizes(n, r)
    if kind == "cm" and n < 4:
        raise ValueError(f"need n >= 4 grid points, got {n}")
    check_real("mu", mu, 0)


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

    return CompositeProblem(eval_f, eval_grad_f, float(mu), L, (n, r))


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
    check_integer("seed", seed, 0)
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

    return CompositeProblem(eval_f, eval_grad_f, float(mu), L, (n, r))


def make_problem(kind: str, n: int, r: int, mu: float, seed: int = 0) -> CompositeProblem:
    """Deterministic instance regeneration from (kind, n, r, mu, seed), seed >= 0 for every kind."""
    if kind == "cm":
        check_integer("seed", seed, 0)  # unused by "cm"; make_spca checks its own
        return make_cm(n, r, mu)
    if kind == "spca":
        return make_spca(n, r, mu, seed)
    raise ValueError(f"unknown problem kind {kind!r}")


def sparsity(X: np.ndarray) -> float:
    """Fraction of entries with magnitude at most SPARSITY_THRESHOLD."""
    X = np.asarray(X)
    return float(np.count_nonzero(np.abs(X) <= SPARSITY_THRESHOLD)) / X.size

