"""Benchmark problems: compressed modes and sparse PCA.

Both are l1-regularized trace problems over the Stiefel manifold:

    compressed modes:  f(X) = tr(X^T H X),       H = -1/2 Laplacian on [0, 50]
    sparse PCA:        f(X) = -tr(X^T A^T A X),  A an m x n Gaussian data matrix
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

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


def _power_norm(matvec, dim: int, iters: int = 100, tol: float = 1e-8) -> float:
    """Largest singular value of a symmetric PSD operator by power iteration."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(dim)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    v /= nv
    lam = 0.0
    for _ in range(iters):
        w = matvec(v)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(nw - lam) <= tol * max(1.0, nw):
            return nw
        lam = nw
    return lam


def _check_mu(mu: float) -> None:
    if not mu >= 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")


def schrodinger_operator(n: int, boundary: str = "periodic") -> sp.csr_matrix:
    """-1/2 of the second-order central-difference Laplacian on [0, 50].

    Grid spacing dx = 50/n; periodic closure adds the corner couplings, the
    Dirichlet variant drops them. Row sums vanish in the periodic case (the
    constant vector is the null direction).
    """
    if n < 4:
        raise ValueError(f"need n >= 4 grid points, got {n}")
    dx = 50.0 / n
    inv = 1.0 / (dx * dx)
    main = np.full(n, inv)
    off = np.full(n - 1, -0.5 * inv)
    H = sp.diags([off, main, off], offsets=(-1, 0, 1), format="lil")
    if boundary == "periodic":
        H[0, n - 1] = -0.5 * inv
        H[n - 1, 0] = -0.5 * inv
    elif boundary != "dirichlet":
        raise ValueError(f"unknown boundary {boundary!r}")
    return H.tocsr()


def make_cm(n: int, r: int, mu: float, boundary: str = "periodic") -> CompositeProblem:
    """Compressed-modes instance: f(X) = tr(X^T H X), grad f = 2 H X."""
    _check_mu(mu)
    H = schrodinger_operator(n, boundary)
    L = 2.0 * _power_norm(lambda v: H @ v, n)

    def eval_f(X: np.ndarray) -> float:
        return float(np.sum(X * (H @ X)))

    def eval_grad_f(X: np.ndarray) -> np.ndarray:
        return 2.0 * (H @ X)

    desc = {"kind": "cm", "n": n, "r": r, "mu": mu, "seed": None, "boundary": boundary}
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
    generated matrix verbatim (e.g. zeros for the flat objective edge case).
    """
    if n < r:
        raise ValueError(f"need n >= r, got n={n}, r={r}")
    _check_mu(mu)
    if data is not None:
        A = np.array(data, dtype=float)
    else:
        A = np.random.default_rng(seed).standard_normal((SPCA_SAMPLES, n))
        A -= A.mean(axis=0, keepdims=True)
        norms = np.linalg.norm(A, axis=0, keepdims=True)
        A /= np.where(norms == 0.0, 1.0, norms)
    # ||A||_2^2 from the small m x m Gram operator
    m = A.shape[0]
    L = 2.0 * _power_norm(lambda v: A @ (A.T @ v), m)

    def eval_f(X: np.ndarray) -> float:
        AX = A @ X
        return -float(np.sum(AX * AX))

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


def save_matrix_csv(M: np.ndarray, path, seed: int = 0) -> None:
    """Dense CSV with the one-line header '# rows cols seed'."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {M.shape[0]} {M.shape[1]} {seed}\n")
        for row in M:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def load_matrix_csv(path) -> tuple[np.ndarray, int]:
    """Read a matrix written by save_matrix_csv; returns (matrix, seed)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"missing '# rows cols seed' header in {path}")
        rows, cols, seed = (int(tok) for tok in header[1:].split())
        M = np.loadtxt(fh, delimiter=",", ndmin=2)
    if M.shape != (rows, cols):
        raise ValueError(f"header promises {(rows, cols)}, file holds {M.shape}")
    return M, seed
