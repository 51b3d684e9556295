"""Dense linear-algebra kernels: pseudoinverse and discrete Riccati.

Everything here operates on plain 2-D float64 numpy arrays and is a pure
function of its inputs.
"""

from __future__ import annotations

import numpy as np


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance within its budget."""


def _as_matrix(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def pinv(m, tol: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``tol * sigma_max`` are treated as zero, so the
    result is rank-robust on ill-conditioned snapshot matrices.
    """
    mat = _as_matrix(m, "m")
    if tol < 0:
        raise ValueError("tol must be >= 0")
    if mat.size == 0:
        return np.zeros((mat.shape[1], mat.shape[0]))
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    cutoff = tol * (s[0] if s.size else 0.0)
    inv_s = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (vt.T * inv_s) @ u.T


def solve_dare(
    a,
    b,
    q,
    r,
    max_iter: int = 10_000,
    tol: float = 1e-10,
) -> np.ndarray:
    """Solve the discrete algebraic Riccati equation by fixed-point iteration.

        P <- A'PA - A'PB (R + B'PB)^-1 B'PA + Q

    Starts from P = Q and iterates until the update is below ``tol`` in
    max-norm. Adequate for the small (<= 10x10) lifted systems this package
    produces; no Schur decomposition needed.

    Raises:
        ValueError: r is not symmetric positive definite (or shapes mismatch).
        ConvergenceError: no fixed point within ``max_iter`` iterations.
    """
    amat = _as_matrix(a, "a")
    bmat = _as_matrix(b, "b")
    qmat = _as_matrix(q, "q")
    rmat = _as_matrix(r, "r")
    n = amat.shape[0]
    if amat.shape[1] != n:
        raise ValueError("a must be square")
    if bmat.shape[0] != n:
        raise ValueError("b must have the same row count as a")
    p_in = bmat.shape[1]
    if qmat.shape != (n, n):
        raise ValueError("q must be n x n")
    if rmat.shape != (p_in, p_in):
        raise ValueError("r must be p x p")
    if not np.allclose(qmat, qmat.T, atol=1e-12):
        raise ValueError("q must be symmetric")
    if not np.allclose(rmat, rmat.T, atol=1e-12):
        raise ValueError("r must be symmetric")
    if p_in > 0:
        try:
            np.linalg.cholesky(rmat)
        except np.linalg.LinAlgError as exc:
            raise ValueError("r must be positive definite") from exc

    p = qmat.copy()
    at = amat.T
    bt = bmat.T
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            if p_in > 0:
                bpa = bt @ p @ amat
                gain = np.linalg.solve(rmat + bt @ p @ bmat, bpa)
                p_next = at @ p @ amat - bpa.T @ gain + qmat
            else:
                p_next = at @ p @ amat + qmat
            p_next = 0.5 * (p_next + p_next.T)
            if not np.all(np.isfinite(p_next)):
                raise ConvergenceError("DARE fixed-point iteration diverged")
            if np.max(np.abs(p_next - p)) <= tol:
                return p_next
            p = p_next
    raise ConvergenceError(
        f"DARE fixed-point iteration did not converge within {max_iter} iterations"
    )
