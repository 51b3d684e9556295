"""Dense linear-algebra kernels: SVD pseudoinverse and a doubling DARE solver,
plus the flat parameter vector the lifting networks share.

The kernels operate on plain 2-D float64 numpy arrays and are pure
functions of their inputs.
"""

from __future__ import annotations

import numpy as np

PINV_RTOL = 1e-12  # pinv zeroes singular values below this times the largest


class FlatParams:
    """Parameters as one flat vector over the arrays of param_arrays(), in order.

    A subclass returns its parameter arrays from param_arrays(); set_params
    writes into those arrays in place, so references to them stay valid.
    """

    @property
    def n_params(self) -> int:
        return sum(arr.size for arr in self.param_arrays())

    def get_params(self) -> np.ndarray:
        return np.concatenate([arr.ravel() for arr in self.param_arrays()])

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {flat.shape}")
        pos = 0
        for arr in self.param_arrays():
            arr[...] = flat[pos : pos + arr.size].reshape(arr.shape)
            pos += arr.size


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance within its budget."""


def _as_matrix(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``PINV_RTOL * sigma_max`` are treated as zero, so
    the result is rank-robust on ill-conditioned snapshot matrices.
    """
    mat = _as_matrix(m, "m")
    if mat.size == 0:
        return np.zeros((mat.shape[1], mat.shape[0]))
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    cutoff = PINV_RTOL * (s[0] if s.size else 0.0)
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
    """Solve the discrete algebraic Riccati equation by doubling.

        P = A'PA - A'PB (R + B'PB)^-1 B'PA + Q

    Structure-preserving doubling (Chu, Fan & Lin 2005): start from A,
    G = B R^-1 B' (zero when p = 0) and H = Q; each step sets W = I + GH and
    A, G, H <- A W^-1 A, G + A W^-1 G A', H + A' H W^-1 A. H converges
    quadratically to P, so ``max_iter`` counts doublings; iteration stops
    when the update of H is below ``tol`` in max-norm.

    Raises:
        ValueError: r is not symmetric positive definite (or shapes mismatch).
        ConvergenceError: A, G or H became non-finite, or no convergence
            within ``max_iter`` doublings.
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

    g = bmat @ np.linalg.solve(rmat, bmat.T) if p_in > 0 else np.zeros((n, n))
    h = qmat.copy()
    eye = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            w = eye + g @ h
            wa = np.linalg.solve(w, amat)
            h_next = h + amat.T @ h @ wa
            h_next = 0.5 * (h_next + h_next.T)
            g = g + amat @ np.linalg.solve(w, g) @ amat.T
            g = 0.5 * (g + g.T)
            amat = amat @ wa
            if not all(np.isfinite(m).all() for m in (amat, g, h_next)):
                raise ConvergenceError("DARE doubling iteration diverged")
            if np.max(np.abs(h_next - h)) <= tol:
                return h_next
            h = h_next
    raise ConvergenceError(
        f"DARE doubling iteration did not converge within {max_iter} doublings"
    )
