"""First- and quasi-second-order optimizers over flat parameter vectors.

Both optimizers talk to the model through a closure: AdamW takes
precomputed gradients step by step, while Lbfgs drives a callable
``fun(x) -> (value, gradient)`` itself because its line search needs extra
evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class AdamW:
    """Adam with decoupled weight decay on a flat parameter vector."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, n_params: int, lr: float = 1e-3, weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.weight_decay = weight_decay
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        grad = np.asarray(grad, dtype=float)
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        update = m_hat / (np.sqrt(v_hat) + self.eps)
        out = params - self.lr * update
        if self.weight_decay:
            out = out - self.lr * self.weight_decay * params
        return out


@dataclass
class LbfgsResult:
    x: np.ndarray
    value: float
    n_iter: int
    n_evals: int
    stop_reason: str = ""


class Lbfgs:
    """Limited-memory BFGS with a strong-Wolfe line search.

    Keeps up to ``history`` curvature pairs, scales the initial inverse
    Hessian by s'y / y'y, and skips pairs whose curvature s'y is not safely
    positive. ``lr`` acts as the trial step scale: the first iteration tries
    lr * min(1, 1/||g||_1) and later iterations try lr directly, as the
    two-loop direction is already well scaled. A step must meet the Wolfe
    constants c1 and c2 within max_line_evals evaluations; the run stops
    once the gradient's inf-norm is at most grad_tol.
    """

    c1 = 1e-4
    c2 = 0.9
    grad_tol = 1e-10
    max_line_evals = 25

    def __init__(self, lr: float = 1.0, history: int = 10):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.history = history

    def minimize(self, fun, x0, max_iter: int = 20) -> LbfgsResult:
        x = np.array(x0, dtype=float)
        f, g = fun(x)
        n_evals = 1
        best_x, best_f = x.copy(), f
        mem: list[tuple[np.ndarray, np.ndarray, float]] = []
        stop = "max_iter"
        it = 0
        for it in range(1, max_iter + 1):
            if np.max(np.abs(g)) <= self.grad_tol:
                stop = "grad_tol"
                it -= 1
                break
            d = -self._two_loop(g, mem)
            dg0 = float(d @ g)
            if dg0 >= 0:
                # Curvature info went stale; fall back to steepest descent.
                mem.clear()
                d = -g
                dg0 = float(d @ g)
            if it == 1 or not mem:
                alpha0 = self.lr * min(1.0, 1.0 / max(np.sum(np.abs(g)), 1e-30))
            else:
                alpha0 = self.lr
            alpha, f_new, g_new, evals = self._line_search(fun, x, f, g, d, dg0, alpha0)
            n_evals += evals
            if alpha is None:
                stop = "line_search_failed"
                break
            s = alpha * d
            y = g_new - g
            x = x + s
            f, g = f_new, g_new
            if f < best_f:
                best_f, best_x = f, x.copy()
            sy = float(s @ y)
            if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
                mem.append((s, y, 1.0 / sy))
                if len(mem) > self.history:
                    mem.pop(0)
        return LbfgsResult(
            x=best_x, value=best_f, n_iter=it, n_evals=n_evals, stop_reason=stop
        )

    @staticmethod
    def _two_loop(g: np.ndarray, mem) -> np.ndarray:
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(mem):
            a = rho * float(s @ q)
            alphas.append(a)
            q -= a * y
        if mem:
            s, y, _ = mem[-1]
            q *= float(s @ y) / max(float(y @ y), 1e-30)
        for (s, y, rho), a in zip(mem, reversed(alphas)):
            b = rho * float(y @ q)
            q += (a - b) * s
        return q

    def _line_search(self, fun, x, f0, g0, d, dg0, alpha0):
        """Bracket-and-zoom search for a strong-Wolfe step along d."""
        c1, c2 = self.c1, self.c2
        evals = 0

        def phi(alpha):
            nonlocal evals
            evals += 1
            f, g = fun(x + alpha * d)
            return f, g, float(g @ d)

        alpha_prev, f_prev = 0.0, f0
        alpha = alpha0
        bracket = None
        while evals < self.max_line_evals:
            f_a, g_a, dg_a = phi(alpha)
            if not np.isfinite(f_a) or f_a > f0 + c1 * alpha * dg0 or (
                alpha_prev > 0.0 and f_a >= f_prev
            ):
                bracket = (alpha_prev, f_prev, alpha)
                break
            if abs(dg_a) <= -c2 * dg0:
                return alpha, f_a, g_a, evals
            if dg_a >= 0:
                bracket = (alpha, f_a, alpha_prev)
                break
            alpha_prev, f_prev = alpha, f_a
            alpha *= 2.0
            if alpha > 1e10:
                return None, None, None, evals
        if bracket is None:
            return None, None, None, evals

        lo, f_lo, hi = bracket
        best = None
        while evals < self.max_line_evals:
            alpha = 0.5 * (lo + hi)
            f_a, g_a, dg_a = phi(alpha)
            if not np.isfinite(f_a) or f_a > f0 + c1 * alpha * dg0 or f_a >= f_lo:
                hi = alpha
            else:
                if abs(dg_a) <= -c2 * dg0:
                    return alpha, f_a, g_a, evals
                best = (alpha, f_a, g_a)
                if dg_a * (hi - lo) >= 0:
                    hi = lo
                lo, f_lo = alpha, f_a
            if abs(hi - lo) < 1e-14 * max(1.0, abs(lo)):
                break
        if best is not None:
            # Armijo holds at best even though curvature never did; still progress.
            return best[0], best[1], best[2], evals
        return None, None, None, evals
