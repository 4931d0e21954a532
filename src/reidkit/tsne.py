"""Exact O(N^2) t-SNE with perplexity binary search and momentum descent.

Perplexity uses base-2 entropy, so sigma values are reproducible:
the bandwidth of row i solves 2^H(P_.|i) = perplexity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import _sq_euclidean
from .errors import DataError

P_FLOOR = 1e-12
PERPLEXITY_TOL = 1e-5
MAX_BISECTIONS = 200

# Fixed descent schedule (van der Maaten & Hinton, JMLR 2008): for the first
# EARLY_ITERATIONS the gradient uses P * EXAGGERATION and momentum
# MOMENTUM_EARLY; afterwards the true P and MOMENTUM_LATE.
EARLY_ITERATIONS = 250
EXAGGERATION = 12.0
MOMENTUM_EARLY = 0.5
MOMENTUM_LATE = 0.8


@dataclass(frozen=True)
class TsneParams:
    perplexity: float = 30.0
    iterations: int = 1000
    learning_rate: float = 200.0
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise DataError("iterations must be >= 1")
        if not np.isfinite(self.perplexity) or self.perplexity <= 1:
            raise DataError("perplexity must be finite and exceed 1")
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise DataError("learning rate must be finite and > 0")
        if self.seed < 0:
            raise DataError("seed must be >= 0")


def _row_entropy_bits(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def _conditional_row(shifted_row: np.ndarray, beta: float) -> np.ndarray:
    # beta = 1/(2 sigma^2); the row excludes the diagonal entry and has had
    # its minimum subtracted, so its largest exp term is exactly 1
    p = np.exp(-beta * shifted_row)
    return p / p.sum()


def perplexity_affinities(x: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized affinity matrix P with per-row bandwidths found by
    binary search so each conditional row has the target perplexity."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 4:
        raise DataError("need at least 4 points")
    n = x.shape[0]
    if perplexity >= n:
        raise DataError(f"perplexity {perplexity} must be < N = {n}")
    d2 = _sq_euclidean(x, x)  # diagonal exactly 0
    if d2.max() == 0.0:
        raise DataError("degenerate input: all points identical")
    cond = np.zeros((n, n), dtype=np.float64)
    others = np.arange(n)
    for i in range(n):
        mask = others != i
        row = d2[i, mask]
        row = row - row.min()
        beta, lo, hi = 1.0, 0.0, np.inf
        for _ in range(MAX_BISECTIONS):
            p = _conditional_row(row, beta)
            perp = 2.0 ** _row_entropy_bits(p)
            if abs(perp - perplexity) < PERPLEXITY_TOL:
                break
            if perp > perplexity:  # too flat, sharpen
                lo = beta
                beta = beta * 2.0 if hi == np.inf else (beta + hi) / 2.0
            else:
                hi = beta
                beta = (lo + beta) / 2.0
        cond[i, mask] = _conditional_row(row, beta)
    p_sym = (cond + cond.T) / (2.0 * n)
    p_sym = np.maximum(p_sym, P_FLOOR)  # off-diagonal floor for stable log ratios
    np.fill_diagonal(p_sym, 0.0)
    return p_sym / p_sym.sum()  # restore unit mass after flooring


def _kl_and_gradient(p_off: np.ndarray, mask: np.ndarray, p_grad: np.ndarray, y: np.ndarray):
    """KL(P || Q) under the Student-t kernel Q of y, and the gradient of
    KL(P_grad || Q) w.r.t. y (P_grad is the exaggerated P early in descent).
    p_off is P[mask], the off-diagonal entries of P under the boolean mask."""
    num = 1.0 / (1.0 + _sq_euclidean(y, y))
    np.fill_diagonal(num, 0.0)
    q = np.maximum(num / num.sum(), P_FLOOR)
    kl = float(np.sum(p_off * np.log(p_off / q[mask])))
    w = (p_grad - q) * num
    np.fill_diagonal(w, 0.0)
    return kl, 4.0 * (w.sum(axis=1)[:, None] * y - w @ y)


def kl_and_gradient(p: np.ndarray, y: np.ndarray):
    """KL(P || Q) under the Student-t low-dimensional kernel, with its
    gradient w.r.t. the 2-D coordinates. Raises DataError unless every
    off-diagonal entry of P is positive and finite and Y is finite."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or p.shape != (len(y), len(y)):
        raise DataError("shape mismatch between P and Y")
    mask = ~np.eye(len(y), dtype=bool)
    p_off = p[mask]
    if not (np.isfinite(p_off).all() and (p_off > 0).all()):
        raise DataError("P must be positive and finite off the diagonal")
    if not np.isfinite(y).all():
        raise DataError("Y must be finite")
    return _kl_and_gradient(p_off, mask, p, y)


def run_tsne(x: np.ndarray, params: TsneParams = TsneParams()):
    """Momentum gradient descent with early exaggeration.

    Returns (Y: N x 2, kl_trace) where the trace is the KL against the
    true (un-exaggerated) P at every iteration. Deterministic given seed.
    Raises DataError at the first iteration whose KL or coordinates are not
    finite (a learning rate too large for the data makes the descent diverge).
    """
    p = perplexity_affinities(x, params.perplexity)
    n = p.shape[0]
    mask = ~np.eye(n, dtype=bool)
    p_off = p[mask]
    p_early = p * EXAGGERATION
    rng = np.random.default_rng(params.seed)
    y = rng.normal(scale=1e-4, size=(n, 2))
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)  # per-coordinate adaptive rates, standard scheme
    trace = []
    # a diverging descent overflows; it is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(params.iterations):
            early = it < EARLY_ITERATIONS
            kl, grad = _kl_and_gradient(p_off, mask, p_early if early else p, y)
            trace.append(kl)
            momentum = MOMENTUM_EARLY if early else MOMENTUM_LATE
            same_sign = np.sign(grad) == np.sign(velocity)
            gains = np.where(same_sign, gains * 0.8, gains + 0.2)
            np.maximum(gains, 0.01, out=gains)
            velocity = momentum * velocity - params.learning_rate * gains * grad
            y = y + velocity
            if not (np.isfinite(kl) and np.isfinite(y).all()):
                raise DataError(
                    f"t-SNE diverged at iteration {it + 1} of {params.iterations}: "
                    "the coordinates or the KL are not finite"
                )
    return y, trace
