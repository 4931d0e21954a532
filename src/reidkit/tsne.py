"""Exact O(N^2) t-SNE with perplexity binary search and momentum descent.

Perplexity uses base-2 entropy, so sigma values are reproducible:
the bandwidth of row i solves 2^H(P_.|i) = perplexity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import _blocks, _sq_euclidean
from .errors import DataError
from .gallery import _real

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


def _off_diagonal(m: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of the square matrix m as an (n - 1, n) view,
    in the row-major order of m[~np.eye(n, dtype=bool)]."""
    n = len(m)
    return m.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """Base-2 entropy of each row of p. A row with an exact 0 takes
    _row_entropy_bits: its sum over the compacted row runs in another order
    than the sum over the whole row."""
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * log2(0) is NaN
        h = -np.sum(p * np.log2(p), axis=1)
    for k in np.flatnonzero(np.isnan(h)):
        h[k] = _row_entropy_bits(p[k])
    return h


def _conditionals(shifted: np.ndarray, beta: np.ndarray) -> np.ndarray:
    # beta = 1/(2 sigma^2); each row excludes the diagonal entry and has had
    # its minimum subtracted, so its largest exp term is exactly 1
    p = np.exp(-beta[:, None] * shifted)
    p /= p.sum(axis=1, keepdims=True)
    return p


def _bisect_block(shifted: np.ndarray, perplexity: float, out: np.ndarray) -> None:
    """Write into out the conditional rows of one block of shifted rows, each
    bandwidth found by its own bisection. A row leaves the search once it is
    within PERPLEXITY_TOL of the target, and keeps its last beta after
    MAX_BISECTIONS steps."""
    rows = np.arange(len(shifted))
    beta, lo, hi = np.ones(len(rows)), np.zeros(len(rows)), np.full(len(rows), np.inf)
    for _ in range(MAX_BISECTIONS):
        p = _conditionals(shifted, beta)
        # Python's scalar power: numpy's array power differs in the last bit
        perp = np.array([2.0 ** h for h in _entropy_bits(p).tolist()])
        done = np.abs(perp - perplexity) < PERPLEXITY_TOL
        out[rows[done]] = p[done]
        flat = perp > perplexity  # too flat, sharpen
        step = np.where(flat, np.where(hi == np.inf, beta * 2.0, (beta + hi) / 2.0), (lo + beta) / 2.0)
        lo, hi, beta = np.where(flat, beta, lo), np.where(flat, hi, beta), step
        if done.any():
            keep = ~done
            shifted, rows, beta, lo, hi = shifted[keep], rows[keep], beta[keep], lo[keep], hi[keep]
            if not len(rows):
                return
    out[rows] = _conditionals(shifted, beta)


def perplexity_affinities(x: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized affinity matrix P with per-row bandwidths found by
    binary search so each conditional row has the target perplexity.

    The search runs on blocks of rows (distance._blocks, so no temporary
    exceeds distance._TILE_CELLS cells) and gives the bits of one bisection
    per row: a row's perplexity is Python's scalar 2.0 ** H, and a row with
    an exact 0 among its probabilities takes H from the sum over its nonzero
    entries alone. A row within PERPLEXITY_TOL of the target stops there; a
    row that cannot reach it keeps its last beta after MAX_BISECTIONS steps.
    A point with k exact duplicates, say, cannot go below perplexity k."""
    x = np.asarray(_real(x), dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 4:
        raise DataError("need at least 4 points")
    n = x.shape[0]
    if perplexity >= n:
        raise DataError(f"perplexity {perplexity} must be < N = {n}")
    d2 = _sq_euclidean(x, x)  # diagonal exactly 0
    if d2.max() == 0.0:
        raise DataError("degenerate input: all points identical")
    # row i of shifted is d2[i] without its diagonal entry, minus its minimum
    shifted = np.ascontiguousarray(_off_diagonal(d2)).reshape(n, n - 1)
    del d2
    shifted -= shifted.min(axis=1, keepdims=True)
    off = np.empty_like(shifted)
    for rows in _blocks(n, n - 1):
        _bisect_block(shifted[rows], perplexity, off[rows])
    del shifted
    cond = np.zeros((n, n), dtype=np.float64)
    _off_diagonal(cond)[...] = off.reshape(n - 1, n)
    del off
    p_sym = (cond + cond.T) / (2.0 * n)
    p_sym = np.maximum(p_sym, P_FLOOR)  # off-diagonal floor for stable log ratios
    np.fill_diagonal(p_sym, 0.0)
    return p_sym / p_sym.sum()  # restore unit mass after flooring


def _workspace(n: int):
    """The buffers _kl_and_gradient fills at n points: the Student-t kernel,
    Q (then the gradient weights) and the KL terms."""
    return np.empty((n, n)), np.empty((n, n)), np.empty((n - 1, n))


def _kl_and_gradient(p_off: np.ndarray, p_grad: np.ndarray, y: np.ndarray, work):
    """KL(P || Q) under the Student-t kernel Q of y, and the gradient of
    KL(P_grad || Q) w.r.t. y (P_grad is the exaggerated P early in descent).
    p_off is _off_diagonal(P); work is _workspace(n), overwritten.
    d^2 is _sq_euclidean's expansion: 1/(1 + d^2) needs no exact recompute.
    Every step is the float operation of the whole-array expression
    1/(1 + max(|y_i|^2 + |y_j|^2 - 2 y.y^T, 0)), in the same order."""
    num, q, terms = work
    sq = np.sum(y * y, axis=1)
    np.matmul(y, y.T, out=num)  # y against its own transpose: BLAS syrk
    np.multiply(num, 2.0, out=num)
    np.subtract(np.add(sq[:, None], sq, out=q), num, out=num)
    np.maximum(num, 0.0, out=num)
    np.add(num, 1.0, out=num)
    np.divide(1.0, num, out=num)
    np.fill_diagonal(num, 0.0)
    np.divide(num, num.sum(), out=q)
    np.maximum(q, P_FLOOR, out=q)
    np.divide(p_off, _off_diagonal(q), out=terms)
    np.log(terms, out=terms)
    np.multiply(p_off, terms, out=terms)
    kl = float(np.sum(terms))
    w = np.subtract(p_grad, q, out=q)
    np.multiply(w, num, out=w)
    np.fill_diagonal(w, 0.0)
    return kl, 4.0 * (w.sum(axis=1)[:, None] * y - w @ y)


def kl_and_gradient(p: np.ndarray, y: np.ndarray):
    """KL(P || Q) under the Student-t low-dimensional kernel, with its
    gradient w.r.t. the 2-D coordinates. Raises DataError unless every
    off-diagonal entry of P is positive and finite and Y is finite."""
    p = np.asarray(_real(p), dtype=np.float64)
    y = np.asarray(_real(y), dtype=np.float64)
    if y.ndim != 2 or p.shape != (len(y), len(y)):
        raise DataError("shape mismatch between P and Y")
    p_off = _off_diagonal(p)
    if not (np.isfinite(p_off).all() and (p_off > 0).all()):
        raise DataError("P must be positive and finite off the diagonal")
    if not np.isfinite(y).all():
        raise DataError("Y must be finite")
    return _kl_and_gradient(p_off, p, y, _workspace(len(y)))


def run_tsne(x: np.ndarray, params: TsneParams = TsneParams()):
    """Momentum gradient descent with early exaggeration.

    Returns (Y: N x 2, kl_trace) where the trace is the KL against the
    true (un-exaggerated) P at every iteration. Deterministic given seed.
    Raises DataError at the first iteration whose KL or coordinates are not
    finite (a learning rate too large for the data makes the descent diverge).
    """
    p = perplexity_affinities(x, params.perplexity)
    n = p.shape[0]
    p_off = np.ascontiguousarray(_off_diagonal(p))  # read at every iteration
    p_early = p * EXAGGERATION
    work = _workspace(n)
    rng = np.random.default_rng(params.seed)
    y = rng.normal(scale=1e-4, size=(n, 2))
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)  # per-coordinate adaptive rates, standard scheme
    trace = []
    # a diverging descent overflows; it is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(params.iterations):
            early = it < EARLY_ITERATIONS
            kl, grad = _kl_and_gradient(p_off, p_early if early else p, y, work)
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
