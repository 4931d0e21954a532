import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reidkit import tsne
from reidkit.distance import _sq_euclidean, _twice_gamma
from reidkit.errors import DataError
from reidkit.tsne import (
    MAX_BISECTIONS,
    P_FLOOR,
    PERPLEXITY_TOL,
    TsneParams,
    kl_and_gradient,
    perplexity_affinities,
    run_tsne,
)


def row_perplexity(p_cond_row):
    nz = p_cond_row[p_cond_row > 0]
    return 2.0 ** (-np.sum(nz * np.log2(nz)))


def conditional_rows(x, perplexity):
    """Re-derive the conditional distributions from the symmetrized P by
    running the same search independently with scipy-free bisection on
    sigma directly (scalar root-finding oracle)."""
    n = x.shape[0]
    d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
    rows = []
    for i in range(n):
        mask = np.arange(n) != i
        row = d2[i, mask]

        def perp_of_sigma(sigma):
            p = np.exp(-(row - row.min()) / (2 * sigma**2))
            p = p / p.sum()
            return row_perplexity(p)

        lo, hi = 1e-6, 1e6
        for _ in range(300):
            mid = np.sqrt(lo * hi)
            if perp_of_sigma(mid) < perplexity:
                lo = mid
            else:
                hi = mid
        p = np.exp(-(row - row.min()) / (2 * hi**2))
        full = np.zeros(n)
        full[mask] = p / p.sum()
        rows.append(full)
    return np.array(rows)


def make_clusters(rng, n_clusters=3, per_cluster=50, dim=10, sep=20.0):
    centers = rng.standard_normal((n_clusters, dim)) * sep
    x, labels = [], []
    for c in range(n_clusters):
        x.append(centers[c] + rng.standard_normal((per_cluster, dim)))
        labels += [c] * per_cluster
    return np.vstack(x), np.array(labels)


class TestAffinities:
    def test_equilateral_triangle_uniform_rows(self):
        # 3 equidistant points plus a far 4th so N >= 4; check the triangle rows
        x = np.array(
            [
                [0.0, 0.0],
                [1.0, 0.0],
                [0.5, np.sqrt(3) / 2],
                [100.0, 100.0],
            ]
        )
        p = perplexity_affinities(x, 2.0)
        # symmetry of the first three points forces equal affinity pairs
        assert p[0, 1] == pytest.approx(p[0, 2], rel=1e-6)
        assert p[1, 0] == pytest.approx(p[1, 2], rel=1e-6)

    def test_p_matrix_invariants(self, rng):
        x = rng.standard_normal((20, 5))
        p = perplexity_affinities(x, 8.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(p, p.T, atol=1e-15)
        assert (p >= 0).all()
        assert (np.diag(p) == 0).all()

    def test_binary_search_hits_target_perplexity(self, rng):
        x = rng.standard_normal((4, 3)) * 2
        target = 2.5
        cond = conditional_rows(x, target)
        for i in range(4):
            assert row_perplexity(cond[i]) == pytest.approx(target, abs=1e-3)
        # production conditionals (recovered before symmetrization) agree
        # with the oracle rows
        p = perplexity_affinities(x, target)
        n = 4
        np.testing.assert_allclose(p, (cond + cond.T) / (2 * n), atol=1e-5)

    def test_translation_invariance(self, rng):
        x = rng.standard_normal((12, 4))
        p1 = perplexity_affinities(x, 5.0)
        p2 = perplexity_affinities(x + 42.0, 5.0)
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_degenerate_input_rejected(self):
        with pytest.raises(DataError, match="identical"):
            perplexity_affinities(np.ones((5, 3)), 2.0)

    def test_perplexity_too_large(self, rng):
        with pytest.raises(DataError, match="perplexity"):
            perplexity_affinities(rng.standard_normal((5, 3)), 5.0)


def reference_affinities(x, perplexity):
    """perplexity_affinities with each row's minimum subtracted again at
    every bisection step, as it was before the row was shifted once."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    d2 = _sq_euclidean(x, x)

    def conditional(d2_row, beta):
        p = np.exp(-beta * (d2_row - d2_row.min()))
        return p / p.sum()

    cond = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        mask = np.arange(n) != i
        row = d2[i, mask]
        beta, lo, hi = 1.0, 0.0, np.inf
        for _ in range(MAX_BISECTIONS):
            p = conditional(row, beta)
            nz = p[p > 0]
            perp = 2.0 ** float(-np.sum(nz * np.log2(nz)))
            if abs(perp - perplexity) < PERPLEXITY_TOL:
                break
            if perp > perplexity:
                lo = beta
                beta = beta * 2.0 if hi == np.inf else (beta + hi) / 2.0
            else:
                hi = beta
                beta = (lo + beta) / 2.0
        cond[i, mask] = conditional(row, beta)
    p_sym = np.maximum((cond + cond.T) / (2.0 * n), P_FLOOR)
    np.fill_diagonal(p_sym, 0.0)
    return p_sym / p_sym.sum()


@settings(max_examples=60, deadline=None)
@given(
    x=hnp.arrays(
        np.float64,
        st.tuples(st.integers(4, 12), st.integers(1, 4)),
        elements=st.floats(-100, 100, allow_subnormal=False),
    ),
    fraction=st.floats(0.01, 0.99),
)
def test_affinities_byte_identical_to_per_step_shift(x, fraction):
    perplexity = 1.0 + fraction * (x.shape[0] - 1.0)  # in (1, N)
    if _sq_euclidean(x, x).max() == 0.0:  # identical points, or distances that underflow
        with pytest.raises(DataError, match="identical"):
            perplexity_affinities(x, perplexity)
        return
    got = perplexity_affinities(x, perplexity)
    assert got.tobytes() == reference_affinities(x, perplexity).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    base=hnp.arrays(
        np.float64,
        st.tuples(st.integers(4, 40), st.integers(1, 4)),
        elements=st.floats(-10, 10, allow_subnormal=False),
    ),
    copies=st.lists(st.integers(0, 39), max_size=12),
    offset=st.floats(-1e3, 1e3),
    fraction=st.floats(0.01, 0.99),
    block_rows=st.integers(1, 16),
)
def test_blocked_search_byte_identical_to_row_loop(small_tiles, base, copies, offset, fraction, block_rows):
    # exact duplicates put exact zeros in rows far from them, and a point with
    # k duplicates cannot go below perplexity k: its row ends at MAX_BISECTIONS
    x = np.vstack([base, base[[c % len(base) for c in copies]]]) + offset
    n = len(x)
    perplexity = 1.0 + fraction * (n - 1.0)
    with small_tiles(block_rows * (n - 1)):  # blocks of block_rows rows
        if _sq_euclidean(x, x).max() == 0.0:
            with pytest.raises(DataError, match="identical"):
                perplexity_affinities(x, perplexity)
            return
        got = perplexity_affinities(x, perplexity)
        assert got.tobytes() == reference_affinities(x, perplexity).tobytes()


def edge_target(perp, side):
    """The target farthest on one side of perp (side +1 above, -1 below)
    that perp still meets within PERPLEXITY_TOL: one ulp farther off, it misses."""
    t = perp + side * PERPLEXITY_TOL
    while abs(perp - t) >= PERPLEXITY_TOL:
        t = np.nextafter(t, perp)
    while abs(perp - np.nextafter(t, side * np.inf)) < PERPLEXITY_TOL:
        t = np.nextafter(t, side * np.inf)
    return float(t)


@pytest.mark.parametrize("side", [-1.0, 1.0])
@pytest.mark.parametrize("rule", ["scalar_power", "compacted_entropy"])
def test_tolerance_edge_keeps_the_row_loop_bits(rule, side):
    # six far clusters: at beta = 1 each row holds exact zeros. A row whose
    # first perplexity differs in the last bit under the other rule is put at
    # the edge of the tolerance, where that bit decides whether it stops.
    rng = np.random.default_rng(1)
    x = np.repeat(rng.standard_normal((6, 3)) * 40, 8, axis=0) + rng.standard_normal((48, 3))
    d2 = _sq_euclidean(x, x)
    p = np.array([np.exp(-(r - r.min())) for r in (np.delete(d2[i], i) for i in range(len(x)))])
    p /= p.sum(axis=1, keepdims=True)
    h = np.array([tsne._row_entropy_bits(row) for row in p])
    perp = np.array([2.0**v for v in h.tolist()])
    if rule == "scalar_power":
        other = np.power(2.0, h)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            other = np.array([2.0**v for v in (-np.nansum(p * np.log2(p), axis=1)).tolist()])
    i = np.flatnonzero(other != perp)[0]
    target = edge_target(perp[i], side)
    assert perplexity_affinities(x, target).tobytes() == reference_affinities(x, target).tobytes()


class TestKlGradient:
    @pytest.mark.parametrize(
        "entry,message",
        [
            (0.0, "P must be positive and finite off the diagonal"),
            (-0.1, "P must be positive and finite off the diagonal"),
            (np.nan, "P must be positive and finite off the diagonal"),
            (np.inf, "P must be positive and finite off the diagonal"),
        ],
    )
    def test_rejects_p_off_the_diagonal(self, rng, entry, message):
        # a zero would make log(P / Q) divide by zero and the KL NaN
        p = np.full((4, 4), 1.0 / 12)
        np.fill_diagonal(p, 0.0)
        p[0, 1] = p[1, 0] = entry
        with pytest.raises(DataError, match=f"^{message}$"):
            kl_and_gradient(p, rng.standard_normal((4, 2)))

    @pytest.mark.parametrize(
        "p_shape,y_shape", [((), (1, 2)), ((4, 4), (4,)), ((4, 4), (3, 2)), ((4, 3), (4, 2)), ((4,), (4, 2))]
    )
    def test_rejects_mismatched_shapes(self, p_shape, y_shape):
        with pytest.raises(DataError, match="^shape mismatch between P and Y$"):
            kl_and_gradient(np.full(p_shape, 0.1), np.zeros(y_shape))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_y(self, rng, entry):
        p = np.full((4, 4), 1.0 / 12)
        np.fill_diagonal(p, 0.0)
        y = rng.standard_normal((4, 2))
        y[2, 1] = entry
        with pytest.raises(DataError, match="^Y must be finite$"):
            kl_and_gradient(p, y)

    def test_matching_distributions_zero(self):
        # build Y whose Q matches a P constructed from the same kernel
        y = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        num = 1.0 / (1.0 + np.sum((y[:, None] - y[None, :]) ** 2, axis=2))
        np.fill_diagonal(num, 0.0)
        p = num / num.sum()
        kl, grad = kl_and_gradient(p, y)
        assert kl == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_kl_nonnegative(self, rng):
        for _ in range(20):
            y = rng.standard_normal((8, 2))
            p = rng.uniform(0.1, 1.0, (8, 8))
            p = (p + p.T) / 2
            np.fill_diagonal(p, 0.0)
            p /= p.sum()
            kl, _ = kl_and_gradient(p, y)
            assert kl >= -1e-12

    def test_gradient_matches_finite_differences(self, rng):
        n = 10
        y = rng.standard_normal((n, 2))
        p = rng.uniform(0.1, 1.0, (n, n))
        p = (p + p.T) / 2
        np.fill_diagonal(p, 0.0)
        p /= p.sum()
        _, grad = kl_and_gradient(p, y)
        h = 1e-5
        fd = np.zeros_like(y)
        for i in range(n):
            for j in range(2):
                yp, ym = y.copy(), y.copy()
                yp[i, j] += h
                ym[i, j] -= h
                fd[i, j] = (kl_and_gradient(p, yp)[0] - kl_and_gradient(p, ym)[0]) / (2 * h)
        assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8) <= 1e-4


def kl_and_gradient_on_sq_euclidean(p_off, mask, p_grad, y):
    """_kl_and_gradient with its squared distances taken from _sq_euclidean.
    y itself goes in, not a copy: numpy runs y @ y.T through BLAS syrk and a
    product with a copy through gemm, whose last bits differ."""
    num = 1.0 / (1.0 + _sq_euclidean(y, y))
    np.fill_diagonal(num, 0.0)
    q = np.maximum(num / num.sum(), P_FLOOR)
    kl = float(np.sum(p_off * np.log(p_off / q[mask])))
    w = (p_grad - q) * num
    np.fill_diagonal(w, 0.0)
    return kl, 4.0 * (w.sum(axis=1)[:, None] * y - w @ y)


# the near-zero bound of _sq_euclidean for 2-D rows: tau * (|y_i|^2 + |y_j|^2)
TAU_2D = _twice_gamma(2 + 2)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(4, 80),
    log_scale=st.floats(-4, 2),
    duplicates=st.lists(st.tuples(st.integers(0, 79), st.integers(0, 79)), max_size=6),
    early=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_descent_kernel_byte_identical_to_sq_euclidean(n, log_scale, duplicates, early, seed):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n, 2)) * 10.0**log_scale
    for k, (i, j) in enumerate(duplicates, 1):
        i, j = i % n, j % n
        if i != j:
            # the k-th duplicate moved 8k sqrt(tau) |y_i| away: a squared
            # distance of at least 64 tau |y_i|^2 from y_i and from another
            # duplicate of it, far above the bound of about 2 tau |y_i|^2
            step = rng.standard_normal(2)
            y[j] = y[i] + 8.0 * k * np.sqrt(TAU_2D) * np.linalg.norm(y[i]) * step / np.linalg.norm(step)
    norms = np.sum(y * y, axis=1)
    off = ~np.eye(n, dtype=bool)
    expansion = norms[:, None] + norms - 2.0 * (y @ y.T)
    # a chain of duplicates can still bring two of them close: no pair inside the bound
    assume((expansion > TAU_2D * norms[:, None] + TAU_2D * norms)[off].all())
    p = rng.uniform(0.1, 1.0, (n, n))
    p = p + p.T
    np.fill_diagonal(p, 0.0)
    p /= p.sum()
    p_grad = p * 12.0 if early else p
    kl, grad = tsne._kl_and_gradient(tsne._off_diagonal(p), p_grad, y, tsne._workspace(n))
    kl_ref, grad_ref = kl_and_gradient_on_sq_euclidean(p[off], off, p_grad, y)
    assert np.float64(kl).tobytes() == np.float64(kl_ref).tobytes()
    assert grad.tobytes() == grad_ref.tobytes()


def test_descent_kernel_inside_the_bound(monkeypatch):
    # y_0 and y_1 are 3e-9 apart: the expansion cancels to 4.5e-13, where
    # _sq_euclidean would recompute 9e-18. The descent keeps the expansion,
    # whose 1/(1 + d^2) is off by no more than the bound.
    y = np.array([[30.1, 12.7], [30.1, 12.7 + 3e-9], [5.0, 5.0], [-3.0, 4.0]])
    p = np.full((4, 4), 1.0 / 12)
    np.fill_diagonal(p, 0.0)
    kernels = []
    fill_diagonal = np.fill_diagonal

    def spy(a, val, wrap=False):
        # the first array whose diagonal the descent zeroes is 1/(1 + d^2)
        kernels.append(a.copy())
        fill_diagonal(a, val, wrap)

    monkeypatch.setattr(np, "fill_diagonal", spy)
    kl_and_gradient(p, y)
    exact = 1.0 / (1.0 + np.sum((y[0] - y[1]) ** 2))
    bound = TAU_2D * np.sum(y[:2] ** 2)
    assert 0.0 < abs(kernels[0][0, 1] - exact) <= bound
    assert kernels[0][0, 1] == kernels[0][1, 0]


class TestRunTsne:
    def test_kl_decreases(self, rng):
        x, _ = make_clusters(rng, per_cluster=17, dim=6)
        params = TsneParams(perplexity=10, iterations=600, seed=3)
        _, trace = run_tsne(x, params)
        assert trace[-1] < trace[0]

    def test_deterministic_given_seed(self, rng):
        x, _ = make_clusters(rng, per_cluster=8, dim=4)
        params = TsneParams(perplexity=5, iterations=50, seed=11)
        y1, _ = run_tsne(x, params)
        y2, _ = run_tsne(x, params)
        assert y1.tobytes() == y2.tobytes()

    def test_knn_purity_on_separated_clusters(self, rng):
        x, labels = make_clusters(rng, per_cluster=20, dim=8, sep=30.0)
        params = TsneParams(perplexity=10, iterations=400, seed=0)
        y, _ = run_tsne(x, params)
        d = np.sum((y[:, None] - y[None, :]) ** 2, axis=2)
        np.fill_diagonal(d, np.inf)
        nn = np.argsort(d, axis=1)[:, :5]
        purity = (labels[nn] == labels[:, None]).mean()
        assert purity >= 0.9

    def test_divergence_names_the_iteration(self, rng):
        # filterwarnings=error: an overflow warning escaping the descent
        # would fail this test before the DataError
        x = rng.standard_normal((12, 4))
        params = TsneParams(perplexity=4, iterations=50, learning_rate=1e300)
        with pytest.raises(DataError, match=r"^t-SNE diverged at iteration \d+ of 50: "):
            run_tsne(x, params)

    def test_iterations_have_no_upper_bound(self):
        # a descent runs as many iterations as it is asked for, each O(N^2)
        assert TsneParams(iterations=2**31).iterations == 2**31

    @pytest.mark.parametrize("seed", [0, 5, 17])
    def test_first_trace_entry_is_kl_of_initial_layout(self, rng, seed):
        x, _ = make_clusters(rng, per_cluster=8, dim=4)
        _, trace = run_tsne(x, TsneParams(perplexity=5, iterations=1, seed=seed))
        p = perplexity_affinities(x, 5)
        y0 = np.random.default_rng(seed).normal(scale=1e-4, size=(x.shape[0], 2))
        assert trace[0] == kl_and_gradient(p, y0)[0]


def reference_descent(p, iterations, learning_rate, seed):
    """The descent loop with the schedule written out as literals: gradient
    on 12*P and momentum 0.5 for iterations 0..249, then P and momentum 0.8.
    Mask, P gather and exaggerated P are rebuilt on every iteration."""
    n = p.shape[0]
    y = np.random.default_rng(seed).normal(scale=1e-4, size=(n, 2))
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    trace = []
    for it in range(iterations):
        p_eff = p * 12.0 if it < 250 else p
        num = 1.0 / (1.0 + _sq_euclidean(y, y))
        np.fill_diagonal(num, 0.0)
        q = np.maximum(num / num.sum(), P_FLOOR)
        mask = ~np.eye(n, dtype=bool)
        trace.append(float(np.sum(p[mask] * np.log(p[mask] / q[mask]))))
        w = (p_eff - q) * num
        np.fill_diagonal(w, 0.0)
        grad = 4.0 * (w.sum(axis=1)[:, None] * y - w @ y)
        momentum = 0.5 if it < 250 else 0.8
        same_sign = np.sign(grad) == np.sign(velocity)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        np.maximum(gains, 0.01, out=gains)
        velocity = momentum * velocity - learning_rate * gains * grad
        y = y + velocity
    return y, trace


@pytest.mark.parametrize(
    "seed,per_cluster,iterations",
    [(0, 8, 260), (4, 11, 251), (23, 6, 300), (8, 5, 40)],
)
def test_run_tsne_matches_reference_descent_bitwise(seed, per_cluster, iterations):
    x, _ = make_clusters(np.random.default_rng(seed), per_cluster=per_cluster, dim=5)
    params = TsneParams(perplexity=4, iterations=iterations, learning_rate=150.0, seed=seed)
    y, trace = run_tsne(x, params)
    y_ref, trace_ref = reference_descent(perplexity_affinities(x, 4), iterations, 150.0, seed)
    assert y.tobytes() == y_ref.tobytes()
    assert np.array(trace).tobytes() == np.array(trace_ref).tobytes()


def test_analysis_shape_matches_the_row_loop_and_reference_descent():
    # the benchmark's t-SNE shape: 50 identities x 10 images, D = 2048, the
    # CLI's perplexity 30 and learning rate 200, float32 features
    x, _ = make_clusters(np.random.default_rng(2048), n_clusters=50, per_cluster=10, dim=2048, sep=0.5)
    x = x.astype(np.float32)
    p = perplexity_affinities(x, 30.0)
    assert p.tobytes() == reference_affinities(x, 30.0).tobytes()
    y, trace = run_tsne(x, TsneParams(perplexity=30.0, iterations=20, seed=7))
    y_ref, trace_ref = reference_descent(p, 20, 200.0, 7)
    assert y.tobytes() == y_ref.tobytes()
    assert np.array(trace).tobytes() == np.array(trace_ref).tobytes()
