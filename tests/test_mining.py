from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidkit.errors import DataError
from reidkit.gallery import Role
from reidkit.mining import (
    MiningConfig,
    Triplet,
    batch_hard,
    pk_sample,
    triplet_loss_grad,
)
from conftest import build_index
from test_acceptance import batch_hard_oracle


def pk_sample_reference(index, cfg):
    """The per-row defaultdict grouping that pk_sample replaced, with its
    bound on P*K."""
    by_pid = defaultdict(list)
    for i, (pid, role) in enumerate(zip(index.person_ids.tolist(), index.roles)):
        if role == Role.TRAIN:
            by_pid[pid].append(i)
    pids = sorted(by_pid)
    if len(pids) < cfg.p:
        raise DataError(f"need {cfg.p} distinct person ids, found {len(pids)}")
    n_train = sum(map(len, by_pid.values()))
    if cfg.p * cfg.k > n_train:
        raise DataError(f"P x K = {cfg.p * cfg.k} exceeds the {n_train} train rows")
    rng = np.random.default_rng(cfg.seed)
    chosen_pids = rng.choice(len(pids), size=cfg.p, replace=False)
    batch = []
    for pi in chosen_pids:
        rows = by_pid[pids[pi]]
        replace = len(rows) < cfg.k
        picks = rng.choice(len(rows), size=cfg.k, replace=replace)
        batch.extend(rows[j] for j in picks)
    return np.array(batch, dtype=np.int64)


def triplet_loss_grad_reference(emb, triplets, margin):
    """The per-triplet loop that triplet_loss_grad replaced."""
    e = np.asarray(emb, dtype=np.float64)
    grad = np.zeros_like(e)
    total = 0.0
    scale = 1.0 / len(triplets)
    for t in triplets:
        ap = e[t.anchor] - e[t.positive]
        an = e[t.anchor] - e[t.negative]
        d_ap = np.linalg.norm(ap)
        d_an = np.linalg.norm(an)
        hinge = d_ap - d_an + margin
        if hinge <= 0:
            continue
        total += hinge
        u_ap = ap / d_ap if d_ap > 0 else np.zeros_like(ap)
        u_an = an / d_an if d_an > 0 else np.zeros_like(an)
        grad[t.anchor] += scale * (u_ap - u_an)
        grad[t.positive] -= scale * u_ap
        grad[t.negative] += scale * u_an
    return total * scale, grad


class TestPkSample:
    @settings(max_examples=150, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.sampled_from([0, 1, 7, 8, 40, 999, 10**6, 2**63 - 1]),
                st.integers(0, 5),
                st.sampled_from(["train", "train", "query", "gallery"]),
            ),
            max_size=60,
        ),
        p=st.integers(2, 5),
        k=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference(self, entries, p, k, seed):
        # mixed roles, non-contiguous ids and identities with fewer than K rows
        index = build_index(entries)
        cfg = MiningConfig(p=p, k=k, seed=seed)
        try:
            expected = pk_sample_reference(index, cfg)
        except DataError as e:
            with pytest.raises(DataError, match=f"^{e}$"):
                pk_sample(index, cfg)
            return
        got = pk_sample(index, cfg)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("entries", [[], [(1, 1, "query"), (2, 1, "gallery")]], ids=["empty", "no_train"])
    def test_no_train_rows(self, entries):
        with pytest.raises(DataError, match="^need 2 distinct person ids, found 0$"):
            pk_sample(build_index(entries), MiningConfig(p=2, k=2))

    def _index(self, counts):
        entries = []
        for pid, n in counts.items():
            entries += [(pid, 1, "train")] * n
        return build_index(entries)

    def test_shape_contract(self):
        index = self._index({1: 3, 2: 2, 3: 1})
        cfg = MiningConfig(p=2, k=2, seed=7)
        batch = pk_sample(index, cfg)
        assert len(batch) == 4
        pids = index.person_ids[batch].tolist()
        assert len(set(pids)) == 2
        for pid in set(pids):
            assert pids.count(pid) == 2

    def test_replacement_fallback(self):
        index = self._index({1: 1, 2: 3})
        # force both ids into the batch
        batch = pk_sample(index, MiningConfig(p=2, k=2, seed=0))
        pids = index.person_ids[batch].tolist()
        assert pids.count(1) == 2  # sole image of id 1 repeated

    def test_deterministic_given_seed(self):
        index = self._index({1: 5, 2: 5, 3: 5})
        cfg = MiningConfig(p=2, k=3, seed=42)
        np.testing.assert_array_equal(pk_sample(index, cfg), pk_sample(index, cfg))

    def test_too_few_ids(self):
        index = self._index({1: 5})
        with pytest.raises(DataError, match="1"):
            pk_sample(index, MiningConfig(p=2, k=2))

    def test_non_train_rows_ignored(self):
        entries = [(1, 1, "train")] * 3 + [(2, 1, "train")] * 3 + [(3, 1, "gallery")] * 3
        index = build_index(entries)
        batch = pk_sample(index, MiningConfig(p=2, k=2, seed=1))
        assert all(index.roles[i] == "train" for i in batch)


class TestBatchHard:
    def test_hand_case(self):
        labels = ["a", "a", "b", "b"]
        d = np.array(
            [
                [0.0, 0.2, 0.5, 0.4],
                [0.2, 0.0, 0.6, 0.7],
                [0.5, 0.6, 0.0, 0.1],
                [0.4, 0.7, 0.1, 0.0],
            ]
        )
        ts = batch_hard(d, labels)
        assert ts[0] == Triplet(0, 1, 3)

    def test_forced_positive_two_per_label(self, rng):
        labels = ["a", "a", "b", "b"]
        d = rng.uniform(0.1, 1.0, (4, 4))
        ts = batch_hard(d, labels)
        assert ts[0].positive == 1
        assert ts[1].positive == 0
        assert ts[2].positive == 3

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(1000):
            labels = rng.integers(0, 3, size=8)
            while len(np.unique(labels)) < 2 or (np.bincount(labels, minlength=3)[np.unique(labels)] < 2).any():
                labels = rng.integers(0, 3, size=8)
            d = rng.uniform(0, 1, (8, 8))
            d = (d + d.T) / 2
            np.fill_diagonal(d, 0)
            got = [(t.anchor, t.positive, t.negative) for t in batch_hard(d, labels)]
            assert got == batch_hard_oracle(d.tolist(), labels.tolist())

    def test_monotone_transform_invariance(self, rng):
        labels = [0, 0, 1, 1, 2, 2]
        d = rng.uniform(0, 1, (6, 6))
        t1 = batch_hard(d, labels)
        t2 = batch_hard(np.exp(2 * d) - 1, labels)
        assert t1 == t2

    def test_empty_batch_has_no_triplets(self):
        assert batch_hard(np.zeros((0, 0)), []) == ()

    def test_distance_shape_must_match_the_labels(self):
        with pytest.raises(DataError, match=r"^distance matrix shape \(2, 3\) != \(2, 2\)$"):
            batch_hard(np.zeros((2, 3)), ["a", "b"])

    def test_missing_negative(self):
        with pytest.raises(DataError, match="negative"):
            batch_hard(np.zeros((2, 2)), ["a", "a"])

    @pytest.mark.parametrize(
        "labels,message",
        [
            ([0, 0, 1, 2, 2], "anchor 2 has no positive"),
            ([0, 1, 1], "anchor 0 has no positive"),
            ([3, 3, 3], "anchor 0 has no negative"),
        ],
    )
    def test_error_names_first_offending_anchor(self, labels, message):
        with pytest.raises(DataError, match=f"^{message} in batch$"):
            batch_hard(np.zeros((len(labels), len(labels))), labels)


class TestTripletLoss:
    def _embed_with_distances(self, d_ap, d_an):
        # 1-D embeddings on a line: a=0, p=d_ap, n=-d_an
        return np.array([[0.0], [d_ap], [-d_an]])

    def test_active_hinge_value(self):
        e = self._embed_with_distances(1.2, 0.8)
        loss, _ = triplet_loss_grad(e, (Triplet(0, 1, 2),), 0.3)
        assert loss == pytest.approx(0.7)

    def test_inactive_hinge_zero_everything(self):
        e = self._embed_with_distances(0.2, 0.9)
        loss, grad = triplet_loss_grad(e, (Triplet(0, 1, 2),), 0.3)
        assert loss == 0.0
        assert (grad == 0).all()

    def test_empty_triplet_set(self):
        with pytest.raises(DataError):
            triplet_loss_grad(np.zeros((2, 2)), (), 0.3)

    def test_loss_nonnegative_random(self, rng):
        for _ in range(50):
            e = rng.standard_normal((6, 4))
            ts = (Triplet(0, 1, 2), Triplet(3, 4, 5))
            loss, _ = triplet_loss_grad(e, ts, 0.3)
            assert loss >= 0.0

    def test_gradient_matches_finite_differences(self, rng):
        margin = 0.3
        checked = 0
        while checked < 30:
            e = rng.standard_normal((5, 4))
            ts = (Triplet(0, 1, 2), Triplet(3, 4, 0))
            # stay away from the hinge kink
            ok = True
            for t in ts:
                d_ap = np.linalg.norm(e[t.anchor] - e[t.positive])
                d_an = np.linalg.norm(e[t.anchor] - e[t.negative])
                if abs(d_ap - d_an + margin) <= 1e-2:
                    ok = False
            if not ok:
                continue
            loss, grad = triplet_loss_grad(e, ts, margin)
            h = 1e-4
            fd = np.zeros_like(e)
            for i in range(e.shape[0]):
                for j in range(e.shape[1]):
                    ep, em = e.copy(), e.copy()
                    ep[i, j] += h
                    em[i, j] -= h
                    lp, _ = triplet_loss_grad(ep, ts, margin)
                    lm, _ = triplet_loss_grad(em, ts, margin)
                    fd[i, j] = (lp - lm) / (2 * h)
            denom = max(np.abs(fd).max(), 1e-8)
            assert np.abs(grad - fd).max() / denom <= 1e-4
            checked += 1

    def test_gradient_additive_over_triplets(self, rng):
        e = rng.standard_normal((6, 3))
        t1 = (Triplet(0, 1, 2),)
        t2 = (Triplet(3, 4, 5),)
        both = t1 + t2
        l1, g1 = triplet_loss_grad(e, t1, 0.3)
        l2, g2 = triplet_loss_grad(e, t2, 0.3)
        lb, gb = triplet_loss_grad(e, both, 0.3)
        assert lb == pytest.approx((l1 + l2) / 2)
        np.testing.assert_allclose(gb, (g1 + g2) / 2, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 70),
        dim=st.sampled_from([1, 2, 3, 7, 64, 129, 2048]),
        dtype=st.sampled_from([np.float32, np.float64]),
        distinct=st.sampled_from([1, 2, 5, None]),
        margin=st.sampled_from([0.0, 0.3, 5.0]),
    )
    def test_bytes_equal_the_per_triplet_loop(self, seed, n, dim, dtype, distinct, margin):
        rng = np.random.default_rng(seed)
        # a few distinct rows repeated gives zero-length differences and tied hinges
        pool = rng.standard_normal((distinct or n, dim)).astype(dtype)
        e = pool[rng.integers(0, len(pool), n)]
        ts = tuple(map(Triplet, *rng.integers(0, n, (3, int(rng.integers(1, 2 * n)))).tolist()))
        loss, grad = triplet_loss_grad(e, ts, margin)
        ref_loss, ref_grad = triplet_loss_grad_reference(e, ts, margin)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert grad.dtype == ref_grad.dtype and grad.tobytes() == ref_grad.tobytes()
