import numpy as np
import pytest

from reidkit.errors import DataError
from reidkit.featurize import FeaturizerConfig, featurize_images, stripe_histogram
from reidkit.imaging import Image, resize_nearest
from conftest import flat_color


def brute_force_stripe_hist(pixels, stripes, bins):
    """Independent oracle: direct per-pixel counting, no vectorization."""
    h = len(pixels)
    out = []
    for s in range(stripes):
        top = (s * h) // stripes
        bottom = ((s + 1) * h) // stripes
        vec = [0.0] * (3 * bins)
        for row in pixels[top:bottom]:
            for px in row:
                for ch in range(3):
                    b = (px[ch] * bins) // 256
                    vec[ch * bins + b] += 1.0
        total = sum(vec)
        out.append([v / total for v in vec])
    return out


class TestStripeHistogram:
    def test_uniform_red(self):
        img = flat_color(8, 8, (255, 0, 0))
        glob, local = stripe_histogram(img, FeaturizerConfig(stripes=8, bins=4))
        for s in range(8):
            # R-bin 3, G-bin 0, B-bin 0 each get full channel mass 1/3
            expected = np.zeros(12)
            expected[3] = expected[4] = expected[8] = 1 / 3
            np.testing.assert_allclose(local[s], expected, atol=1e-6)
        np.testing.assert_allclose(glob, local[0], atol=1e-6)

    def test_stripe_vectors_normalized(self, rng):
        img = Image(rng.integers(0, 256, size=(16, 5, 3), dtype=np.uint8))
        glob, local = stripe_histogram(img, FeaturizerConfig(stripes=4, bins=8))
        np.testing.assert_allclose(local.sum(axis=1), 1.0, atol=1e-6)
        assert abs(glob.sum() - 1.0) < 1e-6

    def test_known_layout_matches_counting_oracle(self):
        # 4x2 image, two gray levels {0, 255}, S=2, B=2
        px = np.array(
            [
                [[0, 0, 0], [255, 255, 255]],
                [[255, 255, 255], [255, 255, 255]],
                [[0, 0, 0], [0, 0, 0]],
                [[0, 0, 0], [255, 0, 0]],
            ],
            dtype=np.uint8,
        )
        _, local = stripe_histogram(Image(px), FeaturizerConfig(stripes=2, bins=2))
        oracle = brute_force_stripe_hist(px.tolist(), 2, 2)
        np.testing.assert_allclose(local, oracle, atol=1e-6)

    def test_random_matches_counting_oracle(self, rng):
        # heights 10, 11 and 13 are not multiples of the stripe count, so
        # the floor(s*H/S) bounds give stripes of unequal height
        for h, w, stripes, bins in [(9, 4, 3, 4), (10, 3, 3, 5), (11, 2, 4, 2), (13, 5, 5, 39), (7, 1, 7, 8), (6, 3, 2, 256)]:
            px = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            _, local = stripe_histogram(Image(px), FeaturizerConfig(stripes=stripes, bins=bins))
            oracle = brute_force_stripe_hist(px.tolist(), stripes, bins)
            np.testing.assert_allclose(local, oracle, atol=1e-6)

    @pytest.mark.parametrize("bins", [1, 257, 100_000_000])
    def test_bins_outside_8_bit_range_rejected(self, bins):
        with pytest.raises(DataError, match=r"bins per channel must be in \[2, 256\]"):
            FeaturizerConfig(bins=bins)

    def test_too_few_rows(self):
        with pytest.raises(DataError, match="height"):
            stripe_histogram(flat_color(4, 4, (0, 0, 0)), FeaturizerConfig(stripes=8))


class TestProperties:
    def test_invariant_to_integer_upscale(self, rng):
        px = rng.integers(0, 256, size=(8, 3, 3), dtype=np.uint8)
        img = Image(px)
        cfg = FeaturizerConfig(stripes=4, bins=8)
        g1, l1 = stripe_histogram(img, cfg)
        g2, l2 = stripe_histogram(resize_nearest(img, 6, 16), cfg)
        np.testing.assert_allclose(l1, l2, atol=1e-6)
        np.testing.assert_allclose(g1, g2, atol=1e-6)

    def test_within_stripe_pixel_permutation(self, rng):
        px = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
        cfg = FeaturizerConfig(stripes=2, bins=8)
        _, l1 = stripe_histogram(Image(px), cfg)
        shuffled = px.copy()
        for top, bottom in [(0, 2), (2, 4)]:
            block = shuffled[top:bottom].reshape(-1, 3)
            rng.shuffle(block, axis=0)
            shuffled[top:bottom] = block.reshape(bottom - top, 6, 3)
        _, l2 = stripe_histogram(Image(shuffled), cfg)
        np.testing.assert_allclose(l1, l2, atol=1e-6)


def test_featurize_images_alignment(rng):
    cfg = FeaturizerConfig(stripes=2, bins=4)
    for n in (3, 0):
        imgs = [Image(rng.integers(0, 256, size=(8, 4, 3), dtype=np.uint8)) for _ in range(n)]
        emb = featurize_images(imgs, cfg)
        assert emb.global_.shape == (n, 12) and emb.global_.dtype == np.float32
        assert emb.local.shape == (n, 2, 12) and emb.local.dtype == np.float32
        for img, g, l in zip(imgs, emb.global_, emb.local):
            g0, l0 = stripe_histogram(img, cfg)
            np.testing.assert_array_equal(g, g0)
            np.testing.assert_array_equal(l, l0)
