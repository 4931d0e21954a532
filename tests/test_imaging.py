import numpy as np
import pytest

from reidkit.errors import DataError, FormatError, TruncationError
from reidkit.imaging import (
    Image,
    Mask,
    apply_mask,
    decode_image,
    encode_image,
    fuse_mask_channel,
    mask_from_image,
    resize_mask_nearest,
    resize_nearest,
)
from conftest import flat_color, make_rgb


class TestDecode:
    def test_p6_2x1(self):
        img = decode_image(b"P6 2 1 255 " + bytes([10, 20, 30, 40, 50, 60]))
        assert (img.width, img.height, img.channels) == (2, 1, 3)
        assert img.pixels[0, 0].tolist() == [10, 20, 30]
        assert img.pixels[0, 1].tolist() == [40, 50, 60]

    def test_p5_mask_convertible(self):
        img = decode_image(b"P5 2 2 255 " + bytes([0, 255, 255, 0]))
        m = mask_from_image(img)
        assert m.values.tolist() == [[0, 1], [1, 0]]

    def test_ascii_ppm_rejected(self):
        with pytest.raises(FormatError, match="P3"):
            decode_image(b"P3 1 1 255 1 2 3")

    def test_bad_maxval(self):
        with pytest.raises(FormatError, match="maxval"):
            decode_image(b"P5 1 1 65535 " + b"\0\0")

    def test_truncated_pixels(self):
        with pytest.raises(TruncationError):
            decode_image(b"P6 2 2 255 " + bytes(5))

    def test_comments_in_header(self):
        img = decode_image(b"P5\n# a comment\n1 1\n255\n" + bytes([7]))
        assert img.pixels[0, 0, 0] == 7

    def test_encode_round_trip(self, rng):
        img = Image(rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8))
        back = decode_image(encode_image(img))
        assert np.array_equal(back.pixels, img.pixels)


class TestResize:
    def test_identity(self, rng):
        img = Image(rng.integers(0, 256, size=(2, 2, 3), dtype=np.uint8))
        assert np.array_equal(resize_nearest(img, 2, 2).pixels, img.pixels)

    def test_constant_extension(self):
        img = flat_color(1, 1, (9, 9, 9))
        out = resize_nearest(img, 3, 3)
        assert (out.pixels == 9).all()

    def test_downsample_row(self):
        # 4x1 row {10,20,30,40} -> 2x1: source col = floor(target*4/2) = {0, 2}
        img = Image(np.array([[[10], [20], [30], [40]]], dtype=np.uint8))
        out = resize_nearest(img, 2, 1)
        assert out.pixels[:, :, 0].tolist() == [[10, 30]]


class TestApplyMask:
    def test_all_ones_identity(self, rng):
        img = Image(rng.integers(0, 256, size=(3, 3, 3), dtype=np.uint8))
        m = Mask(np.ones((3, 3), dtype=np.uint8))
        assert np.array_equal(apply_mask(img, m).pixels, img.pixels)

    def test_all_zeros(self, rng):
        img = Image(rng.integers(0, 256, size=(3, 3, 3), dtype=np.uint8))
        m = Mask(np.zeros((3, 3), dtype=np.uint8))
        assert (apply_mask(img, m).pixels == 0).all()

    def test_idempotent(self, rng):
        img = Image(rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8))
        m = Mask(rng.integers(0, 2, size=(4, 4), dtype=np.uint8))
        once = apply_mask(img, m)
        twice = apply_mask(once, m)
        assert np.array_equal(once.pixels, twice.pixels)

    def test_size_mismatch(self):
        with pytest.raises(DataError, match="size"):
            apply_mask(flat_color(2, 2, (1, 1, 1)), Mask(np.ones((3, 3), np.uint8)))

    def test_commutes_with_resize(self, rng):
        img = Image(rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8))
        m = Mask(rng.integers(0, 2, size=(4, 4), dtype=np.uint8))
        a = resize_nearest(apply_mask(img, m), 8, 8)
        b = apply_mask(resize_nearest(img, 8, 8), resize_mask_nearest(m, 8, 8))
        assert np.array_equal(a.pixels, b.pixels)


class TestFuse:
    def test_red_pixel(self):
        img = flat_color(1, 1, (255, 0, 0))
        m = Mask(np.ones((1, 1), dtype=np.uint8))
        t = fuse_mask_channel(img, m)
        assert t.shape == (1, 1, 4)
        assert t[0, 0].tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_zero_mask_keeps_rgb(self, rng):
        px = rng.integers(0, 256, size=(2, 3, 3), dtype=np.uint8)
        t = fuse_mask_channel(Image(px), Mask(np.zeros((2, 3), np.uint8)))
        assert (t[:, :, 3] == 0).all()
        assert np.allclose(t[:, :, :3], px / 255.0)

    def test_shape_matches_input(self, rng):
        for h, w in [(2, 5), (7, 3), (1, 1)]:
            img = Image(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
            m = Mask(rng.integers(0, 2, size=(h, w), dtype=np.uint8))
            assert fuse_mask_channel(img, m).shape == (h, w, 4)

    def test_rgb_recoverable(self, rng):
        # invertible up to the /255 quantization
        px = rng.integers(0, 256, size=(3, 3, 3), dtype=np.uint8)
        t = fuse_mask_channel(Image(px), Mask(np.ones((3, 3), np.uint8)))
        assert np.array_equal(np.round(t[:, :, :3] * 255).astype(np.uint8), px)

    def test_gray_image_rejected(self):
        img = Image(np.zeros((2, 2, 1), dtype=np.uint8))
        with pytest.raises(DataError):
            fuse_mask_channel(img, Mask(np.ones((2, 2), np.uint8)))


def test_make_rgb_helper():
    img = make_rgb([[[1, 2, 3]]])
    assert (img.height, img.width, img.channels) == (1, 1, 3)


@pytest.mark.parametrize(
    "make,values",
    [
        (Mask, [[256, 257]]),
        (Mask, [[0.5, 1.0]]),
        (Mask, [[np.nan, 1.0]]),
        (Image, [[[300]]]),
        (Image, [[[-1.7]]]),
        (Image, [[[0.5]]]),
        (Image, [[[np.inf]]]),
    ],
)
def test_values_the_uint8_cast_would_change_are_rejected(make, values):
    for given in (values, np.array(values)):
        with pytest.raises(DataError):
            make(given)


def test_integral_values_in_uint8_range_are_stored_as_uint8():
    assert Image(np.array([[[0.0, 255.0, 7.0]]])).pixels.tolist() == [[[0, 255, 7]]]
    assert Mask(np.array([[True, False]])).values.dtype == np.uint8
