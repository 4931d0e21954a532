import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reidkit.errors import DataError, FormatError, ReidError, TruncationError
from reidkit.imaging import (
    Image,
    Mask,
    _resize_nearest,
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

    @pytest.mark.parametrize("header", [b"P6 1_0 5 255", b"P6 +2 1 255", b"P5 1 -1 255", b"P5 1 1 +255"])
    def test_header_fields_are_ascii_digits(self, header):
        with pytest.raises(FormatError, match="^non-numeric image header field$"):
            decode_image(header + b" " + bytes(30))

    def test_header_field_beyond_the_int_digit_limit(self):
        # int() raises ValueError past 4,300 digits, leading zeros included
        for field in (b"2" * 5000, b"0" * 4999 + b"1"):
            with pytest.raises(FormatError, match="^non-numeric image header field$"):
                decode_image(b"P5 1 1 " + field + b" \0")

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


def oracle_read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """The byte-by-byte header tokenizer decode_image used before its one
    pattern: skip whitespace and '#' comments, then read to whitespace."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise TruncationError("unexpected end of header")
    return data[start:pos], pos


def oracle_decode(data: bytes) -> Image:
    """decode_image as it was with oracle_read_token; int() reads each field."""
    magic = data[:2]
    if magic == b"P6":
        channels = 3
    elif magic == b"P5":
        channels = 1
    else:
        raise FormatError(f"unsupported image magic {magic!r} (binary P5/P6 only)")
    pos = 2
    w_tok, pos = oracle_read_token(data, pos)
    h_tok, pos = oracle_read_token(data, pos)
    max_tok, pos = oracle_read_token(data, pos)
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    except ValueError:
        raise FormatError("non-numeric image header field") from None
    if width < 1 or height < 1:
        raise FormatError("image dimensions must be positive")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}, only 255")
    pos += 1
    expected = width * height * channels
    payload = data[pos : pos + expected]
    if len(payload) != expected:
        raise TruncationError(
            f"pixel data truncated: expected {expected} bytes, got {len(payload)}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return Image(pixels.copy())


def outcome(decode, data):
    """The decoded pixels with their shape, or the error's type and message."""
    try:
        img = decode(data)
    except ReidError as e:
        return type(e), str(e)
    return img.pixels.shape, img.pixels.tobytes()


def oracle_fields(data):
    """The three header fields the oracle reads, or None if it stops before."""
    if data[:2] not in (b"P5", b"P6"):
        return None
    fields, pos = [], 2
    try:
        for _ in range(3):
            field, pos = oracle_read_token(data, pos)
            fields.append(field)
    except TruncationError:
        return None
    return fields


WHITESPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]  # all six bytes.isspace()
comment = st.builds(
    lambda body, end: b"#" + b"".join(body) + end,
    st.lists(st.sampled_from([b"x", b"1", b"#", b" ", b"\t", b"\r", b"P6"]), max_size=4),
    # without a newline the comment runs on to the end of the data
    st.sampled_from([b"\n", b"\n", b"\n", b""]),
)
gap = st.lists(st.sampled_from(WHITESPACE) | comment, max_size=4).map(b"".join)
digits = st.sampled_from([b"1", b"2", b"3", b"0", b"01", b"002"])
maxvals = st.sampled_from([b"255", b"0255", b"1", b"0"])
field = st.one_of(
    digits,
    st.tuples(st.sampled_from([b"+", b"-"]), digits).map(b"".join),  # signs
    st.sampled_from([b"1_0", b"2_", b"_1", b"25_5", b"0_1"]),  # underscores
    st.tuples(digits, st.sampled_from([b"#", b"#x", b"#\t"])).map(b"".join),  # '#' touching a field
    st.sampled_from([b"x", b"1x", b"\xd9\xa1", b"\xff"]),
)


@st.composite
def pnm_files(draw):
    """A P5/P6 header with any mix of whitespace and comments between its
    fields, cut short at times, and a payload near the size it declares."""
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    parts = [magic]
    for name in ("width", "height", "maxval"):
        # a comment straight after a field joins it, so most gaps start with whitespace
        lead = b"" if name == "width" else draw(st.sampled_from(WHITESPACE))
        parts.append(lead + draw(gap))
        plain = draw(st.sampled_from([True] * 9 + [False]))
        parts.append(draw((maxvals if name == "maxval" else digits) if plain else field))
    parts.append(draw(st.sampled_from(WHITESPACE * 3) | comment))
    data = b"".join(parts)
    if draw(st.sampled_from([False] * 9 + [True])):  # cut anywhere in the header
        return data[: draw(st.integers(2, len(data)))]
    fields = oracle_fields(data)
    size = 0
    if fields and all(f.isdigit() for f in fields):
        size = int(fields[0]) * int(fields[1]) * (3 if magic == b"P6" else 1)
    size = max(0, size + draw(st.sampled_from([0, 0, 0, -1, -2, 1])))  # short payloads, one byte too many
    return data + draw(st.binary(min_size=size, max_size=size))


@settings(max_examples=1000, deadline=None)
@given(data=pnm_files())
@example(data=b"P5\n# c\n2 1\n255\n\x01\x02")
@example(data=b"P6 1 1 255 # a comment at the end of the data")
@example(data=b"P5 1#c\n1 255 \x00")
@example(data=b"P5\x0b1\x0c1\r255\t\x07")
@example(data=b"P5 1 1 255")
def test_header_pattern_matches_the_byte_scanner(data):
    fields = oracle_fields(data)
    if fields is not None and not all(f.isdigit() for f in fields):
        # the digit rule: "+2", "-1" and "1_0" are no longer read by int()
        expected = FormatError, "non-numeric image header field"
    else:
        expected = outcome(oracle_decode, data)
    assert outcome(decode_image, data) == expected


@pytest.mark.parametrize(
    "values",
    [
        np.array([[True, False]]),
        np.array([[0, 1]], np.uint8),
        np.array([[2, 1]], np.uint8),
        np.array([[1, 0]], np.int8),
        np.array([[-1, 0]], np.int8),
        np.array([[0, 1]], np.int64),
        np.array([[256, 1]], np.int64),
        np.array([[0.0, 1.0]]),
        np.array([[0.5, 1.0]]),
        np.array([[np.nan, 0.0]]),
        np.array([[-0.0, 1.0]]),
        np.array([[np.inf, 0.0]]),
        np.array([[1 + 0j, 0j]]),
        np.array([[1j, 0]]),
        np.array([[0.5 + 0j, 1]]),
        np.array([[0, 1, True]], dtype=object),
        np.array([[0, "1"]], dtype=object),
        np.array([[None, 1]], dtype=object),
        np.array([["0", "1"]]),
        np.array([[b"1"]]),
    ],
    ids=lambda v: f"{v.dtype}:{v.ravel().tolist()}",
)
# the uint8 cast of an accepted complex mask warns that it drops a zero imaginary part
@pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
def test_mask_accepts_exactly_the_values_isin_accepts(values):
    try:
        m = Mask(values)
    except DataError:
        assert not np.isin(values, (0, 1)).all()
    else:
        assert np.isin(values, (0, 1)).all()
        assert m.values.dtype == np.uint8 and (m.values == values).all()


@settings(max_examples=200, deadline=None)
@given(
    a=hnp.arrays(
        np.uint8,
        st.tuples(st.integers(1, 7), st.integers(1, 7), st.sampled_from([1, 3])),
        elements=st.integers(0, 255),
    ),
    width=st.integers(1, 9),
    height=st.integers(1, 9),
)
def test_resize_nearest_gathers_the_ix_grid(a, width, height):
    rows = (np.arange(height) * a.shape[0]) // height
    cols = (np.arange(width) * a.shape[1]) // width
    expected = a[np.ix_(rows, cols)]
    for source, want in ((a, expected), (a[:, :, 0], expected[:, :, 0])):  # image and mask
        got = _resize_nearest(source, width, height)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
