"""Minimal image IO (binary PPM/PGM) and mask-guidance preprocessing."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError, TruncationError

MASK_THRESHOLD = 128  # 8-bit masks binarize at >= 128

# magic, then three fields, each after whitespace and '#' comments that run to
# the end of a line; a field runs to the next whitespace byte. The lookaheads
# keep a comment or field from matching only a prefix of itself.
_HEADER = re.compile(rb"P[56]" + rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]\S*)(?!\S)" * 3)


@dataclass(frozen=True)
class Image:
    """8-bit image, pixels shaped (height, width, channels), channels 1 or 3."""

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels)
        if p.dtype != np.uint8:
            # NaN, inf and a non-zero imaginary part fail the test below; the
            # real part keeps the cast of a complex array from warning
            with np.errstate(invalid="ignore"):
                cast = p.real.astype(np.uint8)
            if not (cast == p).all():
                raise DataError("pixel values must be integers in [0, 255]")
            p = cast
        if p.ndim == 2:
            p = p[:, :, None]
        if p.ndim != 3 or p.shape[2] not in (1, 3):
            raise DataError("pixels must be (H, W, 1) or (H, W, 3)")
        if p.shape[0] < 1 or p.shape[1] < 1:
            raise DataError("image dimensions must be positive")
        object.__setattr__(self, "pixels", p)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


@dataclass(frozen=True)
class Mask:
    """Binary mask shaped (height, width), values strictly in {0, 1}."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2:
            raise DataError("mask must be a 2-D array")
        # checked before the uint8 cast, which would wrap 256 to 0; the cast
        # takes the real part, so a complex array converts without a warning
        if not ((v == 0) | (v == 1)).all():
            raise DataError("mask values must be binary {0, 1}")
        object.__setattr__(self, "values", v.real.astype(np.uint8, copy=False))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def decode_image(data: bytes) -> Image:
    """Decode binary PPM (P6, RGB) or PGM (P5, gray), maxval 255."""
    magic = data[:2]
    if magic == b"P6":
        channels = 3
    elif magic == b"P5":
        channels = 1
    else:
        raise FormatError(f"unsupported image magic {magic!r} (binary P5/P6 only)")
    header = _HEADER.match(data)
    if header is None:
        raise TruncationError("unexpected end of header")
    fields = header.groups()
    # ASCII digits only: int() alone would also read "+2", "-1" and "1_0"
    if not all(f.isdigit() for f in fields):
        raise FormatError("non-numeric image header field")
    try:
        width, height, maxval = map(int, fields)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise FormatError("non-numeric image header field") from None
    if width < 1 or height < 1:
        raise FormatError("image dimensions must be positive")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}, only 255")
    pos = header.end() + 1  # single whitespace byte after maxval
    expected = width * height * channels
    payload = data[pos : pos + expected]
    if len(payload) != expected:
        raise TruncationError(
            f"pixel data truncated: expected {expected} bytes, got {len(payload)}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return Image(pixels.copy())


def encode_image(img: Image) -> bytes:
    """Encode to binary PPM (3-channel) or PGM (1-channel), maxval 255."""
    magic = b"P6" if img.channels == 3 else b"P5"
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    return header + img.pixels.tobytes()


def mask_from_image(img: Image) -> Mask:
    """Binarize a 1-channel image into a mask (threshold at 128)."""
    if img.channels != 1:
        raise DataError("mask source must be a 1-channel image")
    return Mask((img.pixels[:, :, 0] >= MASK_THRESHOLD).astype(np.uint8))


def _resize_nearest(a: np.ndarray, width: int, height: int) -> np.ndarray:
    """Nearest-neighbor resample of the first two (height, width) axes of a."""
    if width < 1 or height < 1:
        raise DataError("target dimensions must be positive")
    rows = (np.arange(height) * a.shape[0]) // height
    cols = (np.arange(width) * a.shape[1]) // width
    return a[rows][:, cols]


def resize_nearest(img: Image, width: int, height: int) -> Image:
    """Nearest-neighbor resize; source index = floor(target * src / dst)."""
    return Image(_resize_nearest(img.pixels, width, height))


def resize_mask_nearest(m: Mask, width: int, height: int) -> Mask:
    return Mask(_resize_nearest(m.values, width, height))


def _check_mask_size(img: Image, m: Mask) -> None:
    if (img.height, img.width) != (m.height, m.width):
        raise DataError(
            f"mask size {m.width}x{m.height} != image size {img.width}x{img.height}"
        )


def apply_mask(img: Image, m: Mask) -> Image:
    """Zero out background pixels (mask 0); foreground kept verbatim."""
    _check_mask_size(img, m)
    return Image(img.pixels * m.values[:, :, None])


def fuse_mask_channel(img: Image, m: Mask) -> np.ndarray:
    """Stack RGB scaled to [0, 1] with the binary mask as a 4th channel.

    This is the fused input tensor a mask-aware model's first layer
    would consume; returns float32 of shape (H, W, 4).
    """
    if img.channels != 3:
        raise DataError("fuse_mask_channel requires a 3-channel image")
    _check_mask_size(img, m)
    out = np.empty((img.height, img.width, 4), dtype=np.float32)
    out[:, :, :3] = img.pixels.astype(np.float32) / 255.0
    out[:, :, 3] = m.values
    return out
