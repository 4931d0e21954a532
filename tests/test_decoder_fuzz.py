"""Mutated `.remb`, `.rdmx` and PPM/PGM bytes either decode or raise a
ReidError; no other exception (or warning) escapes a decoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidkit import distance, gallery, imaging
from reidkit.errors import ReidError


def valid_encodings():
    rng = np.random.default_rng(0)
    emb = gallery.EmbeddingSet(
        rng.standard_normal((3, 4)).astype(np.float32),
        rng.standard_normal((3, 2, 5)).astype(np.float32),
    )
    dist = distance.DistanceMatrix(rng.uniform(0, 2, (3, 4)))
    rgb = imaging.Image(rng.integers(0, 256, (4, 3, 3), dtype=np.uint8))
    gray = imaging.Image(rng.integers(0, 256, (4, 3, 1), dtype=np.uint8))
    return {
        "remb": (gallery.decode_embeddings, bytes(gallery.encode_embeddings(emb))),
        "rdmx": (distance.decode_distance_matrix, bytes(distance.encode_distance_matrix(dist))),
        "ppm": (imaging.decode_image, imaging.encode_image(rgb)),
        "pgm": (imaging.decode_image, imaging.encode_image(gray)),
    }


ENCODINGS = valid_encodings()

# (kind, relative position in [0, 1], byte): overwrite, insert or delete one
# byte, or truncate the stream there
mutations = st.lists(
    st.tuples(
        st.sampled_from(["set", "insert", "delete", "truncate"]),
        st.floats(0, 1),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=8,
)


def mutate(data: bytes, ops) -> bytes:
    buf = bytearray(data)
    for kind, where, byte in ops:
        i = min(int(where * len(buf)), max(len(buf) - 1, 0))
        if kind == "set" and buf:
            buf[i] = byte
        elif kind == "insert":
            buf.insert(i, byte)
        elif kind == "delete" and buf:
            del buf[i]
        elif kind == "truncate":
            del buf[i:]
    return bytes(buf)


@pytest.mark.parametrize("fmt", sorted(ENCODINGS))
@settings(max_examples=300, deadline=None)
@given(ops=mutations)
def test_mutated_bytes_decode_or_raise_reid_error(fmt, ops):
    decode, data = ENCODINGS[fmt]
    try:
        decode(mutate(data, ops))
    except ReidError:
        pass
