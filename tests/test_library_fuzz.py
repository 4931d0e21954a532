"""The library boundary contract, for the public callables of
reidkit.distance and reidkit.camera and for gallery.EmbeddingSet: given a
malformed array, each call returns or raises a ReidError subclass with a
one-line message, and no numpy warning comes first (the suite's
filterwarnings = ["error"] makes one an exception). A NaN or infinite cell,
a complex dtype or the wrong ndim always raises, and a returned float is
finite. The few slots that take some values unchecked leave those variants
out, in UNCHECKED, with the reason.

The malformed arrays are NaN and +-inf cells, 0 rows, 0 columns and 0
stripes, the wrong ndim, int, bool, object and complex dtypes, F-ordered and
strided views, and values near float64's limit. Every public name of the
two modules is in the table or in LEFT_OUT, with a reason; the few
arguments, other than input arrays, that end in Python's own TypeError,
ValueError or AttributeError are in NAMED_ERRORS, each checked to end so."""

import struct

import numpy as np
import pytest

from reidkit import camera, distance, ensemble, metrics, mining, tsne
from reidkit.distance import DistanceMatrix
from reidkit.errors import DataError, ReidError
from reidkit.gallery import EmbeddingSet
from test_surface import MODULES, public_definitions

F64_MAX = np.finfo(np.float64).max


def with_cell(x, value):
    y = x.copy()
    y.flat[1] = value
    return y


def strided(x):
    """x as a view whose every axis has a step of 2 elements."""
    big = np.zeros([2 * n for n in x.shape])
    view = big[tuple(slice(None, None, 2) for _ in x.shape)]
    view[...] = x
    return view


def malformed(x):
    """(id, array, whether the call must raise) for each malformed variant
    of the valid float64 array x, of at least 1 dimension and 2 cells."""
    for name, value in [("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)]:
        yield name, with_cell(x, value), True
    for name, value in [("1e160", 1e160), ("max", F64_MAX), ("-max", -F64_MAX)]:
        yield f"cell_{name}", with_cell(x, value), False
    yield "all_1e154", np.full_like(x, 1e154), False
    yield "all_max", np.full_like(x, F64_MAX), False
    yield "all_subnormal", np.full_like(x, 5e-324), False
    yield "rows_0", x[:0], False
    yield "last_axis_0", x[..., :0], False
    yield "ndim_less", x[0], True
    yield "ndim_more", x[None], True
    yield "int", np.round(10 * x).astype(np.int64), False
    yield "bool", x > x.mean(), False
    yield "object", x.astype(object), False
    yield "complex", x + 0j, True
    yield "complex_imag", x + 1j, True
    yield "f_order", np.asfortranarray(x), False
    yield "strided", strided(x), False


RNG = np.random.default_rng(2101)
Q, G = RNG.uniform(0, 1, (3, 4)), RNG.uniform(0, 1, (5, 4))
STRIPES, G_STRIPES = RNG.uniform(0, 1, (3, 2, 4)), RNG.uniform(0, 1, (5, 2, 4))
SEQ = RNG.uniform(0, 1, (2, 4))
EMB, CAMS, PIDS = RNG.uniform(0, 1, (6, 4)), np.array([0, 1, 0, 2, 1, 2]), np.array([0, 0, 1, 1, 2, 2])
OFFSETS = camera.camera_offsets(EMB, CAMS)
PARAMS = camera.CameraResidualParams({c: 0.1 * RNG.standard_normal((4, 4)) for c in range(3)},
                                     {c: RNG.standard_normal(4) for c in range(3)})


def embeddings(local):
    return EmbeddingSet(np.zeros((len(local), 1)), local)


# (callable name, slot id, valid array the slot varies, call of the variant)
SLOTS = [
    ("DistanceMatrix", "values", Q, DistanceMatrix),
    ("encode_distance_matrix", "d", Q, lambda v: b"".join(distance.encode_distance_matrix(DistanceMatrix(v)))),
    ("combine_distances", "dg", Q,
     lambda v: list(distance.combine_distances(DistanceMatrix(v), DistanceMatrix(Q), 0.5))),
    ("combine_distances", "dl", Q,
     lambda v: list(distance.combine_distances(DistanceMatrix(Q), DistanceMatrix(v), 0.5))),
    ("combine_distances", "both", Q,
     lambda v: list(distance.combine_distances(DistanceMatrix(v), DistanceMatrix(v), 1.0))),
    ("aligned_distance", "a", SEQ, lambda v: distance.aligned_distance(v, SEQ)),
    ("aligned_distance", "b", SEQ, lambda v: distance.aligned_distance(SEQ, v)),
    ("one_to_one_distance", "a", SEQ, lambda v: distance.one_to_one_distance(v, SEQ)),
    ("one_to_one_distance", "b", SEQ, lambda v: distance.one_to_one_distance(SEQ, v)),
]
for _metric in distance.Metric:
    SLOTS += [
        ("distance_matrix", f"q_{_metric.value}", Q, lambda v, m=_metric: distance.distance_matrix(v, G, m)),
        ("distance_matrix", f"g_{_metric.value}", G, lambda v, m=_metric: distance.distance_matrix(Q, v, m)),
        ("global_distance_blocks", f"q_{_metric.value}", Q,
         lambda v, m=_metric: list(distance.global_distance_blocks(v, G, m, 2))),
        ("global_distance_blocks", f"g_{_metric.value}", G,
         lambda v, m=_metric: list(distance.global_distance_blocks(Q, v, m, 2))),
    ]
for _mode in distance.LocalMode:
    SLOTS += [
        ("local_distance_matrix", f"q_{_mode.value}", STRIPES,
         lambda v, m=_mode: distance.local_distance_matrix(embeddings(v), embeddings(G_STRIPES), m)),
        ("local_distance_matrix", f"g_{_mode.value}", G_STRIPES,
         lambda v, m=_mode: distance.local_distance_matrix(embeddings(STRIPES), embeddings(v), m)),
    ]

for _name, _fn, _table in [("camera_normalize", camera.camera_normalize, OFFSETS),
                           ("apply_camera_residual", camera.apply_camera_residual, PARAMS)]:
    SLOTS += [
        (_name, "emb", EMB, lambda v, fn=_fn, t=_table: fn(v, t, CAMS[: len(v)])),
        # into float32 rows, as the CLI writes them
        (_name, "emb_out_float32", EMB,
         lambda v, fn=_fn, t=_table: fn(v, t, CAMS[: len(v)], out=np.empty(np.shape(v), np.float32))),
    ]
SLOTS += [
    ("camera_offsets", "emb", EMB, lambda v: camera.camera_offsets(v, CAMS[: len(v)], PIDS[: len(v)])),
    ("CameraResidualParams", "matrix", PARAMS.matrices[0], lambda v: camera.CameraResidualParams({0: v}, {0: np.zeros(4)})),
    ("CameraResidualParams", "bias", PARAMS.biases[0], lambda v: camera.CameraResidualParams({0: np.eye(4)}, {0: v})),
    ("EmbeddingSet", "global_", EMB, EmbeddingSet),
    ("EmbeddingSet", "local", STRIPES, embeddings),
]

# variants a callable leaves out, with the reason. camera's transforms take
# their rows' values unchecked, with no finiteness pass (one would read every
# row, twice per `camera` run): a NaN or infinite cell comes back non-finite,
# and a cell near float64's limit ends in numpy's overflow warning.
# EmbeddingSet holds non-finite values, which its writer and decoder name.
CAMERA_UNCHECKED = {"nan", "inf", "-inf", "cell_1e160", "cell_max", "cell_-max", "all_1e154", "all_max"}
UNCHECKED = {
    **dict.fromkeys(["camera_offsets", "camera_normalize", "apply_camera_residual"], CAMERA_UNCHECKED),
    "EmbeddingSet": {"nan", "inf", "-inf"},
}

CASES = [
    pytest.param(call, variant, must_raise, id=f"{name}-{slot}-{vid}")
    for name, slot, valid, call in SLOTS
    for vid, variant, must_raise in malformed(valid)
    if vid not in UNCHECKED.get(name, ())
]


def header(n, d, magic=b"RDMX", version=1):
    return struct.pack("<4s5I", magic, version, n, d, 0, 0)


PAYLOAD = np.arange(12, dtype="<f4").reshape(3, 4)

# (id, .rdmx data, whether decoding must raise)
CONTAINERS = [
    ("valid", header(3, 4) + PAYLOAD.tobytes(), False),
    ("empty", b"", True),
    ("header_cut", header(3, 4)[:-1], True),
    ("payload_cut", header(3, 4) + PAYLOAD.tobytes()[:-1], True),
    ("payload_long", header(3, 4) + PAYLOAD.tobytes() + b"\0", True),
    ("magic", header(3, 4, b"REMB") + PAYLOAD.tobytes(), True),
    ("version", header(3, 4, version=2) + PAYLOAD.tobytes(), True),
    ("nan", header(3, 4) + with_cell(PAYLOAD, np.nan).tobytes(), True),
    ("inf", header(3, 4) + with_cell(PAYLOAD, np.inf).tobytes(), True),
    ("negative", header(3, 4) + with_cell(PAYLOAD, -1).tobytes(), True),
    ("float32_max", header(3, 4) + with_cell(PAYLOAD, np.finfo(np.float32).max).tobytes(), False),
    ("rows_0", header(0, 4), False),
    ("columns_0", header(3, 0), False),
    ("bytearray", bytearray(header(3, 4) + PAYLOAD.tobytes()), False),
    ("memoryview", memoryview(header(3, 4) + PAYLOAD.tobytes()), False),
]
CASES += [
    pytest.param(distance.decode_distance_matrix, data, must_raise, id=f"decode_distance_matrix-data-{cid}")
    for cid, data, must_raise in CONTAINERS
]

# (id, lambda, whether check_lambda must raise)
LAMBDAS = [
    ("nan", np.nan, True), ("inf", np.inf, True), ("-inf", -np.inf, True), ("negative", -1e-300, True),
    ("complex", 1j, True), ("complex_zero", np.complex128(1), True), ("zero", 0, False),
    ("negative_zero", -0.0, False), ("max", F64_MAX, False), ("float32", np.float32(0.5), False),
    ("int", 3, False), ("bool", True, False), ("numpy_int", np.int64(2), False),
]
CASES += [
    pytest.param(distance.check_lambda, lam, must_raise, id=f"check_lambda-lam-{lid}")
    for lid, lam, must_raise in LAMBDAS
]
CASES += [
    pytest.param(lambda rows: list(distance.global_distance_blocks(Q, G, "euclidean", rows)), rows,
                 rows < 0, id=f"global_distance_blocks-rows-{rows}")
    for rows in (-1, 0, 1, 2, 3, 4)
]


@pytest.mark.parametrize("call, arg, must_raise", CASES)
def test_returns_or_raises_one_line_reid_error(call, arg, must_raise):
    try:
        got = call(arg)
    except ReidError as e:
        message = str(e)
        assert message and "\n" not in message, repr(message)
        return
    assert not must_raise, f"returned {got!r}"
    if isinstance(got, float):
        assert np.isfinite(got)


# public names of each module that take no array, or that are not callables
LEFT_OUT = {
    "distance": {
        "Metric": "a str Enum of metric names; an unknown name is in NAMED_ERRORS",
        "LocalMode": "a str Enum of local modes; an unknown mode is in NAMED_ERRORS",
        "DISTANCE_MAGIC": "the .rdmx magic bytes, a constant",
    },
    "camera": {
        "CONSISTENCY_EPS": "the consistency score's denominator guard, a constant",
        "CameraOffsets": "the record camera_offsets returns; camera_normalize checks each offset it reads",
        "load_residual_params": "reads a JSON file, not an array; tests/test_camera.py pins its FormatErrors",
    },
}

# non-array arguments that end in Python's or numpy's own error, with the
# reason it is left so: (id, call, exception type, reason)
NAMED_ERRORS = [
    ("unknown_metric", lambda: distance.distance_matrix(Q, G, "manhattan"), ValueError,
     "the Enum's ValueError names the value; the CLI's choices reject it first"),
    ("unknown_mode",
     lambda: distance.local_distance_matrix(embeddings(STRIPES), embeddings(G_STRIPES), "diagonal"), ValueError,
     "the Enum's ValueError names the value; the CLI's choices reject it first"),
    ("lambda_string", lambda: distance.check_lambda("1"), TypeError,
     "a string is no number; the CLI parses --lam as a float"),
    ("lambda_array", lambda: distance.check_lambda(np.array([1.0, 2.0])), ValueError,
     "lambda is one scalar weight; numpy refuses the truth value of an array"),
    ("rows_float", lambda: list(distance.global_distance_blocks(Q, G, "euclidean", 1.5)), TypeError,
     "rows counts query rows; range() refuses a float"),
    ("embeddings_array", lambda: distance.local_distance_matrix(STRIPES, G_STRIPES, "dp_aligned"),
     AttributeError, "local_distance_matrix takes EmbeddingSets, not arrays"),
    ("shape_of_one_axis", lambda: distance.encode_distance_matrix(DistanceMatrix(Q), (12,)), TypeError,
     "shape is the (Q, G) pair of the blocks' whole matrix"),
    ("out_of_another_shape", lambda: camera.camera_normalize(EMB, OFFSETS, CAMS, out=np.empty((4, 6))), ValueError,
     "out is the caller's own buffer, which numpy's out= also refuses in another shape"),
    ("offsets_dict", lambda: camera.camera_normalize(EMB, OFFSETS.offsets, CAMS), AttributeError,
     "camera_normalize takes a CameraOffsets, not its dict"),
]


@pytest.mark.parametrize("call, error", [pytest.param(c, e, id=i) for i, c, e, _ in NAMED_ERRORS])
def test_named_non_array_arguments_raise_as_stated(call, error):
    # a mended one fails here, and moves to the table above
    with pytest.raises(error) as info:
        call()
    assert not isinstance(info.value, ReidError)


def test_every_public_name_is_in_the_table_or_left_out_with_a_reason():
    tabled = {name for name, *_ in SLOTS} | {"decode_distance_matrix", "check_lambda"}
    for module, left_out in LEFT_OUT.items():
        public = {name for name, _ in public_definitions(MODULES[module])}
        assert not tabled & set(left_out)
        covered = tabled & public | set(left_out)
        assert covered == public, (module, sorted(public ^ covered))


@pytest.mark.parametrize("fn, table", [(camera.camera_normalize, OFFSETS), (camera.apply_camera_residual, PARAMS)],
                         ids=["camera_normalize", "apply_camera_residual"])
def test_a_missing_camera_leaves_out_untouched(fn, table):
    # every camera is checked before any row is written, and the first
    # offending row's camera is named
    e = EMB.copy()
    with pytest.raises(DataError, match=" 9$"):
        fn(e, table, [0, 1, 9, 0, 7, 2], out=e)
    assert e.tobytes() == EMB.tobytes()


P4 = tsne.perplexity_affinities(EMB[:4], 2.0)
# one call per callable (per array argument) outside distance's and camera's
# table that casts a caller's array to float: a complex one is a DataError,
# not numpy's ComplexWarning and a dropped imaginary part
COMPLEX_CALLS = [
    ("perplexity_affinities", lambda: tsne.perplexity_affinities(EMB + 1j, 2.0)),
    ("kl_and_gradient-p", lambda: tsne.kl_and_gradient(P4 + 1j, SEQ.T)),
    ("kl_and_gradient-y", lambda: tsne.kl_and_gradient(P4, SEQ.T + 1j)),
    ("batch_hard", lambda: mining.batch_hard(Q[:, :3] + 1j, [0, 0, 1])),
    ("triplet_loss_grad", lambda: mining.triplet_loss_grad(EMB + 1j, [mining.Triplet(0, 2, 1)], 0.3)),
    ("EmaState", lambda: ensemble.EmaState({"w": SEQ + 1j})),
    ("ema_update", lambda: ensemble.ema_update(ensemble.EmaState({"w": SEQ}), {"w": SEQ + 1j})),
    ("consistency_loss_grad-teacher", lambda: ensemble.consistency_loss_grad(SEQ + 1j, SEQ)),
    ("consistency_loss_grad-student", lambda: ensemble.consistency_loss_grad(SEQ, SEQ + 1j)),
    ("EvalReport", lambda: metrics.EvalReport(np.array([0.5, 1.0]) + 1j, [0.5], metrics.EvalProtocol())),
    ("EvalReport-per_query_ap", lambda: metrics.EvalReport(np.array([0.5, 1.0]), [0.5 + 1j], metrics.EvalProtocol())),
    ("cmc_curve", lambda: metrics.cmc_curve(np.array([1, 2]) + 1j, 2)),
    ("CameraResidualParams-matrix", lambda: camera.CameraResidualParams({0: np.eye(4) + 1j}, {0: np.zeros(4)})),
    ("CameraResidualParams-bias", lambda: camera.CameraResidualParams({0: np.eye(4)}, {0: np.zeros(4) + 1j})),
    ("check_lambda", lambda: distance.check_lambda(0.5 + 1j)),
]


@pytest.mark.parametrize("call", [pytest.param(c, id=i) for i, c in COMPLEX_CALLS])
def test_a_complex_array_is_a_data_error(call):
    with pytest.raises(DataError, match="^values must be real, not complex$"):
        call()
