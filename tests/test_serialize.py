import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mumkit import (
    BasisSet,
    BipartiteState,
    MumSet,
    OperatorBasis,
    Xoshiro256,
    gell_mann_basis,
    grouped_gell_mann_basis,
    isotropic,
    mub_prime,
    mum_criterion,
    mums_from_mubs,
    optimal_mums,
    random_separable,
)
from mumkit import conjugate_mums
from mumkit import serialize as ser


def test_matrix_round_trip_exact():
    gen = Xoshiro256(60)
    a = gen.complex_normals(16).reshape(4, 4)
    text = json.dumps(ser.matrix_to_obj(a))
    back = ser.matrix_from_obj(json.loads(text))
    assert np.array_equal(a, back)


def _entries_by_element(a):
    # the per-entry form matrix_to_obj used before one tolist() per matrix
    return [[float(z.real), float(z.imag)] for z in np.asarray(a, dtype=complex).ravel()]


_C = Xoshiro256(61).complex_normals(36).reshape(6, 6)
_SIGNED_ZEROS = np.array([[0.0, -0.0], [complex(-0.0, 0.0), complex(0.0, -0.0)]])
ENCODER_INPUTS = {
    "c-order": _C,
    "fortran-order": np.asfortranarray(_C),
    "transposed": _C.T,
    "strided": _C[::2, ::2],
    "real": Xoshiro256(62).normals(25).reshape(5, 5),
    "integer": np.arange(9).reshape(3, 3),
    "signed-zeros": _SIGNED_ZEROS,
    "signed-zeros-transposed": _SIGNED_ZEROS.T,
    "basis-d16": gell_mann_basis(16).elements[-1],
}


@pytest.mark.parametrize("a", list(ENCODER_INPUTS.values()), ids=list(ENCODER_INPUTS))
def test_matrix_to_obj_matches_per_entry_encoder(a):
    obj = ser.matrix_to_obj(a)
    assert json.dumps(obj) == json.dumps({"dim": a.shape[0], "entries": _entries_by_element(a)})
    assert all(type(x) is float for pair in obj["entries"] for x in pair)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_entry_makes_dumps_raise(bad):
    a = np.eye(2, dtype=complex)
    a[1, 0] = complex(0.0, bad)
    obj = ser.matrix_to_obj(a)
    assert json.dumps(obj, allow_nan=True) == json.dumps(
        {"dim": 2, "entries": _entries_by_element(a)}, allow_nan=True)
    with pytest.raises(ValueError):
        ser.dumps(obj)


def test_matrix_payload_validation():
    with pytest.raises(ValueError, match="dim"):
        ser.matrix_from_obj({"entries": []})
    with pytest.raises(ValueError, match="entries"):
        ser.matrix_from_obj({"dim": 2, "entries": [[1.0, 0.0]]})


WRONG_TYPED_MATRICES = {
    "null-entry": {"dim": 1, "entries": [[None, 0.0]]},
    "string-entry": {"dim": 1, "entries": [["0.3", 0.0]]},
    "string-imaginary": {"dim": 1, "entries": [[0.3, "0"]]},
    "entries-number": {"dim": 1, "entries": 5},
    "entries-string": {"dim": 1, "entries": "ab"},
    "entry-number": {"dim": 1, "entries": [5]},
    "entry-triple": {"dim": 1, "entries": [[1.0, 0.0, 0.0]]},
    "entry-overflows": {"dim": 1, "entries": [[10 ** 400, 0]]},
    # complex(True, False) is 1+0j
    "bool-real": {"dim": 1, "entries": [[True, 0.0]]},
    "bool-imaginary": {"dim": 1, "entries": [[1.0, False]]},
    "bool-last-entry": {"dim": 2, "entries": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, False]]},
    "dim-null": {"dim": None, "entries": [[1.0, 0.0]]},
    "dim-string": {"dim": "1", "entries": [[1.0, 0.0]]},
    "dim-float": {"dim": 1.0, "entries": [[1.0, 0.0]]},
}


@pytest.mark.parametrize("obj", list(WRONG_TYPED_MATRICES.values()), ids=list(WRONG_TYPED_MATRICES))
def test_wrong_typed_matrix_raises_value_error(obj):
    with pytest.raises(ValueError):
        ser.matrix_from_obj(obj)


def test_wrong_typed_containers_raise_value_error():
    one = {"dim": 1, "entries": [[1.0, 0.0]]}
    with pytest.raises(ValueError, match="basis items"):
        ser.operator_basis_from_obj([1, 2])
    with pytest.raises(ValueError, match="label n"):
        ser.operator_basis_from_obj([{"n": None, "b": 1, "matrix": one}])
    with pytest.raises(ValueError, match="bases"):
        ser.basis_set_from_obj({"d": 1, "bases": 5})
    with pytest.raises(ValueError, match="elements"):
        ser.mums_from_obj({"d": 1, "kappa": 1.0, "elements": 5})
    with pytest.raises(ValueError, match="measurement"):
        ser.mums_from_obj({"d": 1, "kappa": 1.0, "elements": [one]})
    for kappa in ("1", None, 10 ** 400):
        with pytest.raises(ValueError, match="kappa"):
            ser.mums_from_obj({"d": 1, "kappa": kappa, "elements": [[one]]})
    with pytest.raises(ValueError, match="d must be"):
        ser.state_from_obj({"d": [1], "rho": one})
    for grid in ({"p": 1}, [[0.5, "0.5"]], [[0.5, None]], [[0.5], [0.25, 0.25]], [[True]], 5,
                 [[True, 0.0], [0.0, 0.0]], [[1, 0], [0, False]]):
        with pytest.raises(ValueError, match="probability grid"):
            ser.grid_from_obj(grid)
    assert ser.grid_from_obj([[1, 0], [0, 0]]).dtype == float


def test_matrix_dim_below_one_has_its_own_message():
    for dim in (0, -1):
        with pytest.raises(ValueError, match=f"matrix dim must be at least 1, got {dim}"):
            ser.matrix_from_obj({"dim": dim, "entries": []})


@pytest.mark.parametrize("make", [gell_mann_basis, grouped_gell_mann_basis])
def test_operator_basis_labels_must_follow_the_block_rule(make):
    items = ser.value_to_obj(make(3))
    assert ser.operator_basis_from_obj(items).labels == make(3).labels
    items[2]["n"], items[2]["b"], items[5]["n"], items[5]["b"] = (
        items[5]["n"], items[5]["b"], items[2]["n"], items[2]["b"])
    with pytest.raises(ValueError, match=r"item 2 is labelled \(n, b\) = \(2, 3\).*gives \(1, 2\)"):
        ser.operator_basis_from_obj(items)


def test_operator_basis_round_trip():
    basis = gell_mann_basis(3)
    back = ser.operator_basis_from_obj(json.loads(json.dumps(ser.value_to_obj(basis))))
    assert back.d == 3
    assert back.labels == basis.labels
    for a, b in zip(basis.elements, back.elements):
        assert np.array_equal(a, b)


def test_basis_set_round_trip():
    bs = mub_prime(5)
    back = ser.basis_set_from_obj(json.loads(json.dumps(ser.value_to_obj(bs))))
    assert back.d == 5 and back.m == 6
    for a, b in zip(bs.bases, back.bases):
        assert np.array_equal(a, b)


def test_mums_round_trip():
    ms = optimal_mums(3)
    back = ser.mums_from_obj(json.loads(json.dumps(ser.value_to_obj(ms))))
    assert back.d == 3
    assert back.kappa == ms.kappa
    assert back.t == ms.t
    for row_a, row_b in zip(ms.elements, back.elements):
        for a, b in zip(row_a, row_b):
            assert np.array_equal(a, b)


def test_mums_t_null_round_trip():
    from mumkit import mums_from_mubs

    ms = mums_from_mubs(mub_prime(2))
    obj = json.loads(json.dumps(ser.value_to_obj(ms)))
    assert obj["t"] is None
    assert ser.mums_from_obj(obj).t is None


@pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
def test_mums_non_finite_t_raises(t):
    obj = json.loads(json.dumps(ser.value_to_obj(optimal_mums(2))))
    obj["t"] = t
    with pytest.raises(ValueError, match="t must be finite"):
        ser.mums_from_obj(obj)
    obj["t"] = True
    with pytest.raises(ValueError, match="t must be a number"):
        ser.mums_from_obj(obj)


def test_state_round_trip():
    st = isotropic(3, 0.37)
    back = ser.state_from_obj(json.loads(json.dumps(ser.value_to_obj(st))))
    assert back.d == 3
    assert np.array_equal(st.rho, back.rho)


def test_detection_report_schema():
    ms = optimal_mums(2)
    report = mum_criterion(isotropic(2, 0.9), ms, conjugate_mums(ms))
    obj = ser.report_to_obj(report)
    assert set(obj) == {"criterion", "value", "bound", "verdict", "kappa", "d"}
    assert obj["verdict"] == "entangled"
    assert obj["d"] == 2


def test_verification_report_is_strict_json():
    from mumkit import VerificationReport

    finite = VerificationReport(kind="mum-set", tol=1e-9, defects={"psd": 2.5e-16},
                                details={"kappa_inferred": 0.5})
    # finite reports keep the bytes they had before non-finite values became null
    assert ser.dumps(ser.verification_report_to_obj(finite)) == json.dumps({
        "kind": "mum-set", "tol": 1e-9, "passed": True,
        "defects": {"psd": 2.5e-16}, "details": {"kappa_inferred": 0.5},
    }) + "\n"
    broken = VerificationReport(kind="mum-set", tol=1e-9,
                                defects={"psd": float("inf"), "trace_one": 0.0},
                                details={"kappa_inferred": float("nan")})
    obj = ser.verification_report_to_obj(broken)
    assert obj["passed"] is False
    assert obj["defects"] == {"psd": None, "trace_one": 0.0}
    assert obj["details"] == {"kappa_inferred": None}
    with pytest.raises(ValueError):
        ser.dumps({"value": float("nan")})


# -- the value-table encoder: dumps(value) against json.dumps(value_to_obj(value)) --

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               1.0, -2.0, 3.0, 1e16, 2.0 ** 53, 0.1, 1 / 3]
FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
KINDS = (BasisSet, BipartiteState, MumSet, OperatorBasis)


def _stack(shape, pool, seed):
    # entries drawn from a small pool, so values and [re, im] pairs repeat
    pick = np.random.default_rng(seed).integers(len(pool), size=2 * math.prod(shape))
    return np.array(pool)[pick].view(complex).reshape(shape)


@st.composite
def value_objects(draw):
    d = draw(st.integers(2, 4))
    pool = draw(st.lists(FLOATS, min_size=1, max_size=6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    kind = draw(st.sampled_from(KINDS))
    if kind is OperatorBasis:
        return OperatorBasis(d=d, elements=_stack((d * d - 1, d, d), pool, seed))
    if kind is BasisSet:
        return BasisSet(d=d, bases=_stack((draw(st.integers(0, 5)), d, d), pool, seed))
    if kind is MumSet:
        return MumSet(d=d, elements=_stack((d + 1, d, d, d), pool, seed), kappa=draw(FLOATS),
                      t=draw(st.none() | FLOATS))
    return BipartiteState(d=d, rho=_stack((d * d, d * d), pool, seed))


@pytest.mark.parametrize("block", [1, 5, ser._BLOCK_PAIRS])
@settings(max_examples=150, derandomize=True, deadline=None)
@given(value=value_objects())
def test_dumps_matches_json_of_the_object_view(block, value):
    with mock.patch.object(ser, "_BLOCK_PAIRS", block):
        text = ser.dumps(value)
        pieces = list(ser.iterencode(value))
    assert text == json.dumps(ser.value_to_obj(value)) + "\n"
    assert "".join(pieces) == text


MULTI_BLOCK_VALUES = {
    "mums-d16": optimal_mums(16),
    "basis-d16": gell_mann_basis(16),
    # one matrix of 10^4 pairs, cut mid-matrix into blocks
    "state-d10": random_separable(10, 2, 5),
}


@pytest.mark.parametrize("value", list(MULTI_BLOCK_VALUES.values()), ids=list(MULTI_BLOCK_VALUES))
def test_dumps_matches_json_across_blocks(value):
    pieces = list(ser.iterencode(value))
    assert len(pieces) > 1
    # a piece holds one block of at most _BLOCK_PAIRS pairs, each under 60 characters
    assert max(map(len, pieces)) < 60 * ser._BLOCK_PAIRS
    assert "".join(pieces) == json.dumps(ser.value_to_obj(value)) + "\n"


def _with_entry(value, bad):
    if isinstance(value, OperatorBasis):
        return OperatorBasis(d=value.d, elements=_set_last(value.elements, bad))
    if isinstance(value, BasisSet):
        return BasisSet(d=value.d, bases=_set_last(value.bases, bad))
    if isinstance(value, MumSet):
        return MumSet(d=value.d, elements=_set_last(value.elements, bad), kappa=value.kappa,
                      t=value.t)
    return BipartiteState(d=value.d, rho=_set_last(value.rho, bad))


def _set_last(a, bad):
    a = a.copy()
    a.reshape(-1)[-1] = complex(0.5, bad)
    return a


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("value", [gell_mann_basis(16), mub_prime(3), optimal_mums(3),
                                   isotropic(2, 0.5)], ids=lambda v: type(v).__name__)
def test_non_finite_entry_raises_json_error_before_any_piece(value, bad):
    value = _with_entry(value, bad)
    with pytest.raises(ValueError) as want:
        json.dumps(ser.value_to_obj(value), allow_nan=False)
    pieces = ser.iterencode(value)
    with pytest.raises(ValueError) as got:
        next(pieces)
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError):
        ser.dumps(value)


@pytest.mark.parametrize("kappa", [float("nan"), float("inf")])
def test_non_finite_kappa_raises(kappa):
    ms = optimal_mums(2)
    with pytest.raises(ValueError):
        ser.dumps(MumSet(d=2, elements=ms.elements, kappa=kappa, t=ms.t))


def test_plain_objects_are_json_text():
    obj = {"a": [1, 2.5, None], "b": -0.0}
    assert ser.dumps(obj) == json.dumps(obj) + "\n"
    assert list(ser.iterencode(obj)) == [ser.dumps(obj)]


@pytest.mark.parametrize("payload, message", [
    ({"kappa": 0.5, "elements": [[{"dim": 1, "entries": [[1.0, 0.0]]}]]},
     "measurement set payload is missing the key 'd'"),
    ({"d": 2, "elements": [[{"dim": 1, "entries": [[1.0, 0.0]]}]]},
     "measurement set payload is missing the key 'kappa'"),
    ([{"b": 1, "matrix": {"dim": 1, "entries": [[1.0, 0.0]]}}],
     "operator basis item 0 is missing the key 'n'"),
    ([{"n": 1, "matrix": {"dim": 1, "entries": [[1.0, 0.0]]}}],
     "operator basis item 0 is missing the key 'b'"),
    ([{"n": 1, "b": 1}], "operator basis item 0 is missing the key 'matrix'"),
])
def test_missing_key_names_the_key_and_the_payload(payload, message):
    load = ser.operator_basis_from_obj if isinstance(payload, list) else ser.mums_from_obj
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load(payload)


def _without_d(payload):
    del payload["d"]
    return payload


@pytest.mark.parametrize("payload, load, message", [
    # a 4 x 4 state loaded as d = 2, and a 5 x 5 one was refused as "a state for d=2"
    (_without_d(ser.value_to_obj(isotropic(2, 0.5))), ser.state_from_obj,
     "state payload is missing the key 'd'"),
    ({"rho": ser.matrix_to_obj(np.eye(5) / 5)}, ser.state_from_obj,
     "state payload is missing the key 'd'"),
    (_without_d(ser.value_to_obj(mub_prime(3))), ser.basis_set_from_obj,
     "basis set payload is missing the key 'd'"),
    # an empty list of bases loaded as d = 0
    ({"bases": []}, ser.basis_set_from_obj, "basis set payload is missing the key 'd'"),
], ids=["state", "state-5x5", "basis-set", "basis-set-empty"])
def test_loaders_require_d(payload, load, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load(payload)


def _v16_pair_texts(pairs):
    """_pair_texts as it stood before it grouped pairs by lexsort: np.unique of 16-byte keys."""
    keys, which = np.unique(pairs.view("V16").ravel(), return_inverse=True)
    texts = [f"[{re!r}, {im!r}]" for re, im in keys.view(np.float64).reshape(-1, 2).tolist()]
    return np.array(texts, dtype=object)[which].tolist()


PAIR_POOLS = {
    "signed-zeros": [0.0, -0.0, 1.0, -1.0],
    "subnormals": [5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 0.0, -0.0],
    "edge-floats": EDGE_FLOATS,
    "all-equal": [-0.0],
}


@pytest.mark.parametrize("n", [1, 2, 8191, ser._BLOCK_PAIRS])
@pytest.mark.parametrize("pool", list(PAIR_POOLS.values()), ids=list(PAIR_POOLS))
def test_pair_texts_match_the_byte_keyed_grouping(pool, n):
    rng = np.random.default_rng(n)
    # a block is a row slice of the whole stack's pairs, as the encoder cuts it
    whole = np.array(pool)[rng.integers(len(pool), size=(n + 3, 2))]
    pairs = whole[1:n + 1]
    texts = ser._pair_texts(pairs)
    assert texts == _v16_pair_texts(pairs)
    assert texts == [json.dumps(p) for p in pairs.tolist()]


@pytest.mark.parametrize("pair", [(0.0, -0.0), (-0.0, 0.0), (5e-324, -0.0), (0.1, 1 / 3)])
def test_pair_texts_of_an_all_equal_block(pair):
    pairs = np.tile(pair, (ser._BLOCK_PAIRS, 1))
    assert ser._pair_texts(pairs) == _v16_pair_texts(pairs) == [json.dumps(list(pair))] * len(pairs)


def test_dumps_keeps_signed_zeros_apart():
    value = BasisSet(d=2, bases=[_SIGNED_ZEROS, _SIGNED_ZEROS.T, -_SIGNED_ZEROS])
    text = ser.dumps(value)
    assert text == json.dumps(ser.value_to_obj(value)) + "\n"
    assert "[0.0, -0.0]" in text and "[-0.0, 0.0]" in text


# The whole text of three payloads no CLI path writes, frozen before the
# encoder took the text around its matrices from the value_to_obj layout, so
# that text is pinned apart from the views it is now shared with.
FROZEN_TEXTS = {
    "empty-basis-set": (
        BasisSet(d=2, bases=np.zeros((0, 2, 2))),
        '{"d": 2, "bases": []}\n'),
    "mums-t-null": (
        mums_from_mubs(mub_prime(2)),
        '{"d": 2, "kappa": 1.0, "t": null, "elements": ['
        '[{"dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}, '
        '{"dim": 2, "entries": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}], '
        '[{"dim": 2, "entries": [[0.4999999999999999, 0.0], [0.4999999999999999, 0.0], '
        '[0.4999999999999999, 0.0], [0.4999999999999999, 0.0]]}, '
        '{"dim": 2, "entries": [[0.4999999999999999, 0.0], [-0.4999999999999999, -0.0], '
        '[-0.4999999999999999, 0.0], [0.4999999999999999, 0.0]]}], '
        '[{"dim": 2, "entries": [[0.4999999999999999, 0.0], [0.0, -0.4999999999999999], '
        '[0.0, 0.4999999999999999], [0.4999999999999999, 0.0]]}, '
        '{"dim": 2, "entries": [[0.4999999999999999, 0.0], [0.0, 0.4999999999999999], '
        '[0.0, -0.4999999999999999], [0.4999999999999999, 0.0]]}]]}\n'),
    "state-negative-zeros": (
        BipartiteState(d=2, rho=isotropic(2, 0.5).rho.conj()),
        '{"d": 2, "rho": {"dim": 4, "entries": ['
        '[0.37499999999999994, -0.0], [0.0, -0.0], [0.0, -0.0], [0.24999999999999994, -0.0], '
        '[0.0, -0.0], [0.125, -0.0], [0.0, -0.0], [0.0, -0.0], '
        '[0.0, -0.0], [0.0, -0.0], [0.125, -0.0], [0.0, -0.0], '
        '[0.24999999999999994, -0.0], [0.0, -0.0], [0.0, -0.0], [0.37499999999999994, -0.0]'
        ']}}\n'),
}


@pytest.mark.parametrize("value, text", list(FROZEN_TEXTS.values()), ids=list(FROZEN_TEXTS))
def test_payload_text_is_frozen(value, text):
    assert ser.dumps(value) == text
    assert "".join(ser.iterencode(value)) == text
