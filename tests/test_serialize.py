import contextlib
import io
import json
import math
import os
import re
import tempfile
import time
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
from mumkit import build_mums, conjugate_mums, optimal_kappa, t_from_kappa
from mumkit import serialize as ser
from mumkit.cli import run_cli

from oracles import traced_peak_mib


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
        ser.value_from_obj([1, 2])
    with pytest.raises(ValueError, match="label n"):
        ser.value_from_obj([{"n": None, "b": 1, "matrix": one}])
    with pytest.raises(ValueError, match="bases"):
        ser.value_from_obj({"d": 1, "bases": 5})
    with pytest.raises(ValueError, match="elements"):
        ser.value_from_obj({"d": 1, "kappa": 1.0, "elements": 5})
    with pytest.raises(ValueError, match="measurement"):
        ser.value_from_obj({"d": 1, "kappa": 1.0, "elements": [one]})
    for kappa in ("1", None, 10 ** 400):
        with pytest.raises(ValueError, match="kappa"):
            ser.value_from_obj({"d": 1, "kappa": kappa, "elements": [[one]]})
    with pytest.raises(ValueError, match="d must be"):
        ser.value_from_obj({"d": [1], "rho": one})
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
    assert ser.value_from_obj(items).labels == make(3).labels
    items[2]["n"], items[2]["b"], items[5]["n"], items[5]["b"] = (
        items[5]["n"], items[5]["b"], items[2]["n"], items[2]["b"])
    with pytest.raises(ValueError, match=r"item 2 is labelled \(n, b\) = \(2, 3\).*gives \(1, 2\)"):
        ser.value_from_obj(items)


def test_operator_basis_round_trip():
    basis = gell_mann_basis(3)
    back = ser.value_from_obj(json.loads(json.dumps(ser.value_to_obj(basis))))
    assert back.d == 3
    assert back.labels == basis.labels
    for a, b in zip(basis.elements, back.elements):
        assert np.array_equal(a, b)


def test_basis_set_round_trip():
    bs = mub_prime(5)
    back = ser.value_from_obj(json.loads(json.dumps(ser.value_to_obj(bs))))
    assert back.d == 5 and back.m == 6
    for a, b in zip(bs.bases, back.bases):
        assert np.array_equal(a, b)


def test_mums_round_trip():
    ms = optimal_mums(3)
    back = ser.value_from_obj(json.loads(json.dumps(ser.value_to_obj(ms))))
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
    assert ser.value_from_obj(obj).t is None


@pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
def test_mums_non_finite_t_raises(t):
    obj = json.loads(json.dumps(ser.value_to_obj(optimal_mums(2))))
    obj["t"] = t
    with pytest.raises(ValueError, match="t must be finite"):
        ser.value_from_obj(obj)
    obj["t"] = True
    with pytest.raises(ValueError, match="t must be a number"):
        ser.value_from_obj(obj)


def test_state_round_trip():
    st = isotropic(3, 0.37)
    back = ser.value_from_obj(json.loads(json.dumps(ser.value_to_obj(st))))
    assert back.d == 3
    assert np.array_equal(st.rho, back.rho)


def test_detection_report_schema():
    from mumkit import correlation_criterion

    ms = optimal_mums(2)
    report = mum_criterion(isotropic(2, 0.9), ms, conjugate_mums(ms))
    obj = ser.value_to_obj(report)
    assert set(obj) == {"criterion", "value", "bound", "verdict", "kappa", "d"}
    assert obj["verdict"] == "entangled"
    assert obj["d"] == 2
    # dumps takes the report itself, and writes the object its own view built
    for rep in (report, correlation_criterion(isotropic(3, 0.1))):
        assert ser.dumps(rep) == json.dumps({
            "criterion": rep.criterion, "value": float(rep.value), "bound": float(rep.bound),
            "verdict": rep.verdict, "kappa": None if rep.kappa is None else float(rep.kappa),
            "d": int(rep.d)}) + "\n"


def test_verification_report_is_strict_json():
    from mumkit import VerificationReport

    finite = VerificationReport(kind="mum-set", tol=1e-9, defects={"psd": 2.5e-16},
                                details={"kappa_inferred": 0.5})
    # finite reports keep the bytes they had before non-finite values became null
    assert ser.dumps(finite) == json.dumps({
        "kind": "mum-set", "tol": 1e-9, "passed": True,
        "defects": {"psd": 2.5e-16}, "details": {"kappa_inferred": 0.5},
    }) + "\n"
    broken = VerificationReport(kind="mum-set", tol=1e-9,
                                defects={"psd": float("inf"), "trace_one": 0.0},
                                details={"kappa_inferred": float("nan")})
    obj = ser.value_to_obj(broken)
    assert obj["passed"] is False
    assert obj["defects"] == {"psd": None, "trace_one": 0.0}
    assert obj["details"] == {"kappa_inferred": None}
    assert list(ser.iterencode(broken)) == [ser.dumps(broken)] == [json.dumps(obj) + "\n"]
    with pytest.raises(ValueError):
        ser.dumps({"value": float("nan")})


@pytest.mark.parametrize("keys, kind", [(("elements", "rho"), MumSet),
                                        (("elements", "bases"), MumSet),
                                        (("bases", "rho"), BasisSet)])
def test_value_from_obj_looks_for_elements_then_bases_then_rho(keys, kind):
    # the order verify sniffed the keys in before value_from_obj held the rule
    values = {"elements": optimal_mums(3), "bases": mub_prime(3), "rho": isotropic(3, 0.2)}
    obj = ser.value_to_obj(values[keys[0]])
    obj[keys[1]] = ser.value_to_obj(values[keys[1]])[keys[1]]
    assert type(ser.value_from_obj(obj)) is kind


@pytest.mark.parametrize("obj", [{"foo": 1}, {}, 5, "rho", None, True])
def test_value_from_obj_refuses_an_unrecognized_payload(obj):
    with pytest.raises(ValueError, match="^unrecognized payload: not a list or object with "):
        ser.value_from_obj(obj)


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


MISSING_KEYS = [
    ({"kappa": 0.5, "elements": [[{"dim": 1, "entries": [[1.0, 0.0]]}]]},
     "measurement set payload is missing the key 'd'"),
    ({"d": 2, "elements": [[{"dim": 1, "entries": [[1.0, 0.0]]}]]},
     "measurement set payload is missing the key 'kappa'"),
    ([{"b": 1, "matrix": {"dim": 1, "entries": [[1.0, 0.0]]}}],
     "operator basis item 0 is missing the key 'n'"),
    ([{"n": 1, "matrix": {"dim": 1, "entries": [[1.0, 0.0]]}}],
     "operator basis item 0 is missing the key 'b'"),
    ([{"n": 1, "b": 1}], "operator basis item 0 is missing the key 'matrix'"),
]


@pytest.mark.parametrize("payload, message", MISSING_KEYS)
def test_missing_key_names_the_key_and_the_payload(payload, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ser.value_from_obj(payload)


def _without_d(payload):
    del payload["d"]
    return payload


WITHOUT_D = {
    # a 4 x 4 state loaded as d = 2, and a 5 x 5 one was refused as "a state for d=2"
    "state": (_without_d(ser.value_to_obj(isotropic(2, 0.5))),
              "state payload is missing the key 'd'"),
    "state-5x5": ({"rho": ser.matrix_to_obj(np.eye(5) / 5)}, "state payload is missing the key 'd'"),
    "basis-set": (_without_d(ser.value_to_obj(mub_prime(3))),
                  "basis set payload is missing the key 'd'"),
    # an empty list of bases loaded as d = 0
    "basis-set-empty": ({"bases": []}, "basis set payload is missing the key 'd'"),
}


@pytest.mark.parametrize("payload, message", list(WITHOUT_D.values()), ids=list(WITHOUT_D))
def test_loaders_require_d(payload, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ser.value_from_obj(payload)


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


# -- the reader: load_path against the plain tree, value_from_obj(json.loads(text)) --

_ONE = {"dim": 1, "entries": [[1.0, 0.0]]}
_SIGNED = {"dim": 2, "entries": [[0.1, -0.0], [-0.0, 0.0], [1e-300, -2.5], [0.5, 0.0]]}


def _labels_swapped():
    items = ser.value_to_obj(gell_mann_basis(3))
    items[2]["n"], items[5]["n"] = items[5]["n"], items[2]["n"]
    return items


def _with(value, **slots):
    obj = ser.value_to_obj(value)
    obj.update(slots)
    return obj


# Every malformed payload above, as a file.  The reader turns each
# well-formed matrix object into its array, so the cases after the first
# groups put one where the loaders take no matrix.
MALFORMED_PAYLOADS = {
    **{f"rho-{k}": {"d": 1, "rho": m} for k, m in WRONG_TYPED_MATRICES.items()},
    "rho-without-dim": {"d": 1, "rho": {"entries": []}},
    "rho-short": {"d": 2, "rho": {"dim": 2, "entries": [[1.0, 0.0]]}},
    "rho-dim-0": {"d": 1, "rho": {"dim": 0, "entries": []}},
    "rho-dim--1": {"d": 1, "rho": {"dim": -1, "entries": []}},
    "items-not-objects": [1, 2],
    "label-n-null": [{"n": None, "b": 1, "matrix": _ONE}],
    "labels-swapped": _labels_swapped(),
    "bases-number": {"d": 1, "bases": 5},
    "elements-number": {"d": 1, "kappa": 1.0, "elements": 5},
    **{f"kappa-{k!r}": {"d": 1, "kappa": k, "elements": [[_ONE]]} for k in ("1", None, 10 ** 400)},
    "d-list": {"d": [1], "rho": _ONE},
    **{f"t-{t!r}": _with(optimal_mums(2), t=t) for t in (math.nan, math.inf, -math.inf, True)},
    **{f"unrecognized-{obj!r}": obj for obj in ({"foo": 1}, {}, 5, "rho", None, True)},
    **{f"missing-key-{i}": payload for i, (payload, _) in enumerate(MISSING_KEYS)},
    **{f"without-d-{k}": payload for k, (payload, _) in WITHOUT_D.items()},
    "payload-is-matrix": _ONE,
    "row-is-matrix": {"d": 1, "kappa": 1.0, "elements": [_ONE]},
    "item-is-matrix": [_ONE],
    "label-is-matrix": [{"n": _SIGNED, "b": 1, "matrix": _ONE}],
    "elements-is-matrix": {"d": 2, "kappa": 1.0, "elements": _ONE},
    "bases-is-matrix": {"d": 2, "bases": _ONE},
    "state-d-is-matrix": {"d": _SIGNED, "rho": _ONE},
    "mums-d-is-matrix": _with(optimal_mums(2), d=_SIGNED),
    "kappa-is-matrix": _with(optimal_mums(2), kappa=_SIGNED),
    "t-is-matrix": _with(optimal_mums(2), t=_ONE),
}


def _reference_load(path):
    """The plain tree: ``json.load``, a file too deeply nested for it refused as load_path does."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} is nested too deeply to parse") from None


def _outcomes(capsys, path):
    """(exit code, stdout, stderr) of verify and of detect --state on one file."""
    got = []
    for argv in (["verify", path], ["detect", "--state", path]):
        code = run_cli(argv)
        got.append((code, *capsys.readouterr()))
    return got


def _written(n, pairs):
    """An n x n matrix object in the encoder's spelling, its entries the pair texts in turn."""
    entries = "], [".join(pairs[i % len(pairs)] for i in range(n * n))
    return f'{{"dim": {n}, "entries": [[{entries}]]}}'


# A matrix object the reader takes without the decoder: one pair text, repeated
_W = _written(2, ["0.25, 0.0"])
# the reader takes 8 of this set's 12 matrices without the decoder
_MUMS3 = ser.dumps(optimal_mums(3))
# the fourth matrix of _MUMS3 starts here: cut inside its entries, or after the third
_FOURTH = [m.start() for m in re.finditer('{"dim"', _MUMS3)][3]

# Every malformed payload above as json.dumps writes it, which spells each
# matrix object as the encoder does, then texts that no encoder writes.
REFUSED_TEXTS = {
    **{k: json.dumps(p) for k, p in MALFORMED_PAYLOADS.items()},
    "pairs-one-too-many": '{"d": 1, "rho": {"dim": 1, "entries": [[1.0, 0.0], [0.0, 0.0]]}}',
    "pairs-one-too-few": '{"d": 2, "rho": {"dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}}',
    **{f"pairs-{k}-of-one-text": '{"d": 2, "bases": [{"dim": 2, "entries": [['
                                 + "], [".join(["0.25, 0.0"] * count) + "]]}]}"
       for k, count in (("3", 3), ("5", 5))},
    **{f"json-invalid-number-{k}": '{"d": 2, "rho": ' + _written(4, [pair]) + "}"
       for k, pair in (("plus", "+0.25, 0.0"), ("leading-zero", "00.25, 0.0"),
                       ("bare-fraction", ".25, 0.0"), ("trailing-dot", "0.25, 0."),
                       ("underscore", "0.2_5, 0.0"))},
    "true-entry": '{"d": 1, "rho": {"dim": 1, "entries": [[true, 0.0]]}}',
    "false-entry": '{"d": 1, "rho": {"dim": 1, "entries": [[1.0, false]]}}',
    "duplicate-dim": '{"d": 1, "rho": {"dim": 1, "entries": [[1.0, 0.0]], "dim": 2}}',
    "placeholder-lookalike": '{"d": 1, "rho": {"\\u0000": [[0]]}, "note": ' + _W + "}",
    "raw-nul": '{"d": 1, "rho": ' + _W + ', "note": "\0"}',
    "matrix-as-key": "{" + _W + ": 1}",
    "matrix-as-a-later-key": '{"d": 1, "rho": ' + _W + ", " + _W + ": 1}",
    "matrix-in-a-string": '{"d": 1, "rho": "' + _W + '"}',
    "duplicate-rho-last-malformed": '{"d": 1, "rho": ' + _W + ', "rho": {"dim": 1, "entries": [[1.0]]}}',
    "truncated-in-entries": _MUMS3[:_FOURTH + 80],
    "truncated-after-a-matrix": _MUMS3[:_FOURTH - 2],
    "deep-list": "[" * 3000,
    "deep-in-object": '{"d": 2, "rho": ' + "[" * 3000,
    "deep-around-a-matrix": "[" * 3000 + _W + "]" * 3000,
}


@pytest.mark.parametrize("text", list(REFUSED_TEXTS.values()), ids=list(REFUSED_TEXTS))
def test_reader_refuses_each_payload_as_the_plain_tree_does(tmp_path, capsys, monkeypatch, text):
    path = tmp_path / "payload.json"
    path.write_text(text)
    with pytest.raises(ValueError) as refusal:
        ser.value_from_obj(_reference_load(path))
    got = _outcomes(capsys, str(path))
    assert got[0] == (2, "", f"error: {refusal.value}\n")
    monkeypatch.setattr(ser, "load_path", _reference_load)
    assert _outcomes(capsys, str(path)) == got


def test_matrix_object_with_another_key_is_read_as_a_dict(tmp_path, capsys, monkeypatch):
    obj = ser.value_to_obj(isotropic(2, 0.3))
    obj["rho"]["note"] = "kept"
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    assert isinstance(ser.load_path(str(path))["rho"], dict)
    got = _outcomes(capsys, str(path))
    assert [code for code, _, _ in got] == [0, 0]
    monkeypatch.setattr(ser, "load_path", _reference_load)
    assert _outcomes(capsys, str(path)) == got


def test_matrix_object_in_a_scalar_slot_is_quoted_with_float_entries(tmp_path):
    # the one wording the reader cannot keep: the plain tree quotes [[1, 0]]
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"d": {"dim": 1, "entries": [[1, 0]]}, "rho": _ONE}))
    with pytest.raises(ValueError, match=re.escape("[[1, 0]]")):
        ser.value_from_obj(_reference_load(path))
    with pytest.raises(ValueError, match=re.escape("d must be an integer, got "
                                                   "{'dim': 1, 'entries': [[1.0, 0.0]]}")):
        ser.value_from_obj(ser.load_path(path))


_WRITTEN_VALUES = [gell_mann_basis(4), mub_prime(5), optimal_mums(6), random_separable(3, 4, 8)]
_STATE = ser.value_to_obj(isotropic(2, 0.3))
_STATE_TEXT = ser.dumps(isotropic(2, 0.3))
_SIGNED_TEXT = '{"d": 4, "bases": [' + _written(4, ["1e400, -0.0", "-0.0, 0.0", "-1e400, 1E-400",
                                                    "0.0, -0.0"]) + "]}"

# The encoder's texts, which the reader takes without the decoder, then
# texts it must leave to the decoder in whole or in part.
LOADED_TEXTS = {
    **{type(v).__name__: ser.dumps(v) for v in _WRITTEN_VALUES},
    "signed-zeros-and-1e400": _SIGNED_TEXT,
    "integer-entries": '{"d": 4, "bases": [' + _written(4, ["1, 0", "0, -0", "0, 0"]) + "]}",
    "integer-beside-float": '{"d": 4, "bases": [' + _written(4, ["1, -0.0", "0.0, 0.0"]) + "]}",
    "key-order": json.dumps({"d": 2, "rho": {"entries": _STATE["rho"]["entries"], "dim": 4}}),
    "compact": json.dumps(_STATE, separators=(",", ":")),
    "indented": json.dumps(_STATE, indent=4),
    "extra-whitespace": _STATE_TEXT.replace("], [", "],  [", 1),
    "nan-and-infinity": '{"d": 4, "bases": [' + _written(4, ["NaN, 0.0", "Infinity, -Infinity"])
                        + "]}",
    **{f"space-in-a-pair-{k}": '{"d": 4, "bases": [' + _written(4, [pair]) + "]}"
       for k, pair in (("before-comma", "0.25 , 0.0"), ("two-after-comma", "0.25,  0.0"))},
    "nul-in-a-string": '{"note": "\\u0000", ' + _STATE_TEXT[1:],
    "duplicate-rho": '{"d": 2, "rho": ' + _written(4, ["0.5, 0.0"]) + ', "rho": '
                     + _written(4, ["0.0625, -0.0"]) + "}",
    "duplicate-rho-last-in-another-spelling": '{"d": 2, "rho": ' + _written(4, ["0.5, 0.0"])
                                              + ', "rho": ' + _written(4, ["1, 0"]) + "}",
}


def _bits(value):
    """A loaded value's type, its JSON text outside its matrices and the bytes of its array."""
    array = getattr(value, ser._ARRAYS[type(value)])
    return (type(value), ser.dumps(ser._payload(value, lambda a: None)),
            array.dtype, array.shape, array.tobytes())


@pytest.mark.parametrize("text", list(LOADED_TEXTS.values()), ids=list(LOADED_TEXTS))
def test_reader_loads_what_the_plain_tree_loads(tmp_path, text):
    path = tmp_path / "value.json"
    path.write_text(text)
    got, want = ser.value_from_obj(ser.load_path(path)), ser.value_from_obj(_reference_load(path))
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("value", _WRITTEN_VALUES, ids=type)
def test_reader_reads_back_the_encoders_text(tmp_path, value):
    path = tmp_path / "value.json"
    path.write_text(ser.dumps(value))
    assert ser.dumps(ser.value_from_obj(ser.load_path(path))) == path.read_text()


@pytest.mark.parametrize("text", [ser.dumps(optimal_mums(6)), _STATE_TEXT, _SIGNED_TEXT],
                         ids=["mums", "state", "signed-zeros-and-1e400"])
def test_the_encoders_matrices_are_read_without_the_decoder(tmp_path, monkeypatch, text):
    path = tmp_path / "value.json"
    path.write_text(text)
    hooked = []
    monkeypatch.setattr(ser, "_read_matrix", lambda obj: hooked.append(obj) or obj)
    got = ser.value_from_obj(ser.load_path(path))
    assert all("dim" not in obj for obj in hooked) and len(hooked) == 1
    assert _bits(got) == _bits(ser.value_from_obj(_reference_load(path)))


def test_unclosed_matrix_heads_are_searched_in_linear_time(tmp_path):
    # each head's "]]}" is looked for only up to the next head: 4 s on a
    # 2-core host when it was looked for to the end of the text, 25 ms now
    path = tmp_path / "heads.json"
    path.write_text('{"dim": 1, "entries": [[' * 20000)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="nested too deeply"):
        ser.load_path(path)
    assert time.perf_counter() - start < 1.0


def _verify_outcome(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(["verify", path])
    return code, out.getvalue(), err.getvalue()


# JSON's own characters, and two that no payload holds
_EDIT_CHARS = '0123456789.-+eE,:[]{}" \\ntrufals\0\xe9'


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_reader_matches_the_plain_tree_on_each_edit_of_a_payload(data):
    text = data.draw(st.sampled_from([_MUMS3, _STATE_TEXT]))
    at = data.draw(st.integers(0, len(text) - 1))
    edit = data.draw(st.sampled_from(["replace", "delete", "truncate"]))
    if edit == "replace":
        text = text[:at] + data.draw(st.sampled_from(_EDIT_CHARS)) + text[at + 1:]
    else:
        text = text[:at] + (text[at + 1:] if edit == "delete" else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edited.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        got = _verify_outcome(path)
        with mock.patch.object(ser, "load_path", _reference_load):
            assert got == _verify_outcome(path)


def test_reading_the_d16_measurement_set_holds_one_matrix_at_a_time(tmp_path):
    path = str(tmp_path / "m16.json")
    assert run_cli(["gen-mums", "--d", "16", "-o", path]) == 0
    # the whole list tree took 11.8 MiB
    assert traced_peak_mib(lambda: ser.value_from_obj(ser.load_path(path))) < 4.0
