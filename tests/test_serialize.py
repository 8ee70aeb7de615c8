import json

import numpy as np
import pytest

from mumkit import Xoshiro256, gell_mann_basis, isotropic, mub_prime, mum_criterion, optimal_mums
from mumkit import conjugate_mums
from mumkit import serialize as ser


def test_matrix_round_trip_exact():
    gen = Xoshiro256(60)
    a = gen.complex_normals(16).reshape(4, 4)
    text = json.dumps(ser.matrix_to_obj(a))
    back = ser.matrix_from_obj(json.loads(text))
    assert np.array_equal(a, back)


def test_matrix_payload_validation():
    with pytest.raises(ValueError, match="dim"):
        ser.matrix_from_obj({"entries": []})
    with pytest.raises(ValueError, match="entries"):
        ser.matrix_from_obj({"dim": 2, "entries": [[1.0, 0.0]]})


def test_operator_basis_round_trip():
    basis = gell_mann_basis(3)
    back = ser.operator_basis_from_obj(json.loads(json.dumps(ser.operator_basis_to_obj(basis))))
    assert back.d == 3
    assert back.labels == basis.labels
    for a, b in zip(basis.elements, back.elements):
        assert np.array_equal(a, b)


def test_basis_set_round_trip():
    bs = mub_prime(5)
    back = ser.basis_set_from_obj(json.loads(json.dumps(ser.basis_set_to_obj(bs))))
    assert back.d == 5 and back.m == 6
    for a, b in zip(bs.bases, back.bases):
        assert np.array_equal(a, b)


def test_mums_round_trip():
    ms = optimal_mums(3)
    back = ser.mums_from_obj(json.loads(json.dumps(ser.mums_to_obj(ms))))
    assert back.d == 3
    assert back.kappa == ms.kappa
    assert back.t == ms.t
    for row_a, row_b in zip(ms.elements, back.elements):
        for a, b in zip(row_a, row_b):
            assert np.array_equal(a, b)


def test_mums_t_null_round_trip():
    from mumkit import mums_from_mubs

    ms = mums_from_mubs(mub_prime(2))
    obj = json.loads(json.dumps(ser.mums_to_obj(ms)))
    assert obj["t"] is None
    assert ser.mums_from_obj(obj).t is None


def test_state_round_trip():
    st = isotropic(3, 0.37)
    back = ser.state_from_obj(json.loads(json.dumps(ser.state_to_obj(st))))
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
