"""JSON schemas shared by the CLI and file-driven workflows.

Matrix payloads are ``{"dim": n, "entries": [[re, im], ...]}`` row-major;
values are written as Python's shortest round-trip representation, so
loading reproduces every double exactly.  The loaders raise ValueError
for a payload of the wrong shape or JSON type.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .criteria import DetectionReport
from .mub import BasisSet
from .mum import MumSet
from .operator_basis import OperatorBasis
from .reporting import VerificationReport
from .states import BipartiteState


def matrix_to_obj(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    # one tolist() yields the same Python floats, -0.0 included, in row-major order
    return {
        "dim": int(a.shape[0]),
        "entries": np.stack([a.real, a.imag], axis=-1).reshape(-1, 2).tolist(),
    }


def _int(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _float(value, what: str) -> float:
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is out of range") from None


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ValueError("matrix payload must carry 'dim' and 'entries'")
    dim = _int(obj["dim"], "matrix dim")
    entries = _list(obj["entries"], "matrix entries")
    if dim < 1:
        raise ValueError(f"matrix dim must be at least 1, got {dim}")
    if len(entries) != dim * dim:
        raise ValueError(f"matrix payload of dim {dim} needs {dim * dim} entries, got {len(entries)}")
    try:
        # complex(True, False) is 1+0j, so a pair holding a boolean is skipped
        # here and refused by the count below
        flat = [complex(re, im) for re, im in entries
                if re.__class__ is not bool and im.__class__ is not bool]
    except (TypeError, ValueError, OverflowError):
        # null, strings, lists, pairs of the wrong length, integers beyond the float range
        flat = None
    if flat is None or len(flat) != len(entries):
        raise ValueError("matrix entries must be [re, im] pairs of numbers")
    return np.array(flat).reshape(dim, dim)


def operator_basis_to_obj(basis: OperatorBasis) -> list:
    return [
        {"n": int(n), "b": int(b), "matrix": matrix_to_obj(el)}
        for (n, b), el in zip(basis.labels, basis.elements)
    ]


def operator_basis_from_obj(obj) -> OperatorBasis:
    if not isinstance(obj, list) or not obj:
        raise ValueError("operator basis payload must be a non-empty list")
    elements = []
    labels = []
    for item in obj:
        if not isinstance(item, dict):
            raise ValueError("operator basis items must be objects with 'n', 'b' and 'matrix'")
        elements.append(matrix_from_obj(item["matrix"]))
        labels.append((_int(item["n"], "label n"), _int(item["b"], "label b")))
    basis = OperatorBasis(d=elements[0].shape[0], elements=elements)
    for i, (got, want) in enumerate(zip(labels, basis.labels)):
        if got != want:
            raise ValueError(f"operator basis item {i} is labelled (n, b) = {got}, but the block "
                             f"rule b = i div (d-1) + 1, n = i mod (d-1) + 1 gives {want}")
    return basis


def basis_set_to_obj(bs: BasisSet) -> dict:
    return {"d": int(bs.d), "bases": [matrix_to_obj(b) for b in bs.bases]}


def basis_set_from_obj(obj) -> BasisSet:
    if not isinstance(obj, dict) or "bases" not in obj:
        raise ValueError("basis set payload must carry 'bases'")
    bases = [matrix_from_obj(b) for b in _list(obj["bases"], "bases")]
    d = _int(obj["d"], "d") if "d" in obj else (bases[0].shape[0] if bases else 0)
    return BasisSet(d=d, bases=bases)


def mums_to_obj(ms: MumSet) -> dict:
    return {
        "d": int(ms.d),
        "kappa": float(ms.kappa),
        "t": None if ms.t is None else float(ms.t),
        "elements": [[matrix_to_obj(p) for p in row] for row in ms.elements],
    }


def mums_from_obj(obj) -> MumSet:
    if not isinstance(obj, dict) or "elements" not in obj:
        raise ValueError("measurement set payload must carry 'elements'")
    elements = tuple(
        tuple(matrix_from_obj(p) for p in _list(row, "measurement"))
        for row in _list(obj["elements"], "elements")
    )
    t = obj.get("t")
    if t is not None:
        # verify_mums never reads t, so a non-finite one would pass unnoticed
        t = _float(t, "t")
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t!r}")
    return MumSet(
        d=_int(obj["d"], "d"),
        elements=elements,
        kappa=_float(obj["kappa"], "kappa"),
        t=t,
    )


def state_to_obj(state: BipartiteState) -> dict:
    return {"d": int(state.d), "rho": matrix_to_obj(state.rho)}


def state_from_obj(obj) -> BipartiteState:
    if not isinstance(obj, dict) or "rho" not in obj:
        raise ValueError("state payload must carry 'rho'")
    rho = matrix_from_obj(obj["rho"])
    d = _int(obj["d"], "d") if "d" in obj else round(np.sqrt(rho.shape[0]))
    return BipartiteState(d=d, rho=rho)


def grid_from_obj(obj) -> np.ndarray:
    """A probability grid: a JSON list of equal-length lists of numbers, as a float array."""
    try:
        p = np.array(obj) if isinstance(obj, list) else None
    except ValueError:  # ragged rows
        p = None
    # np.array upcasts a boolean mixed with numbers, so the entries are looked at too
    if (p is None or p.dtype.kind not in "iuf"
            or bool in map(type, np.array(obj, dtype=object).flat)):
        raise ValueError("probability grid must be a list of equal-length lists of numbers")
    return p.astype(float)


def report_to_obj(report: DetectionReport) -> dict:
    return {
        "criterion": report.criterion,
        "value": float(report.value),
        "bound": float(report.bound),
        "verdict": report.verdict,
        "kappa": None if report.kappa is None else float(report.kappa),
        "d": int(report.d),
    }


def _finite_or_null(value) -> float | None:
    value = float(value)
    return value if math.isfinite(value) else None


def verification_report_to_obj(report: VerificationReport) -> dict:
    """Report as JSON; a non-finite defect or detail is written as null."""
    return {
        "kind": report.kind,
        "tol": float(report.tol),
        "passed": bool(report.passed),
        "defects": {k: _finite_or_null(v) for k, v in report.defects.items()},
        "details": {k: _finite_or_null(v) for k, v in report.details.items()},
    }


def dumps(obj) -> str:
    """Strict JSON text: a NaN or infinite float raises ValueError, never a bare token."""
    return json.dumps(obj, allow_nan=False) + "\n"


def load_path(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
