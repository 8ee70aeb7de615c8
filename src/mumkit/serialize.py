"""JSON schemas shared by the CLI and file-driven workflows.

Matrix payloads are ``{"dim": n, "entries": [[re, im], ...]}`` row-major;
values are written as Python's shortest round-trip representation, so
loading reproduces every double exactly.  The loaders raise ValueError
for a payload of the wrong shape or JSON type.

:func:`dumps` and :func:`iterencode` take the value objects (operator
basis, basis set, measurement set, state) directly.  Each payload's
layout is written once: the ``*_to_obj`` functions fill its matrix slots
with :func:`matrix_to_obj`, and the encoder writes the text around the
slots from the same layout and each matrix's entries, block by block,
from a table of the block's distinct ``[re, im]`` pairs.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterator

import numpy as np

from .criteria import DetectionReport
from .linalg import as_matrix
from .mub import BasisSet
from .mum import MumSet
from .operator_basis import OperatorBasis
from .reporting import VerificationReport
from .states import BipartiteState


def matrix_to_obj(a: np.ndarray) -> dict:
    a = as_matrix(a)
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


def _field(obj: dict, key: str, what: str):
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"{what} is missing the key {key!r}") from None


def _payload(value, matrix: Callable[[np.ndarray], object]):
    """The JSON object of a value object, with each matrix ``a`` in it given by ``matrix(a)``."""
    if isinstance(value, OperatorBasis):
        return [{"n": int(n), "b": int(b), "matrix": matrix(el)}
                for (n, b), el in zip(value.labels, value.elements)]
    if isinstance(value, BasisSet):
        return {"d": int(value.d), "bases": [matrix(b) for b in value.bases]}
    if isinstance(value, MumSet):
        return {"d": int(value.d), "kappa": float(value.kappa),
                "t": None if value.t is None else float(value.t),
                "elements": [[matrix(p) for p in row] for row in value.elements]}
    return {"d": int(value.d), "rho": matrix(value.rho)}


def operator_basis_to_obj(basis: OperatorBasis) -> list:
    return _payload(basis, matrix_to_obj)


def operator_basis_from_obj(obj) -> OperatorBasis:
    if not isinstance(obj, list) or not obj:
        raise ValueError("operator basis payload must be a non-empty list")
    elements = []
    labels = []
    for i, item in enumerate(obj):
        if not isinstance(item, dict):
            raise ValueError("operator basis items must be objects with 'n', 'b' and 'matrix'")
        what = f"operator basis item {i}"
        elements.append(matrix_from_obj(_field(item, "matrix", what)))
        labels.append((_int(_field(item, "n", what), "label n"),
                       _int(_field(item, "b", what), "label b")))
    basis = OperatorBasis(d=elements[0].shape[0], elements=elements)
    for i, (got, want) in enumerate(zip(labels, basis.labels)):
        if got != want:
            raise ValueError(f"operator basis item {i} is labelled (n, b) = {got}, but the block "
                             f"rule b = i div (d-1) + 1, n = i mod (d-1) + 1 gives {want}")
    return basis


def basis_set_to_obj(bs: BasisSet) -> dict:
    return _payload(bs, matrix_to_obj)


def basis_set_from_obj(obj) -> BasisSet:
    if not isinstance(obj, dict) or "bases" not in obj:
        raise ValueError("basis set payload must carry 'bases'")
    bases = [matrix_from_obj(b) for b in _list(obj["bases"], "bases")]
    d = _int(obj["d"], "d") if "d" in obj else (bases[0].shape[0] if bases else 0)
    return BasisSet(d=d, bases=bases)


def mums_to_obj(ms: MumSet) -> dict:
    return _payload(ms, matrix_to_obj)


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
        d=_int(_field(obj, "d", "measurement set payload"), "d"),
        elements=elements,
        kappa=_float(_field(obj, "kappa", "measurement set payload"), "kappa"),
        t=t,
    )


def state_to_obj(state: BipartiteState) -> dict:
    return _payload(state, matrix_to_obj)


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


# Matrix entries are encoded in blocks of at most this many [re, im]
# pairs, so the value table and its temporaries stay small at any d.
_BLOCK_PAIRS = 8192


def _pair_texts(pairs: np.ndarray) -> list[str]:
    """The ``[re, im]`` text of each row of an (n, 2) float array, as json.dumps writes it.

    Each distinct pair is keyed by its 16 bytes, so 0.0 and -0.0 stay
    apart, and formatted once by ``repr``.
    """
    keys, which = np.unique(pairs.view("V16").ravel(), return_inverse=True)
    texts = [f"[{re!r}, {im!r}]" for re, im in keys.view(np.float64).reshape(-1, 2).tolist()]
    return np.array(texts, dtype=object)[which].tolist()


def _stack_text(stack: np.ndarray, joints: list[str]) -> Iterator[str]:
    """JSON text of the entries of an (m, n, n) stack, with ``joints[j]`` before matrix j.

    ``joints[m]`` follows the last matrix; each matrix's entries are its
    ``[re, im]`` pairs in row-major order, separated by ", ".  A NaN or
    infinite entry raises json's ValueError before the first piece.
    """
    per = stack.shape[1] * stack.shape[2]
    pairs = np.ascontiguousarray(stack, dtype=complex).view(np.float64).reshape(-1, 2)
    finite = np.isfinite(pairs).ravel()
    if not finite.all():
        # json's own error for the first non-finite value in document order
        json.dumps(float(pairs.ravel()[np.argmin(finite)]), allow_nan=False)
    total = len(pairs)
    if total == 0:
        yield joints[0]
    for start in range(0, total, _BLOCK_PAIRS):
        stop = min(start + _BLOCK_PAIRS, total)
        texts = _pair_texts(pairs[start:stop])
        pieces = []
        pos = start
        while pos < stop:
            j, r = divmod(pos, per)
            end = min(stop, (j + 1) * per)
            pieces.append(joints[j] if r == 0 else ", ")
            pieces.append(", ".join(texts[pos - start:end - start]))
            pos = end
        if stop == total:
            pieces.append(joints[-1])
        yield "".join(pieces)


# The one array of each value object; its matrices, in row-major order of
# the leading axes, are the payload's matrices in document order.
_ARRAYS = {OperatorBasis: "elements", BasisSet: "bases", MumSet: "elements",
           BipartiteState: "rho"}
# Stands for each matrix in the layout; json.dumps writes it as "\u0000",
# which no other string of a payload holds.
_HOLE = "\0"


def iterencode(value) -> Iterator[str]:
    """The text of :func:`dumps` in pieces of bounded size, for writing as they come.

    Every check runs before the first piece: a NaN or infinite float
    raises ValueError, never a bare token.
    """
    field = _ARRAYS.get(type(value))
    if field is None:
        yield json.dumps(value, allow_nan=False) + "\n"
        return
    array = getattr(value, field)
    n = array.shape[-1]
    # each hole becomes {"dim": n, "entries": [ ... ]}, its entries cut out at a bare hole
    joints = (json.dumps(_payload(value, lambda a: _HOLE), allow_nan=False)
              .replace(json.dumps(_HOLE), f'{{"dim": {n}, "entries": [{_HOLE}]}}')
              .split(_HOLE))
    joints[-1] += "\n"
    yield from _stack_text(array.reshape(-1, n, n), joints)


def dumps(value) -> str:
    """Strict JSON text of a value object or a plain JSON object, newline-terminated.

    For an operator basis, basis set, measurement set or state this is
    ``json.dumps`` of its ``*_to_obj`` payload; a NaN or infinite float
    raises ValueError, never a bare token.
    """
    return "".join(iterencode(value))


def load_path(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
