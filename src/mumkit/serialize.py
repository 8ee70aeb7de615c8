"""JSON schemas shared by the CLI and file-driven workflows.

Matrix payloads are ``{"dim": n, "entries": [[re, im], ...]}`` row-major;
values are written as Python's shortest round-trip representation, so
loading reproduces every double exactly.  :func:`value_from_obj` raises
ValueError for a payload of the wrong shape or JSON type.

:func:`load_path` returns what ``json.load`` would, except that each
well-formed matrix object is held as its array, and :func:`value_from_obj`
reads the result with the messages it gives for the plain tree.  A
matrix object in the encoder's spelling is read without the JSON
decoder: its entries are split on ``"], ["`` and looked up in a table of
the file's distinct pair texts, each parsed once (a d = 16 measurement
set holds 176 among its 69,632 pairs).  The decoder reads what is left,
with each such object replaced by a placeholder, and hands each other
matrix object to :func:`matrix_from_obj` as soon as it closes, so only
that matrix's ``[re, im]`` lists are alive at once, never the whole tree.

:func:`dumps` and :func:`iterencode` take the value objects (operator
basis, basis set, measurement set, state) and both reports directly.
Each payload's layout is written once: :func:`value_to_obj` fills its
matrix slots with :func:`matrix_to_obj`, and the encoder writes the text
around the slots from the same layout and each matrix's entries, block
by block, from a table of the block's distinct ``[re, im]`` pairs.
"""

from __future__ import annotations

import json
import math
import re
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


class _Matrix:
    """A matrix object :func:`load_path` has read: the array :func:`matrix_from_obj` returns."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _plain(value):
    """``value`` as ``json.loads`` gives it: a read matrix object back as its dict.

    The loaders call this where no matrix belongs, so a matrix object
    found there is refused and quoted as in the plain tree (an integer
    entry is quoted as a float).
    """
    return matrix_to_obj(value.array) if type(value) is _Matrix else value


def _int(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {_plain(value)!r}")
    return value


def _float(value, what: str) -> float:
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, got {_plain(value)!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is out of range") from None


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(_plain(value)).__name__}")
    return value


def matrix_from_obj(obj) -> np.ndarray:
    if type(obj) is _Matrix:
        return obj.array
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


def _finite_or_null(value) -> float | None:
    value = float(value)
    return value if math.isfinite(value) else None


def _payload(value, matrix: Callable[[np.ndarray], object] | None):
    """The JSON object of a value object or report, each matrix ``a`` in it as ``matrix(a)``."""
    if isinstance(value, OperatorBasis):
        return [{"n": int(n), "b": int(b), "matrix": matrix(el)}
                for (n, b), el in zip(value.labels, value.elements)]
    if isinstance(value, BasisSet):
        return {"d": int(value.d), "bases": [matrix(b) for b in value.bases]}
    if isinstance(value, MumSet):
        return {"d": int(value.d), "kappa": float(value.kappa),
                "t": None if value.t is None else float(value.t),
                "elements": [[matrix(p) for p in row] for row in value.elements]}
    if isinstance(value, BipartiteState):
        return {"d": int(value.d), "rho": matrix(value.rho)}
    if isinstance(value, DetectionReport):
        return {"criterion": value.criterion, "value": float(value.value),
                "bound": float(value.bound), "verdict": value.verdict,
                "kappa": None if value.kappa is None else float(value.kappa), "d": int(value.d)}
    if isinstance(value, VerificationReport):  # a non-finite defect or detail is null
        return {"kind": value.kind, "tol": float(value.tol), "passed": bool(value.passed),
                "defects": {k: _finite_or_null(v) for k, v in value.defects.items()},
                "details": {k: _finite_or_null(v) for k, v in value.details.items()}}
    return value  # a plain JSON object


def value_to_obj(value):
    """The JSON object of a value object or report, as :func:`dumps` writes it."""
    return _payload(value, matrix_to_obj)


def _operator_basis_from_obj(obj: list) -> OperatorBasis:
    if not obj:
        raise ValueError("operator basis payload must be a non-empty list")
    elements = []
    labels = []
    for i, item in enumerate(obj):
        item = _plain(item)
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


def _basis_set_from_obj(obj: dict) -> BasisSet:
    bases = [matrix_from_obj(b) for b in _list(obj["bases"], "bases")]
    return BasisSet(d=_int(_field(obj, "d", "basis set payload"), "d"), bases=bases)


def _mums_from_obj(obj: dict) -> MumSet:
    elements = tuple(
        tuple(matrix_from_obj(p) for p in _list(row, "measurement"))
        for row in _list(obj["elements"], "elements")
    )
    t = obj.get("t")
    if t is not None:
        # verify_mums would fail a non-finite t (exit 3); the format calls it malformed
        t = _float(t, "t")
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t!r}")
    return MumSet(
        d=_int(_field(obj, "d", "measurement set payload"), "d"),
        elements=elements,
        kappa=_float(_field(obj, "kappa", "measurement set payload"), "kappa"),
        t=t,
    )


def _state_from_obj(obj: dict) -> BipartiteState:
    rho = matrix_from_obj(obj["rho"])
    return BipartiteState(d=_int(_field(obj, "d", "state payload"), "d"), rho=rho)


def value_from_obj(obj):
    """The value object a payload holds; the inverse of :func:`value_to_obj`."""
    if isinstance(obj, list):
        return _operator_basis_from_obj(obj)
    if isinstance(obj, dict):
        for key, load in (("elements", _mums_from_obj), ("bases", _basis_set_from_obj),
                          ("rho", _state_from_obj)):
            if key in obj:
                return load(obj)
    raise ValueError("unrecognized payload: not a list or object with 'elements', 'bases' or 'rho'")


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


# Matrix entries are encoded in blocks of at most this many [re, im]
# pairs, so the value table and its temporaries stay small at any d.
_BLOCK_PAIRS = 8192


def _pair_texts(pairs: np.ndarray) -> list[str]:
    """The ``[re, im]`` text of each row of an (n, 2) float array, as json.dumps writes it.

    Each distinct pair is found by one ``lexsort`` of the rows' two
    64-bit words, so 0.0 and -0.0 stay apart, and formatted once by
    ``repr``.
    """
    re_w, im_w = pairs.view(np.uint64).T
    order = np.lexsort((im_w, re_w))
    # one 1-d gather per word: numpy gathers the rows of an (n, 2) array far more slowly
    re_w, im_w = re_w[order], im_w[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (re_w[1:] != re_w[:-1]) | (im_w[1:] != im_w[:-1])
    texts = [f"[{re!r}, {im!r}]" for re, im in pairs[order[first]].tolist()]
    which = np.empty(len(order), dtype=np.intp)
    which[order] = np.cumsum(first) - 1
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
        yield "".join(pieces)
    yield joints[-1]


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
        yield json.dumps(_payload(value, None), allow_nan=False) + "\n"
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
    """Strict JSON text of a value object, a report or a plain JSON object, newline-terminated.

    This is ``json.dumps(value_to_obj(value))``; a NaN or infinite float
    raises ValueError, never a bare token.
    """
    return "".join(iterencode(value))


def _read_matrix(obj: dict):
    """The decoder's hook: a well-formed matrix object as its array, any other object as it is.

    An object that :func:`matrix_from_obj` refuses stays a dict, and the
    loader that reads it raises the refusal where the plain tree would.
    """
    if len(obj) == 2 and "dim" in obj and "entries" in obj:
        try:
            return _Matrix(matrix_from_obj(obj))
        except ValueError:
            pass
    return obj


# A matrix object as the encoder spells it: this head, then the entries'
# [re, im] pairs joined by "], [", then "]]}".
_MATRIX_START = '{"dim": '
_MATRIX_HEAD = re.compile(r'\{"dim": ([1-9][0-9]{0,8}), "entries": \[\[')
# A JSON number with a fraction or an exponent, which json reads as a float,
# and ``[re, im]`` pair texts of two such numbers joined by "], ["
_FLOAT = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"
_PAIRS = re.compile(f"{_FLOAT}, {_FLOAT}(?:\\], \\[{_FLOAT}, {_FLOAT})*")


def _entries_array(body: str, n: int, values: dict[str, complex]) -> np.ndarray | None:
    """The n x n array of the pair texts between a written matrix's "[[" and "]]", or None.

    ``values`` holds the complex of each pair text the file has shown so
    far.  None leaves the matrix to the decoder: a wrong pair count, a
    pair that is not two JSON floats, or more than a third of the pairs
    new to ``values``, since parsing a new text costs about twice what
    the decoder spends on a pair.
    """
    entries = body.split("], [")
    if len(entries) != n * n:
        return None
    try:
        return np.fromiter(map(values.__getitem__, entries), complex, n * n).reshape(n, n)
    except KeyError:
        pass
    new = list(set(entries).difference(values))
    if 3 * len(new) > len(entries) or not _PAIRS.fullmatch("], [".join(new)):
        return None
    # float() gives a JSON float the bits json gives it
    parts = list(map(float, ", ".join(new).split(", ")))
    values.update(zip(new, map(complex, parts[0::2], parts[1::2])))
    return np.fromiter(map(values.__getitem__, entries), complex, n * n).reshape(n, n)


def _cut_written_matrices(text: str) -> tuple[str, list[_Matrix]]:
    """``text`` with each matrix object in the encoder's spelling cut out, and their arrays.

    Object j becomes the placeholder ``{"\\u0000": [[j]]}``, nested as
    deeply as the object it stands for.  Every other object is left as
    it is, for the decoder's hook.
    """
    values: dict[str, complex] = {}
    pieces, matrices = [], []
    done = 0
    head = text.find(_MATRIX_START)
    while head >= 0:
        following = text.find(_MATRIX_START, head + 1)
        # a written matrix ends before the next one starts, so no text is searched twice
        limit = len(text) if following < 0 else following
        match = _MATRIX_HEAD.match(text, head, limit)
        stop = text.find("]]}", match.end(), limit) if match else -1
        array = None if stop < 0 else _entries_array(text[match.end():stop], int(match[1]), values)
        if array is not None:
            pieces += text[done:head], '{"\\u0000": [[%d]]}' % len(matrices)
            matrices.append(_Matrix(array))
            done = stop + 3
        head = following
    pieces.append(text[done:])
    return "".join(pieces), matrices


def _loads(text: str):
    """``json.loads(text)`` with each well-formed matrix object read as its array."""
    skeleton, matrices = _cut_written_matrices(text)
    # with no NUL in the text, only a placeholder has the key _HOLE
    if matrices and _HOLE not in text and "\\u0000" not in text:
        def read(obj: dict):
            return matrices[obj[_HOLE][0][0]] if _HOLE in obj else _read_matrix(obj)

        try:
            return json.loads(skeleton, object_hook=read)
        except (ValueError, RecursionError):
            pass  # the plain text's own error follows
    return json.loads(text, object_hook=_read_matrix)


def load_path(path: str):
    """The JSON value of a file, each matrix object in it read as its array.

    ``value_from_obj(load_path(path))`` is ``value_from_obj(json.load(fh))``,
    errors included, but never holds the ``[re, im]`` lists of more than
    one matrix.  A matrix object in the encoder's spelling is read
    without the JSON decoder, from a table of the file's distinct pair
    texts; the decoder reads the rest, each other matrix object as it
    closes.  A file nested too deeply for the decoder is refused with
    ValueError, where ``json.load`` raises RecursionError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return _loads(text)
    except RecursionError:
        raise ValueError(f"{path} is nested too deeply to parse") from None
