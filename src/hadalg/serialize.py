"""JSON document schemas for sequences, elements, matrices and factor lists.

Complex numbers travel as [re, im] pairs (bare reals are accepted on input).
A written document holds each sequence's values as the read-only (k, 2)
float64 view of its complex array; ``dumps`` turns it into text.  Floats are
emitted with Python's shortest-roundtrip repr, so every document
reconstructs bit-identically in double precision.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Any

import numpy as np

from . import weights as weights_mod
from .algebra import Element, from_raw_coeffs
from .coeffseq import Canonical, EPSeq, _canonical
from .errors import SchemaError
from .matalg import MatElement


def _c_from_json(obj: Any) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if (isinstance(obj, (list, tuple)) and len(obj) == 2
            and all(isinstance(x, (int, float)) for x in obj)):
        return complex(obj[0], obj[1])
    raise SchemaError(f"expected a number or [re, im] pair, got {obj!r}")


def _values_from_json(cells: Any, field: str) -> np.ndarray:
    """A JSON list of [re, im] pairs (or bare reals) as a complex128 array.

    Lists of pairs of numbers convert in one numpy call; any other list goes
    through _c_from_json cell by cell.  Non-finite values are refused.
    """
    if not isinstance(cells, (list, tuple, np.ndarray)):
        raise SchemaError(f"{field} must be a list of [re, im] pairs")
    try:
        flat = np.array(list(itertools.chain.from_iterable(cells)))
        regular = (flat.ndim == 1 and flat.dtype.kind in "biuf"
                   and set(map(len, cells)) == {2})
    except (TypeError, ValueError):
        regular = False
    try:
        if regular:
            values = flat.astype(np.float64).view(np.complex128)
        else:
            values = np.array([_c_from_json(v) for v in cells], dtype=np.complex128)
    except OverflowError as exc:
        raise SchemaError(f"{field}: {exc}") from exc
    finite = np.isfinite(values)
    if not finite.all():
        n = int(finite.argmin())
        raise SchemaError(f"{field}[{n}] is not finite")
    return values


def _values_to_json(values: np.ndarray) -> np.ndarray:
    """Contiguous complex values as read-only [re, im] rows, with no copy."""
    rows = values.view(np.float64).reshape(-1, 2)
    rows.flags.writeable = False
    return rows


def epseq_to_json(s: EPSeq | Canonical) -> dict:
    L = s.period_start
    return {"prefix": _values_to_json(s.array[:L]),
            "cycle": _values_to_json(s.array[L:])}


def epseq_from_json(obj: Any, field: str = "normalized", canonical=EPSeq):
    """canonical(prefix, cycle) of a sequence document: an EPSeq, or with
    ``_canonical`` its Canonical form alone."""
    if not isinstance(obj, dict) or "cycle" not in obj:
        raise SchemaError("sequence document needs a 'cycle' field")
    try:
        return canonical(_values_from_json(obj.get("prefix", []), f"{field}.prefix"),
                         _values_from_json(obj["cycle"], f"{field}.cycle"))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def element_to_json(e: Element) -> dict:
    return {"weight": e.weight.name, "normalized": epseq_to_json(e.u)}


def element_from_json(obj: Any, field: str = "") -> Element:
    if not isinstance(obj, dict) or "weight" not in obj:
        raise SchemaError("element document needs a 'weight' field")
    w = weights_mod.from_name(obj["weight"])
    if "normalized" in obj:
        return Element(w, epseq_from_json(obj["normalized"], field + "normalized"))
    if "raw_prefix" in obj:
        if obj.get("tail", "zero") != "zero":
            raise SchemaError("raw form only supports tail = 'zero'")
        raw = _values_from_json(obj["raw_prefix"], field + "raw_prefix")
        return from_raw_coeffs(w, raw.tolist())
    raise SchemaError("element document needs 'normalized' or 'raw_prefix'")


def matrix_to_json(A: MatElement) -> dict:
    """Each entry's column of the stack, canonicalised on its own."""
    L = A.period_start
    return {"weight": A.weight.name, "rows": A.m, "cols": A.n,
            "entries": [[epseq_to_json(_canonical(A.array[:L, i, j], A.array[L:, i, j]))
                         for j in range(A.n)] for i in range(A.m)]}


def matrix_from_json(obj: Any) -> MatElement:
    if not isinstance(obj, dict) or "entries" not in obj or "weight" not in obj:
        raise SchemaError("matrix document needs 'weight' and 'entries'")
    w = weights_mod.from_name(obj["weight"])
    entries = obj["entries"]
    if not isinstance(entries, list) or not entries:
        raise SchemaError("'entries' must be a nonempty list of rows")
    for i, row in enumerate(entries):
        if not isinstance(row, list):
            raise SchemaError(f"entries[{i}] must be a list of sequence documents")
    # every cell is checked before the shape is
    cells = [[epseq_from_json(cell, f"entries[{i}][{j}]", _canonical)
              for j, cell in enumerate(row)]
             for i, row in enumerate(entries)]
    A = MatElement(w, cells)
    if "rows" in obj and obj["rows"] != A.m:
        raise SchemaError(f"declared rows={obj['rows']} but found {A.m}")
    if "cols" in obj and obj["cols"] != A.n:
        raise SchemaError(f"declared cols={obj['cols']} but found {A.n}")
    return A


def factors_to_json(factors) -> list[dict]:
    return [{"i": f.i, "j": f.j, "alpha": element_to_json(f.alpha)}
            for f in factors]


# ---------------------------------------------------------------------------
# writer


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dumps(doc: Any) -> str:
    """The text of json.dumps(doc, indent=2), where doc may also hold (k, 2)
    float64 arrays, written as lists of [re, im] pairs.

    json's pure-Python encoder (used whenever indent is set) pays a generator
    step per item.  This walks the document once, writing all but its
    arrays; the values of all the arrays are then deduplicated together by
    their bits (so -0.0 stays apart from 0.0), each distinct value is
    formatted once, and each array is filled into one template of its rows.
    """
    parts: list[str] = []
    arrays: list[tuple[int, np.ndarray, str]] = []
    _write(doc, "\n", parts, arrays)
    if arrays:
        bits = np.concatenate([a.ravel() for _, a, _ in arrays]).view(np.int64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        values = distinct.view(np.float64)
        texts = list(map(float.__repr__, values.tolist()))
        for k in np.flatnonzero(~np.isfinite(values)).tolist():
            texts[k] = _NONFINITE[texts[k]]
        cells = np.array(texts, dtype=object)[inverse].tolist()
        start = 0
        for slot, a, nl in arrays:
            inner = nl + "  "
            row = "[" + inner + "  %s," + inner + "  %s" + inner + "]"
            body = ("," + inner).join([row] * len(a))
            parts[slot] = ("[" + inner + body + nl + "]") % tuple(
                cells[start:start + a.size])
            start += a.size
    return "".join(parts)


def _json_str(s: str) -> str:
    return f'"{s}"' if s.isascii() and s.isidentifier() else json.dumps(s)


def _write(o, nl: str, out: list, arrays: list) -> None:
    """Append the text of o to out, at the indentation that the newline
    string nl sets; a nonempty array gets an empty slot, recorded in arrays
    with its position and nl."""
    t = type(o)
    if t is np.ndarray:
        if o.size:
            arrays.append((len(out), o, nl))
        out.append("" if o.size else "[]")
    elif (t is list or t is tuple) and o:
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _write(v, inner, out, arrays)
            sep = "," + inner
        out.append(nl + "]")
    elif t is dict and o and all(type(k) is str for k in o):
        inner = nl + "  "
        sep = "{" + inner
        for k, v in o.items():
            out.append(sep + _json_str(k) + ": ")
            _write(v, inner, out, arrays)
            sep = "," + inner
        out.append(nl + "}")
    elif t is str:
        out.append(_json_str(o))
    elif t is int or (t is float and math.isfinite(o)):
        out.append(repr(o))
    elif t is bool or o is None:
        out.append("null" if o is None else "true" if o else "false")
    else:
        out.append(json.dumps(o, indent=2).replace("\n", nl))
