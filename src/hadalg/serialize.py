"""JSON document schemas for sequences, elements, matrices and factor lists.

Complex numbers travel as [re, im] pairs (bare reals are accepted on input).
A written document holds each sequence's values as the read-only (k, 2)
float64 view of its complex array; ``dump`` streams its text to a file a
block of rows at a time, holding one block's values and texts, never the
whole document's.  Its bytes are those of json.dumps(indent=2) of the
document with lists in place of its arrays.  Each float's text is the
shortest that round-trips: orjson's Ryu writes it inside the band where
float.__repr__ uses fixed notation (1e-4 <= |x| < 1e16, and +-0), and
float.__repr__ outside it.  So every document reconstructs bit-identically
in double precision.
"""

from __future__ import annotations

import array
import io
import itertools
import json
import math
import warnings
from typing import Any, Iterable

import numpy as np
import orjson

from . import weights as weights_mod
from .algebra import Element, from_raw_coeffs
from .coeffseq import Canonical, EPSeq, _canonical, _gather, _window
from .errors import DimensionMismatch, NumericalError, SchemaError
from .matalg import MatElement, from_ustack


def _c_from_json(obj: Any) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if (isinstance(obj, (list, tuple)) and len(obj) == 2
            and all(isinstance(x, (int, float)) for x in obj)):
        return complex(obj[0], obj[1])
    raise SchemaError(f"expected a number or [re, im] pair, got {obj!r}")


def _pairs_array(lists) -> np.ndarray | None:
    """The JSON value lists, one after another, as one complex128 array; None
    unless they hold at least one [re, im] pair, only such pairs of real
    numbers, and only finite values.  The real and the imaginary parts are
    unpacked into two array.array buffers: unpacking refuses a pair of
    another length (ValueError) or a cell that is no sequence (TypeError),
    and array.array refuses a part that is not a real number (TypeError) or
    an int past the double range (OverflowError).  A numpy complex part,
    which array.array would read as its real part with a ComplexWarning, is
    refused by that warning."""
    try:
        pairs = list(itertools.chain.from_iterable(lists))
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            real = array.array("d", [a for a, _ in pairs])
            imag = array.array("d", [b for _, b in pairs])
    except (TypeError, ValueError, OverflowError, np.exceptions.ComplexWarning):
        return None
    values = np.empty(len(pairs), np.complex128)
    values.real, values.imag = real, imag
    return values if pairs and np.isfinite(values).all() else None


def _values_from_json(cells: Any, field: str) -> np.ndarray:
    """A JSON list of [re, im] pairs (or bare reals) as a complex128 array,
    read cell by cell through _c_from_json.  Non-finite values are refused.
    """
    if not isinstance(cells, (list, tuple, np.ndarray)):
        raise SchemaError(f"{field} must be a list of [re, im] pairs")
    try:
        values = np.array([_c_from_json(v) for v in cells], dtype=np.complex128)
    except OverflowError as exc:
        raise SchemaError(f"{field}: {exc}") from exc
    finite = np.isfinite(values)
    if not finite.all():
        raise SchemaError(f"{field}[{int(finite.argmin())}] is not finite")
    return values


def _sequences(docs: list, fields: Iterable[str]) -> tuple[np.ndarray, list]:
    """Every sequence document's prefix then cycle values, one document after
    another, in one complex128 array, and their prefix and cycle lengths in
    that order.  [re, im] pairs of finite numbers with nonempty cycles
    convert together (_pairs_array); else each field is read in document
    order (``fields`` names the documents, read only then), so the first bad
    field raises its own message."""
    lists = [v for doc in docs if type(doc) is dict and "cycle" in doc
             for v in (doc.get("prefix", []), doc["cycle"])]
    regular = len(lists) == 2 * len(docs) and all(
        isinstance(v, (list, tuple, np.ndarray)) for v in lists)
    flat = _pairs_array(lists) if regular and all(map(len, lists[1::2])) else None
    if flat is None:
        lists = []
        for doc, field in zip(docs, fields):
            if not isinstance(doc, dict) or "cycle" not in doc:
                raise SchemaError("sequence document needs a 'cycle' field")
            lists += [_values_from_json(doc.get("prefix", []), f"{field}.prefix"),
                      _values_from_json(doc["cycle"], f"{field}.cycle")]
            if not len(lists[-1]):
                raise SchemaError("cycle must be nonempty")
        flat = np.concatenate([np.zeros(0, np.complex128), *lists])
    return flat, list(map(len, lists))


def _values_to_json(values: np.ndarray) -> np.ndarray:
    """Contiguous complex values as read-only [re, im] rows, with no copy."""
    rows = values.view(np.float64).reshape(-1, 2)
    rows.flags.writeable = False
    return rows


def epseq_to_json(s: EPSeq | Canonical) -> dict:
    L = s.period_start
    return {"prefix": _values_to_json(s.array[:L]),
            "cycle": _values_to_json(s.array[L:])}


def epseq_from_json(obj: Any, field: str = "normalized") -> EPSeq:
    flat, (pl, _) = _sequences([obj], [field])
    return EPSeq(flat[:pl], flat[pl:])


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


def _columns_to_json(cols: np.ndarray, L: int) -> list[dict]:
    """The sequence document of each column of the (P, K) values cols, on a
    window of prefix length L, canonicalised on its own: all the columns by
    one _canonical call, their representatives by one gather."""
    P, K = cols.shape
    d, t = map(np.array, _canonical(cols[:L], cols[L:]))
    ends = (L - t + d).tolist()
    reps = np.ascontiguousarray(
        _gather(cols.T.ravel(), np.arange(0, K * P, P), L, t, d, max(ends)).T)
    return [epseq_to_json(Canonical(r[:e], pl))
            for r, e, pl in zip(reps, ends, (L - t).tolist())]


def matrix_to_json(A: MatElement) -> dict:
    """Each entry's column of the stack as its own sequence document."""
    P, m, n = A.array.shape
    cells = _columns_to_json(A.array.reshape(P, m * n), A.period_start)
    return {"weight": A.weight.name, "rows": m, "cols": n,
            "entries": [cells[i * n:(i + 1) * n] for i in range(m)]}


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
    flat, lens = _sequences([cell for row in entries for cell in row],
                            (f"entries[{i}][{j}]" for i, row in enumerate(entries)
                             for j in range(len(row))))
    if not entries[0]:
        raise DimensionMismatch("matrix must be nonempty")
    if len(set(map(len, entries))) > 1:
        raise DimensionMismatch("ragged rows")
    m, n = len(entries), len(entries[0])
    # the cells of one raw shape are canonicalised together
    L, c = np.array(lens).reshape(-1, 2).T
    start = np.cumsum(L + c) - (L + c)
    d, t = np.empty_like(L), np.empty_like(L)
    groups: dict = {}
    for j, shape in enumerate(zip(lens[::2], lens[1::2])):
        groups.setdefault(shape, []).append(j)
    for (pl, cl), cols in groups.items():
        raw = flat[start[cols] + np.arange(pl + cl)[:, None]]
        d[cols], t[cols] = _canonical(raw[:pl], raw[pl:])
    pl, cl = _window(int((L - t).max()), math.lcm(*d.tolist()), m * n)
    A = from_ustack(w, pl, _gather(flat, start, L, t, d, pl + cl).reshape(-1, m, n))
    if "rows" in obj and obj["rows"] != A.m:
        raise SchemaError(f"declared rows={obj['rows']} but found {A.m}")
    if "cols" in obj and obj["cols"] != A.n:
        raise SchemaError(f"declared cols={obj['cols']} but found {A.n}")
    return A


def factors_to_json(weight: weights_mod.Weight, L: int, factors: list) -> list[dict]:
    """The document of each (i, j, values) factor of matalg.sl_factor, its
    alpha the element of that weight whose values lie on a window of prefix
    length L."""
    if not factors:
        return []
    cells = _columns_to_json(np.stack([vals for _, _, vals in factors], axis=1), L)
    return [{"i": i, "j": j, "alpha": {"weight": weight.name, "normalized": cell}}
            for (i, j, _), cell in zip(factors, cells)]


def check_finite(doc: dict) -> None:
    """Raise NumericalError at the document's first NaN or +-Infinity (an
    answer is finite numbers), naming its JSON path and, in an array of
    [re, im] rows, its row: "gcd.normalized.cycle is not finite at index 0"."""
    bad = _nonfinite(doc)
    if bad is not None:
        raise NumericalError(f"{bad[0].lstrip('.')} is not finite{bad[1]}")


def _nonfinite(o) -> tuple[str, str] | None:
    """(the JSON path below the dict, list or tuple o of its first NaN or
    +-Infinity, " at index n" if that is in row n of an array) or None."""
    for k, v in (o.items() if type(o) is dict else enumerate(o)):
        t, bad = type(v), None
        if t is dict or t is list or t is tuple:
            bad = _nonfinite(v)
        elif t is np.ndarray:
            if v.size and not np.isfinite(v).all():
                bad = "", f" at index {int(np.isfinite(v).all(axis=1).argmin())}"
        elif isinstance(v, float) and not math.isfinite(v):
            bad = "", ""
        if bad is not None:
            return (f"[{k}]" if type(k) is int else f".{k}") + bad[0], bad[1]
    return None


# ---------------------------------------------------------------------------
# writer


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# rows joined into one write, and at most the rows of one block: a few
# hundred kB of text
_CHUNK_ROWS = 4096

_repr = np.frompyfunc(float.__repr__, 1, 1)


def _texts(values: np.ndarray) -> list[str]:
    """The JSON text of each float64 value, each distinct one (by its bits,
    so -0.0 stays apart from 0.0) formatted once.

    One orjson call formats them all.  Its Ryu writes the shortest digits
    that round-trip, as float.__repr__ does, and in the same fixed notation
    wherever repr uses it: 1e-4 <= |x| < 1e16, and +-0.  The other values
    take repr's text (orjson writes 1e16 for 1e+16, 0.00001 for 1e-05 and
    null for NaN), json's for the non-finite ones."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = distinct.view(np.float64)
    texts = np.array(orjson.dumps(distinct, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
                     .decode().split(","), dtype=object)
    size = np.abs(distinct)
    outside = (distinct != 0) & ~((size >= 1e-4) & (size < 1e16))
    texts[outside] = [_NONFINITE.get(t, t) for t in _repr(distinct[outside])]
    return texts[inverse].tolist()


def dump(doc: Any, fh) -> None:
    """Write the text of json.dumps(doc, indent=2) to the text file fh, where
    doc may also hold (k, 2) float64 arrays, written as lists of [re, im]
    pairs.

    json's pure-Python encoder (used whenever indent is set) pays a generator
    step per item.  This walks the document once, formatting all but its
    arrays, and writes the text between the arrays as it stands.  Each array
    is cut into chunks of at most _CHUNK_ROWS rows, and consecutive chunks,
    of one array or several, into blocks of at most _CHUNK_ROWS rows: the
    values of a block are formatted together, each distinct one once, and
    each chunk is written as one join of its value texts interleaved with the
    two separators of a row.  So the writer holds one block, never the
    document's values or its text.
    """
    parts: list[str] = []
    arrays: list[tuple[int, np.ndarray, str]] = []
    _write(doc, "\n", parts, arrays)
    # (slot, the chunk's rows, nl, whether it is its array's first, last)
    chunks = [(slot, a[first:first + _CHUNK_ROWS], nl, first == 0,
               first + _CHUNK_ROWS >= len(a))
              for slot, a, nl in arrays for first in range(0, len(a), _CHUNK_ROWS)]
    done = lo = 0
    while lo < len(chunks):
        hi, rows = lo, 0
        while hi < len(chunks) and rows + len(chunks[hi][1]) <= _CHUNK_ROWS:
            rows += len(chunks[hi][1])
            hi += 1
        block = chunks[lo:hi]
        texts = _texts(np.concatenate([c[1].ravel() for c in block]))
        at = 0
        for slot, a, nl, opens, closes in block:
            inner = nl + "  "
            if opens:
                fh.write("".join(parts[done:slot]) + "[" + inner + "[" + inner + "  ")
                done = slot + 1
            # [v0, within a row, v1, between rows] per row; the last one closes
            pieces = [None, "," + inner + "  ", None,
                      inner + "]," + inner + "[" + inner + "  "] * len(a)
            pieces[::2] = texts[at:at + a.size]
            at += a.size
            if closes:
                pieces[-1] = inner + "]" + nl + "]"
            fh.write("".join(pieces))
        lo = hi
    fh.write("".join(parts[done:]))


def dumps(doc: Any) -> str:
    """The text that dump writes."""
    buf = io.StringIO()
    dump(doc, buf)
    return buf.getvalue()


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
