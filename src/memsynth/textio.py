"""Every byte memsynth reads or writes: its JSON documents and CSV tables.

Output is deterministic (identical inputs and flags give identical bytes),
and no output holds a nan or an infinity: either writer raises
:class:`NumericalError` (exit 3) before any text is made.  orjson renders
both formats with ``repr``'s shortest digits, though not always in its
layout, and only this module imports orjson.

JSON out (:func:`dump_json`) is ``json.dumps(doc, indent=2)`` plus a
newline, byte for byte, for documents of dicts with plain ASCII keys,
lists, finite floats, ints, bools, ``None`` and plain ASCII strings
(:func:`_plain`).  A 1-D float64 numpy array is written as the list of
its floats, and element documents hold their series so; any other array
raises ``TypeError``.  orjson's exponents (``1.5e-7``) are padded in one
pass over the text (``1.5e-07``).  A float that orjson lays out otherwise,
in [1e-5, 1e-4) (``0.00002``) or of magnitude 1e16 and up (``1e16``), goes
to orjson as ``null``, as ``None`` does; their stdlib text is filled in
afterwards, in document order.

CSV out (:func:`columns_to_csv`): every cell is the ``repr`` of its float64
sample.  orjson renders a whole chunk of a column at once
(:func:`float_cells`), and the finite cells it lays out otherwise
(:func:`repr_fallback`) are respelled as strings (:func:`_respell`).  The
fills of a long float array in a JSON document are spelled the same way.

JSON in (:func:`read_json`) is standard UTF-8 JSON, parsed by orjson.  A
byte order mark, invalid UTF-8, a lone surrogate escape such as
``"\\ud800"``, the constants ``NaN``, ``Infinity`` and ``-Infinity``, a
number beyond the float64 range (``1e400``, a 400-digit integer) and nesting
deeper than :data:`MAX_JSON_DEPTH` levels are rejected with
:class:`ValidationError` (exit 2), even under a key memsynth ignores.  An
integer of 2^64 and above reads as the float it rounds to, so ``2**70`` as
a coefficient reads as ``1.1805916207174113e+21`` and as a harmonic order is
not an integer.
"""

from __future__ import annotations

import functools
import math
import sys
from itertools import repeat
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import orjson

from .elements import KINDS, ElementKind
from .errors import NumericalError, ValidationError
from .simulation import SimulationTrace


#: orjson lays out the documents; :func:`dump_json` restores the stdlib spelling
_ORJSON_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY

#: float arrays at least this long are checked as one numpy array; below it a
#: per-float check is faster (the two break even near 40 floats)
_ARRAY_MIN = 40

_DIGITS = "0123456789"

#: input documents nested deeper than this are rejected unparsed; memsynth's
#: own documents nest 5 deep
MAX_JSON_DEPTH = 1000

#: every byte but the four brackets and the quote, which :func:`read_json` reads
_NOT_MARKS = bytes(sorted(set(range(256)) - set(b'[]{}"')))

#: the nesting step of each byte: +1 for an opening bracket, -1 for a closing one
_DEPTH_STEPS = np.zeros(256, dtype=np.int8)
_DEPTH_STEPS[list(b"[{")] = 1
_DEPTH_STEPS[list(b"]}")] = -1

#: brackets and quotes read per step of :func:`read_json`'s running depth
_DEPTH_CHUNK = 1 << 16

TRACE_HEADER = "t,u,phi,sigma,i_total,i_dc,i_GM,i_GammaM,i_CM,q_CM,C_of_t"

#: rows rendered at a time by :func:`columns_to_csv`; bounds the Python
#: floats and strings alive at once to one chunk's worth
CSV_CHUNK_ROWS = 1024


def read_json(path: str) -> dict:
    """The document in ``path``, parsed by orjson once its nesting depth is checked.

    orjson recurses on nesting and crashes the process when the stack runs
    out (past about 120 000 levels with an 8 MiB stack), so a document nested
    deeper than :data:`MAX_JSON_DEPTH` is rejected unparsed.  The check drops
    the escaped backslashes and quotes, so that every quote left opens or
    closes a string, and skips the brackets inside strings, where a closing
    one would hide real depth.  It runs over chunks of the brackets and
    quotes, and stops at the first chunk past the bound.
    """
    data = Path(path).read_bytes()
    bare = data.replace(b"\\\\", b"").replace(b'\\"', b"") if b"\\" in data else data
    marks = np.frombuffer(bare.translate(None, _NOT_MARKS), dtype=np.uint8)
    if len(marks) > MAX_JSON_DEPTH:  # fewer marks hold too few brackets to nest deeper
        depth, quoted = 0, False
        for start in range(0, len(marks), _DEPTH_CHUNK):
            chunk = marks[start:start + _DEPTH_CHUNK]
            inside = np.bitwise_xor.accumulate(chunk == ord('"')) ^ quoted
            steps = _DEPTH_STEPS[chunk]
            steps[inside] = 0
            running = steps.cumsum(dtype=np.int64)
            if depth + running.max() > MAX_JSON_DEPTH:
                raise ValidationError(f"{path}: nested deeper than {MAX_JSON_DEPTH} levels")
            depth, quoted = depth + int(running[-1]), bool(inside[-1])
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        # orjson blames surrogates for any byte that is not UTF-8
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as bad:
            raise ValidationError(f"{path}: not valid JSON (not valid UTF-8: {bad})") from exc
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc


def dump_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte, for memsynth's documents.

    Anything else raises ``TypeError``: other types and subclasses, keys or
    strings that :func:`_plain` refuses, ints beyond 64 bits and nesting
    deeper than orjson's 254 levels.  A nan or an infinity raises
    :class:`NumericalError`.
    """
    fills: list[str] = []
    text = orjson.dumps(_orjson_ready(doc, fills), option=_ORJSON_OPTIONS).decode() + "\n"
    # every exponent digit is followed by another one or a separator, never the text's end
    head, *tails = text.split("e-")
    if tails:
        text = "e-".join([head] + [t if t[1] in _DIGITS else "0" + t for t in tails])
    if fills:
        pieces = text.split("null")
        text = pieces[0] + "".join(map(str.__add__, fills, pieces[1:]))
    return text


def _plain(text: str) -> bool:
    """True when orjson and the stdlib spell ``text`` alike and no fill can be mistaken in it."""
    return text.isascii() and text.isprintable() and "null" not in text and "e-" not in text


def _not_finite(value) -> NumericalError:
    return NumericalError(f"result {value!r} is not finite and cannot be written as JSON")


def _float_array(values: np.ndarray, fills: list[str]) -> np.ndarray:
    """A copy of the float64 array ``values``, nan wherever a fill stands in.

    A copy, never ``values`` itself: an array a document holds may be
    read-only, and the fills' nan must not reach the caller's floats.
    """
    x = np.array(values)
    m = np.abs(x)
    fill = ((m >= 1e-5) & (m < 1e-4)) | ~(m < 1e16)
    if fill.any():
        where = fill.nonzero()[0]
        spelled = x[where]
        bad = ~np.isfinite(spelled)
        if bad.any():
            raise _not_finite(spelled[bad.argmax()].item())
        fills.extend(float_cells(spelled))
        x[where] = np.nan
    return x


def _orjson_ready(value, fills: list[str]):
    """``value`` with every value orjson spells otherwise replaced, its stdlib text in ``fills``."""
    kind = type(value)
    if kind is float:
        m = abs(value)
        if 1e-5 <= m < 1e-4 or not m < 1e16:
            if not math.isfinite(value):
                raise _not_finite(value)
            fills.append(float.__repr__(value))
            return None
        return value
    if kind is dict:
        out = {}
        for key, item in value.items():
            if type(key) is not str or not _plain(key):
                raise TypeError(f"JSON key {key!r} is not a plain string")
            out[key] = _orjson_ready(item, fills)
        return out
    if kind is np.ndarray:
        # OPT_SERIALIZE_NUMPY would write any numeric array; only a float list's form passes
        if value.ndim != 1 or value.dtype != np.float64:
            raise TypeError(f"a {value.ndim}-D {value.dtype} array is not a JSON float list")
        if len(value) >= _ARRAY_MIN:
            return _float_array(value, fills)
        value, kind = value.tolist(), list
    if kind is list:
        return [_orjson_ready(item, fills) for item in value]
    if kind is str:
        if _plain(value):
            return value
        raise TypeError(f"JSON string {value!r} is not plain")
    if kind is int or kind is bool:
        return value
    if value is None:
        fills.append("null")
        return None
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def emit(text: str, path: Optional[str]) -> None:
    """Write ``text`` to ``path``, or to stdout when ``path`` is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def repr_fallback(x: np.ndarray) -> np.ndarray:
    """Mask of the samples orjson spells differently from ``float.__repr__``.

    For a magnitude in [1e-4, 1e16) both print the same shortest digits
    positionally (``0.0001``, ``9999999999999998.0``).  Below 1e-9 both
    print them with a two- or three-digit negative exponent (``1.5e-12``,
    ``5e-324``), and both print ``0.0`` and ``-0.0``.  The rest is flagged:
    orjson writes ``0.0000123``, ``1.5e-7`` and ``1e16`` where ``repr``
    writes ``1.23e-05``, ``1.5e-07`` and ``1e+16``, and ``null`` for nan and
    the infinities.
    """
    mag = np.abs(x)
    return ~((mag < 1e-9) | ((mag >= 1e-4) & (mag < 1e16)))


def _respell(token: str) -> str:
    """``repr``'s spelling of a finite orjson token that :func:`repr_fallback` flags.

    Both carry the same shortest digits, so only the layout changes: the
    exponent of 1e-9 <= |x| < 1e-5 gains a leading zero, that of
    |x| >= 1e16 a plus sign, and the positional ``[-]0.0000ddd`` of
    1e-5 <= |x| < 1e-4 becomes ``[-]d.dde-05``.
    """
    if "e" in token:
        return token[:-1] + "0" + token[-1] if "e-" in token else token.replace("e", "e+")
    sign, digits = ("-", token[7:]) if token[0] == "-" else ("", token[6:])
    if len(digits) == 1:
        return f"{sign}{digits}e-05"
    return f"{sign}{digits[0]}.{digits[1:]}e-05"


def float_cells(chunk: np.ndarray) -> list[str]:
    """``[repr(float(x)) for x in chunk]`` for a 1-D float64 array, from one orjson dump."""
    chunk = np.ascontiguousarray(chunk, dtype=float)
    if not len(chunk):
        return []
    cells = orjson.dumps(chunk, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    for k in np.flatnonzero(repr_fallback(chunk)).tolist():
        token = cells[k]
        cells[k] = float.__repr__(float(chunk[k])) if token == "null" else _respell(token)
    return cells


def columns_to_csv(header: str, columns: Sequence[Optional[np.ndarray]]) -> str:
    """CSV text with one row per sample of equal-length float columns.

    A ``None`` column gives empty cells, so at least one column must be an
    array.  Every other cell is ``repr(float(column[k]))``, the shortest
    string that reads back as the same float64.  A column that holds a nan
    or an infinity raises :class:`NumericalError` before any text is made.
    """
    arrays = [None if col is None else np.asarray(col, dtype=float) for col in columns]
    lengths = {len(col) for col in arrays if col is not None}
    if len(lengths) != 1:
        raise ValueError("CSV columns must be arrays of one length, at least one of them")
    for k, col in enumerate(arrays):
        if col is not None and not np.isfinite(col).all():
            raise NumericalError(f"CSV column {k + 1} of {header!r} is not finite throughout")
    n = lengths.pop()
    chunks = [header]
    for start in range(0, n, CSV_CHUNK_ROWS):
        stop = start + CSV_CHUNK_ROWS
        cells = [repeat("") if col is None else float_cells(col[start:stop]) for col in arrays]
        chunks.append("\n".join(map(",".join, zip(*cells))))
    chunks.append("")
    return "\n".join(chunks)


def trace_to_csv(trace: SimulationTrace) -> str:
    """Render a trace with the fixed column layout.

    Each branch is summed into the family column of its kind (its
    ``column`` in :data:`memsynth.elements.KINDS`: an LTI companion
    inductor lands in i_GammaM, a companion capacitor in i_CM), in branch
    order.  So every row satisfies i_total = i_dc + i_GM + i_GammaM + i_CM
    to roundoff, not bit for bit: i_total adds the branches in slot order,
    companions last, while a family adds each companion to its memory
    branch.  q_CM and C_of_t describe the memcapacitor element itself.
    Families with no branch yield empty cells.
    """
    if not trace.branches:
        return TRACE_HEADER + "\n"

    def family(column: str) -> Optional[np.ndarray]:
        picked = [b.current for b in trace.branches if KINDS[b.element.kind].column == column]
        return functools.reduce(np.add, picked) if picked else None

    memcap = next((b for b in trace.branches if b.element.kind is ElementKind.MEMCAPACITOR), None)
    charge, capacitance = (memcap.charge, memcap.capacitance) if memcap else (None, None)
    columns = [trace.states.t, trace.states.u, trace.states.phi, trace.states.sigma, trace.i_total,
               *map(family, ("i_dc", "i_GM", "i_GammaM", "i_CM")), charge, capacitance]
    return columns_to_csv(TRACE_HEADER, columns)
