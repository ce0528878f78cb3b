"""The file formats: JSON and CSV text, byte for byte."""

import json
import math
import struct

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsynth import textio
from memsynth.errors import NumericalError
from memsynth.textio import (
    CSV_CHUNK_ROWS,
    _respell,
    columns_to_csv,
    float_cells,
    repr_fallback,
)


@pytest.mark.parametrize("doc", [
    {},
    [],
    {"a": [], "b": {}, "c": [[], {}, [[]]]},
    {"floats": [0.1, -0.0, 1e-310, 1e300, 1e16, 1e-05, 2.5]},
    {"extremes": [5e-324, -1.7976931348623157e308, 9999999999999998.0], "x": -1e-05},
    {"mixed": [1.5, 2, True, None, "s", [0.25, 0.5]], "int": 2**64 - 1, "flag": False},
    {"text": 'h "q" \\ /', "n": 3.25, "min": -(2**63)},
    {"deep": {"er": {"est": [1.5, {"k": [0.1, 0.2]}]}}},
])
def test_dump_json_matches_stdlib_indent_2(doc):
    assert textio.dump_json(doc) == json.dumps(doc, indent=2) + "\n"


def test_dump_json_rejects_what_stdlib_rejects():
    for doc in ({"k": np.int64(3)}, {"k": object()}, [np.arange(2)]):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            textio.dump_json(doc)


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


#: JSON values that no memsynth document holds, though the stdlib writes them
OUTSIDE_THE_GRAMMAR = [
    np.float64(2.5), (0.25, 0.5), 2**64, -(2**63) - 1, 2**70,
    "h\u00e9llo", "\u2603", "a\nb", "\x7f", "null", "e-5",
    {"k\u00e9": 1.0}, {"null": 1.0}, {"a\nb": 1.0}, {"e-": 1.0},
    _Str("s"), _Int(3), _Float(2.5), _List([1.0]), _Dict(k=1.0),
]


@pytest.mark.parametrize("value", OUTSIDE_THE_GRAMMAR)
def test_dump_json_raises_type_error_outside_the_grammar(value):
    for doc in ({"k": value}, [1.0, value], [value] + [1.0] * textio._ARRAY_MIN):
        with pytest.raises(TypeError):
            textio.dump_json(doc)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_dump_json_refuses_non_finite_floats(value):
    floats = [1.0] * textio._ARRAY_MIN
    for doc in ({"x": value}, {"x": [0.5, value]}, {"x": [*floats, value]},
                {"x": [value, *floats]}, {"x": [*floats, 2e-5, value, 1e16]}):
        with pytest.raises(NumericalError, match="not finite"):
            textio.dump_json(doc)


#: the edges of the bands where orjson spells a float otherwise than ``repr``
BAND_EDGES = [
    float(x)
    for edge in (1e-5, 1e-4, 1e16)
    for x in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))
]
JSON_SPECIAL_FLOATS = [0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                  1.7976931348623157e308, *BAND_EDGES]

_floats = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
    .filter(math.isfinite),
    st.sampled_from(JSON_SPECIAL_FLOATS + [-x for x in JSON_SPECIAL_FLOATS]),
    st.floats(allow_nan=False, allow_infinity=False),
)
#: strings that :func:`textio._plain` accepts
_strings = st.one_of(
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E)),
    st.lists(st.sampled_from(["nu", "ll", "e", "-5", "a", " ", '"', "\\", "n", "-"]),
             max_size=6).map("".join),
).filter(textio._plain)
_ints = st.one_of(
    st.integers(-(2**63), 2**64 - 1),
    st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, -(2**63)]),
)
_json_scalars = st.one_of(_floats, _strings, _ints, st.none(), st.booleans())
_long_float_lists = st.lists(_floats, min_size=textio._ARRAY_MIN, max_size=textio._ARRAY_MIN + 8)
_json_docs = st.recursive(
    st.one_of(_json_scalars, _long_float_lists),
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.dictionaries(_strings, inner, max_size=6),
    ),
    max_leaves=12,
)


@settings(max_examples=120, deadline=None)
@given(_json_docs)
def test_dump_json_matches_stdlib_on_any_document(doc):
    assert textio.dump_json(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("value", BAND_EDGES)
def test_dump_json_fills_exactly_the_floats_orjson_spells_otherwise(value):
    # a fill where none is needed still prints the stdlib text, so only this
    # test sees a band that grew by one ulp
    band = 1e-5 <= value < 1e-4 or value >= 1e16
    for x in (value, -value):
        want = [repr(x)] if band else []
        long = want * textio._ARRAY_MIN
        for doc, fills_wanted in ((x, want), ([x] * textio._ARRAY_MIN, long),
                                  (np.full(textio._ARRAY_MIN, x), long)):
            fills = []
            textio._orjson_ready(doc, fills)
            assert fills == fills_wanted


#: array lengths either side of the switch from per-float checks to one numpy pass
ARRAY_LENGTHS = [0, 1, textio._ARRAY_MIN - 1, textio._ARRAY_MIN, textio._ARRAY_MIN + 1]

#: a float of each fill band, both zeros, subnormals and plain floats
_ARRAY_FLOATS = [*BAND_EDGES, 2e-5, -3.5e-5, 1.5e300, -0.0, 0.0, 5e-324, -2.5e-310,
                 2.2250738585072014e-308, 0.1, -1.0 / 3.0, 1e-12, 123456.789]


def _read_only(values):
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


@st.composite
def _array_docs(draw):
    """A document holding float64 arrays, and the same document with lists in their place."""
    length = st.one_of(st.sampled_from(ARRAY_LENGTHS), st.integers(0, textio._ARRAY_MIN + 8))
    lengths = draw(st.lists(length, max_size=4))
    lists = [draw(st.lists(_floats, min_size=n, max_size=n)) for n in lengths]
    scalars = draw(st.lists(_json_scalars, max_size=3))
    as_arrays = {"series": [_read_only(x) for x in lists], "x": scalars,
                 "nested": {"coeffs": _read_only(lists[0]) if lists else None}}
    as_lists = {"series": lists, "x": scalars, "nested": {"coeffs": lists[0] if lists else None}}
    return as_arrays, as_lists


@settings(max_examples=120, deadline=None)
@given(_array_docs())
def test_dump_json_writes_float64_arrays_as_their_lists(docs):
    as_arrays, as_lists = docs
    assert textio.dump_json(as_arrays) == json.dumps(as_lists, indent=2) + "\n"


@pytest.mark.parametrize("length", ARRAY_LENGTHS)
def test_dump_json_writes_every_fill_band_of_an_array(length):
    floats = np.resize(np.array(_ARRAY_FLOATS + [-x for x in _ARRAY_FLOATS]), length)
    before = floats.copy()
    floats.flags.writeable = False
    doc = {"coeffs": floats, "reversed": floats[::-1]}
    want = json.dumps({"coeffs": floats.tolist(), "reversed": floats[::-1].tolist()}, indent=2)
    assert textio.dump_json(doc) == want + "\n"
    # the fills' nan went into a copy
    assert np.array_equal(floats, before) and np.array_equal(np.signbit(floats), np.signbit(before))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("length", ARRAY_LENGTHS[1:])
def test_dump_json_refuses_a_non_finite_array_entry_before_any_text(monkeypatch, value, length):
    floats = np.full(length, 2e-5)
    floats[length // 2] = value

    def no_text(*args, **kwargs):
        raise AssertionError("orjson was asked for text")

    monkeypatch.setattr(textio.orjson, "dumps", no_text)
    with pytest.raises(NumericalError, match="not finite"):
        textio.dump_json({"coeffs": _read_only(floats)})


@pytest.mark.parametrize("array", [
    np.arange(3), np.arange(3, dtype=np.int64), np.zeros(3, dtype=bool),
    np.zeros((2, 2)), np.zeros((0, 3)), np.float64(1.5) * np.ones(()),
    np.zeros(3, dtype=np.float32), np.zeros(textio._ARRAY_MIN, dtype=">f8"),
    np.zeros(3, dtype=complex), np.array(["1.5"]), np.array([1.5], dtype=object),
], ids=["int", "int64", "bool", "2-D", "empty-2-D", "0-D", "float32", "big-endian",
        "complex", "str", "object"])
def test_dump_json_refuses_every_other_array(array):
    for doc in ({"k": array}, [array], {"k": [1.0, array]}):
        with pytest.raises(TypeError):
            textio.dump_json(doc)


SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-5, 1e16, 1.7976931348623157e308,
    0.1, -1.0 / 3.0, float("inf"), float("-inf"), float("nan"),
    # the edges of the range where orjson and ``repr`` lay a float out alike
    1e-4, float(np.nextafter(1e-4, 0.0)), float(np.nextafter(1e-4, 1.0)),
    float(np.nextafter(1e16, 0.0)), float(np.nextafter(1e16, np.inf)), 9999999999999998.0,
]


def _reference_csv(header, columns):
    """The per-cell loop the columnar writer replaced."""
    n = len(next(col for col in columns if col is not None))
    lines = [header]
    for k in range(n):
        lines.append(",".join("" if col is None else repr(float(col[k])) for col in columns))
    return "\n".join(lines) + "\n"


def _assert_csv_or_refusal(header, columns):
    """The per-cell text when every cell is finite; a NumericalError otherwise."""
    if all(np.isfinite(col).all() for col in columns if col is not None):
        text = columns_to_csv(header, columns)
        assert text == _reference_csv(header, columns)
        return text
    with pytest.raises(NumericalError, match="not finite"):
        columns_to_csv(header, columns)
    return None


@pytest.mark.parametrize("rows", [0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
def test_columns_to_csv_matches_per_cell_repr_on_special_floats(rows):
    specials = np.resize(np.array(SPECIAL_FLOATS), rows)
    columns = [specials, None, -specials[::-1].copy(), None]
    text = _assert_csv_or_refusal("a,b,c,d", columns)
    if text is not None:
        assert text.count("\n") == rows + 1
    for column in (specials, -specials):
        assert float_cells(column) == [repr(float(x)) for x in column]


@st.composite
def _csv_columns(draw):
    rows = draw(st.sampled_from(
        [0, 1, 2, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 5]
    ))
    present = draw(st.lists(st.booleans(), min_size=1, max_size=6).filter(any))
    pool = np.array(draw(st.lists(
        st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()), min_size=1, max_size=12
    )))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for keep in present:
        if not keep:
            columns.append(None)
            continue
        # drawn values, mixed with random bit patterns (subnormals, nan payloads)
        bits = rng.integers(0, 2**64, rows, dtype=np.uint64, endpoint=False).view(np.float64)
        picked = pool[rng.integers(0, len(pool), rows)]
        columns.append(np.where(rng.random(rows) < 0.5, picked, bits))
    return columns


@settings(max_examples=60, deadline=None)
@given(_csv_columns())
def test_columns_to_csv_matches_per_cell_repr(columns):
    header = ",".join(f"c{j}" for j in range(len(columns)))
    _assert_csv_or_refusal(header, columns)


def _orjson_tokens(values):
    text = orjson.dumps(np.asarray(values, dtype=float), option=orjson.OPT_SERIALIZE_NUMPY)
    return text[1:-1].decode().split(",")


def test_repr_fallback_picks_exactly_the_cells_outside_the_shared_layout():
    edges = [1e-9, 1e-5, 1e-4, 1e16]
    values = [float(y) for x in edges for y in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))]
    values += [5e-324, 1e-300, 0.0, -0.0, float("nan"), float("inf"), float("-inf"), 0.1, 1e300]
    for sign in (1.0, -1.0):
        column = sign * np.array(values)
        differs = [t != repr(x) for t, x in zip(_orjson_tokens(column), column.tolist())]
        assert repr_fallback(column).tolist() == differs
    # the oracle is not vacuous: both spellings agree on some cells and not on others
    assert 0 < sum(differs) < len(differs)
    assert not repr_fallback(np.array([5e-324, 1e-300, float(np.nextafter(1e-9, 0.0))])).any()


@pytest.mark.parametrize(
    "value, token, spelled",
    [
        (0.00002, "0.00002", "2e-05"),
        (-0.0000123, "-0.0000123", "-1.23e-05"),
        (1.5e-7, "1.5e-7", "1.5e-07"),
        (-1e-9, "-1e-9", "-1e-09"),
        (1e16, "1e16", "1e+16"),
        (1.7976931348623157e308, "1.7976931348623157e308", "1.7976931348623157e+308"),
    ],
)
def test_respell_turns_each_orjson_layout_into_repr(value, token, spelled):
    assert _orjson_tokens([value]) == [token]
    assert _respell(token) == spelled == repr(value)
    assert float_cells(np.array([value])) == [spelled]


def test_float_cells_match_repr_on_every_power_of_ten():
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    for column in (powers, -powers):
        assert float_cells(column) == [repr(x) for x in column.tolist()]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_float_cells_match_repr_on_random_bit_patterns(seed):
    bits = np.random.default_rng(seed).integers(0, 2**64, 4 * CSV_CHUNK_ROWS + 7, dtype=np.uint64)
    column = bits.view(np.float64)
    assert float_cells(column) == [repr(x) for x in column.tolist()]


def test_float_cells_on_a_column_wholly_in_the_fallback_range():
    # like the C_of_t column of a bridge conditioner, about 1e-5 F throughout
    column = 1e-5 * (1.0 + 0.3 * np.sin(np.linspace(0.0, 7.0, 3 * CSV_CHUNK_ROWS + 11)))
    assert repr_fallback(column).all()
    assert float_cells(column) == [repr(float(x)) for x in column]
    columns = [np.arange(column.size) * 1e-3, column]
    assert columns_to_csv("t,C", columns) == _reference_csv("t,C", columns)


@pytest.mark.parametrize("special", [1e-5, 1.5e-7, -3e-300, 1e16, float("nan"), float("-inf")])
def test_fallback_cells_at_chunk_edges(special):
    column = np.linspace(1.0, 2.0, 2 * CSV_CHUNK_ROWS + 3)
    rows = [0, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS]
    column[rows] = special
    columns = [column, -column]
    text = _assert_csv_or_refusal("a,b", columns)
    if math.isfinite(special):
        lines = text.split("\n")
        for k in rows:
            assert lines[k + 1] == f"{special!r},{-special!r}"
    else:
        assert text is None


def test_float_cells_on_empty_and_strided_columns():
    assert float_cells(np.array([])) == []
    assert columns_to_csv("a,b", [np.array([]), None]) == "a,b\n"
    strided = np.linspace(-1e-6, 3.0, 3 * CSV_CHUNK_ROWS)[::3]
    assert not strided.flags.c_contiguous
    assert float_cells(strided) == [repr(float(x)) for x in strided]
    assert columns_to_csv("a", [strided]) == _reference_csv("a", [strided])


def test_columns_to_csv_rejects_unequal_or_missing_columns():
    with pytest.raises(ValueError):
        columns_to_csv("a,b", [np.zeros(3), np.zeros(4)])
    with pytest.raises(ValueError):
        columns_to_csv("a", [None])
