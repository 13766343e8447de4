"""`jsonl.loads` and `jsonl.dumps` against the `json` calls they stand for.

`loads` is `json.loads` but for three kinds of text it makes a
JSONDecodeError at the start of the value: nesting past the recursion
limit, an integer past the digit limit and a lone surrogate escape."""

import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formulakit.jsonl import dumps, loads

NESTED = "[" * 100_000 + "]" * 100_000
HUGE_INT = "1" * 5000
BOM = "\ufeff"

# JSON values, with the tuples and the non-string keys the encoder converts.
KEYS = (st.text(max_size=5) | st.integers(-5, 5) | st.booleans() | st.none()
        | st.floats(allow_nan=True, allow_infinity=True))
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-10**40, max_value=10**40)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(KEYS, children, max_size=4)),
    max_leaves=12)

# Raw text spliced into a document: lone surrogate escapes, the constants,
# a big int, non-ASCII text, stray brackets and trailing garbage.
FRAGMENTS = st.sampled_from([
    '"\\ud800"', '"a\\udfffb"', '"\\ud83d\\ude00"', "\\ud800", '"\\u00e9"',
    '"\xe9\u20ac\U0001f600"', "NaN", "-Infinity", "Infinity", "nan", "1e999", "-0",
    "0.5e-3", "123456789012345678901234567890", "9" * 4301, ",", ":", "[", "]", "{", "}",
    '"', "x", " 1",
])
# JSON whitespace, and two characters that str.strip drops but JSON does not.
SPACE = st.text(alphabet=" \t\n\r\x0c\xa0", max_size=3)


@st.composite
def json_texts(draw):
    text = json.dumps(draw(VALUES), ensure_ascii=draw(st.booleans()))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(FRAGMENTS) + text[at:]
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    text = draw(SPACE) + text + draw(SPACE)
    return BOM + text if draw(st.booleans()) else text


def outcome(decode, text):
    """The value's repr (which tells NaN, -0.0 and True from 1 apart), or
    the error's message and position."""
    try:
        return "value", repr(decode(text))
    except json.JSONDecodeError as exc:
        return "error", exc.msg, exc.pos, exc.lineno, exc.colno


def reference_loads(text):
    """json.loads(text), with the three cases `loads` documents made a
    JSONDecodeError at the start of the value."""
    start = len(text) - len(text.lstrip(" \t\n\r"))
    try:
        value = json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nesting too deep", text, start) from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        raise json.JSONDecodeError(f"integer longer than {sys.get_int_max_str_digits()} digits",
                                   text, start) from None
    try:
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        raise json.JSONDecodeError("string with no UTF-8 form (a lone surrogate escape)",
                                   text, start) from None
    return value


class TestLoads:
    @given(json_texts())
    @settings(max_examples=1500, deadline=None)
    @example("")
    @example(" \n ")
    @example(BOM + '{"a": 1}')
    @example('{"a": 1} x')
    @example('{"a": 1}\n\n{"b": 2}')
    @example("[1, 2")
    @example('"\\ud800"')
    @example("[NaN, -Infinity, 1e999]")
    @example("12345678901234567890123456789012345678901234567890")
    @example(NESTED)
    @example(" [" + HUGE_INT + ", x")
    @example('\n{"a": [1, {"\\udc00": 2}]}')
    def test_equals_json_loads(self, text):
        assert outcome(loads, text) == outcome(reference_loads, text)

    @pytest.mark.parametrize("text, start", [(NESTED, 0), (' \n{"a": ' + NESTED + "}", 2)])
    def test_nesting_past_the_recursion_limit_is_a_decode_error(self, text, start):
        with pytest.raises(RecursionError):
            json.loads(text)
        with pytest.raises(json.JSONDecodeError) as info:
            loads(text)
        assert (info.value.msg, info.value.pos) == ("nesting too deep", start)

    def test_a_lone_surrogate_at_the_recursion_limit_is_a_decode_error(self):
        # Encoding the value back, to find the surrogate, recurses as deep as
        # scanning it, so text just inside the limit must not escape as
        # RecursionError.
        for depth in range(sys.getrecursionlimit() - 60, sys.getrecursionlimit() + 5):
            with pytest.raises(json.JSONDecodeError):
                loads("[" * depth + '"\\ud800"' + "]" * depth)


class TestDumps:
    @given(VALUES)
    @settings(max_examples=1000, deadline=None)
    @example([float("nan"), float("inf"), -float("inf"), -0.0, 10**40])
    @example({"\xe9\u20ac\U0001f600": "\ud800", 1: None, None: True, 0.5: [], False: {}})
    def test_equals_json_dumps(self, value):
        assert dumps(value) == json.dumps(value, ensure_ascii=False, separators=(",", ":"))

    @pytest.mark.parametrize("value", [{1, 2}, b"x", object(), [1, {"a": {2}}],
                                       {(1, 2): 3}, {"a": 1, "b": [2, b"y"]}])
    def test_a_value_json_cannot_hold_raises_type_error(self, value):
        with pytest.raises(TypeError) as expected:
            json.dumps(value, ensure_ascii=False, separators=(",", ":"))
        with pytest.raises(TypeError) as got:
            dumps(value)
        assert str(got.value) == str(expected.value)

    def test_a_failed_call_leaves_no_container_marked(self):
        row = [[1, 2], {3}]
        with pytest.raises(TypeError):
            dumps(row)
        row[1] = 3
        assert dumps(row) == "[[1,2],3]"
