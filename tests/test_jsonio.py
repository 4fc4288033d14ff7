"""The report writer and the bracket reader of jsonio against their
references: json.dumps(sort_keys=True, indent=2, allow_nan=False) and
BracketTensor.make of the parsed coefficients."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from solvstrat import jsonio
from solvstrat.bracket import BracketTensor
from solvstrat.linalg import parse_scalar

RANGE_MESSAGE = ("a reported value left the float range (NaN or infinity); "
                 "scale the input down")

# characters that json escapes or spells out: quotes, backslash, controls,
# DEL, Latin-1, the BMP beyond it, a lone surrogate and an astral character
ALPHABET = ['a', 'Z', '0', ' ', '"', '\\', '/', '\b', '\f', '\n', '\r', '\t', '\x00',
            '\x1f', '\x7f', '\xe9', 'Δ', '€', ' ', '\ud800', '\U0001d49c']
FLOATS = [0.0, -0.0, 1.0, -2.5, 0.1, 1e16, 1e-7, 1.7976931348623157e308,
          2.2250738585072014e-308, 5e-324, -5e-324, 1e22, 123456789.125]
INTS = [0, 1, -1, 2**53 + 1, -(2**63), 10**40, -(10**200) + 7]


def _string(rng):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(6)))


def _scalar(rng):
    kind = rng.randrange(8)
    if kind == 0:
        return _string(rng)
    if kind == 1:
        return rng.choice(INTS + [rng.randrange(-10**6, 10**6)])
    if kind == 2:
        return rng.choice(FLOATS + [rng.uniform(-1e3, 1e3), rng.gauss(0, 1) * 1e-300])
    if kind == 3:
        return np.float64(rng.choice(FLOATS + [rng.random()]))
    if kind == 4:
        return rng.choice([True, False])
    if kind == 5:
        return None
    if kind == 6:  # a boolean beside ints, as in a report's flags and counts
        return [rng.choice([True, 1, False, 0]) for _ in range(3)]
    return [_string(rng) for _ in range(rng.randrange(4))]  # a matrix row


def _value(rng, depth):
    kind = rng.randrange(5) if depth else 0
    if kind <= 1:
        return _scalar(rng)
    items = [_value(rng, depth - 1) for _ in range(rng.randrange(5))]
    if kind == 2:
        return items
    if kind == 3:
        return tuple(items)
    return {_string(rng): v for v in items}


@pytest.mark.parametrize("seed", range(6))
def test_dumps_is_json_dumps_on_a_random_battery(seed):
    rng = random.Random(seed)
    for _ in range(150):
        obj = _value(rng, rng.randrange(5))
        assert jsonio.dumps(obj) == json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def test_dumps_is_json_dumps_on_edge_values():
    objs = [{}, [], (), "", {"": []}, [[], {}, ()], {"b": {}, "a": [[]]},
            [True, 1, 1.0, np.float64(1.0), False, 0, -0.0],
            {"x": 10**4000, "y": -(2**3000)},
            {k: k for k in ALPHABET}, [[str(i * j) for j in range(4)] for i in range(4)],
            {"nested": {"deeper": {"deepest": [1, [2, [3, {"n": None}]]]}}}]
    for obj in objs:
        assert jsonio.dumps(obj) == json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"),
                                 np.float64("-inf")])
def test_dumps_refuses_values_outside_the_float_range(bad):
    for obj in (bad, [1, bad], {"a": {"b": [bad]}}, ("x", bad)):
        with pytest.raises(ValueError) as exc:
            jsonio.dumps(obj)
        assert str(exc.value) == RANGE_MESSAGE


@pytest.mark.parametrize("bad", [np.int64(1), np.bool_(True), {1, 2}, Fraction(1, 2),
                                 object()])
def test_dumps_refuses_what_json_cannot_write(bad):
    with pytest.raises(TypeError) as ours:
        jsonio.dumps({"a": [bad]})
    with pytest.raises(TypeError) as reference:
        json.dumps({"a": [bad]}, sort_keys=True, indent=2, allow_nan=False)
    assert str(ours.value) == str(reference.value)


def test_dumps_refuses_a_key_that_is_not_a_string():
    # json.dumps writes {1: 2} with the key quoted; every report is keyed by
    # strings, and dumps refuses any other key rather than guess its text
    assert json.dumps({1: 2}, sort_keys=True, indent=2) == '{\n  "1": 2\n}'
    for obj in ({1: 2}, {"a": [{None: 0}]}, {1.5: "x"}):
        with pytest.raises(TypeError):
            jsonio.dumps(obj)


def _entry(rng, d):
    i, j = rng.sample(range(1, d + 1), 2)
    c = rng.choice([0, rng.randrange(-3, 4), f"{rng.randrange(-5, 6)}/{rng.randrange(1, 4)}",
                    rng.uniform(-2, 2), 0.0, -0.0, "-0"])
    return {"i": i, "j": j, "k": rng.randrange(1, d + 1), "c": c}


@pytest.mark.parametrize("seed", range(4))
def test_parsed_bracket_is_make_of_the_parsed_coefficients(seed):
    # the file reader normalizes in one pass; make, from the same values in
    # the same order, gives the same coefficients, types, order and mode
    rng = random.Random(seed)
    for _ in range(200):
        d = rng.randrange(2, 6)
        entries, seen = [], set()
        for _ in range(rng.randrange(8)):
            e = _entry(rng, d)
            key = (min(e["i"], e["j"]), max(e["i"], e["j"]), e["k"])
            if key not in seen:
                seen.add(key)
                entries.append(e)
        bf = jsonio.parse_bracket_dict({"dim_a": 0, "dim_n": d, "brackets": entries})
        made = BracketTensor.make(d, {(e["i"], e["j"], e["k"]): parse_scalar(e["c"])
                                      for e in entries})
        assert 0 not in bf.bracket.coeffs.values()
        assert bf.bracket.scalar_mode == made.scalar_mode
        assert list(bf.bracket.coeffs.items()) == list(made.coeffs.items())
        assert [type(c) for c in bf.bracket.coeffs.values()] == [
            type(c) for c in made.coeffs.values()]


@pytest.mark.parametrize("entry,message", [
    ({"i": 1, "j": 2, "k": 3}, "noc.json.brackets[0]: missing required key 'c'"),
    ({"i": 1, "j": 2, "k": 3, "c": "1/0"},
     "noc.json.brackets[0].c: malformed rational literal '1/0'"),
])
def test_a_coefficient_defect_is_named_once(entry, message):
    # a missing "c" names the entry, a malformed one names the field
    with pytest.raises(jsonio.FormatError) as exc:
        jsonio.parse_bracket_dict({"dim_a": 0, "dim_n": 3, "brackets": [entry]}, "noc.json")
    assert str(exc.value) == message
