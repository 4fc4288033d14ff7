"""File formats: bracket descriptions and point sets, both JSON.  This
module reads both, writes the bracket format (bracket_to_dict, the file
that extend --out writes) and serializes; cli renders every report.

Bracket files (1-based indices, a-block first, [x_i, x_j] = sum_k c e_k):

    {"dim_a": 1, "dim_n": 3,
     "brackets": [{"i": 2, "j": 3, "k": 4, "c": 1},
                  {"i": 1, "j": 2, "k": 2, "c": "1/2"}],
     "gram": [[...], ...]}          # optional inner product matrix

Scalars are ints, finite floats, or "p/q" strings; ints and strings stay
exact.  A string is read as Python's Fraction reads it (so "1.5" and "1e3"
are exact too), except that a decimal exponent beyond 4300 in magnitude is
refused before it is expanded.  A float bracket whose |mu|^2 overflows the
float range is refused.  Point set files (exact entries only: ints or "p/q"
strings, read straight to integer coordinates; "labels", if present, is a
list of strings, one per point, checked and then dropped: no output reads
it):

    {"dim": 3, "points": [["-1", "-1", "1"], ["-1", "0", "0"]]}

Serialization is deterministic: for string-keyed dicts, as in every
report, dumps writes exactly what json.dumps(obj, sort_keys=True, indent=2,
allow_nan=False) writes, refusing NaN and infinity, without the pure-Python
encoder that json.dumps runs whenever it indents; a non-string key raises
TypeError.  Every report and every extend --out file goes through it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

from .bracket import BracketTensor, Key, norm_sq
from .linalg import Scalar, format_scalar, parse_literal, parse_scalar
from .minnorm import PointSet


class FormatError(ValueError):
    """Malformed input file; the message names the offending field."""


@dataclass(frozen=True)
class BracketFile:
    """Raw parsed content; structural checks only, no algebra validation."""

    dim_a: int
    dim_n: int
    bracket: BracketTensor
    gram: list | None


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise FormatError(f"{where}: missing required key {key!r}")
    return obj[key]


def _as_dim(v, where: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise FormatError(f"{where}: expected a nonnegative integer, got {v!r}")
    return v


def _indices(entry, d: int, tag: str) -> Key:
    """(i, j, k) of a bracket entry: ints in 1..d with i != j, the first
    defect named."""
    if not isinstance(entry, dict):
        raise FormatError(f"{tag}: expected an object")
    idx = []
    for key in ("i", "j", "k"):
        v = _need(entry, key, tag)
        if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= d:
            raise FormatError(f"{tag}.{key}: index {v!r} outside 1..{d}")
        idx.append(v)
    if idx[0] == idx[1]:
        raise FormatError(f"{tag}: i == j is forced to zero by antisymmetry")
    return tuple(idx)


def parse_bracket_dict(obj, where: str = "input") -> BracketFile:
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected a JSON object")
    dim_a = _as_dim(_need(obj, "dim_a", where), f"{where}.dim_a")
    dim_n = _as_dim(_need(obj, "dim_n", where), f"{where}.dim_n")
    d = dim_a + dim_n
    if d == 0:
        raise FormatError(f"{where}: dim_a + dim_n must be positive")
    entries = _need(obj, "brackets", where)
    if not isinstance(entries, list):
        raise FormatError(f"{where}.brackets: expected a list")
    coeffs: dict[Key, Scalar] = {}
    for pos, entry in enumerate(entries):
        tag = f"{where}.brackets[{pos}]"
        i, j, k = _indices(entry, d, tag)
        v = _need(entry, "c", tag)
        try:
            c = parse_scalar(v)
        except ValueError as exc:
            raise FormatError(f"{tag}.c: {exc}") from exc
        if i > j:
            i, j, c = j, i, -c
        if (i, j, k) in coeffs:
            raise FormatError(f"{tag}: duplicate coefficient for ({i},{j},{k})")
        coeffs[(i, j, k)] = c
    gram = obj.get("gram")
    if gram is not None:
        if (not isinstance(gram, list) or len(gram) != d
                or any(not isinstance(r, list) or len(r) != d for r in gram)):
            raise FormatError(f"{where}.gram: expected a {d} x {d} matrix")
        rows = []
        for pos, row in enumerate(gram):
            try:
                rows.append([parse_scalar(x) for x in row])
            except ValueError as exc:
                raise FormatError(f"{where}.gram[{pos}]: {exc}") from exc
        gram = rows
    bracket = BracketTensor._normalized(d, coeffs)
    if not bracket.is_exact_mode and math.isinf(norm_sq(bracket)):
        raise FormatError(f"{where}.brackets: |mu|^2 = 2 sum c^2 overflows the float "
                          "range; scale the coefficients down")
    return BracketFile(dim_a, dim_n, bracket, gram)


def _load(path):
    """The JSON value of the file at path; FormatError names the file when
    it is not JSON, or when a number literal has more digits than Python
    converts to an int (json hands each integer literal to int)."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: not valid JSON ({exc})") from exc
        except ValueError as exc:
            raise FormatError(f"{path}: a number literal has more than "
                              f"{sys.get_int_max_str_digits()} digits") from exc


def read_bracket_file(path) -> BracketFile:
    return parse_bracket_dict(_load(path), where=str(path))


def bracket_to_dict(dim_a: int, dim_n: int, bracket: BracketTensor) -> dict:
    return {
        "dim_a": dim_a,
        "dim_n": dim_n,
        "brackets": [{"i": i, "j": j, "k": k, "c": format_scalar(c)}
                     for (i, j, k), c in sorted(bracket.coeffs.items())],
    }


def read_point_set(path) -> PointSet:
    """The point set of a point file, read straight to integers: each entry
    is parsed to (num, den) by parse_literal and PointSet.from_pairs clears
    the denominators, with no Fraction built."""
    obj = _load(path)
    where = str(path)
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected a JSON object")
    dim = _as_dim(_need(obj, "dim", where), f"{where}.dim")
    raw = _need(obj, "points", where)
    if not isinstance(raw, list) or not raw:
        raise FormatError(f"{where}.points: expected a nonempty list")
    pts = []
    for pos, p in enumerate(raw):
        if not isinstance(p, list) or len(p) != dim:
            raise FormatError(f"{where}.points[{pos}]: expected a list of length {dim}")
        try:
            row = [parse_literal(x) for x in p]
        except ValueError as exc:
            raise FormatError(f"{where}.points[{pos}]: {exc}") from exc
        inexact = next((x for x in row if isinstance(x, float)), None)
        if inexact is not None:
            raise FormatError(f"{where}.points[{pos}]: entries must be integers or "
                              f"'p/q' strings, got {inexact!r}")
        pts.append(row)
    labels = obj.get("labels")
    if labels is not None and (not isinstance(labels, list)
                               or not all(isinstance(s, str) for s in labels)):
        raise FormatError(f"{where}.labels: expected a list of strings")
    if labels is not None and len(labels) != len(pts):
        raise FormatError(f"{where}.labels: expected {len(pts)} labels, one per point, "
                          f"got {len(labels)}")
    try:
        return PointSet.from_pairs(dim, pts)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def dumps(obj) -> str:
    """Deterministic JSON: for a value whose dict keys are all strings, as
    in every report, byte for byte json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False).  NaN and infinities, which JSON lacks, raise
    ValueError; a dict key that is not a string raises TypeError, where
    json.dumps would write it as a string.  json.dumps runs its pure-Python
    encoder whenever it indents, so every report and every extend --out file
    is written here instead: strings by json's C quoting routine, numbers by
    int.__repr__ and float.__repr__ as json writes them."""
    return _write(obj, "\n")


def _write(obj, newline: str) -> str:
    """obj as dumps writes it, its nested lines starting with newline plus
    two spaces.  Plain dicts and lists skip the scalar tests; every other
    value is tested in json's order."""
    kind = type(obj)
    if kind is not dict and kind is not list:
        if isinstance(obj, str):
            return _quote(obj)
        if obj is None:
            return "null"
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        if isinstance(obj, int):
            return int.__repr__(obj)
        if isinstance(obj, float):
            if not math.isfinite(obj):
                raise ValueError("a reported value left the float range (NaN or infinity); "
                                 "scale the input down")
            return float.__repr__(obj)
        if isinstance(obj, dict):
            kind = dict
        elif not isinstance(obj, (list, tuple)):
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    inner = newline + "  "
    sep = "," + inner
    if kind is dict:
        if not obj:
            return "{}"
        return "{" + inner + sep.join([
            _quote(key) + ": " + _write(value, inner)
            for key, value in sorted(obj.items())]) + newline + "}"
    if not obj:
        return "[]"
    return "[" + inner + sep.join([_write(x, inner) for x in obj]) + newline + "]"
