"""Typed field readers for the JSON input documents.

Every input document (genome, search config, device profile, assignment
interchange, loss input, fold block and raw-tensor sidecar) is read through
these functions, so one rule decides what a valid field is: integers are JSON
integers, numbers are finite JSON numbers (not strings or bools), flags are
`true`/`false`, arrays are regularly nested lists of such numbers, and every
error names the field path, e.g. `neck.widths[1]`.

Each reader takes the enclosing object, the key and the object's own path
("" at the document root); a missing key is an error unless a default is
given. `column` reads one field of every object in a list into one array and
names the first bad object, e.g. `images[0].predictions[17].box`. Every
document file's bytes are decoded by `read_utf8` and parsed by `load_json`.
A value rule that lives on a library type raises with a path relative to
that type (or none); `within` puts the path of the enclosing document in
front.
"""
from __future__ import annotations

import json
import math
import reprlib
from contextlib import contextmanager
from itertools import chain

import numpy as np

from .errors import ValidationError

__all__ = ["read_utf8", "load_json", "get", "integer", "number", "string", "boolean", "integers", "strings",
           "objects", "array", "column", "within"]

_REQUIRED = object()

# a bad value in an error message is cut short: at most four items of a list
# or object, nested ones shown as [...], a string or an integer at most 30 or
# 40 characters
_brief = reprlib.Repr()
_brief.maxlevel = 1
_brief.maxlist = 4


def read_utf8(data: bytes, what) -> str:
    """A document file's bytes as text, `what` naming the file in the error.
    JSON is UTF-8 (RFC 8259 section 8.1) whatever the locale, and its line
    ends need no translation: CR is JSON whitespace."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValidationError(f"{what} is not UTF-8: byte {e.start} ({e.object[e.start]:#04x}): {e.reason}") from None


def load_json(text: str, what: str):
    """Parse one input document, `what` naming it in the error. Malformed JSON,
    integer literals too long to convert (over 4300 digits) and arrays or
    objects nested deeper than the parser's recursion limit are input errors."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # json.JSONDecodeError is a ValueError
        raise ValidationError(f"{what} is not valid JSON: {e}") from None


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


@contextmanager
def within(path: str, keys: dict[str, str] | None = None):
    """Re-raise a ValidationError from the block with `path` in front of its
    own path, or as its path when it has none; "" adds nothing. `keys` maps
    a field name the error gives to the document's key for it, where they differ."""
    try:
        yield
    except ValidationError as e:
        inner = keys.get(e.path, e.path) if keys else e.path
        raise ValidationError(e.message, path=_join(path, inner) if inner else path or None) from None


def get(doc, key: str, path: str = "", default=_REQUIRED):
    """doc[key] of a JSON object, unchecked; the default when absent."""
    if not isinstance(doc, dict):
        raise ValidationError("expected an object", path=path or None)
    if key in doc:
        return doc[key]
    if default is _REQUIRED:
        raise ValidationError("missing required field", path=_join(path, key))
    return default


def _is_integer(value) -> bool:
    return type(value) is int


def _is_finite_number(value) -> bool:
    # ints too large for a float are rejected with the non-finite floats
    if type(value) is int:
        return abs(value) < 2 ** 1023
    return type(value) is float and math.isfinite(value)


def _is_string(value) -> bool:
    return isinstance(value, str)


def _scalar(doc, key, path, default, check, expected: str):
    value = get(doc, key, path, default)
    if not check(value):
        raise ValidationError(f"expected {expected}, got {_brief.repr(value)}", path=_join(path, key))
    return value


def integer(doc, key: str, path: str = "", default=_REQUIRED) -> int:
    return _scalar(doc, key, path, default, _is_integer, "an integer")


def number(doc, key: str, path: str = "", default=_REQUIRED) -> float:
    return float(_scalar(doc, key, path, default, _is_finite_number, "a finite number"))


def string(doc, key: str, path: str = "", default=_REQUIRED) -> str:
    return _scalar(doc, key, path, default, _is_string, "a string")


def boolean(doc, key: str, path: str = "", default=_REQUIRED) -> bool:
    return _scalar(doc, key, path, default, lambda v: type(v) is bool, "true or false")


def _items(doc, key, path, length, default, check, expected: str) -> list:
    value = get(doc, key, path, default)
    where = _join(path, key)
    if not isinstance(value, list) or (length is not None and len(value) != length):
        raise ValidationError(f"expected a list of {length or 'any number of'} {expected}s", path=where)
    for i, item in enumerate(value):
        if not check(item):
            raise ValidationError(f"expected {expected}, got {_brief.repr(item)}", path=f"{where}[{i}]")
    return value


def integers(doc, key: str, path: str = "", length: int | None = None, default=_REQUIRED) -> list:
    return _items(doc, key, path, length, default, _is_integer, "integer")


def strings(doc, key: str, path: str = "", default=_REQUIRED) -> list:
    return _items(doc, key, path, None, default, _is_string, "string")


def objects(doc, key: str, path: str = "", default=_REQUIRED) -> list:
    return _items(doc, key, path, None, default, lambda v: isinstance(v, dict), "object")


def _walk(value, ndim: int) -> np.ndarray | None:
    """The per-cell reader: `value` as float64 if it is a non-empty, regularly
    nested `ndim`-deep list of finite numbers, else None."""
    # an object array keeps each JSON value as is, so bools and strings are
    # caught below instead of being cast; ragged nesting leaves lists as cells
    cells = np.array(value, dtype=object)
    if cells.ndim != ndim or cells.size == 0 or not all(map(_is_finite_number, cells.flat)):
        return None
    return cells.astype(np.float64)


def _has_bool(value, arr: np.ndarray) -> bool:
    """Whether a JSON true/false is among the cells of `value`, a regularly
    nested list whose bulk conversion is `arr`. A bool converts to exactly 0
    or 1, so only the innermost lists holding a 0 or a 1 have their cells'
    types scanned, in one pass at C speed; at worst that is every cell, as
    in a full scan, after one elementwise comparison."""
    rows = [value]
    for _ in range(arr.ndim - 1):
        rows = list(chain.from_iterable(rows))
    hits = ((arr == 0) | (arr == 1)).reshape(len(rows), -1).any(axis=1)
    cells = chain.from_iterable(map(rows.__getitem__, np.flatnonzero(hits).tolist()))
    return bool in set(map(type, cells))


def _numbers(value, ndim: int) -> np.ndarray | None:
    """`_walk(value, ndim)`, from one bulk conversion where that is exact: a
    numeric array of the right depth with no non-finite or bool cell (numpy
    reads a bool among numbers as 0 or 1, so the cells' types are scanned
    where it holds one). Anything else (ragged nesting, strings, None, ints
    too large for int64) is left to the walk."""
    try:
        arr = np.array(value)
    except ValueError:  # ragged nesting
        return _walk(value, ndim)
    if (arr.dtype.kind not in "iuf" or arr.ndim != ndim or arr.size == 0
            or not np.isfinite(arr).all() or _has_bool(value, arr)):
        return _walk(value, ndim)
    return arr.astype(np.float64, copy=False)


def array(doc, key: str, path: str = "", ndim: int = 1) -> np.ndarray:
    """A non-empty, regularly nested `ndim`-deep list of finite numbers, as float64."""
    arr = _numbers(get(doc, key, path), ndim)
    if arr is None:
        raise ValidationError(f"expected a non-empty {ndim}-d array of finite numbers", path=_join(path, key))
    return arr


def column(records: list, key: str, path: str, width: int | None = None, default=_REQUIRED) -> np.ndarray:
    """Field `key` of every object in `records` (a list read by `objects` at
    `path`), each a non-empty list of finite numbers, as one (N, width) float64
    array; width None takes the first object's length. Errors name the first
    bad object, e.g. `predictions[17].box`."""
    if default is _REQUIRED:
        try:
            values = [rec[key] for rec in records]
        except KeyError:
            j = next(j for j, rec in enumerate(records) if key not in rec)
            raise ValidationError(f"missing required field '{key}'", path=f"{path}[{j}]") from None
    else:
        values = [rec.get(key, default) for rec in records]
    if not values:
        return np.empty((0, width or 0), dtype=np.float64)
    arr = _numbers(values, 2)
    if arr is not None and (width is None or arr.shape[1] == width):
        return arr
    # ragged, or an object's list is bad: name the first bad object
    expected = width
    for j, value in enumerate(values):
        where = f"{path}[{j}].{key}"
        row = _numbers(value, 1)
        if row is None:
            raise ValidationError("expected a non-empty list of finite numbers", path=where)
        expected = expected or len(row)
        if len(row) != expected:
            like = f" like {path}[0].{key}" if width is None else ""
            raise ValidationError(f"expected {expected} numbers{like}, got {len(row)}", path=where)
    raise ValidationError(f"expected lists of {expected} numbers", path=f"{path}[*].{key}")
