"""Typed field readers for the JSON input documents.

The genome, search config, device profile, loss input, fold block and
raw-tensor sidecar are read through these functions (the assignment
interchange alone is parsed in bulk, straight to arrays), so one rule
decides what a valid field is: integers are JSON integers, numbers are
finite JSON numbers (not strings or bools), flags are `true`/`false`, and every
error names the field path, e.g. `neck.widths[1]`.

Each reader takes the enclosing object, the key and the object's own path
("" at the document root); a missing key is an error unless a default is
given. Every document is parsed by `load_json`.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .errors import ValidationError

__all__ = ["load_json", "get", "integer", "number", "string", "boolean", "integers", "strings", "array"]

_REQUIRED = object()


def load_json(text: str, what: str):
    """Parse one input document, `what` naming it in the error. Malformed JSON
    and integer literals too long to convert (over 4300 digits) are input errors."""
    try:
        return json.loads(text)
    except ValueError as e:  # json.JSONDecodeError is a ValueError
        raise ValidationError(f"{what} is not valid JSON: {e}") from None


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


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
        raise ValidationError(f"expected {expected}, got {value!r}", path=_join(path, key))
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
            raise ValidationError(f"expected {expected}, got {item!r}", path=f"{where}[{i}]")
    return value


def integers(doc, key: str, path: str = "", length: int | None = None, default=_REQUIRED) -> list:
    return _items(doc, key, path, length, default, _is_integer, "integer")


def strings(doc, key: str, path: str = "", default=_REQUIRED) -> list:
    return _items(doc, key, path, None, default, _is_string, "string")


def array(doc, key: str, path: str = "", ndim: int = 1) -> np.ndarray:
    """A non-empty, regularly nested `ndim`-deep list of finite numbers, as float64."""
    # an object array keeps each JSON value as is, so bools and strings are
    # caught below instead of being cast; ragged nesting leaves lists as cells
    cells = np.array(get(doc, key, path), dtype=object)
    if cells.ndim != ndim or cells.size == 0 or not all(map(_is_finite_number, cells.flat)):
        raise ValidationError(f"expected a non-empty {ndim}-d array of finite numbers", path=_join(path, key))
    return cells.astype(np.float64)
