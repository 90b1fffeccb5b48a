"""The array readers of `detkit.fields`: the bulk kernel against the per-cell walk."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detkit import fields
from detkit.errors import ValidationError

# numbers that convert in bulk, then ints past int64, uint64 and the float range
_small = (st.integers(-3, 3) | st.sampled_from([0, 1, 0.0, 1.0, -0.0])
          | st.floats(allow_nan=False, allow_infinity=False))
_numbers = _small | st.integers(-2**65, 2**65) | st.integers(-10**400, 10**400) | st.integers(2**1022, 2**1024)
# cells the walk rejects: bools, non-finite floats, strings, null, nested lists
_non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_junk = st.booleans() | _non_finite | st.text(max_size=2) | st.none() | st.lists(_numbers, max_size=2)


def _cells(draw):
    """Numbers only, now and then with bools, non-finite floats or any junk among them."""
    return draw(st.sampled_from([_numbers, _small, _small | st.booleans(), _small | _non_finite,
                                 _numbers | _junk]))


def _nested(draw, shape, cell):
    if not shape:
        return draw(cell)
    return [_nested(draw, shape[1:], cell) for _ in range(shape[0])]


@st.composite
def arrays(draw):
    """(value, ndim): mostly regularly nested lists of the asked depth, some
    with a junk cell or the wrong depth, and ragged lists."""
    if draw(st.integers(0, 4)) == 0:
        ragged = st.recursive(_numbers | _junk, lambda inner: st.lists(inner, max_size=3), max_leaves=10)
        return draw(ragged), draw(st.integers(1, 3))
    shape = draw(st.lists(st.integers(0, 3), min_size=0, max_size=3))
    ndim = len(shape) if shape and draw(st.integers(0, 3)) else draw(st.integers(1, 3))
    return _nested(draw, shape, _cells(draw)), ndim


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype == np.float64 and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=400, deadline=None)
@given(case=arrays())
def test_bulk_kernel_agrees_with_the_per_cell_walk(case):
    value, ndim = case
    walked = fields._walk(value, ndim)
    read = fields._numbers(value, ndim)
    assert (read is None) == (walked is None)
    if walked is not None:
        assert _same(read, walked)
        assert _same(fields.array({"v": value}, "v", ndim=ndim), walked)
    else:
        with pytest.raises(ValidationError, match="^v: "):
            fields.array({"v": value}, "v", ndim=ndim)


@st.composite
def rows(draw):
    if draw(st.integers(0, 5)) == 0:
        return draw(_junk)
    return _nested(draw, [draw(st.integers(0, 3))], _cells(draw))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(rows(), max_size=5), width=st.sampled_from([None, 2]))
def test_column_reads_each_record_like_the_walk_and_names_the_first_bad_one(values, width):
    bad, expected = None, width
    for j, row in enumerate(fields._walk(v, 1) for v in values):
        expected = expected or (None if row is None else len(row))
        if row is None or len(row) != expected:
            bad = j
            break
    records = [{"v": v} for v in values]
    if bad is None:
        read = fields.column(records, "v", "recs", width=width)
        assert _same(read, np.stack([fields._walk(v, 1) for v in values]) if values
                     else np.empty((0, width or 0)))
    else:
        with pytest.raises(ValidationError, match=rf"^recs\[{bad}\]\.v: "):
            fields.column(records, "v", "recs", width=width)


def test_a_bool_among_numbers_is_rejected_not_read_as_1():
    for value in ([0, 0, True, 1], [[0.5, 1.0], [False, 0.2]]):
        assert fields._numbers(value, np.ndim(value)) is None
    assert _same(fields._numbers([0, 0, 1, 1.0], 1), np.array([0.0, 0.0, 1.0, 1.0]))


@pytest.mark.parametrize("value", [
    [[0.5, 0.25], [1, 0], [0.0, 1.0], [1, False]],  # the last row, among other rows of 0s and 1s
    [0.5, 1, 0.0, True],
    [[[[0.5, 2.0]], [[3.0, 1]]], [[[0, 4.0]], [[5.0, True]]]],
], ids=["last-row", "1-d", "4-d"])
def test_a_bool_among_rows_of_0s_and_1s_is_found(value):
    ndim = np.ndim(np.array(value, dtype=object))
    assert fields._walk(value, ndim) is None
    assert fields._numbers(value, ndim) is None
    with pytest.raises(ValidationError, match="^v: "):
        fields.array({"v": value}, "v", ndim=ndim)
    clean = json.loads(json.dumps(value).replace("false", "0").replace("true", "1"))
    assert _same(fields._numbers(clean, ndim), fields._walk(clean, ndim))


def test_column_names_a_record_missing_the_field():
    with pytest.raises(ValidationError, match=r"^recs\[1\]: missing required field 'v'"):
        fields.column([{"v": [1]}, {}], "v", "recs")
    read = fields.column([{"v": [1, 2]}, {}], "v", "recs", default=(0.0, 0.0))
    assert read.tolist() == [[1.0, 2.0], [0.0, 0.0]]
