import re

import numpy as np
import pytest

from gocpd.errors import NonContiguousBatch, NonFiniteObservation
from gocpd.window import TimeSeriesWindow


def test_basic_shape_and_length():
    w = TimeSeriesWindow(np.arange(5.0), np.ones(5), start_index=10)
    assert len(w) == 5
    assert w.start_index == 10
    assert w.end_index == 14
    assert w.input_dim == 1
    assert w.channel_count == 1


@pytest.mark.parametrize("start", [1.5, "3", True, np.float64(2.9)])
def test_start_index_must_be_an_integer(start):
    with pytest.raises(ValueError, match=re.escape(f"start_index must be an integer, got {start!r}")):
        TimeSeriesWindow(np.arange(5.0), np.ones(5), start_index=start)


def test_start_index_takes_a_numpy_integer_as_an_int():
    w = TimeSeriesWindow(np.arange(5.0), np.ones(5), start_index=np.int64(7))
    assert type(w.start_index) is int and w.start_index == 7


def test_slice_is_inclusive_on_both_ends():
    w = TimeSeriesWindow(np.arange(10.0), np.arange(10.0), start_index=0)
    s = w.slice(3, 7)
    assert len(s) == 5  # b - a + 1
    assert s.start_index == 3
    assert s.outputs[0, 0] == 3.0
    assert s.outputs[-1, 0] == 7.0


def test_slice_returns_views_with_an_int_start():
    w = TimeSeriesWindow(np.arange(10.0), np.arange(20.0).reshape(10, 2), start_index=5)
    for s in (w.slice(np.int64(7), np.int64(11)), w.slice(7, 11).slice(8, 8)):
        assert type(s.start_index) is int
        assert s.inputs.ndim == s.outputs.ndim == 2
        assert np.shares_memory(s.inputs, w.inputs)
        assert np.shares_memory(s.outputs, w.outputs)
        assert s.outputs[0, 1] == w.outputs[s.start_index - 5, 1]
    assert len(w.slice(7, 11)) == 5
    with pytest.raises(IndexError):
        w.slice(7, 11).slice(6, 8)


def test_slice_bounds_checked():
    w = TimeSeriesWindow(np.arange(5.0), np.zeros(5), start_index=5)
    with pytest.raises(IndexError):
        w.slice(4, 6)
    with pytest.raises(IndexError):
        w.slice(8, 12)
    with pytest.raises(IndexError):
        w.slice(7, 6)


def test_lengths_must_match():
    with pytest.raises(ValueError):
        TimeSeriesWindow(np.arange(3.0), np.zeros(4))


def test_arrays_of_more_than_two_dimensions_rejected():
    with pytest.raises(ValueError, match=r"inputs \(4, 1, 1\) and outputs \(4,\)"):
        TimeSeriesWindow(np.zeros((4, 1, 1)), np.zeros(4))
    with pytest.raises(ValueError, match=r"inputs \(4,\) and outputs \(4, 1, 1\)"):
        TimeSeriesWindow(np.zeros(4), np.zeros((4, 1, 1)))


def test_empty_window_rejected():
    with pytest.raises(ValueError):
        TimeSeriesWindow(np.zeros((0, 1)), np.zeros((0, 1)))


def test_extend_requires_contiguity():
    a = TimeSeriesWindow(np.arange(3.0), np.zeros(3), start_index=0)
    b = TimeSeriesWindow(np.arange(2.0), np.ones(2), start_index=3)
    joined = a.extend(b)
    assert len(joined) == 5
    assert joined.end_index == 4
    gap = TimeSeriesWindow(np.arange(2.0), np.ones(2), start_index=5)
    with pytest.raises(ValueError):
        a.extend(gap)
    with pytest.raises(NonContiguousBatch, match="next starts at 5"):
        a.extend(gap)
    # A NaN is named before the gap.
    with pytest.raises(NonFiniteObservation, match="t=6"):
        a.extend(TimeSeriesWindow(np.arange(2.0), [1.0, np.nan], start_index=5))


def test_multichannel_shapes():
    y = np.column_stack([np.zeros(4), np.ones(4)])
    w = TimeSeriesWindow(np.arange(4.0), y)
    assert w.channel_count == 2
    assert w.slice(1, 2).outputs.shape == (2, 2)
