"""Contiguous windows of (input, output) observations.

A window holds the observations between two absolute integer timestamps,
inclusive on both ends. Inputs are D-dimensional vectors, outputs are
C-dimensional (one value per channel). Slicing by absolute timestamps
``[a, b]`` returns ``b - a + 1`` points.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonContiguousBatch, NonFiniteObservation, is_int


class TimeSeriesWindow:
    """Observations ``(x_t, y_t)`` for ``t = start_index .. start_index + n - 1``.

    Parameters
    ----------
    inputs : array_like, shape (n, D) or (n,)
        Input vectors; a 1-D array is treated as D = 1.
    outputs : array_like, shape (n, C) or (n,)
        Output vectors; a 1-D array is treated as C = 1.
    start_index : int
        Absolute timestamp of the first element: a Python or numpy integer.
    """

    __slots__ = ("inputs", "outputs", "start_index")

    def __init__(self, inputs, outputs, start_index: int = 0):
        x = np.atleast_1d(np.asarray(inputs, dtype=float))
        y = np.atleast_1d(np.asarray(outputs, dtype=float))
        if x.ndim > 2 or y.ndim > 2:
            raise ValueError(f"inputs {x.shape} and outputs {y.shape} must each be 1-D or 2-D")
        if x.ndim == 1:
            x = x[:, None]
        if y.ndim == 1:
            y = y[:, None]
        if len(x) != len(y):
            raise ValueError(f"inputs ({len(x)}) and outputs ({len(y)}) differ in length")
        if len(x) == 0:
            raise ValueError("window must contain at least one observation")
        if not is_int(start_index):
            raise ValueError(f"start_index must be an integer, got {start_index!r}")
        self.inputs, self.outputs, self.start_index = x, y, int(start_index)

    @classmethod
    def _unchecked(cls, inputs: np.ndarray, outputs: np.ndarray, start_index: int):
        """A window of 2-D arrays that already passed ``__init__``'s checks."""
        window = object.__new__(cls)
        window.inputs, window.outputs, window.start_index = inputs, outputs, start_index
        return window

    def __len__(self) -> int:
        return len(self.outputs)

    @property
    def end_index(self) -> int:
        """Absolute timestamp of the last element."""
        return self.start_index + len(self) - 1

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def channel_count(self) -> int:
        return self.outputs.shape[1]

    def slice(self, a: int, b: int) -> "TimeSeriesWindow":
        """The sub-window for absolute timestamps ``a..b`` (inclusive), of views."""
        if a < self.start_index or b > self.end_index or a > b:
            raise IndexError(
                f"slice [{a}, {b}] outside window [{self.start_index}, {self.end_index}]"
            )
        i = a - self.start_index
        j = b - self.start_index + 1
        return TimeSeriesWindow._unchecked(self.inputs[i:j], self.outputs[i:j], int(a))

    def extend(self, other: "TimeSeriesWindow") -> "TimeSeriesWindow":
        """Concatenate a continuation. Raise NonFiniteObservation if it holds a
        NaN or inf (checked first), NonContiguousBatch unless it is contiguous,
        and ValueError unless its D and C are this window's."""
        require_finite(other)
        if other.start_index != self.end_index + 1:
            raise NonContiguousBatch(
                f"windows not contiguous: this ends at {self.end_index}, "
                f"next starts at {other.start_index}"
            )
        (_, d), (_, c) = other.inputs.shape, other.outputs.shape
        if d != self.inputs.shape[1] or c != self.outputs.shape[1]:
            raise ValueError(f"batch starting at t={other.start_index} has D={d}, C={c}; "
                             f"the window has D={self.input_dim}, C={self.channel_count}")
        x, y = np.vstack([self.inputs, other.inputs]), np.vstack([self.outputs, other.outputs])
        return TimeSeriesWindow._unchecked(x, y, self.start_index)

    def __repr__(self) -> str:
        return (
            f"TimeSeriesWindow(t={self.start_index}..{self.end_index}, "
            f"D={self.input_dim}, C={self.channel_count})"
        )


def require_finite(window: TimeSeriesWindow) -> None:
    """Raise NonFiniteObservation naming the first timestamp with a NaN or inf."""
    # math.isfinite per element beats numpy reductions on one-point batches
    if not (all(map(math.isfinite, window.inputs.flat))
            and all(map(math.isfinite, window.outputs.flat))):
        row = np.isfinite(np.hstack([window.inputs, window.outputs])).all(axis=1).argmin()
        raise NonFiniteObservation(f"non-finite observation at t={window.start_index + row}")
