"""Dense matrices at the library boundary.

``Matrix`` is the immutable matrix type of the 2-norm input, the density
states and ``mult_matrix``'s output.  Every dense step calls numpy
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, integers


@dataclass(frozen=True)
class Matrix:
    """Dense real matrix, entries flat row-major."""

    rows: int
    cols: int
    entries: np.ndarray

    def __post_init__(self):
        rows, cols = integers((self.rows, self.cols), "rows, cols")
        if rows < 1 or cols < 1:
            raise DimensionMismatchError(f"need rows, cols >= 1, got {rows}x{cols}")
        arr = np.array(self.entries, dtype=float).reshape(-1)
        if arr.size != rows * cols:
            raise DimensionMismatchError(
                f"entries length {arr.size} != rows*cols {rows * cols}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_array(cls, a) -> "Matrix":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise DimensionMismatchError(f"expected 2-d array, got ndim={a.ndim}")
        return cls(rows=a.shape[0], cols=a.shape[1], entries=a.reshape(-1))

    @property
    def array(self) -> np.ndarray:
        return self.entries.reshape(self.rows, self.cols)
