"""Dense linear algebra over the two-element field GF(2).

Each matrix row is one Python int whose bit j holds column j, so a row
operation is a single XOR and arithmetic is exact with no floating point
anywhere.  This module is the only one that knows that layout: everything
else goes through ``MatrixGF2``'s constructors, indexing and queries.  Empty
matrices (zero rows or zero columns) are legal and have rank 0.
"""

from __future__ import annotations

from functools import reduce
from operator import index, xor
from typing import Iterable


class MatrixGF2:
    """An immutable 0/1 matrix over GF(2).

    Accepts any nested sequence of 0/1 entries that support ``__index__``.
    Use ``zeros``/``identity``/``from_ones`` for the common constructors.
    """

    __slots__ = ("_rows", "_cols")

    def __init__(self, data):
        try:
            table = [[index(v) for v in row] for row in data]
        except TypeError:
            raise ValueError("matrix data must be a two-dimensional sequence of integer 0/1 entries") from None
        widths = {len(row) for row in table}
        if len(widths) > 1:
            raise ValueError(f"ragged matrix data: row lengths {sorted(widths)}")
        if any(v not in (0, 1) for row in table for v in row):
            raise ValueError("matrix entries must be 0 or 1")
        self._rows = tuple(sum(v << j for j, v in enumerate(row)) for row in table)
        self._cols = widths.pop() if widths else 0

    @classmethod
    def _from_rows(cls, rows: Iterable[int], cols: int) -> "MatrixGF2":
        m = object.__new__(cls)
        m._rows, m._cols = tuple(rows), cols
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "MatrixGF2":
        if rows < 0 or cols < 0:
            raise ValueError(f"dimensions must be non-negative, got {rows} x {cols}")
        return cls._from_rows([0] * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "MatrixGF2":
        return cls._from_rows([1 << i for i in range(n)], n)

    @classmethod
    def from_ones(cls, rows: int, cols: int, positions: Iterable[tuple[int, int]]) -> "MatrixGF2":
        """The rows x cols matrix with a 1 at each (row, col) position."""
        bits = list(cls.zeros(rows, cols)._rows)
        for i, j in positions:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"position ({i}, {j}) outside a {rows} x {cols} matrix")
            bits[i] |= 1 << j
        return cls._from_rows(bits, cols)

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self._cols)

    def __getitem__(self, key) -> int:
        i, j = key
        return self._rows[i] >> range(self._cols)[j] & 1

    def tolist(self) -> list[list[int]]:
        return [[r >> j & 1 for j in range(self._cols)] for r in self._rows]

    def is_zero(self) -> bool:
        return not any(self._rows)

    def nonzero_entries(self) -> list[tuple[int, int]]:
        """(row, col) positions of the 1-entries, in row-major order."""
        return [(i, j) for i, r in enumerate(self._rows) for j in bits(r)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixGF2):
            return NotImplemented
        return self.shape == other.shape and self._rows == other._rows

    def __hash__(self):
        return hash((self._cols, self._rows))

    def __repr__(self) -> str:
        return f"MatrixGF2({self.tolist()!r})"


def bits(r: int) -> list[int]:
    """Positions of the set bits of r, ascending."""
    found = []
    while r:
        low = r & -r
        found.append(low.bit_length() - 1)
        r ^= low
    return found


def multiply(a: MatrixGF2, b: MatrixGF2) -> MatrixGF2:
    """Matrix product over GF(2): row i is the XOR of the rows of b selected
    by the bits of row i of a."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    product = [reduce(xor, [b._rows[k] for k in bits(r)], 0) for r in a._rows]
    return MatrixGF2._from_rows(product, b.cols)


def _echelon(rows: Iterable[int]) -> dict[int, int]:
    """A basis of the row span whose members have distinct lowest set bits,
    keyed by that bit."""
    basis: dict[int, int] = {}
    for r in rows:
        while r:
            low = r & -r
            if low not in basis:
                basis[low] = r
                break
            r ^= basis[low]
    return basis


def row_reduce(m: MatrixGF2) -> tuple[MatrixGF2, tuple[int, ...]]:
    """Reduced row-echelon form and pivot columns, via XOR elimination."""
    basis = _echelon(m._rows)
    lows = sorted(basis)
    reduced = [basis[low] for low in lows]
    # Clear each pivot column above its pivot, last pivot first, so every row
    # used for clearing is already reduced against the pivots after it.
    for i in range(len(reduced) - 1, 0, -1):
        for h in range(i):
            if reduced[h] & lows[i]:
                reduced[h] ^= reduced[i]
    reduced += [0] * (m.rows - len(reduced))
    return MatrixGF2._from_rows(reduced, m.cols), tuple(low.bit_length() - 1 for low in lows)


def rref(m: MatrixGF2) -> MatrixGF2:
    """Reduced row-echelon form of ``m``."""
    reduced, _ = row_reduce(m)
    return reduced


def rank(m: MatrixGF2) -> int:
    """Rank of ``m`` over GF(2)."""
    return len(_echelon(m._rows))


def kernel_dim(m: MatrixGF2) -> int:
    """Dimension of the null space of ``m`` over GF(2)."""
    return m.cols - rank(m)
