"""Zero/nonzero patterns of structured matrices."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import Iterable, Sequence

import numpy as np

Entry = tuple[int, int]


class DuplicateEntryWarning(UserWarning):
    """A nonzero position was listed more than once and has been collapsed."""


def _sorted_repr(entries: frozenset) -> str:
    """A frozenset's repr with its entries sorted, so that equal sets print alike
    whatever order they were inserted in."""
    return f"frozenset({{{', '.join(map(repr, sorted(entries)))}}})" if entries else "frozenset()"


@dataclass(frozen=True)
class PatternMatrix:
    """Which entries of a matrix are (free) nonzeros.

    No values are stored: an entry is either a fixed zero or an unknown
    nonzero parameter.  Indices are 1-based everywhere, matching the matrix
    notation used in files and reports; internal arrays are the only place
    where 0-based offsets appear.
    """

    n_rows: int
    n_cols: int
    nonzeros: frozenset[Entry] = frozenset()

    def __post_init__(self):
        self.__dict__.update(n_rows=index(self.n_rows), n_cols=index(self.n_cols))  # plain ints; 2.5 is refused
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError(f"negative dimensions: {self.n_rows}x{self.n_cols}")
        nz = frozenset((index(i), index(j)) for i, j in self.nonzeros)
        object.__setattr__(self, "nonzeros", nz)
        for i, j in sorted(nz):
            if not 1 <= i <= self.n_rows:
                raise ValueError(
                    f"row {i} out of range for a {self.n_rows}x{self.n_cols} pattern"
                )
            if not 1 <= j <= self.n_cols:
                raise ValueError(
                    f"column {j} out of range for a {self.n_rows}x{self.n_cols} pattern"
                )

    def __repr__(self) -> str:
        return f"PatternMatrix(n_rows={self.n_rows}, n_cols={self.n_cols}, nonzeros={_sorted_repr(self.nonzeros)})"

    @cached_property
    def _coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows and columns of the entries as int64 arrays, sorted by column
        and then by row."""
        entries = np.array(list(self.nonzeros), dtype=np.int64).reshape(-1, 2)
        order = np.lexsort(entries.T)
        return entries[order, 0], entries[order, 1]

    # --- constructors ---

    @classmethod
    def _trusted(cls, n_rows: int, n_cols: int, rows: np.ndarray, cols: np.ndarray) -> "PatternMatrix":
        """A pattern from distinct in-range entries already sorted as in ``_coords``, which is
        all it keeps (``nonzeros`` is named on first read), without the checks of ``__post_init__``."""
        pattern = object.__new__(cls)
        pattern.__dict__.update(n_rows=n_rows, n_cols=n_cols, _coords=(rows, cols))
        return pattern

    @classmethod
    def from_entries(
        cls, n_rows: int, n_cols: int, entries: Iterable[Entry], *, warn_duplicates: bool = False
    ) -> "PatternMatrix":
        entries = [(index(i), index(j)) for i, j in entries]
        unique = frozenset(entries)
        if warn_duplicates and len(entries) > len(unique):
            seen: set[Entry] = set()
            for e in entries:
                if e in seen:
                    warnings.warn(
                        f"duplicate entry ({e[0]},{e[1]}) collapsed", DuplicateEntryWarning
                    )
                seen.add(e)
        return cls(n_rows, n_cols, unique)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[object]]) -> "PatternMatrix":
        """Build from an explicit grid; any truthy cell marks a nonzero."""
        n_rows = len(rows)
        n_cols = len(rows[0]) if n_rows else 0
        entries = set()
        for i, row in enumerate(rows, start=1):
            if len(row) != n_cols:
                raise ValueError(f"row {i} has {len(row)} cells, expected {n_cols}")
            for j, cell in enumerate(row, start=1):
                if cell:
                    entries.add((i, j))
        return cls(n_rows, n_cols, frozenset(entries))

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "PatternMatrix":
        return cls(n_rows, n_cols)

    @classmethod
    def identity(cls, n: int) -> "PatternMatrix":
        return cls(n, n, frozenset((i, i) for i in range(1, n + 1)))

    # --- queries ---

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def sorted_entries(self) -> list[Entry]:
        return sorted(self.nonzeros)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_rows, self.n_cols), dtype=bool)
        for i, j in self.nonzeros:
            dense[i - 1, j - 1] = True
        return dense

    # --- derived patterns ---

    def with_entry(self, i: int, j: int) -> "PatternMatrix":
        return PatternMatrix(self.n_rows, self.n_cols, self.nonzeros | {(i, j)})

    def without_entry(self, i: int, j: int) -> "PatternMatrix":
        return PatternMatrix(self.n_rows, self.n_cols, self.nonzeros - {(i, j)})

    def hstack(self, other: "PatternMatrix") -> "PatternMatrix":
        """Pattern of [self other]; self's entries, then other's shifted ones, keep ``_coords`` order."""
        if other.n_rows != self.n_rows:
            raise ValueError(
                f"cannot stack {self.n_rows}x{self.n_cols} beside {other.n_rows}x{other.n_cols}"
            )
        (rows, cols), (more_rows, more_cols) = self._coords, other._coords
        return PatternMatrix._trusted(self.n_rows, self.n_cols + other.n_cols, np.concatenate((rows, more_rows)),
                                      np.concatenate((cols, more_cols + self.n_cols)))

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "PatternMatrix":
        """Reindexed block: new entry (a, b) iff (rows[a-1], cols[b-1]) was nonzero."""
        row_pos = {orig: k for k, orig in enumerate(rows, start=1)}
        col_pos = {orig: k for k, orig in enumerate(cols, start=1)}
        entries = {
            (row_pos[i], col_pos[j])
            for i, j in self.nonzeros
            if i in row_pos and j in col_pos
        }
        return PatternMatrix(len(rows), len(cols), frozenset(entries))

    def reindex(
        self, row_order: Sequence[int], col_order: Sequence[int] | None = None
    ) -> "PatternMatrix":
        """Permute: position k of ``row_order`` names the original index now at k."""
        if col_order is None:
            col_order = list(range(1, self.n_cols + 1))
        if sorted(row_order) != list(range(1, self.n_rows + 1)):
            raise ValueError("row_order is not a permutation of the row indices")
        if sorted(col_order) != list(range(1, self.n_cols + 1)):
            raise ValueError("col_order is not a permutation of the column indices")
        return self.submatrix(list(row_order), list(col_order))


def _pair(pattern_a: PatternMatrix, pattern_b: PatternMatrix | None) -> PatternMatrix:
    """The input pattern of the structured pair (A, B), the one rule for a pair: A must be square and B, when
    given, must have one row per state.  A missing B is the n-by-0 pattern, a system with no inputs."""
    n = pattern_a.n_rows
    if not pattern_a.is_square:
        raise ValueError(f"state pattern must be square, got {n}x{pattern_a.n_cols}")
    if pattern_b is None:
        return PatternMatrix.zeros(n, 0)
    if pattern_b.n_rows != n:
        raise ValueError(f"input pattern has {pattern_b.n_rows} rows, expected {n} to match the {n}x{n} state pattern")
    return pattern_b


# Set once @dataclass has read the field, a view: as a non-data descriptor it yields to the value a
# public constructor stores in the instance __dict__, so only a _trusted pattern names it, on first read.
PatternMatrix.nonzeros = cached_property(lambda self: frozenset(zip(*[a.tolist() for a in self._coords])))
PatternMatrix.nonzeros.__set_name__(PatternMatrix, "nonzeros")
