"""Lists of records that share one shape, held as columns and written as text.

A `Table` is one record whose leaves are either columns (1-d numeric arrays,
one value per record) or constants that every record shares.  Its text is
the literal text between the columns, filled in blocks of rows: each column
is spelled once per distinct value, and a block is one join of an object
array whose literal columns are broadcast.  `verify` writes its dependent
supports this way, as JSON entries (`cli`) and as CSV rows.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

BLOCK_ROWS = 16_384

# how `json` spells what `repr` writes as nan, inf and -inf
JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class Table(NamedTuple):
    """`rows` records, each `record` with every array leaf taken at the record's index."""

    record: object
    rows: int


def _texts(column: np.ndarray, nonfinite: dict) -> tuple[np.ndarray, np.ndarray]:
    """The `repr` of each distinct value of an int or float64 column, with
    non-finite floats spelled by `nonfinite`, and each row's index among them.
    Floats are told apart by their bits, not their values, since 0.0 == -0.0;
    ints in a range no longer than the column are indexed by offset."""
    if column.dtype.kind == "f":
        distinct, codes = np.unique(column.astype(np.float64).view(np.int64), return_inverse=True)
        values = distinct.view(np.float64).tolist()
    else:
        low, high = int(column.min()), int(column.max())
        if high - low < len(column):
            values = range(low, high + 1)
            codes = (column - low).astype(np.min_scalar_type(high - low))
        else:
            distinct, codes = np.unique(column, return_inverse=True)
            values = distinct.tolist()
    return np.array([nonfinite.get(t, t) for t in map(repr, values)], dtype=object), codes


def fill(parts: list, rows: int, nonfinite: dict):
    """The text of `rows` rows of `parts`, literal texts alternating with
    columns (first and last a literal), in blocks of `BLOCK_ROWS` rows."""
    if not rows:
        return
    leaves = [_texts(column, nonfinite) for column in parts[1::2]]
    grid = np.empty((min(rows, BLOCK_ROWS), len(parts)), dtype=object)
    grid[:, 0::2] = np.array(parts[0::2], dtype=object)
    for start in range(0, rows, BLOCK_ROWS):
        block = grid[: min(rows - start, BLOCK_ROWS)]
        for j, (texts, codes) in enumerate(leaves):
            block[:, 2 * j + 1] = texts[codes[start : start + len(block)]]
        yield "".join(block.ravel().tolist())
