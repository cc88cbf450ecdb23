"""The report writer `cli._write` against `json.dumps(obj, indent=2, sort_keys=True)`.

`_write` leaves the layout to `json.dumps` and fills each `Table` from its
columns, one level below the line that holds it.  The payloads mix lists of
records that share one shape with records that differ from their neighbours in
one key, one list length or one leaf type, with leaves such as NaN, ±inf, bool,
None, numpy floats and strings, and with keys that hold `%`, `"` or non-ASCII
text.  Tables are checked on generated records, empty or not, one or two to a
payload, at depths 0 to 3 as dict values and as list elements; and on verify
reports, against `json.dumps` of their entries built here from the report's
arrays.  A payload string that spells a table's stash marker is refused.
"""

import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaborglp import table
from gaborglp.cli import _write
from gaborglp.table import Table
from gaborglp.verify import SupportEnumeration, VerificationReport, _unrank, verify_glp
from gaborglp.windows import ones_window, ones_window_exact


def _dumps(obj) -> str:
    return "".join(_write(obj))


def _place(node, path):
    """`node` at depth len(path), beside a sibling: under a str key of a
    dict, or at an int index of a list."""
    for key in reversed(path):
        node = {key: node, "z": None} if isinstance(key, str) else [0] * key + [node, 0]
    return node


PATHS = st.lists(st.sampled_from(["a", 0, 1]), max_size=3)

KEYS = st.text(alphabet=st.sampled_from('ab%"\\é∂\n'), max_size=3)
INTS = st.integers(-(2**70), 2**70)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NUMBERS = INTS | FINITE
SCALARS = (
    NUMBERS
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
    | FINITE.map(np.float64)
    | st.booleans()
    | st.none()
    | KEYS
)


def _containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3)


RECORDS = _containers(st.recursive(NUMBERS, _containers, max_leaves=8))


def _refill(shape, draw):
    """A record of the same shape as `shape`, with fresh leaves of the same types."""
    if isinstance(shape, dict):
        return {key: _refill(value, draw) for key, value in shape.items()}
    if isinstance(shape, list):
        return [_refill(value, draw) for value in shape]
    # zeros of both signs often share a column: 0.0 == -0.0, but they print apart
    return draw(INTS if type(shape) is int else st.sampled_from([0.0, -0.0]) | FINITE)


def _nodes(obj, path=()):
    yield path, obj
    if isinstance(obj, (dict, list)):
        for key in obj if isinstance(obj, dict) else range(len(obj)):
            yield from _nodes(obj[key], (*path, key))


def _perturb(row, draw):
    """Change `row` in one place: one key, one list length or one leaf type."""
    path, node = draw(st.sampled_from(list(_nodes(row))))
    if isinstance(node, dict):
        if node:
            key = draw(st.sampled_from(sorted(node)))
            node[key + "x"] = node.pop(key)
        else:
            node["x"] = 0
        return row
    if isinstance(node, list):
        if node and draw(st.booleans()):
            node.pop()
        else:
            node.append(draw(NUMBERS))
        return row
    leaf = draw(
        st.sampled_from(
            [float(node), np.float64(node), node != 0, None, math.nan, -math.inf]
            + ([int(node)] if type(node) is float and math.isfinite(node) else [])
        )
    )
    if not path:
        return leaf
    parent = row
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = leaf
    return row


@st.composite
def record_lists(draw):
    first = draw(RECORDS)
    rows = [first] + [_refill(first, draw) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.integers(0, 2)) == 0:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = _perturb(rows[i], draw)
    return draw(st.sampled_from([rows, tuple(rows)]))


# exact report entries share one residues dict
SHARED = {"7": 0, "11": 0}

PAYLOADS = st.recursive(
    SCALARS | record_lists(),
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(KEYS, inner, max_size=3)
        | st.dictionaries(st.integers(-3, 3), inner, max_size=2)
    ),
    max_leaves=12,
)


@given(st.dictionaries(KEYS, record_lists() | PAYLOADS, max_size=3))
@settings(max_examples=400, deadline=None)
@example([{"a": 0.0}, {"a": -0.0}])
@example([[1.5, 2], [1.5, 2.0]])
@example([[1, 2], [1, True]])
@example([{"a%": 1, "b": [1, 2]}, {"a%": 2, "b": [3, 4]}])
@example([{"a": 1}, {"b": 1}])
@example([[1, 2], [3]])
@example([[1.0, math.nan], [2.0, 3.0]])
@example([[np.float64(0.1)], [np.float64(0.2)]])
@example({"x": [[], []], "y": [{}, {}], "z": [[[]], [[]]]})
@example([{"s": [1], "r": SHARED}, {"s": [2], "r": SHARED}])
@example({"a\x000": ["\x00", "\x00x"]})  # control characters that spell no marker
def test_dumps_matches_json(payload):
    assert _dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)


def _leaf_columns(shape, rows, path=()):
    """`shape` with each int or float leaf replaced by its column over `rows`."""
    if isinstance(shape, dict):
        return {key: _leaf_columns(value, rows, (*path, key)) for key, value in shape.items()}
    if isinstance(shape, list):
        return [_leaf_columns(value, rows, (*path, i)) for i, value in enumerate(shape)]
    if type(shape) not in (int, float):  # a constant that every row shares
        return shape
    column = []
    for row in rows:
        for key in path:
            row = row[key]
        column.append(row)
    return np.array(column, dtype=np.int64 if type(shape) is int else np.float64)


LEAVES = (
    st.integers(-(2**63), 2**63 - 1)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
)
CONSTANTS = st.none() | st.booleans() | KEYS | st.just({}) | st.just([])
SHAPES = st.recursive(
    LEAVES | CONSTANTS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=8,
)


def _refill_leaves(shape, draw):
    """A record of the same shape, with fresh int and float leaves and the same constants."""
    if isinstance(shape, dict):
        return {key: _refill_leaves(value, draw) for key, value in shape.items()}
    if isinstance(shape, list):
        return [_refill_leaves(value, draw) for value in shape]
    if type(shape) is int:
        return draw(st.integers(-(2**63), 2**63 - 1) | st.integers(-2, 2))
    if type(shape) is float:
        return draw(st.sampled_from([0.0, -0.0, math.nan, math.inf]) | st.floats())
    return shape


@st.composite
def tables(draw):
    """A `Table` of up to 8 records of one shape, and the records."""
    first = draw(SHAPES)
    rows = [first] + [_refill_leaves(first, draw) for _ in range(draw(st.integers(0, 7)))]
    if draw(st.integers(0, 7)) == 0:  # an empty table
        rows = []
    return Table(_leaf_columns(first, rows), len(rows)), rows


@given(tables(), PATHS, st.none() | st.tuples(tables(), PATHS), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_table_matches_json(table_rows, path, second, block_rows):
    got, rows = table_rows
    got, expected = _place(got, path), _place(rows, path)
    if second:  # two tables in one payload
        (other, other_rows), other_path = second
        got = {"a": got, "b": _place(other, other_path)}
        expected = {"a": expected, "b": _place(other_rows, other_path)}
    with mock.patch.object(table, "BLOCK_ROWS", block_rows):
        assert _dumps(got) == json.dumps(expected, indent=2, sort_keys=True)


@pytest.mark.parametrize("marker", ["\x000", "\x001", "\"\x000"])
@pytest.mark.parametrize("as_key", [False, True])
def test_forged_marker_is_refused(marker, as_key):
    # a string that json spells as a table's token never stands in for the table
    t = Table({"x": np.arange(2)}, 2)
    payload = {marker: 1, "t": t} if as_key else {"s": marker, "t": t}
    with pytest.raises(ValueError, match="stash marker"):
        _dumps(payload)
    with pytest.raises(ValueError, match="stash marker"):  # no table at all
        _dumps({"s": marker})


def _entries(report: VerificationReport) -> list:
    """The `dependent_supports` entries, one dict per row of the report's arrays."""
    supports = [[[c // report.n, c % report.n] for c in row] for row in report.dependent.tolist()]
    if report.backend == "exact":
        return [{"support": s, "residues": {str(p): 0 for p in report.primes_used}} for s in supports]
    return [
        {"support": s, "det_modulus": m, "witness": [[z.real, z.imag] for z in w]}
        for s, m, w in zip(supports, report.det_modulus.tolist(), report.witness.tolist())
    ]


def _check_report(report: VerificationReport, path=()):
    # the report at the depth the CLI writes it, under "result", and its table alone at `path`
    columns = report.to_columns()
    entries = _entries(report)
    pairs = (
        ({"result": columns}, {"result": {**columns, "dependent_supports": entries}}),
        (_place(columns["dependent_supports"], path), _place(entries, path)),
    )
    for got, expected in pairs:
        assert _dumps(got) == json.dumps(expected, indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def ones_exact_5():
    return verify_glp(ones_window_exact(5), SupportEnumeration(5, "exhaustive"))


@pytest.mark.parametrize("rows", [0, 1, 2, table.BLOCK_ROWS, table.BLOCK_ROWS + 1])
def test_report_table_rows(ones_exact_5, rows):
    # no entry, one, two, and a block's worth of rows and one more
    assert len(ones_exact_5.dependent) > table.BLOCK_ROWS + 1
    _check_report(replace(ones_exact_5, dependent=ones_exact_5.dependent[:rows]))


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_report_table_two_digit_cells(backend):
    n = 12  # cells (κ, λ) up to (11, 11)
    window = ones_window_exact(n) if backend == "exact" else ones_window(n)
    report = verify_glp(window, SupportEnumeration(n, "sampled", count=40, seed=2))
    cells = np.divmod(report.dependent, n)
    assert len(report.dependent) and min(c.max() for c in cells) >= 10
    _check_report(report)


@pytest.mark.parametrize("bits", [31, 40])
def test_report_table_residue_keys(bits):
    report = verify_glp(ones_window_exact(3, bits), SupportEnumeration(3, "exhaustive"))
    assert len(report.dependent) and min(report.primes_used) >= 2**bits
    _check_report(report)


@pytest.mark.parametrize(
    "path", [(), ("a",), (0,), (1,), ("a", "a"), (1, 0), ("a", 1, "a"), (0, "a", 1), (1, 1, 1)]
)
def test_report_table_float_specials(path):
    # hand-built: moduli and witnesses that hold NaN, ±inf and both zeros
    n = 3
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300]
    rows = len(special)
    values = np.array(special)
    witness = np.empty((rows, n), dtype=complex)
    witness.real = np.stack([np.roll(values, j) for j in range(n)], axis=1)
    witness.imag = witness.real[::-1]
    report = VerificationReport(
        n, "float", "user", "exhaustive", 84, _unrank(np.arange(rows), n * n, n),
        np.array(special), witness, [], 0.0,
    )
    for rows_kept in (rows, 1, 0):
        _check_report(
            replace(
                report,
                dependent=report.dependent[:rows_kept],
                det_modulus=report.det_modulus[:rows_kept],
                witness=report.witness[:rows_kept],
            ),
            path,
        )
