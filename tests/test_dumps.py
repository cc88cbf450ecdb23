"""The report writer `cli._dumps` against `json.dumps(obj, indent=2, sort_keys=True)`.

`_dumps` writes each list of records that share one shape from one %-template.
These payloads mix such lists with records that differ from their neighbours in
one key, one list length or one leaf type, with leaves that a template must not
take (NaN, ±inf, bool, None, numpy floats, strings), and with keys that hold
`%`, `"` or non-ASCII text.
"""

import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaborglp.cli import _dumps

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
def test_dumps_matches_json(payload):
    assert _dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)
