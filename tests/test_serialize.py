import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapsieve.serialize import canonical_json


def _oracle(obj) -> str:
    """canonical_json as it was before its chain put float and str first:
    None, bool, str, int, float, Fraction, dict, list; every string through
    json.dumps."""
    parts: list[str] = []

    def emit(obj):
        if obj is None:
            parts.append("null")
        elif obj is True:
            parts.append("true")
        elif obj is False:
            parts.append("false")
        elif isinstance(obj, str):
            parts.append(json.dumps(obj, ensure_ascii=False))
        elif isinstance(obj, int):
            parts.append(str(obj))
        elif isinstance(obj, float):
            if math.isnan(obj) or math.isinf(obj):
                raise ValueError(f"non-finite float {obj} has no canonical form")
            parts.append(format(obj, ".17g"))
        elif isinstance(obj, Fraction):
            parts.append(json.dumps(str(obj)))
        elif isinstance(obj, dict):
            parts.append("{")
            for i, key in enumerate(sorted(obj)):
                if not isinstance(key, str):
                    raise TypeError(f"canonical JSON keys must be strings, got {key!r}")
                if i:
                    parts.append(",")
                parts.append(json.dumps(key, ensure_ascii=False))
                parts.append(":")
                emit(obj[key])
            parts.append("}")
        elif isinstance(obj, (list, tuple)):
            parts.append("[")
            for i, item in enumerate(obj):
                if i:
                    parts.append(",")
                emit(item)
            parts.append("]")
        else:
            raise TypeError(f"no canonical JSON form for {type(obj).__name__}")

    emit(obj)
    return "".join(parts)


class _Text(str):
    pass


finite = st.floats(allow_nan=False, allow_infinity=False)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    finite,
    finite.map(np.float64),
    st.fractions(),
    st.text(),
    st.text().map(_Text),
)
documents = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(), children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=120, deadline=None)
@example(doc={"é": ["ünï", " ", "\x00", '"\\'], "a": (1, True, 0, False, None)})
@example(doc=[(), [], {}, ((),), [[[]]], {"": {}}])
@example(doc=(np.float64(0.1), 0.1, -0.0, 1e300, 5e-324, Fraction(-3, 7), 2**70, True, 1))
@given(doc=documents)
def test_canonical_json_is_the_isinstance_emitter_byte_for_byte(doc):
    assert canonical_json(doc) == _oracle(doc)


@pytest.mark.parametrize(
    "doc, error",
    [
        (math.nan, ValueError),
        ([1.0, -math.inf], ValueError),
        ({"x": np.float64(math.inf)}, ValueError),
        ({1: "a"}, TypeError),
        ({"a": {2: 0}}, TypeError),
        (np.int64(3), TypeError),
        ({"a": {1, 2}}, TypeError),
    ],
)
def test_canonical_json_refuses_what_the_isinstance_emitter_refuses(doc, error):
    with pytest.raises(error):
        _oracle(doc)
    with pytest.raises(error):
        canonical_json(doc)
