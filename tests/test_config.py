import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipcert.config import write_json

FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, -5e-324]),
    st.floats().map(np.float64),
)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([10**400, -(10**400)]), FLOATS,
    # any code point but surrogates: non-ASCII letters and control characters too
    st.text(),
)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=24,
)


@given(doc=st.dictionaries(st.text(), JSON_VALUES, max_size=6))
@settings(max_examples=200, deadline=None)
def test_write_json_writes_what_json_dumps_writes(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "write_json_property.json"
    write_json(path, doc)
    assert path.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


@pytest.mark.parametrize("value", [{1.5}, b"bytes", np.int64(3), np.bool_(True), object()])
@pytest.mark.parametrize("nest", [lambda v: {"a": v}, lambda v: {"a": [1.0, {"b": (v,)}]}])
def test_write_json_refuses_what_a_report_cannot_hold(tmp_path, value, nest):
    with pytest.raises(TypeError):
        json.dumps(nest(value))
    with pytest.raises(TypeError):
        write_json(tmp_path / "doc.json", nest(value))


@pytest.mark.parametrize("key", [1, 1.5, None, True, (1, 2)])
def test_write_json_refuses_keys_that_are_not_str(tmp_path, key):
    with pytest.raises(TypeError):
        write_json(tmp_path / "doc.json", {"a": {key: 1.0}})
    with pytest.raises(TypeError):
        write_json(tmp_path / "doc.json", {"a": [{"b": 1.0, key: 2.0}]})
