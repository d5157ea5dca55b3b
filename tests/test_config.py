import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipcert import SquaredError, loss_head_envelopes
from lipcert.config import ConfigError, resolve_loss_envelope, write_json

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


class TestOutputBoundIsLazy:
    """resolve_loss_envelope calls its output bound, a recursion in the CLI,
    once for squared error and only after the section's other checks."""

    @staticmethod
    def counted(value: float = 5.0):
        calls = []
        return calls, lambda: calls.append(value) or value

    def test_called_once_for_squared_error(self):
        calls, bound = self.counted()
        env = resolve_loss_envelope({"loss": {"kind": "squared_error"}}, 2, 3.0, bound)
        assert env == loss_head_envelopes(SquaredError(), 2, 5.0, 3.0)
        assert calls == [5.0]

    @pytest.mark.parametrize(
        "loss", [{"kind": "pseudo_huber", "delta": 2.0}, {"kind": "envelope", "g_p_max": 1.0, "g_pp_max": 2.0}]
    )
    def test_never_called_for_fixed_envelopes(self, loss):
        calls, bound = self.counted()
        assert resolve_loss_envelope({"loss": loss}, 2, 3.0, bound) is not None
        assert resolve_loss_envelope({}, 2, 3.0, bound) is None
        assert calls == []

    @pytest.mark.parametrize(
        "loss, dim, data, message",
        [
            ({"kind": "hinge"}, 2, 3.0, "loss: unknown kind 'hinge'"),
            ({"kind": "squared_error"}, 2, None, "loss: squared_error needs 'target_bound' or a dataset"),
            ({"kind": "squared_error", "target_bound": "1"}, 2, 3.0, "loss: key 'target_bound' has wrong type"),
            (
                {"kind": "squared_error", "target_bound": -1.0}, 2, 3.0,
                "loss: key 'target_bound' must be finite and nonnegative, got -1.0",
            ),
            # a data target bound that overflowed
            (
                {"kind": "squared_error", "target_bound": 1.0}, 2, math.inf,
                "loss: squared error needs finite output and target bounds",
            ),
            ({"kind": "squared_error", "target_bound": 1.0}, 0, None, "loss: dim must be a positive integer"),
            ({"kind": "pseudo_huber", "delta": -1.0}, 2, 3.0, "loss: delta must be a positive finite real"),
            (
                {"kind": "envelope", "g_p_max": -1.0, "g_pp_max": 1.0}, 2, 3.0,
                "loss: g_p_max must be finite and nonnegative",
            ),
        ],
        ids=["kind", "no_target", "target_type", "negative_target", "inf_data", "zero_dim", "delta", "envelope"],
    )
    def test_never_called_for_a_bad_section(self, loss, dim, data, message):
        calls, bound = self.counted()
        with pytest.raises(ConfigError) as exc:
            resolve_loss_envelope({"loss": loss}, dim, data, bound)
        assert str(exc.value) == message
        assert calls == []

    def test_no_output_bound_refuses_squared_error_after_its_checks(self):
        with pytest.raises(ConfigError, match="squared_error needs 'target_bound'"):
            resolve_loss_envelope({"loss": {"kind": "squared_error"}}, 2)
        with pytest.raises(ConfigError) as exc:
            resolve_loss_envelope({"loss": {"kind": "squared_error", "target_bound": 1.0}}, 2)
        assert str(exc.value) == (
            "code loss bounds need kind 'envelope' or 'pseudo_huber' "
            "(squared_error has no certified output bound here)"
        )
