import io
import json

import pytest

from gravstark.tables import emit_record, emit_table


def render(rows, fmt) -> str:
    sink = io.StringIO()
    emit_table(rows, fmt, sink)
    return sink.getvalue()


def test_single_row_json_array():
    out = render([{"a": 1, "b": 2.5}], "json")
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 1
    assert payload[0] == {"a": 1, "b": 2.5}


def test_float_shortest_round_trip():
    out = render([{"x": 0.1}], "csv")
    assert out.splitlines()[1] == "0.1"
    assert "0.30000000000000004" in render([{"x": 0.1 + 0.2}], "csv")


def test_lf_line_endings():
    out = render([{"a": 1}, {"a": 2}], "csv")
    assert "\r" not in out
    assert out.endswith("\n")


def test_rfc4180_quoting():
    out = render([{"a": 'x,"y"', "b": 1}], "csv")
    assert out.splitlines()[1] == '"x,""y""",1'


def test_boolean_rendering():
    out = render([{"flag": True}, {"flag": False}], "csv")
    assert out.splitlines()[1:] == ["true", "false"]


def test_none_renders_empty_in_csv():
    out = render([{"a": None, "b": 3}], "csv")
    assert out.splitlines()[1] == ",3"


def test_key_order_stable_in_json():
    out = render([{"z": 1, "a": 2}], "json")
    assert out.index('"z"') < out.index('"a"')


def test_heterogeneous_rows_rejected():
    with pytest.raises(ValueError):
        render([{"a": 1}, {"b": 2}], "csv")


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render([{"a": 1}], "yaml")


def test_empty_rows_without_fieldnames_rejected():
    with pytest.raises(ValueError):
        render([], "csv")


def test_record_json_is_object():
    sink = io.StringIO()
    emit_record({"a": 1, "b": None}, "json", sink)
    payload = json.loads(sink.getvalue())
    assert payload == {"a": 1, "b": None}


def test_determinism():
    rows = [{"a": 1.0 / 3.0, "b": "text"}]
    assert render(rows, "csv") == render(rows, "csv")
    assert render(rows, "json") == render(rows, "json")
