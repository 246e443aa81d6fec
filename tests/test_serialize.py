import json

import numpy as np
import pytest

from adaptix.serialize import dumps_json, format_float, write_csv, write_json


def test_floats_round_trip_exactly():
    for value in (0.1, 1.0 / 3.0, 1e-300, 123456789.123456789, -0.0,
                  2.0**-52, 1.7976931348623157e308):
        assert float(format_float(value)) == value


def test_negative_zero_keeps_its_sign_through_json():
    # json reads "-0" as the integer 0, so config.json would replay +0.0
    assert np.signbit(json.loads(dumps_json({"x": -0.0}))["x"])


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        dumps_json({"x": float("inf")})


def test_json_layout_and_types():
    doc = {"b": True, "n": 3, "x": 0.5, "s": "a\"b\n", "v": [1, 2.5],
           "m": np.array([[1.0, 0.0], [0.0, 1.0]]), "none": None, "e": {}}
    text = dumps_json(doc)
    parsed = json.loads(text)
    assert parsed["b"] is True
    assert parsed["n"] == 3
    assert parsed["s"] == 'a"b\n'
    assert parsed["m"] == [[1.0, 0.0], [0.0, 1.0]]
    assert parsed["none"] is None
    # insertion order is the wire order
    assert list(parsed.keys()) == ["b", "n", "x", "s", "v", "m", "none", "e"]
    assert '"b": true' in text


def test_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps_json({"x": {1: "non-string key"}})
    with pytest.raises(TypeError):
        dumps_json({"x": object()})


def test_writers_are_byte_stable(tmp_path):
    doc = {"a": 1.0 / 3.0, "b": [1, 2, 3]}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, doc)
    write_json(p2, doc)
    assert p1.read_bytes() == p2.read_bytes()

    rows = [[1, 0.5, 2.0 / 3.0], [2, 0.25, 1e-15]]
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(c1, ["t", "a", "b"], rows)
    write_csv(c2, ["t", "a", "b"], rows)
    assert c1.read_bytes() == c2.read_bytes()
    lines = c1.read_text().splitlines()
    assert lines[0] == "t,a,b"
    assert lines[1].startswith("1,0.5,")
    assert float(lines[2].split(",")[2]) == 1e-15


def test_a_value_that_cannot_be_written_leaves_no_file(tmp_path):
    # the text is rendered before the file is opened: no empty or truncated
    # artifact is left behind
    with pytest.raises(ValueError):
        write_json(tmp_path / "a.json", {"ok": 1.0, "bad": float("inf")})
    rows = [[1, 0.5]] * 3 + [[4, float("nan")]]
    with pytest.raises(ValueError):
        write_csv(tmp_path / "a.csv", ["t", "a"], rows)
    assert list(tmp_path.iterdir()) == []
