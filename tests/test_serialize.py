import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptix.errors import ConfigError
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


def test_every_control_character_round_trips():
    # JSON forbids a raw character below U+0020 inside a string
    for code in range(0x20):
        text = f"a{chr(code)}b"
        assert json.loads(dumps_json({text: text})) == {text: text}


def test_json_string_bytes_without_control_characters():
    assert dumps_json({"k": 'tab\there "q" \\ nl\n caf\u00e9'}) == \
        '{\n  "k": "tab\\there \\"q\\" \\\\ nl\\n caf\u00e9"\n}\n'


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


def test_a_non_finite_value_is_reported_with_its_place(tmp_path):
    with pytest.raises(ValueError, match=r"^non-finite value inf in "
                       r"artifact a\.json, key bad$"):
        write_json(tmp_path / "a.json", {"ok": 1.0, "bad": float("inf")})
    doc = {"coupling": {"rows": [{"t": 10, "quantile_50": float("nan")}],
                        "V": np.array([[1.0, -np.inf]])}}
    with pytest.raises(ValueError, match=r"^non-finite value nan in artifact "
                       r"s\.json, key coupling\.rows\[0\]\.quantile_50$"):
        write_json(tmp_path / "s.json", doc)
    del doc["coupling"]["rows"]
    with pytest.raises(ValueError, match=r"^non-finite value -inf in artifact "
                       r"s\.json, key coupling\.V\[0\]\[1\]$"):
        write_json(tmp_path / "s.json", doc)
    rows = [[1, 0.5, 2.0], [2, 0.25, float("-inf")], [3, float("nan"), 1.0]]
    with pytest.raises(ValueError, match=r"^non-finite value -inf in "
                       r"artifact b\.csv, column y$"):
        write_csv(tmp_path / "b.csv", ["t", "x", "y"], rows)


def cell_by_cell(name, header, rows):
    """The CSV text of ``rows`` rendered one cell at a time: an int (not a
    bool) as its digits, anything else through ``format_float``, with the
    artifact's file and column appended to a non-finite value's error."""
    lines = [",".join(header) + "\n"]
    for row in rows:
        cells = []
        for column, value in zip(header, row):
            if isinstance(value, (int, np.integer)) and not isinstance(
                    value, (bool, np.bool_)):
                cells.append(str(int(value)))
                continue
            try:
                cells.append(format_float(value))
            except ValueError as exc:
                raise ValueError(f"{exc} {name}, column {column}") from None
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


def assert_writes_cell_by_cell(path, header, rows):
    """``write_csv`` gives ``cell_by_cell``'s bytes, or its error and no
    file."""
    try:
        expected = cell_by_cell(path.name, header, rows).encode()
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            write_csv(path, header, rows)
        assert str(raised.value) == str(exc)
        assert not path.exists()
        return False
    write_csv(path, header, rows)
    assert path.read_bytes() == expected
    path.unlink()
    return True


INT_CELLS = st.one_of(
    st.integers(-2**63, 2**63 - 1),
    st.sampled_from([0, 2**63 - 1, -2**63, 2**53 + 1, 10**17, 10**30]),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.sampled_from([np.int64(0), np.int64(2**63 - 1)]),
    st.booleans(), st.booleans().map(np.bool_))
FLOAT_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e17, 1.0 / 3.0,
                     np.float64(-0.0), np.float64(0.1)]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64))
CELLS = {"int": INT_CELLS, "float": FLOAT_CELLS,
         "mixed": st.one_of(INT_CELLS, FLOAT_CELLS)}
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf"),
                              np.float64("nan"), np.float64("-inf")])


@st.composite
def tables(draw):
    """A header and rows whose columns hold ints, floats or both, with
    NaN or an infinity at a few random places in one table of three."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1,
                          max_size=5))
    header = [f"c{j}" for j in range(len(kinds))]
    rows = [[draw(CELLS[kind]) for kind in kinds]
            for _ in range(draw(st.integers(0, 8)))]
    if rows and draw(st.integers(0, 2)) == 0:
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(rows) - 1))
            j = draw(st.integers(0, len(kinds) - 1))
            rows[i][j] = draw(NON_FINITE)
    if draw(st.booleans()):
        rows = [tuple(row) for row in rows]
    return header, rows


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(table=tables())
def test_write_csv_gives_the_cell_by_cell_bytes(tmp_path_factory, table):
    header, rows = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    assert_writes_cell_by_cell(path, header, rows)


def test_write_csv_edge_cells_match_the_cell_by_cell_writer(tmp_path):
    # each column kind, with the values whose "%.17g" text is not their
    # own: a negative zero, and ints of 2**53 and more beside floats
    rows = [[0, -0.0, 2**63 - 1, True, np.int64(2**63 - 1)],
            [np.int64(0), np.float64(-0.0), 0.5, 1.5, 2**53 + 1],
            [2**63 - 1, 5e-324, -0.0, False, 1e17],
            [True, 1e16, 10**17, np.float64(1.0 / 3.0), -0.0]]
    assert assert_writes_cell_by_cell(tmp_path / "t.csv",
                                      ["a", "b", "c", "d", "e"], rows)
    write_csv(tmp_path / "t.csv", ["a", "b", "c", "d", "e"], rows)
    assert (tmp_path / "t.csv").read_text().splitlines()[1:] == [
        "0,-0.0,9223372036854775807,1,9223372036854775807",
        "0,-0.0,0.5,1.5,9007199254740993",
        "9223372036854775807,4.9406564584124654e-324,-0.0,0,1e+17",
        "1,10000000000000000,100000000000000000,0.33333333333333331,-0.0"]


@pytest.mark.parametrize("count", [1, 2, 3])
def test_write_csv_names_the_first_non_finite_cell(tmp_path, count):
    # NaN and the infinities in every column of an int, a float and a
    # mixed column, alone and in pairs and triples: the error names the
    # first bad row and, in it, the first bad column
    base = [[1, 0.5, 2], [2, -0.0, 2.5], [3, 1.0 / 3.0, 4]]
    header = ["t", "x", "m"]
    places = list(itertools.product(range(3), range(3)))
    bad = [float("nan"), float("inf"), float("-inf")]
    checked = 0
    for where in itertools.combinations(places, count):
        for values in itertools.product(bad, repeat=count):
            rows = [list(row) for row in base]
            for (i, j), value in zip(where, values):
                rows[i][j] = value
            assert not assert_writes_cell_by_cell(tmp_path / "t.csv",
                                                  header, rows)
            checked += 1
    assert checked == len(list(itertools.combinations(places, count))) \
        * 3**count


def test_an_artifact_that_cannot_be_opened_raises_config_error(tmp_path):
    (tmp_path / "t.csv").mkdir()
    with pytest.raises(ConfigError, match=r"^cannot write artifact t\.csv: "
                       r"Is a directory$"):
        write_csv(tmp_path / "t.csv", ["t"], [[1]])
