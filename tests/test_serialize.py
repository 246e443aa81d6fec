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

    columns = [np.array([1, 2]), np.array([0.5, 0.25]),
               np.array([2.0 / 3.0, 1e-15])]
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(c1, ["t", "a", "b"], columns)
    write_csv(c2, ["t", "a", "b"], columns)
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
    columns = [np.array([1, 1, 1, 4]), np.array([0.5, 0.5, 0.5, np.nan])]
    with pytest.raises(ValueError):
        write_csv(tmp_path / "a.csv", ["t", "a"], columns)
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
    columns = [np.array([1, 2, 3]), np.array([0.5, 0.25, np.nan]),
               np.array([2.0, -np.inf, 1.0])]
    with pytest.raises(ValueError, match=r"^non-finite value -inf in "
                       r"artifact b\.csv, column y$"):
        write_csv(tmp_path / "b.csv", ["t", "x", "y"], columns)


@pytest.mark.parametrize("doc, key, value", [
    ([[1.0, float("nan")], [np.inf]], r"\[0\]\[1\]", "nan"),
    ([0.5, np.array([1.0, -0.0, np.inf])], r"\[1\]\[2\]", "inf"),
], ids=["list_of_lists", "ndarray_in_list"])
def test_a_non_finite_value_in_a_list_is_reported_with_its_index(
        tmp_path, doc, key, value):
    with pytest.raises(ValueError, match=rf"^non-finite value {value} in "
                       rf"artifact l\.json, key {key}$"):
        write_json(tmp_path / "l.json", doc)


def cell_by_cell(name, header, columns):
    """The CSV text of ``columns`` rendered one cell at a time, row after
    row: an integer or bool column's values as their digits, a float
    column's through ``format_float``, with the artifact's file and column
    appended to a non-finite value's error."""
    lines = [",".join(header) + "\n"]
    for row in zip(*columns):
        cells = []
        for column, kind, value in zip(
                header, [c.dtype.kind for c in columns], row):
            if kind in "biu":
                cells.append(str(int(value)))
                continue
            try:
                cells.append(format_float(value))
            except ValueError as exc:
                raise ValueError(f"{exc} {name}, column {column}") from None
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


def assert_writes_cell_by_cell(path, header, columns):
    """``write_csv`` gives ``cell_by_cell``'s bytes, or its error and no
    file."""
    try:
        expected = cell_by_cell(path.name, header, columns).encode()
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            write_csv(path, header, columns)
        assert str(raised.value) == str(exc)
        assert not path.exists()
        return False
    write_csv(path, header, columns)
    assert path.read_bytes() == expected
    path.unlink()
    return True


#: Values and dtype of each column kind.
CELLS = {
    "int64": (st.one_of(
        st.integers(-2**63, 2**63 - 1),
        st.sampled_from([0, 2**63 - 1, -2**63, 2**53 + 1, 10**17])),
        np.int64),
    "uint64": (st.one_of(
        st.integers(0, 2**64 - 1), st.sampled_from([0, 2**64 - 1])),
        np.uint64),
    "bool": (st.booleans(), np.bool_),
    "float64": (st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e17, 1.0 / 3.0,
                         2.0**53 + 2.0])),
        np.float64),
}
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@st.composite
def tables(draw):
    """A header and typed columns of 0 to 8 rows, with NaN or an infinity
    at a few random places of the float columns in one table of three."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1,
                          max_size=5))
    header = [f"c{j}" for j in range(len(kinds))]
    n_rows = draw(st.integers(0, 8))
    values = [[draw(CELLS[kind][0]) for _ in range(n_rows)]
              for kind in kinds]
    floats = [j for j, kind in enumerate(kinds) if kind == "float64"]
    if n_rows and floats and draw(st.integers(0, 2)) == 0:
        for _ in range(draw(st.integers(1, 3))):
            j = draw(st.sampled_from(floats))
            values[j][draw(st.integers(0, n_rows - 1))] = draw(NON_FINITE)
    return header, [np.array(column, dtype=CELLS[kind][1])
                    for column, kind in zip(values, kinds)]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(table=tables())
def test_write_csv_gives_the_cell_by_cell_bytes(tmp_path_factory, table):
    header, columns = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    assert_writes_cell_by_cell(path, header, columns)


def test_write_csv_edge_cells_match_the_cell_by_cell_writer(tmp_path):
    # each column kind, with the values whose "%.17g" text is not their
    # own: a negative zero, and the extremes of the integer types
    columns = [np.array([0, 0, 2**63 - 1, -2**63]),
               np.array([-0.0, -0.0, 5e-324, 1e16]),
               np.array([2**64 - 1, 0, 1, 2**53 + 1], dtype=np.uint64),
               np.array([True, False, False, True]),
               np.array([0.5, 1e17, -0.0, 1.0 / 3.0])]
    header = ["a", "b", "c", "d", "e"]
    assert assert_writes_cell_by_cell(tmp_path / "t.csv", header, columns)
    write_csv(tmp_path / "t.csv", header, columns)
    assert (tmp_path / "t.csv").read_text().splitlines()[1:] == [
        "0,-0.0,18446744073709551615,1,0.5",
        "0,-0.0,0,0,1e+17",
        "9223372036854775807,4.9406564584124654e-324,1,0,-0.0",
        "-9223372036854775808,10000000000000000,9007199254740993,1,"
        "0.33333333333333331"]


@pytest.mark.parametrize("count", [1, 2, 3])
def test_write_csv_names_the_first_non_finite_cell(tmp_path, count):
    # NaN and the infinities in every column of three, alone and in pairs
    # and triples: the error names the first bad row and, in it, the first
    # bad column. A NaN in the integer column t makes it a float column.
    base = [[1, 2, 3], [0.5, -0.0, 1.0 / 3.0], [2.0, 2.5, 4.0]]
    header = ["t", "x", "m"]
    places = list(itertools.product(range(3), range(3)))
    bad = [float("nan"), float("inf"), float("-inf")]
    checked = 0
    for where in itertools.combinations(places, count):
        for values in itertools.product(bad, repeat=count):
            columns = [list(column) for column in base]
            for (i, j), value in zip(where, values):
                columns[j][i] = value
            assert not assert_writes_cell_by_cell(
                tmp_path / "t.csv", header, list(map(np.array, columns)))
            checked += 1
    assert checked == len(list(itertools.combinations(places, count))) \
        * 3**count


@pytest.mark.parametrize("columns, error", [
    ([np.array([1, 2])], ValueError),                     # too few columns
    ([np.array([1, 2]), np.array([0.5])], ValueError),    # unequal lengths
    ([np.array([1, 2]), np.ones((2, 1))], ValueError),    # not 1-D
    ([np.array([1, 2]), np.array(["a", "b"])], TypeError),
    ([np.array([1, 2]), np.array([1j, 2j])], TypeError),
])
def test_write_csv_refuses_columns_it_cannot_write(tmp_path, columns,
                                                   error):
    with pytest.raises(error):
        write_csv(tmp_path / "t.csv", ["t", "x"], columns)
    assert list(tmp_path.iterdir()) == []


def test_an_artifact_that_cannot_be_opened_raises_config_error(tmp_path):
    (tmp_path / "t.csv").mkdir()
    with pytest.raises(ConfigError, match=r"^cannot write artifact t\.csv: "
                       r"Is a directory$"):
        write_csv(tmp_path / "t.csv", ["t"], [np.array([1])])
