"""CSV reading and writing against the csv module.

The oracle is the csv module itself: ``csv.writer`` with floats formatted as
``repr(float(v))`` and everything else as ``str(v)`` for the bytes written,
and ``csv.reader`` with ``float()`` per numeric cell for the values read.
"""

import csv
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairmimic as fm
from fairmimic import data as data_mod
from fairmimic.cli import main
from fairmimic.score import read_scores

from conftest import make_generator, same_table, simulate_from


def csv_module_bytes(header, columns, lineterminator="\r\n"):
    """What csv.writer writes for the table, floats as ``repr(float(v))``,
    with each row's CRLF then replaced by ``lineterminator`` (csv.writer
    given another terminator leaves a lone CR or LF in a field unquoted)."""
    cells = [
        [repr(float(v)) for v in col]
        if isinstance(col, np.ndarray) and col.dtype == np.float64
        else [str(v) for v in col]
        for col in columns
    ]
    lines = []
    for row in [header, *zip(*cells)]:
        buf = io.StringIO(newline="")
        csv.writer(buf).writerow(row)
        lines.append(buf.getvalue()[:-2] + lineterminator)
    return "".join(lines).encode("utf-8")


def csv_module_columns(path, numeric):
    """csv.reader rows, then float() per cell of the columns flagged numeric."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    columns = []
    for j, is_float in enumerate(numeric):
        raw = [row[j] for row in rows]
        if is_float:
            columns.append(np.array([float(v) for v in raw], dtype=np.float64))
        else:
            columns.append(np.array(raw, dtype=object))
    return header, columns


def assert_same_columns(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype
        if e.dtype == np.float64:
            assert g.tobytes() == e.tobytes()  # bit for bit, -0.0 and NaN included
        else:
            assert [type(v) for v in g] == [type(v) for v in e]
            assert g.tolist() == e.tolist()


# commas, quotes, CR/LF, leading and trailing spaces, non-ASCII, and the
# Unicode line breaks that are not CSV line breaks
TEXT_CHARS = list(',"\r\n \tab0xé日😀\u2028\x85')
SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, 1e-5,
]

texts = st.text(alphabet=st.sampled_from(TEXT_CHARS), min_size=1, max_size=6)
finite_floats = st.one_of(
    st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
any_floats = st.one_of(finite_floats, st.floats())


@st.composite
def tables(draw, cell_text=texts):
    """(header, numeric flags, columns) with 1-4 columns and 0-12 rows."""
    numeric = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    n = draw(st.integers(0, 12))
    header = draw(st.lists(texts, min_size=len(numeric), max_size=len(numeric)))
    columns = [
        np.array(draw(st.lists(any_floats if f else cell_text, min_size=n, max_size=n)),
                 dtype=np.float64 if f else object)
        for f in numeric
    ]
    return header, numeric, columns


class TestAgainstCsvModule:
    """Each example writes a fresh file: overwriting one file per example
    costs tens of milliseconds per truncation on some filesystems."""

    @given(tables(cell_text=st.text(alphabet=st.sampled_from(TEXT_CHARS), max_size=6)))
    @settings(max_examples=300, deadline=None)
    def test_writer_bytes(self, tmp_path_factory, table):
        header, _, columns = table
        path = tmp_path_factory.getbasetemp() / "written.csv"
        path.unlink(missing_ok=True)
        data_mod.write_table(path, header, columns)
        assert path.read_bytes() == csv_module_bytes(header, columns)

    @given(tables(), st.sampled_from(["\r\n", "\n", "\r"]))
    @settings(max_examples=300, deadline=None)
    def test_reader_values(self, tmp_path_factory, table, lineterminator):
        header, numeric, columns = table
        path = tmp_path_factory.getbasetemp() / "read.csv"
        path.unlink(missing_ok=True)
        path.write_bytes(csv_module_bytes(header, columns, lineterminator))
        dtypes = [np.float64 if f else object for f in numeric]
        if len(set(header)) < len(header):  # columns are keyed by name
            with pytest.raises(fm.DataValidationError, match="header repeats column names"):
                data_mod.read_table(path, lambda h: dtypes)
            return
        got_header, got = data_mod.read_table(path, lambda h: dtypes)
        expected_header, expected = csv_module_columns(path, numeric)
        assert got_header == expected_header == header
        assert_same_columns(got, expected)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_dataset_round_trip(self, tmp_path_factory, data):
        n = data.draw(st.integers(2, 12))
        levels = data.draw(st.lists(texts, min_size=2, max_size=2, unique=True))
        groups = levels + data.draw(st.lists(st.sampled_from(levels), min_size=n - 2, max_size=n - 2))
        names = ["x,1", 'y "1"', "y\r\n2"][3 - data.draw(st.integers(2, 3)):]
        values = {
            "id": np.array(data.draw(st.lists(texts, min_size=n, max_size=n)), dtype=object),
            "g r": np.array(groups, dtype=object),
        }
        for c in names:
            values[c] = np.array(data.draw(st.lists(finite_floats, min_size=n, max_size=n)))
        roles = {"id": "id", "g r": "sensitive", "x,1": "covariate", 'y "1"': "indicator",
                 "y\r\n2": "indicator"}
        ds = fm.Dataset(
            column_order=tuple(values),
            roles={c: roles[c] for c in values},
            values=values,
            sensitive_coding={levels[0]: 0, levels[1]: 1},
        )
        path = tmp_path_factory.getbasetemp() / "dataset.csv"
        path.unlink(missing_ok=True)
        fm.write_csv(ds, path)
        assert path.read_bytes() == csv_module_bytes(ds.column_order, list(values.values()))

        back = fm.load_csv(path, data_mod.role_config_of(ds))
        numeric = [ds.roles[c] in ("covariate", "indicator") for c in ds.column_order]
        _, expected = csv_module_columns(path, numeric)
        assert_same_columns([back.values[c] for c in ds.column_order], expected)
        assert_same_columns([back.values[c] for c in ds.column_order], list(values.values()))
        assert same_table(back, ds)


class TestWriterBlocks:
    @pytest.mark.parametrize("block_rows", [1, 3, data_mod.CSV_BLOCK_ROWS])
    def test_write_csv_independent_of_block_size(self, tmp_path, monkeypatch, block_rows):
        data, _ = simulate_from(make_generator(), n=10, seed=11)
        monkeypatch.setattr(data_mod, "CSV_BLOCK_ROWS", block_rows)
        path = tmp_path / "data.csv"
        fm.write_csv(data, path)
        columns = [data.values[c] for c in data.column_order]
        assert path.read_bytes() == csv_module_bytes(data.column_order, columns)

    def test_score_and_curve_files(self, tmp_path):
        gen = make_generator()
        data, _ = simulate_from(gen, n=300, seed=12)
        scores = fm.score_dataset(gen, data)
        scores.to_csv(tmp_path / "scores.csv")
        header = ("row_id", "fair_score", "naive_score", "decision")
        columns = (scores.row_ids, scores.fair, scores.naive, scores.decision)
        assert (tmp_path / "scores.csv").read_bytes() == csv_module_bytes(header, columns)

        # the parity curve file as the audit command writes it
        curve = fm.conditional_parity_curve(scores.fair, data.sensitive_labels(), data.column("y1"), 4)
        header = ("score_type", *curve.CSV_HEADER)
        data_mod.write_table(tmp_path / "curve.csv", header, list(zip(*curve.csv_rows("fair"))))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(header)
        writer.writerows(curve.csv_rows("fair"))
        assert (tmp_path / "curve.csv").read_bytes() == expected.getvalue().encode()

    def test_simulate_files(self, tmp_path):
        spec = fm.SimSpec(n=50, model=make_generator(), group_prob=0.5, seed=13)
        (tmp_path / "spec.json").write_text(json.dumps(spec.to_dict()))
        assert main(["simulate", "--spec", str(tmp_path / "spec.json"), "--out-dir", str(tmp_path)]) == 0
        data, latent = fm.simulate(spec)
        columns = [data.values[c] for c in data.column_order]
        assert (tmp_path / "data.csv").read_bytes() == csv_module_bytes(data.column_order, columns)
        expected = csv_module_bytes(("row_id", "latent"), (data.column("id"), latent))
        assert (tmp_path / "latent.csv").read_bytes() == expected

    @pytest.mark.parametrize(
        "header, columns, detail",
        [
            (("a", "b"), (np.arange(3), np.array([1.0])), "2 names, lengths [3, 1]"),
            (("a", "b"), (np.arange(3),), "2 names, lengths [3]"),
            (("a",), (np.arange(3), np.arange(3)), "1 names, lengths [3, 3]"),
        ],
    )
    def test_ragged_columns_refused(self, tmp_path, header, columns, detail):
        # rows are zipped, so a short column would drop rows without a word
        path = tmp_path / "ragged.csv"
        with pytest.raises(ValueError, match=re.escape(detail)):
            data_mod.write_table(path, header, columns)
        assert not path.exists()


HEADER = "id,grp,x1,y1,y2\r\n"
ROW2 = "r2,b,-1.0,0.5,0.125\r\n"
ROLES = {
    "roles": {"id": "id", "grp": "sensitive", "x1": "covariate", "y1": "indicator", "y2": "indicator"}
}
MALFORMED = {
    "ragged row": (
        HEADER + "r1,a,0.25,1.5\r\n" + ROW2,
        "row 2 has 4 fields, expected 5; 1 of 2 rows have missing values",
    ),
    "blank line": (
        HEADER + "r1,a,0.25,1.5,2.0\r\n\r\n" + ROW2,
        "row 3 has 0 fields, expected 5; 1 of 3 rows have missing values",
    ),
    "blank last line": (
        HEADER + "r1,a,0.25,1.5,2.0\n" + ROW2 + "\n",
        "row 4 has 0 fields, expected 5; 1 of 3 rows have missing values",
    ),
    "empty numeric cell": (
        HEADER + "r1,a,0.25,,2.0\r\n" + ROW2,
        "row 2, column 'y1' is empty; 1 of 2 rows have missing values",
    ),
    "empty label cell": (
        HEADER + "r1,,0.25,1.5,2.0\r\n" + ROW2,
        "row 2, column 'grp' is empty; 1 of 2 rows have missing values",
    ),
    "non-numeric cell": (
        HEADER + "r1,a,0.25,1.5,2.0\r\nr2,b,-1.0,oops,0.125\r\n",
        "column 'y1' has non-numeric cell 'oops'",
    ),
    "separator that numpy skips": (
        HEADER + "r1,a,0.25,1.5\x1c,2.0\r\n" + ROW2,
        "column 'y1' has non-numeric cell '1.5\\x1c'",
    ),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_message(self, tmp_path, case):
        text, message = MALFORMED[case]
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(fm.DataValidationError) as err:
            fm.load_csv(path, ROLES)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("chunk_bytes", [1, 2, 3])
    @pytest.mark.parametrize("case", ["blank line", "blank last line", "separator that numpy skips"])
    def test_message_when_scanned_in_small_chunks(self, tmp_path, monkeypatch, case, chunk_bytes):
        # the byte pairs that mark a blank line straddle chunk boundaries
        monkeypatch.setattr(data_mod, "SCAN_CHUNK_BYTES", chunk_bytes)
        self.test_message(tmp_path, case)

    @pytest.mark.parametrize("text", [HEADER, HEADER.strip()])
    def test_header_only(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fm.DataValidationError) as err:
                fm.load_csv(path, ROLES)
        assert str(err.value) == "sensitive column 'grp' must have exactly 2 levels, got []"

    @pytest.mark.parametrize(
        "text",
        [
            "r1,a,0.25,1_5,2.0\r\n" + ROW2,  # float() takes the underscore, loadtxt does not
            'r1,a,0.25," 15 ",2.0\r\n' + ROW2,
            "r1,a,0.25,١٥,2.0\r\n" + ROW2,  # Arabic-Indic digits
        ],
    )
    def test_cells_only_float_parses(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes((HEADER + text).encode())
        ds = fm.load_csv(path, ROLES)
        assert ds.column("y1").tolist() == [15.0, 0.5]

    @pytest.mark.parametrize(
        "header", ['"id","grp",x1,"y1",y2\r\n', "\ufeff" + HEADER, '\ufeff"id",grp,x1,y1,y2\r\n']
    )
    def test_quoted_header_and_byte_order_mark(self, tmp_path, header):
        path = tmp_path / "data.csv"
        path.write_bytes((header + "r1,a,0.25,1.5,2.0\r\n" + ROW2).encode())
        ds = fm.load_csv(path, ROLES)
        assert ds.column_order == ("id", "grp", "x1", "y1", "y2")
        assert tuple(ds.column("id")) == ("r1", "r2")
        assert ds.column("y2").tolist() == [2.0, 0.125]


class TestScoresFile:
    def test_column_dtypes(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"row_id,fair_score,naive_score,decision,extra\r\nr1,0.5,-1e-300,1,z\r\n")
        scores = read_scores(path)
        assert list(scores) == ["row_id", "fair_score", "naive_score", "decision"]
        assert scores["row_id"].dtype == object and scores["row_id"].tolist() == ["r1"]
        assert scores["fair_score"].dtype == np.float64 and scores["fair_score"].tolist() == [0.5]
        assert scores["naive_score"].tolist() == [-1e-300]
        assert scores["decision"].dtype == np.int64 and scores["decision"].tolist() == [1]

    def test_repeated_column_refused(self, tmp_path):
        # keyed by name, the second fair_score would replace the first
        path = tmp_path / "scores.csv"
        path.write_bytes(b"row_id,fair_score,naive_score,decision,fair_score\r\nr1,0.5,0.25,1,0.75\r\n")
        with pytest.raises(fm.DataValidationError, match=r"header repeats column names: \['fair_score'\]"):
            read_scores(path)

    def test_missing_column_exits_1(self, tmp_path, capsys):
        gen = make_generator()
        data, _ = simulate_from(gen, n=40, seed=14)
        fm.write_csv(data, tmp_path / "data.csv")
        (tmp_path / "roles.json").write_text(json.dumps(data_mod.role_config_of(data)))
        (tmp_path / "scores.csv").write_bytes(b"row_id,fair_score,naive_score\r\n0,0.5,0.5\r\n")
        code = main(
            ["audit", "--scores", str(tmp_path / "scores.csv"), "--data", str(tmp_path / "data.csv"),
             "--roles", str(tmp_path / "roles.json"), "--out-dir", str(tmp_path / "audit")]
        )
        assert code == 1
        assert "no column 'decision'" in capsys.readouterr().err
        assert not (tmp_path / "audit").exists()
