import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudomallows.experiments import ResultTable
from pseudomallows.io import emit, load_clicks, load_rankings, read_table, save_rankings


def test_load_rankings_plain(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("1,3,2\n2,1,3\n")
    ds = load_rankings(path)
    assert ds.rankings.tolist() == [[1, 3, 2], [2, 1, 3]]
    assert ds.labels is None


def test_load_rankings_with_header(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("drama,news,sport\n1,3,2\n")
    ds = load_rankings(path)
    assert ds.labels == ("drama", "news", "sport")


def test_load_rankings_duplicate_rank(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("1,3,2\n1,1,2\n")
    with pytest.raises(ValueError, match="line 2"):
        load_rankings(path)


def test_load_rankings_names_the_file_line(tmp_path):
    """A header and a blank line sit before the bad row, so its row index (1)
    and its line number (4) differ."""
    path = tmp_path / "r.csv"
    path.write_text("a,b,c\n\n1,3,2\n1,1,2\n")
    with pytest.raises(ValueError, match="line 4: ranking row 1"):
        load_rankings(path)


def test_load_rankings_names_a_line_past_the_first_blocks(tmp_path):
    """The permutation check runs in blocks of rows; a duplicate rank far
    past the first block is still named at its own line."""
    rankings = np.tile(np.arange(1, 21), (10_000, 1))
    rankings[7_000, 3] = rankings[7_000, 4]
    path = tmp_path / "r.csv"
    save_rankings(rankings, path)
    with pytest.raises(ValueError, match="line 7001: ranking row 7000 "):
        load_rankings(path)


def test_load_rankings_malformed_cell(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("1,2,3\n1,x,3\n")
    with pytest.raises(ValueError, match="line 2"):
        load_rankings(path)


def test_load_rankings_ragged_row(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("1,2,3\n1,2\n")
    with pytest.raises(ValueError, match="line 2"):
        load_rankings(path)


def test_load_clicks(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("1,0,1\n0,0,0\n")
    ds = load_clicks(path)
    assert ds.clicks.tolist() == [[1, 0, 1], [0, 0, 0]]
    assert ds.click_counts().tolist() == [2, 0]


def test_load_clicks_rejects_other_values(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("1,0,2\n")
    with pytest.raises(ValueError, match="line 1"):
        load_clicks(path)


def test_load_clicks_names_the_file_line(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("a,b,c\n1,0,1\n\n0,3,0\n")
    with pytest.raises(ValueError, match="line 4: clicks row 1"):
        load_clicks(path)


def test_save_rankings_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    arr = np.array([[2, 1, 3], [3, 2, 1]])
    save_rankings(arr, path)
    assert path.read_bytes() == b"2,1,3\r\n3,2,1\r\n"
    assert load_rankings(path).rankings.tolist() == arr.tolist()
    save_rankings(np.array([3, 1, 2]), path)
    assert path.read_bytes() == b"3,1,2\r\n"


@pytest.mark.parametrize("cell", [
    "0_2", "\u0662", "\uff12", "99999999999999999999", "-9223372036854775809", "1.0", "0x1",
])
def test_load_rejects_cells_that_are_not_plain_int64(tmp_path, cell):
    """Python's int() reads 0_2, an Arabic-Indic or a full-width 2 as 2, and
    cells past int64 without complaint; none is a plain int64 decimal. Line 3
    spells valid cells in other ways, which must not be blamed instead."""
    path = tmp_path / "r.csv"
    path.write_text(f'a,b,c\n\n+1,\t2 ,"3"\n3,{cell},1\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 4: "):
        load_rankings(path)


def test_oversized_cell_in_the_first_row(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("1,2,99999999999999999999\n")
    with pytest.raises(ValueError, match="line 1: "):
        load_rankings(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, message", [
    ("", "file is empty"),
    ("\n\r\n\n", "file is empty"),
    ("a,b,c\n", "header but no data rows"),
    ("a,b,c\n\n\n", "header but no data rows"),
    ("a,b\n1,2,3\n2,1,3\n", "header width 2 != data width 3"),
    # np.loadtxt accepts these, as their data rows agree; the first one is named
    ("item0,item1\n1\n", "line 2: .*header width 2 != data width 1"),
    ("a,b\n1\n2\n", "line 2: .*header width 2 != data width 1"),
])
def test_load_rejects_files_without_a_table(tmp_path, text, message):
    path = tmp_path / "r.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_rankings(path)


@pytest.mark.parametrize("text, line", [
    ("1,x,3\n2,1,3\n", 1),
    ("\n1,2,1.5\n2,1,3\n", 2),
    ('"3", x ,1\n', 1),
])
def test_first_row_mixing_integers_and_labels_is_rejected(tmp_path, text, line):
    """A first row with an int64 cell is a corrupt data row, not a header."""
    path = tmp_path / "r.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"line {line}: cell '.*' is not a decimal int64"):
        load_rankings(path)
    with pytest.raises(ValueError, match=f"line {line}: "):
        load_clicks(path)


def test_ragged_row_is_measured_against_the_header(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("a,b,c\n1,2\n2,1,3\n")
    with pytest.raises(ValueError, match="line 2: expected 3 columns, got 2"):
        load_rankings(path)


def test_one_column_and_one_row_files_load(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("1\n0\n1\n")
    assert load_clicks(path).clicks.tolist() == [[1], [0], [1]]
    path.write_text("2,1,3")
    assert load_rankings(path).rankings.tolist() == [[2, 1, 3]]
    path.write_text("only\n1\n")
    ds = load_rankings(path)
    assert ds.rankings.tolist() == [[1]] and ds.labels == ("only",)


def test_quoted_cells_and_spaces_load(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text('"x", y ,"a,b"\r\n"1", 3 ,"2"\r\n\r\n 2 ,+1,"3" \r\n')
    ds = load_rankings(path)
    assert ds.labels == ("x", "y", "a,b")
    assert ds.rankings.tolist() == [[1, 3, 2], [2, 1, 3]]


def test_quoted_line_break_in_a_label(tmp_path):
    """Lines are counted in the file, so a label that spans two lines moves
    the data down and the bad row is named by the line it is on."""
    path = tmp_path / "r.csv"
    path.write_text('"a\nb",c\n\n1,2\n')
    ds = load_rankings(path)
    assert ds.labels == ("a\nb", "c") and ds.rankings.tolist() == [[1, 2]]
    path.write_text('"a\nb",c\n1,2\n2,2\n')
    with pytest.raises(ValueError, match="line 4: ranking row 1"):
        load_rankings(path)


_CELLS = np.random.default_rng(0).integers(0, 2, (1000, 20))


@pytest.mark.parametrize("load, text, want", [
    pytest.param(load_clicks, "1,0,1\n0,1,0\n1,1,1", [[1, 0, 1], [0, 1, 0], [1, 1, 1]], id="no-final-break"),
    pytest.param(load_rankings, "3,1,2\r2,3,1\r1,2,3", [[3, 1, 2], [2, 3, 1], [1, 2, 3]], id="cr"),
    pytest.param(load_rankings, "1\n1\n1\n1", [[1]] * 4, id="n1-rankings"),
    pytest.param(load_clicks, "0\n1\n0\n1\n", [[0], [1], [0], [1]], id="n1-clicks"),
    # 1000 rows of 20 one-byte cells: 40 bytes a row, 2n, the bound's own size
    pytest.param(load_clicks, "".join(",".join(map(str, row)) + "\n" for row in _CELLS), _CELLS.tolist(),
                 id="clicks-1000x20"),
    pytest.param(load_rankings, '\n\n"1", 2\n\n\n\n 2 ,"1"\r\n\n\n\r\n1,2\n\n\n\n\n\n', [[1, 2], [2, 1], [1, 2]],
                 id="blanks-quotes-spaces"),
    pytest.param(load_clicks, 'a,b\n\n\n"1",0\n\n\n\n0, 1 \n\n\n', [[1, 0], [0, 1]], id="blanks-header"),
])
def test_every_row_loads_at_the_row_bound(tmp_path, load, text, want):
    """``np.loadtxt`` reads at most ceil(bytes / 2n) rows, which a file of
    one-byte cells meets exactly; a bound below the row count would drop
    rows without an error. Blank lines, which numpy warns of when it counts
    rows, warn of nothing (warnings fail the suite)."""
    path = tmp_path / "r.csv"
    path.write_bytes(text.encode())
    ds = load(path)
    assert (ds.rankings if load is load_rankings else ds.clicks).tolist() == want


@pytest.mark.parametrize("load, text, message", [
    pytest.param(load_rankings, "1,2\n2,1\n1", "line 3: expected 2 columns, got 1", id="short-row"),
    pytest.param(load_clicks, "1,0\n0,1\n,", "line 3: cell '' is not a decimal int64", id="empty-cells"),
    pytest.param(load_rankings, "1,2,3\n3,2,1\nx", "line 3: cell 'x' is not a decimal int64", id="one-bad-cell"),
])
def test_a_short_last_row_past_the_full_rows_is_rejected(tmp_path, load, text, message):
    """A rejected row may be shorter than 2n - 1 bytes; after k full rows it
    starts at byte 2nk or later, so the bound, ceil(bytes / 2n), still
    reaches it and the file is rejected at its line rather than cut short."""
    path = tmp_path / "r.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load(path)


@st.composite
def _csv_files(draw):
    """A ranking or click table with an optional header, blank lines at random
    places and LF, CRLF or CR line ends."""
    kind = draw(st.sampled_from(["rankings", "clicks"]))
    n, n_users = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    if kind == "rankings":
        rows = [draw(st.permutations(range(1, n + 1))) for _ in range(n_users)]
    else:
        row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        rows = [draw(row) for _ in range(n_users)]
    labels = draw(st.sampled_from([None, tuple(f"item{i}" for i in range(n))]))
    blanks = draw(st.lists(st.integers(0, n_users + 1), max_size=4))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return kind, np.array(rows, dtype=np.int64), labels, blanks, newline


def _write_csv(path, cells, labels, blanks, newline) -> list[int]:
    """Write the rows of ``cells``; return the file line of each row."""
    entries = [("header", ",".join(labels))] if labels else []
    entries += [("row", ",".join(r)) for r in cells]
    for pos in sorted(blanks, reverse=True):
        entries.insert(min(pos, len(entries)), ("blank", ""))
    path.write_bytes((newline.join(text for _, text in entries) + newline).encode())
    return [i for i, (what, _) in enumerate(entries, start=1) if what == "row"]


@settings(max_examples=150, deadline=None, database=None)
@given(_csv_files(), st.data())
def test_load_round_trips_and_names_the_corrupted_line(tmp_path_factory, file, data):
    kind, table, labels, blanks, newline = file
    load = load_rankings if kind == "rankings" else load_clicks
    path = tmp_path_factory.mktemp("csv") / f"{kind}.csv"
    cells = [[str(v) for v in row] for row in table]
    _write_csv(path, cells, labels, blanks, newline)
    ds = load(path)
    assert np.array_equal(ds.rankings if kind == "rankings" else ds.clicks, table)
    assert ds.labels == labels

    n_users, n = table.shape
    j, c = data.draw(st.integers(0, n_users - 1)), data.draw(st.integers(0, n - 1))
    bad = data.draw(st.sampled_from(["x", "1.5", "1_0", str(2**64), "-1", "drop"]))
    if labels is None and j == 0 and bad in ("x", "1.5", "drop"):
        bad = "1_0"  # int() rejects x and 1.5, so row 0 would become the header
    if bad == "drop" and n == 1:
        bad = "x"  # a one-cell row would become a blank line
    if bad == "drop":
        del cells[j][c]
    else:
        cells[j][c] = bad
    lines = _write_csv(path, cells, labels, blanks, newline)
    with pytest.raises(ValueError, match=f": line {lines[j]}: "):
        load(path)


def _fixture_table() -> ResultTable:
    table = ResultTable()
    table.append(
        experiment="full-timing", replicate=0, method="pseudo",
        x_name="samples", x_value=50, y_name="consensus_footrule", y_value=12,
        detail="", wall_clock=0.0123, seed=4, config_hash="abc123",
    )
    table.append(
        experiment="full-timing", replicate=1, method="mcmc",
        x_name="iterations", x_value=300, y_name="consensus_footrule", y_value=30,
        detail="needs,quoting", wall_clock=0.5, seed=5, config_hash="abc123",
    )
    return table


def test_csv_round_trip(tmp_path):
    table = _fixture_table()
    path = tmp_path / "t.csv"
    emit(table, "csv", path)
    again = read_table(path)
    assert again == table


def test_json_round_trip(tmp_path):
    table = _fixture_table()
    path = tmp_path / "t.json"
    emit(table, "json", path)
    again = read_table(path)
    assert again == table


def test_json_output_is_row_array(tmp_path):
    path = tmp_path / "t.json"
    emit(_fixture_table(), "json", path)
    doc = json.loads(path.read_text())
    assert isinstance(doc, list) and len(doc) == 2
    assert doc[0]["method"] == "pseudo"


def test_empty_table_writes_header_only(tmp_path):
    path = tmp_path / "t.csv"
    emit(ResultTable(), "csv", path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("experiment,")


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="format"):
        emit(ResultTable(), "yaml", tmp_path / "t.yaml")


def test_io_error_carries_path(tmp_path):
    with pytest.raises(OSError, match="no-such-dir"):
        emit(ResultTable(), "csv", tmp_path / "no-such-dir" / "t.csv")
