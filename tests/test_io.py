import json

import numpy as np
import pytest

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
    assert load_rankings(path).rankings.tolist() == arr.tolist()


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
