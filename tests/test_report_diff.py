"""The report comparison tool's summary of a CSV that differs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", TOOL)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def _write(path, text):
    path.write_text(text)
    return path


def test_csv_rows_and_columns_that_differ(tmp_path):
    a = _write(tmp_path / "a.csv", "# tool\n# speed drift: 1e-13\nt,r,f\n"
               "0,1,2\n0.5,1.0000000000000002,nan\n1,2,3\n")
    b = _write(tmp_path / "b.csv", "# tool\n# speed drift: 1.1e-13\nt,r,f\n"
               "0,1,2\n0.5,1,nan\n1,2,3.0000000000000004\n")
    assert report_diff.csv_differences(a, b) == [
        "- # speed drift: 1e-13", "+ # speed drift: 1.1e-13",
        "2 of 3 rows differ; max |difference|: r 2.22e-16, f 4.44e-16"]
    assert report_diff.csv_differences(a, a) == ["0 of 3 rows differ; max |difference|: none"]


def test_csv_that_is_not_a_number_on_one_side_differs_by_inf(tmp_path):
    a = _write(tmp_path / "a.csv", "t,f\n0,1\n")
    b = _write(tmp_path / "b.csv", "t,f\n0,nan\n")
    assert report_diff.csv_differences(a, b) == ["1 of 1 rows differ; max |difference|: f inf"]


def test_csv_of_another_shape_or_columns_is_not_summarized(tmp_path):
    a = _write(tmp_path / "a.csv", "t,r\n0,1\n1,2\n")
    assert report_diff.csv_differences(a, _write(tmp_path / "b.csv", "t,r\n0,1\n")) == []
    assert report_diff.csv_differences(a, _write(tmp_path / "c.csv", "t,y\n0,1\n1,2\n")) == []
    assert report_diff.csv_differences(a, tmp_path / "missing.csv") == []
