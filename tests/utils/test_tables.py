"""Tests for ASCII table rendering."""

import pytest

from repro.utils.tables import format_table


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["name", "v"], [["aa", 1], ["b", 22]])
        lines = out.splitlines()
        assert lines[0] == "name | v"
        assert lines[1] == "-----+---"
        assert lines[2] == "aa   | 1"
        assert lines[3] == "b    | 22"

    def test_title(self):
        out = format_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_float_format(self):
        out = format_table(["x"], [[0.123456]], float_format=".2f")
        assert "0.12" in out
        assert "0.1234" not in out

    def test_bool_not_float_formatted(self):
        out = format_table(["x"], [[True]])
        assert "True" in out

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            format_table([], [])

    def test_no_rows(self):
        out = format_table(["a"], [])
        assert out.splitlines()[0] == "a"

