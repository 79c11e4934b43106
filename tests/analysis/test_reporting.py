"""Unit tests for ASCII tables and plots."""

from __future__ import annotations

import doctest
import json

import pytest

import repro.analysis.tables
from repro.analysis.plots import ascii_cdf, ascii_series
from repro.analysis.tables import Table


def test_table_renders_aligned_columns():
    t = Table(["name", "value"], title="demo")
    t.add_row(["alpha", 1.5])
    t.add_row(["beta-long-name", 0.00001234])
    out = t.render()
    lines = out.splitlines()
    assert lines[0] == "demo"
    assert "alpha" in out and "beta-long-name" in out
    assert "1.23e-05" in out  # tiny floats go scientific


def test_table_rejects_ragged_rows():
    t = Table(["a", "b"])
    with pytest.raises(ValueError):
        t.add_row([1])


def test_table_zero_formatting():
    t = Table(["x"])
    t.add_row([0.0])
    assert "0" in t.render().splitlines()[-1]


def test_table_doctests_pass():
    results = doctest.testmod(repro.analysis.tables)
    assert results.attempted > 0
    assert results.failed == 0


def test_table_keeps_raw_rows():
    t = Table(["name", "value"])
    t.add_row(["alpha", 1.5])
    assert t.rows == [["alpha", 1.5]]
    assert t.headers == ["name", "value"]


def test_table_rows_coerce_numpy_scalars():
    np = pytest.importorskip("numpy")
    t = Table(["x", "n", "ok"])
    t.add_row([np.float64(0.5), np.int64(3), np.bool_(True)])
    assert json.dumps(t.rows) == "[[0.5, 3, true]]"


def test_table_to_csv_matches_render_formatting():
    t = Table(["name", "value"])
    t.add_row(["with,comma", 0.00001234])
    lines = t.to_csv().splitlines()
    assert lines[0] == "name,value"
    assert lines[1] == '"with,comma",1.23e-05'


def test_ascii_cdf_shows_quantiles():
    out = ascii_cdf([1, 2, 3, 4, 5], title="delays")
    assert out.startswith("delays")
    assert "p 50" in out or "p50" in out.replace(" ", "")
    assert "#" in out


def test_ascii_cdf_rejects_empty():
    with pytest.raises(ValueError):
        ascii_cdf([])


def test_ascii_series_downsamples():
    out = ascii_series(range(100), [v % 7 for v in range(100)], max_rows=10)
    assert len(out.splitlines()) == 10


def test_ascii_series_validates_input():
    with pytest.raises(ValueError):
        ascii_series([1, 2], [1])
