import math

import numpy as np
import pytest

from regenjump.report import _CHUNK_ROWS, write_columns, write_csv


def _both(tmp_path, header, columns):
    """The bytes of write_columns and of write_csv over the same rows."""
    a, b = tmp_path / "columns.csv", tmp_path / "rows.csv"
    write_columns(a, header, columns)
    write_csv(b, header, [dict(zip(header, row)) for row in zip(*columns)])
    return a.read_bytes(), b.read_bytes()


FLOATS = [-0.0, 0.0, 5e-324, 1e300, -1e-300, 0.1, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize(
    "columns",
    [
        [np.array(FLOATS), FLOATS],
        [np.arange(-4, 5), list(range(-4, 5))],
        [np.array([True, False, True]), [False, True, False]],
        [np.arange(3, dtype=np.int32), np.array([0.1, 2.0, 3.0], dtype=np.float32)],
    ],
    ids=["floats", "ints", "bools", "narrow-dtypes"],
)
def test_write_columns_matches_write_csv(tmp_path, columns):
    header = [f"c{i}" for i in range(len(columns))]
    columns_bytes, rows_bytes = _both(tmp_path, header, columns)
    assert columns_bytes == rows_bytes


def test_write_columns_header_without_rows(tmp_path):
    columns_bytes, rows_bytes = _both(tmp_path, ["a", "b"], [np.array([]), []])
    assert columns_bytes == rows_bytes == b"a,b\n"


def test_write_columns_spans_chunks(tmp_path):
    n = 2 * _CHUNK_ROWS + 3
    rng = np.random.default_rng(5)
    columns = [np.arange(n), rng.standard_normal(n), np.arange(n) % 3 == 0]
    columns_bytes, rows_bytes = _both(tmp_path, ["n", "x", "flag"], columns)
    assert columns_bytes == rows_bytes
    assert columns_bytes.count(b"\n") == n + 1
