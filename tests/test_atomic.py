"""Artifact writes are all-or-nothing: a write that fails part-way leaves
the previous file as it was and no temporary file behind."""
import numpy as np
import pytest

from localtriplet.atomic import atomic_open
from localtriplet.verify import write_scatter_csv


def test_failed_write_keeps_previous_file(tmp_path):
    target = tmp_path / "epochs.jsonl"
    target.write_text("previous\n")
    with pytest.raises(RuntimeError):
        with atomic_open(target, "w") as f:
            f.write("partial")
            raise RuntimeError("interrupted")
    assert target.read_text() == "previous\n"
    assert list(tmp_path.iterdir()) == [target]


def test_failed_csv_export_keeps_previous_file(tmp_path):
    target = tmp_path / "purity.csv"
    write_scatter_csv(target, np.zeros((2, 2)), [0, 1], status=["pure", "impure"])
    before = target.read_bytes()
    # the third label cannot be written as an int, after two rows went out
    labels = np.array([0, 1, "x"], dtype=object)
    with pytest.raises(ValueError):
        write_scatter_csv(target, np.ones((3, 2)), labels)
    assert target.read_bytes() == before
    assert list(tmp_path.iterdir()) == [target]


def test_csv_rows_end_in_one_line_terminator(tmp_path):
    target = tmp_path / "scatter.csv"
    write_scatter_csv(target, np.array([[0.5, -1.0]]), [3])
    assert target.read_bytes() == b"query_id,x,y,label,status\r\n0,0.5,-1.0,3,\r\n"
