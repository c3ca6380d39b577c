"""Atomic output semantics: no partial files, lossless floats."""

import json
import os

import pytest

from mvcheb.errors import DomainError
from mvcheb.jsonio import atomic_files, dump_json


def test_dump_json_round_trips_floats():
    values = [0.1, 2.7, 270.0, 848.2300164692441, 1e-300, 4.5399929762484854e-05]
    back = json.loads(dump_json({"v": values}))
    assert back["v"] == values


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_dump_json_refuses_a_non_finite_value(value):
    with pytest.raises(DomainError, match="not JSON compliant"):
        dump_json({"v": value})


def write_all(outputs):
    """Write each text to its path through one ``atomic_files`` block."""
    with atomic_files(list(outputs)) as files:
        for fh, text in zip(files, outputs.values()):
            fh.write(text)


def test_atomic_files_one_file(tmp_path):
    path = tmp_path / "out.json"
    write_all({str(path): "hello\n"})
    assert path.read_text() == "hello\n"
    assert os.listdir(tmp_path) == ["out.json"]  # no temp litter


def test_atomic_files_one_file_failure_leaves_nothing(tmp_path):
    missing = tmp_path / "no_such_dir" / "out.json"
    with pytest.raises(OSError):
        write_all({str(missing): "x"})
    assert not (tmp_path / "no_such_dir").exists()


def test_atomic_files_all_or_nothing(tmp_path):
    good = tmp_path / "a.txt"
    bad = tmp_path / "no_such_dir" / "b.txt"
    with pytest.raises(OSError):
        write_all({str(good): "a", str(bad): "b"})
    assert os.listdir(tmp_path) == []  # first file staged but never renamed


def test_atomic_files_rename_failure_leaves_no_temp(tmp_path):
    # a directory sits at the second target, so its rename fails after the
    # first file is already in place; no temp file may be left behind
    (tmp_path / "b.txt").mkdir()
    outputs = {str(tmp_path / name): name for name in ("a.txt", "b.txt", "c.txt")}
    with pytest.raises(OSError):
        write_all(outputs)
    assert not [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]
    assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]


def test_atomic_files_error_in_the_block_leaves_no_file(tmp_path):
    paths = [str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]
    with pytest.raises(RuntimeError, match="stop"):
        with atomic_files(paths) as files:
            files[0].write("partial")
            raise RuntimeError("stop")
    assert os.listdir(tmp_path) == []
