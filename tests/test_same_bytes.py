"""The decision of tools/same_bytes.py on two output trees: identical trees
pass; a changed CSV byte and a one-ULP change in a saved array fail, named
in the output with the array's relative difference.  Neither git nor the
CLI runs here."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_bytes.py"
_spec = importlib.util.spec_from_file_location("same_bytes", _PATH)
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def _tree(root: Path, csv: str, arr: np.ndarray) -> Path:
    (root / "sweep").mkdir(parents=True)
    (root / "sweep" / "awgn.csv").write_text(csv)
    (root / "multiblock.txt").write_text("run_pipeline AWGN 0.0 12.0 0123abcd\n")
    (root / "arrays").mkdir()
    np.save(root / "arrays" / "run_pipeline_AWGN.npy", arr)
    np.save(root / "arrays" / "apply_cfo_1.npy", np.array([1.0 + 2.0j]))
    return root


@pytest.fixture()
def arr():
    return np.random.default_rng(3).normal(size=(64, 2)) @ [1.0, 1j]


def test_identical_trees_pass(tmp_path, arr, capfd):
    base = _tree(tmp_path / "base", "snr_db,fail_rate\n0,0.5\n", arr)
    head = _tree(tmp_path / "head", "snr_db,fail_rate\n0,0.5\n", arr)
    assert same_bytes.compare(base, head) == 0
    out = capfd.readouterr().out.splitlines()
    assert sorted(out) == [
        "arrays/apply_cfo_1.npy largest relative difference 0.0",
        "arrays/run_pipeline_AWGN.npy largest relative difference 0.0",
    ]


def test_a_csv_byte_and_an_ulp_fail(tmp_path, arr, capfd):
    moved = arr.copy()
    moved[17] = np.nextafter(arr[17].real, np.inf) + 1j * arr[17].imag
    base = _tree(tmp_path / "base", "snr_db,fail_rate\n0,0.5\n", arr)
    head = _tree(tmp_path / "head", "snr_db,fail_rate\n0,0.6\n", moved)
    assert same_bytes.compare(base, head) == 1
    out = capfd.readouterr().out
    rel = abs(moved[17] - arr[17]) / np.abs(arr).max()
    assert 0.0 < rel < 1e-15
    assert f"arrays/run_pipeline_AWGN.npy largest relative difference {rel}\n" in out
    assert "arrays/apply_cfo_1.npy largest relative difference 0.0\n" in out
    assert "diff -r base/sweep/awgn.csv head/sweep/awgn.csv\n2c2\n< 0,0.5\n---\n> 0,0.6\n" in out
    assert "files base/arrays/run_pipeline_AWGN.npy and head/arrays/run_pipeline_AWGN.npy differ" in out
