"""The bench-regression gate: what it fails on and what it skips.

Runs ``benchmarks/check_regression.py`` on small synthetic artefacts in
temporary directories, plus the committed baselines against themselves.
"""

import importlib.util
import json
import pathlib
import shutil

import pytest

CHECK_REGRESSION = (
    pathlib.Path(__file__).parent.parent / "benchmarks" / "check_regression.py"
)


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_regression", CHECK_REGRESSION)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def artefact(mode, configs):
    return {
        "bench": "demo",
        "mode": mode,
        "rows": [{"config": config, "pps": 1000.0} for config in configs],
    }


@pytest.fixture
def dirs(tmp_path):
    baselines, results = tmp_path / "baselines", tmp_path / "results"
    baselines.mkdir()
    results.mkdir()
    (baselines / "demo.json").write_text(json.dumps(artefact("smoke", ("a", "b"))))
    return baselines, results


def run(gate, baselines, results):
    return gate.main(["--baselines", str(baselines), "--results", str(results)])


def report(results):
    return (results / "regression.txt").read_text()


def test_vanished_row_fails_within_one_mode(gate, dirs):
    baselines, results = dirs
    (results / "demo.json").write_text(json.dumps(artefact("smoke", ("a",))))
    assert run(gate, baselines, results) == 1
    assert "VANISHED" in report(results) and "config=b" in report(results)


def test_vanished_row_is_skipped_across_modes(gate, dirs):
    baselines, results = dirs
    (results / "demo.json").write_text(json.dumps(artefact("full", ("a", "c"))))
    assert run(gate, baselines, results) == 0
    assert "baseline-only, skipped" in report(results)


def test_unbaselined_result_still_fails(gate, dirs):
    baselines, results = dirs
    (results / "demo.json").write_text(json.dumps(artefact("smoke", ("a", "b"))))
    (results / "fresh.json").write_text(json.dumps(artefact("smoke", ("a",))))
    assert run(gate, baselines, results) == 1
    assert "fresh.json: results present but no baseline" in report(results)


def test_committed_baselines_pass_against_themselves(gate, tmp_path):
    results = tmp_path / "results"
    shutil.copytree(gate.BASELINES_DIR, results)
    assert run(gate, gate.BASELINES_DIR, results) == 0
